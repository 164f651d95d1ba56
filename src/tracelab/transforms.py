"""Family transformations: down-shift compression, symmetrization, and
the link-equality partition with its auxiliary pattern family.

All operations are pure functions on immutable :class:`SetFamily`
values.  ``downset_compress`` (Frankl's compression) runs its shifts in
place on one set of masks and builds a single family at the end; each
shift follows the simultaneous rule of ``downshift``, so the fixpoint is
the one iterated ``downshift`` reaches.  One pass of shifts always lands
on a down-set, so a down-set input runs no shift and any other input one
pass.  The two workhorse guarantees,
proven by the accompanying test suite rather than assumed, are:

* ``downset_compress`` preserves family size, lands on a down-set, and
  never increases any trace;
* ``symmetrize`` preserves the no-big-trace property "no a-set carries
  a trace of size >= b" on down-sets whenever 3 * 2^(a-2) < b.
"""

from __future__ import annotations

from itertools import compress

from .setcore import (
    _FLAGS,
    FamilyError,
    PartitionStructure,
    SetFamily,
    _closed_down,
    _element_lanes,
    elements_of,
    is_downset,
)


def _shift(masks: set[int], bit: int) -> bool:
    """One down-shift at ``bit``, in place on a set of member masks.

    The members that move are listed from the set as it stands before the
    shift, so every member is tested against the same family (the
    simultaneous rule of :func:`downshift`).  True iff a member moved.
    """
    moved = [m for m in masks if m & bit and m ^ bit not in masks]
    masks.difference_update(moved)
    masks.update(m ^ bit for m in moved)
    return bool(moved)


def downshift(fam: SetFamily, i: int) -> SetFamily:
    """Compress at element i: each member F containing i is replaced by
    F - {i} unless F - {i} already belongs to the family.  All members are
    tested against ``fam`` as given, so the shift is simultaneous.

    Preserves family size exactly; never increases |trace(., Y)| for any Y.
    Cost: one pass over the members and one new family.
    """
    if not 1 <= i <= fam.n:
        raise FamilyError(f"element {i} outside ground set [1..{fam.n}]")
    masks = set(fam.members)
    _shift(masks, 1 << (i - 1))
    return SetFamily.from_masks(fam.n, masks)


def downset_compress(fam: SetFamily) -> SetFamily:
    """Down-shift at i = 1..n, in that order, unless the family is
    already a down-set: Frankl's compression.

    The same effective shifts as iterating :func:`downshift` until a pass
    changes nothing, and the same fixpoint member for member, but every
    shift works in place on one set of masks and a single family is built
    at the end.  One pass is enough: after the shift at i every member
    holding i has its i-deletion in the family, and every later shift
    keeps that so.  (If the shift at j moves A to A - j, then A - i, which
    is there, moves to A - i - j unless that is there already; a member
    that stays keeps its i-deletion, which is there and stays as well.)
    So the family after one pass is the fixpoint, a down-set of the same
    size, and the pass that would change nothing is never run.  Cost: one
    down-set scan (a set lookup per member element; on a family that is
    not a down-set it usually stops early), then n sweeps over the members
    with one set lookup each; a down-set input costs the scan alone.
    """
    masks = set(fam.members)
    if not _closed_down(masks):
        for b in range(fam.n):
            _shift(masks, 1 << b)
    return SetFamily.from_masks(fam.n, masks)


def _pair_bits(fam: SetFamily, x: int, y: int) -> tuple[int, int]:
    """The bits of two distinct elements of [n]."""
    if x == y:
        raise FamilyError("symmetrize needs two distinct elements")
    if not (1 <= x <= fam.n and 1 <= y <= fam.n):
        raise FamilyError(f"elements {x},{y} outside ground set [1..{fam.n}]")
    return 1 << (x - 1), 1 << (y - 1)


def symmetrize(fam: SetFamily, x: int, y: int) -> SetFamily:
    """Replace the y-side of a down-set by a copy of the x-side:
    drop every member containing y, then add {y} | G for each G in the
    link of x among y-avoiders.

    The result is again a down-set of size |fam(no y)| + |fam(x, no y)|.
    """
    bx, by = _pair_bits(fam, x, y)
    if not is_downset(fam):
        raise FamilyError("symmetrize requires a down-set")
    kept = [m for m in fam.members if not m & by]
    grafted = [(m ^ bx) | by for m in fam.members if m & bx and not m & by]
    return SetFamily.from_masks(fam.n, kept + grafted)


def symmetrize_if_profitable(fam: SetFamily, x: int, y: int) -> SetFamily:
    """Symmetrize with roles oriented so the family never shrinks.

    Precondition: ``fam`` is a down-set and no member contains both x
    and y.  Afterwards link(result, x) == link(result, y) and
    |result| >= |fam|.  As no member holds both, symmetrize(fam, x, y)
    has |fam| - deg(y) + deg(x) members, so the orientation is read off
    the degrees, x over y on a tie.
    """
    bx, by = _pair_bits(fam, x, y)
    deg_x = deg_y = 0
    for m in fam.members:
        if m & bx:
            if m & by:
                raise FamilyError(
                    f"member {set(elements_of(m))} contains both {x} and {y}; "
                    "symmetrization would not preserve traces"
                )
            deg_x += 1
        elif m & by:
            deg_y += 1
    if deg_x >= deg_y:
        return symmetrize(fam, x, y)
    return symmetrize(fam, y, x)


def partition_classes(fam: SetFamily) -> PartitionStructure:
    """Partition [n] into classes of the equivalence link(x) == link(y),
    with the family of class-incidence patterns on ground set [r].

    Classes are ordered by size descending, then by smallest element.
    Each element's link {F - x : x in F in fam} is read off the members
    as a tuple of masks, the key of its class, and the element's bit is
    ORed into that class's mask.  The members holding x are picked in C
    by ``itertools.compress`` over x's byte lane (one 0/1 byte per
    member, cut from the members' words as in the trace scan), so the
    Python work per element is one XOR per member of its link.  The
    lanes are made one element at a time.  A member's pattern is the
    pattern of the member without its lowest element (an earlier member,
    as ``fam`` is a down-set) ORed with that element's class bit, one
    table lookup each.
    """
    if not is_downset(fam):
        raise FamilyError("partition_classes requires a down-set")
    # a link comes out in canonical order, so equal links are equal tuples
    class_mask: dict[tuple[int, ...], int] = {}
    for b, lane in enumerate(_element_lanes(fam.members, fam.n, _FLAGS)):
        bit = 1 << b
        key = tuple([m ^ bit for m in compress(fam.members, lane)])
        class_mask[key] = class_mask.get(key, 0) | bit
    masks = sorted(class_mask.values(), key=lambda z: (-z.bit_count(), z & -z))
    class_bit = [0] * fam.n
    for ci, z in enumerate(masks):
        for e in elements_of(z):
            class_bit[e - 1] = 1 << ci
    # the empty set heads a nonempty down-set, and m ^ low precedes m
    pat = dict.fromkeys(fam.members[:1], 0)
    for m in fam.members[1:]:
        low = m & -m
        pat[m] = pat[m ^ low] | class_bit[low.bit_length() - 1]
    return PartitionStructure(tuple(masks), SetFamily.from_masks(max(len(masks), 1), pat.values()))


def aux_triples_linear(ps: PartitionStructure) -> bool:
    """True iff every two distinct 3-sets in the pattern family meet in
    at most one class."""
    triples = [m for m in ps.aux.members if m.bit_count() == 3]
    for i, a in enumerate(triples):
        for b in triples[i + 1 :]:
            if (a & b).bit_count() > 1:
                return False
    return True
