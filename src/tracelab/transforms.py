"""Family transformations: down-shift compression, symmetrization, and
the link-equality partition with its auxiliary pattern family.

All operations are pure functions on immutable :class:`SetFamily`
values.  ``downset_compress`` (Frankl's compression) runs its shifts in
place on one set of masks and builds a single family at the end; each
shift follows the simultaneous rule of ``downshift``, so the fixpoint is
the one iterated ``downshift`` reaches.  The two workhorse guarantees,
proven by the accompanying test suite rather than assumed, are:

* ``downset_compress`` preserves family size, lands on a down-set, and
  never increases any trace;
* ``symmetrize`` preserves the no-big-trace property "no a-set carries
  a trace of size >= b" on down-sets whenever 3 * 2^(a-2) < b.
"""

from __future__ import annotations

from .setcore import (
    FamilyError,
    PartitionStructure,
    SetFamily,
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
    """Down-shift at i = 1..n, in that order, until a full pass changes
    nothing: Frankl's compression.

    The same sequence of shifts as iterating :func:`downshift`, and the same
    fixpoint member for member, but every shift works in place on one set
    of masks and a single family is built at the end.  Cost per pass: n
    sweeps over the members with one set lookup each.  Terminates because
    the total member size strictly drops on every effective shift; the
    fixpoint is a down-set of the same size.
    """
    masks = set(fam.members)
    while True:
        changed = False
        for b in range(fam.n):
            if _shift(masks, 1 << b):
                changed = True
        if not changed:
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
    both = bx | by
    for m in fam.members:
        if m & both == both:
            raise FamilyError(
                f"member {set(elements_of(m))} contains both {x} and {y}; "
                "symmetrization would not preserve traces"
            )
    deg_x = sum(1 for m in fam.members if m & bx)
    deg_y = sum(1 for m in fam.members if m & by)
    if deg_x >= deg_y:
        return symmetrize(fam, x, y)
    return symmetrize(fam, y, x)


def partition_classes(fam: SetFamily) -> PartitionStructure:
    """Partition [n] into classes of the equivalence link(x) == link(y),
    with the family of class-incidence patterns on ground set [r].

    Classes are ordered by size descending, then by smallest element.
    Each element's link {F - x : x in F in fam} is read off the members
    as a set of masks, the key of its class, and the element's bit is
    ORed into that class's mask.
    """
    if not is_downset(fam):
        raise FamilyError("partition_classes requires a down-set")
    class_mask: dict[frozenset[int], int] = {}
    for b in range(fam.n):
        bit = 1 << b
        key = frozenset(m ^ bit for m in fam.members if m & bit)
        class_mask[key] = class_mask.get(key, 0) | bit
    masks = sorted(class_mask.values(), key=lambda z: (-z.bit_count(), z & -z))
    r = len(masks)
    patterns = set()
    for m in fam.members:
        pat = 0
        for ci, z in enumerate(masks):
            if m & z:
                pat |= 1 << ci
        patterns.add(pat)
    return PartitionStructure(tuple(masks), SetFamily.from_masks(max(r, 1), patterns))


def aux_triples_linear(ps: PartitionStructure) -> bool:
    """True iff every two distinct 3-sets in the pattern family meet in
    at most one class."""
    triples = [m for m in ps.aux.members if m.bit_count() == 3]
    for i, a in enumerate(triples):
        for b in triples[i + 1 :]:
            if (a & b).bit_count() > 1:
                return False
    return True
