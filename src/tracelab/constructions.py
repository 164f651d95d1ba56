"""Closed-form extremal constructions and formula evaluators.

Contents: the partite down-set families built from a partition of [n]
into l blocks (each member meets every block at most once), Turán
graphs and their edge counts, the constructions that seed the searches,
the exceptional 6-vertex pair/triple family, the closed-form table of
hook-extremal values, arrow-threshold formulas, and the pairwise-product
sum inequality check.

The balanced split of [n] into l parts of sizes floor((n+i)/l), i < l
(the paper's X_1, X_2, X_3 for l = 3) is computed in one place,
``_balanced_sizes``, and every closed form built on it reads it there:
the partite blocks and family sizes (the table's row 8 among their
readers), the Turán parts, the partite thresholds, and the part
products of the (4, 13) and (5, 25) thresholds.

Everything is exact integer arithmetic except
:func:`pairwise_sum_bound_check`, which is the one float consumer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product
from math import comb, prod
from typing import NamedTuple

from .setcore import (
    FamilyError,
    SetFamily,
    arrows,
    elements_of,
    family_from_json_obj,
    is_downset,
    kset_masks,
    max_trace_over_ksets,
    parse_json,
    shadow,
)

# partite families are only materialized explicitly below this size
_MATERIALIZE_CAP = 1_000_000


# ---------------------------------------------------------------------------
# partite families


def _balanced_sizes(n: int, l: int) -> list[int]:
    """Part sizes floor((n+i)/l), i < l, listed largest first; unguarded,
    so some parts are 0 when n < l."""
    return sorted(((n + i) // l for i in range(l)), reverse=True)


def partite_sizes(n: int, l: int) -> list[int]:
    """Block sizes floor((n+i)/l), i < l, listed largest first: the
    balanced split, which is also the Turán graph's."""
    if not 1 <= l <= n:
        raise FamilyError(f"cannot split n={n} into {l} nonempty parts")
    return _balanced_sizes(n, l)


def _blocks_from_sizes(n: int, sizes: list[int]) -> list[int]:
    """Consecutive element blocks (as masks) with the given sizes."""
    if any(s <= 0 for s in sizes):
        raise FamilyError(f"block sizes must be positive, got {sizes}")
    if sum(sizes) != n:
        raise FamilyError(f"block sizes {sizes} do not sum to n={n}")
    blocks = []
    start = 0
    for s in sizes:
        blocks.append(((1 << s) - 1) << start)
        start += s
    return blocks


def partite_family_size(n: int, l: int) -> int:
    """prod(1 + floor((n+i)/l)): size of the l-partite family without
    materializing it (valid for any n)."""
    return prod(1 + s for s in partite_sizes(n, l))


def partite_family(n: int, l: int, sizes: list[int] | None = None) -> SetFamily:
    """The down-set of all sets meeting each block at most once.

    Blocks are consecutive runs of elements; the default block sizes are
    floor((n+i)/l) listed largest first.  Explicit ``sizes`` must sum to n.
    """
    if sizes is None:
        sizes = partite_sizes(n, l)
    else:
        sizes = list(sizes)
        if len(sizes) != l:
            raise FamilyError(f"expected {l} block sizes, got {len(sizes)}")
    if n > 64:
        raise FamilyError("explicit families need n <= 64")
    blocks = _blocks_from_sizes(n, sizes)
    total = prod(1 + s for s in sizes)
    if total > _MATERIALIZE_CAP:
        raise FamilyError(f"family of size {total} too large to materialize")
    choices = [[0] + [1 << b for b in range(64) if blk >> b & 1] for blk in blocks]
    masks = []
    for combo in product(*choices):
        m = 0
        for c in combo:
            m |= c
        masks.append(m)
    return SetFamily.from_masks(n, masks)


# ---------------------------------------------------------------------------
# Turán graphs


def turan_graph(r: int, n: int) -> SetFamily:
    """Edge family of the balanced complete r-partite graph on [n]."""
    if n > 64:
        raise FamilyError("explicit graphs need n <= 64")
    blocks = _blocks_from_sizes(n, partite_sizes(n, r))
    masks = []
    for bi, bjs in enumerate(blocks):
        for bj in blocks[bi + 1 :]:
            for u in elements_of(bjs):
                for v in elements_of(bj):
                    masks.append((1 << (u - 1)) | (1 << (v - 1)))
    return SetFamily.from_masks(n, masks)


def t_count(r: int, n: int) -> int:
    """Edge count of the balanced complete r-partite graph on [n]."""
    return comb(n, 2) - sum(comb(s, 2) for s in partite_sizes(n, r))


# ---------------------------------------------------------------------------
# search seeds
#
# One per public search, named after it and called with a search level's
# builder arguments: the masks of a known construction on that level's
# points, or None where none is known.  Each search level starts from it
# as its first incumbent.  The search re-checks every seed with its own
# predicate and refuses one that fails, so a seed only has to be
# feasible; the optimality of a result still rests on the search alone.


def _partite_levels(n: int, l: int, cards) -> tuple[int, ...]:
    """The members of ``partite_family(n, l)`` with sizes in ``cards``."""
    return tuple(m for m in partite_family(n, l).members if m.bit_count() in cards)


def max_family_seed(n: int, a: int, b: int) -> tuple[int, ...] | None:
    """``partite_family(n, a-1)`` (the paper's family at (4, 13)) when
    b > 3 * 2^(a-2): an a-window meets some block twice, so its trace
    is the sets meeting each block at most once, at most 3 * 2^(a-2)."""
    if a >= 2 and b > 3 << (a - 2):
        return partite_family(n, a - 1).members
    return None


def max_tilde_seed(n: int, c: int) -> tuple[int, ...] | None:
    """Turán graphs, whose 4-sets span at most 4, 5 and 6 edges, for
    c = 5, 6, 7; for c = 8, T(3, n) and its transversal triples, at
    most 5 + 2 on a 4-set."""
    if c in (5, 6, 7):
        return turan_graph((2, 3, n)[c - 5], n).members
    if c == 8:
        return _partite_levels(n, 3, (2, 3))
    return None


def max_cancellative_seed(n: int, l: int) -> tuple[int, ...]:
    """The transversal l-sets of the balanced l-partite split (T(2, n)
    for l = 2): two edges meeting in l-1 points differ in one block,
    where no edge holds two points."""
    return _partite_levels(n, l, (l,))


def antichain_seed(n: int, k: int) -> tuple[int, ...]:
    """The layer of the min(k, n//2)-sets: an antichain whose traces have
    at most k elements, so no (k+1)-set is shattered; for k >= n/2 it is
    Sperner's middle layer."""
    return tuple(kset_masks(n, min(k, n // 2)))


def ex3_k4_seed(n: int) -> tuple[int, ...]:
    """Turán's K4-free triple system on the balanced 3-split: the
    transversal triples and those with two points in block i and one in
    block i+1 (mod 3), for the order of the block sizes that gives the
    most triples (the first such order in sorted order)."""
    best: tuple[int, ...] = ()
    for sizes in sorted(set(permutations(_balanced_sizes(n, 3)))):
        blocks = _blocks_from_sizes(n, list(sizes))
        masks = []
        for t in kset_masks(n, 3):
            meet = [(t & blk).bit_count() for blk in blocks]
            if meet == [1, 1, 1] or any(meet[i] == 2 and meet[(i + 1) % 3] == 1 for i in range(3)):
                masks.append(t)
        if len(masks) > len(best):
            best = tuple(masks)
    return best


# ---------------------------------------------------------------------------
# pair/triple families


@dataclass(frozen=True)
class TildeFamily:
    """A graph plus a 3-graph on [n]; ``complete`` means every 2-subset
    of a triple is an edge of the graph."""

    n: int
    g2: SetFamily
    g3: SetFamily

    def __post_init__(self) -> None:
        if self.g2.n != self.n or self.g3.n != self.n:
            raise FamilyError("component families live on a different ground set")
        if any(m.bit_count() != 2 for m in self.g2.members):
            raise FamilyError("pair level contains a non-pair")
        if any(m.bit_count() != 3 for m in self.g3.members):
            raise FamilyError("triple level contains a non-triple")

    def __len__(self) -> int:
        return len(self.g2) + len(self.g3)

    @cached_property
    def missing_shadow(self) -> tuple[int, ...]:
        """Pairs required by the triples but absent from the graph."""
        if not self.g3.members:
            return ()
        return tuple(m for m in shadow(self.g3).members if m not in self.g2)

    @property
    def complete(self) -> bool:
        return not self.missing_shadow

    def require_complete(self) -> None:
        if self.missing_shadow:
            missing = [set(elements_of(m)) for m in self.missing_shadow]
            raise FamilyError(f"family not complete; missing shadow pairs {missing}")


def special6() -> TildeFamily:
    """The exceptional 6-vertex family: four pairwise nearly-disjoint
    triples whose shadow is the complete 3-partite graph on parts
    {1,2}, {3,4}, {5,6}.  16 members; every 4-set carries at most 6."""
    g3 = SetFamily.from_sets(6, [(1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)])
    return TildeFamily(6, shadow(g3), g3)


class HookMax(NamedTuple):
    max: int
    witness: int  # bitmask of a maximizing 4-set, smallest mask among ties


def hook_count_max(tf: TildeFamily) -> HookMax:
    """Maximum over 4-sets C of (#pairs inside C) + (#triples inside C),
    with the smallest maximizing mask as witness.

    The full family is a down-set, so its trace on C is its members
    inside C: the empty set, C's four singletons and the pairs and
    triples inside C.  A hook count is that 4-window trace less 5; the
    paper's family carries at most 12 = 5 + 7 on a 4-set.
    """
    t = max_trace_over_ksets(tilde_to_full(tf), 4)
    return HookMax(t.max - 5, t.witness)


def hookarrow(tf: TildeFamily, c: int) -> bool:
    """True iff some 4-set carries at least c members of the two levels:
    a 4-window trace of at least c + 5 in the full family."""
    if c < 1:
        raise FamilyError(f"hook target c={c} must be >= 1")
    return arrows(tilde_to_full(tf), 4, c + 5)


def tilde_to_full(tf: TildeFamily) -> SetFamily:
    """Adjoin the empty set and all singletons; grows the family by n+1."""
    tf.require_complete()
    masks = [0] + [1 << b for b in range(tf.n)]
    masks += list(tf.g2.members) + list(tf.g3.members)
    return SetFamily.from_masks(tf.n, masks)


def full_to_tilde(fam: SetFamily) -> TildeFamily:
    """Strip the empty set and singletons from a down-set whose members
    have size at most 3 and which contains all of them."""
    oversize = [set(elements_of(m)) for m in fam.members if m.bit_count() > 3]
    if oversize:
        raise FamilyError(f"members too large for a pair/triple family: {oversize}")
    if not is_downset(fam):
        raise FamilyError("expected a down-set")
    need = {0} | {1 << b for b in range(fam.n)}
    missing = need - set(fam.members)
    if missing:
        raise FamilyError("family must contain the empty set and every singleton")
    g2 = SetFamily(fam.n, tuple(m for m in fam.members if m.bit_count() == 2))
    g3 = SetFamily(fam.n, tuple(m for m in fam.members if m.bit_count() == 3))
    return TildeFamily(fam.n, g2, g3)


def tilde_to_json_obj(tf: TildeFamily) -> dict:
    return {
        "n": tf.n,
        "g2": [list(elements_of(m)) for m in tf.g2.members],
        "g3": [list(elements_of(m)) for m in tf.g3.members],
    }


def tilde_from_json_obj(obj: dict) -> TildeFamily:
    g2 = family_from_json_obj(obj, "g2")
    return TildeFamily(g2.n, g2, family_from_json_obj(obj, "g3"))


def tilde_to_json(tf: TildeFamily) -> str:
    return json.dumps(tilde_to_json_obj(tf), separators=(",", ":"))


def tilde_from_json(text: str) -> TildeFamily:
    return tilde_from_json_obj(parse_json(text, "pair/triple family JSON"))


# ---------------------------------------------------------------------------
# formula table and arrow thresholds


def mtilde_formula(c: int, n: int):
    """Closed-form least size forcing some 4-set to carry >= c members,
    for complete pair/triple families on [n], n >= 5.

    Row c=4 has no closed form (its order is n^(3/2)) and raises
    FamilyError.  Row c=8 is one more than the pair/triple part of the
    3-partite family, |G| - n with |G| = ``partite_family_size(n, 3)``:
    it carries at most 7 pairs and triples on any 4-set, so the least
    forcing size is at least that.  The value is certified where
    ``max_tilde`` proves it (n = 5..9) and for n >= 25 by the paper's
    theorem; in between it is only G's size.
    """
    if n < 5:
        raise FamilyError(f"formula table starts at n=5, got n={n}")
    if c == 1:
        return 1
    if c == 2:
        return 2
    if c == 3:
        return 2 * n // 3 + 1
    if c == 5:
        return n * n // 4 + 1
    if c == 6:
        return t_count(3, n) + 1
    if c == 7:
        return 17 if n == 6 else comb(n, 2) + 1
    if c == 8:
        return partite_family_size(n, 3) - n
    raise FamilyError(f"no formula row for c={c}")


THRESHOLD_KINDS = (
    "sauer_shelah",      # 1 + sum_{i<k} C(n,i), forces a k-window trace of 2^k
    "three_seven",       # floor(n^2/4) + n + 2, forces a 3-window trace of 7
    # partite_family_size(n, l): a size avoiding (l+1, 3*2^(l-1)+1) (the
    # search seeds rely on that alone); not the largest for l = 4, where
    # M(6,5,25) = 39 > 36 and M(7,5,25) = 57 > 54
    "partite_nonarrow",
    "partite_arrow",     # one more than the above (conjectured forcing size)
    "four_thirteen",     # triple-level bound + lower levels, forces (4,13)
    "five_twentyfive",   # quadruple-level analogue, forces (5,25)
)


def threshold(kind: str, n: int, l: int | None = None, k: int | None = None) -> int:
    """Arrow-threshold formulas; ``kind`` is one of THRESHOLD_KINDS."""
    if kind == "sauer_shelah":
        if k is None or not 0 <= k <= n:
            raise FamilyError("sauer_shelah needs 0 <= k <= n")
        return 1 + sum(comb(n, i) for i in range(k))
    if kind == "three_seven":
        return n * n // 4 + n + 2
    if kind in ("partite_nonarrow", "partite_arrow"):
        if l is None or not 1 <= l <= n:
            raise FamilyError(f"{kind} needs 1 <= l <= n")
        size = partite_family_size(n, l)
        return size if kind == "partite_nonarrow" else size + 1
    if kind == "four_thirteen":
        return prod(_balanced_sizes(n, 3)) + comb(n, 2) + n + 2
    if kind == "five_twentyfive":
        return prod(_balanced_sizes(n, 4)) + comb(n, 3) + comb(n, 2) + n + 2
    raise FamilyError(f"unknown threshold kind {kind!r}")


# ---------------------------------------------------------------------------
# numeric inequality


class BoundCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def pairwise_sum_bound_check(a, rel_tol: float = 1e-9) -> BoundCheck:
    """Check sum_{i<j} a_i a_j <= ((m-1)/2m) (sum a_i)^2 for a_i >= 0.

    Equality holds exactly at uniform vectors; ``holds`` allows a
    relative slack of ``rel_tol`` on the right-hand side.
    """
    a = list(a)
    if not a:
        raise FamilyError("need at least one value")
    if any(x < 0 for x in a):
        raise FamilyError("values must be non-negative")
    m = len(a)
    s = float(sum(a))
    sq = float(sum(x * x for x in a))
    lhs = (s * s - sq) / 2.0
    rhs = (m - 1) * s * s / (2 * m)
    return BoundCheck(lhs, rhs, lhs <= rhs + rel_tol * rhs)
