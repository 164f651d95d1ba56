"""Relabeling utilities: the permutation action on masks and setwise
stabilizers, used by the search engine's orbital branching.

``mask_stabilizer`` lists its group element by element, so it lists
only groups of at most ``_STABILIZER_CAP`` permutations.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial
from operator import itemgetter

_STABILIZER_CAP = 50_000  # the largest stabilizer mask_stabilizer lists


def apply_perm(perm: tuple[int, ...], mask: int) -> int:
    """Image of a bitmask under an element permutation (0-indexed)."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def mask_stabilizer(mask: int, n: int) -> list[tuple[int, ...]] | None:
    """All permutations of range(n) mapping ``mask`` onto itself
    (setwise); None when there are more than ``_STABILIZER_CAP``."""
    if n <= 1:
        return [tuple(range(n))]
    inside = [b for b in range(n) if mask >> b & 1]
    outside = [b for b in range(n) if not mask >> b & 1]
    if factorial(len(inside)) * factorial(len(outside)) > _STABILIZER_CAP:
        return None
    # pos[src]: src's position in inside + outside, so that the image of
    # src under the pair (pi, po) is (pi + po)[pos[src]]
    pos = [0] * n
    for k, src in enumerate(inside + outside):
        pos[src] = k
    image = itemgetter(*pos)
    outs = list(permutations(outside))
    return [image(pi + po) for pi in permutations(inside) for po in outs]
