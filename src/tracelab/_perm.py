"""Relabeling utilities: the permutation action on masks and setwise
stabilizers, used by the search engine's orbital branching.

``mask_stabilizer`` lists its group element by element, so callers gate
it to small ground sets.
"""

from __future__ import annotations

from itertools import permutations


def apply_perm(perm: tuple[int, ...], mask: int) -> int:
    """Image of a bitmask under an element permutation (0-indexed)."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def mask_stabilizer(mask: int, n: int) -> list[tuple[int, ...]]:
    """All permutations of range(n) mapping ``mask`` onto itself (setwise)."""
    inside = [b for b in range(n) if mask >> b & 1]
    outside = [b for b in range(n) if not mask >> b & 1]
    out = []
    for pi in permutations(inside):
        for po in permutations(outside):
            perm = [0] * n
            for src, dst in zip(inside, pi):
                perm[src] = dst
            for src, dst in zip(outside, po):
                perm[src] = dst
            out.append(tuple(perm))
    return out
