"""Relabeling utilities: permutation action on masks, stabilizers,
canonical forms of families under the symmetric group.

Used by the search engine for symmetry pruning and by witnesses for a
deterministic, relabeling-stable normal form.  Everything here is exact
brute force over permutations and therefore gated to small ground sets.
"""

from __future__ import annotations

from itertools import permutations

CANON_CAP = 8  # canonical forms computed only up to this ground-set size


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


def _family_key(masks: list[int]) -> list[tuple[int, int]]:
    return sorted((m.bit_count(), m) for m in masks)


def canonical_masks(masks: tuple[int, ...] | list[int], n: int) -> tuple[int, ...]:
    """Lexicographically smallest relabeled image of a family, comparing
    sorted (cardinality, mask) sequences.  Identity above CANON_CAP."""
    masks = list(masks)
    if n > CANON_CAP or not masks:
        return tuple(sorted(masks, key=lambda m: (m.bit_count(), m)))
    best = _family_key(masks)
    for perm in permutations(range(n)):
        img = _family_key([apply_perm(perm, m) for m in masks])
        if img < best:
            best = img
    return tuple(m for _, m in best)

