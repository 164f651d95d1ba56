"""Relabeling utilities: the permutation action on masks and setwise
stabilizers, used by the search engine's orbital branching.

``mask_stabilizer`` yields its group element by element, on every pass
over it, and holds none of them; it gives only groups of at most
``_STABILIZER_CAP`` permutations.
"""

from __future__ import annotations

from itertools import chain, permutations, repeat
from math import factorial
from operator import add, itemgetter
from typing import Iterator

_STABILIZER_CAP = 50_000  # the largest stabilizer mask_stabilizer gives


def apply_perm(perm: tuple[int, ...], mask: int) -> int:
    """Image of a bitmask under an element permutation (0-indexed)."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


class _Stabilizer:
    """The permutations of range(n) mapping a mask onto itself: each
    pass yields them afresh, in the same order, and ``len()`` counts them
    without listing."""

    __slots__ = ("_image", "_inside", "_outside")

    def __init__(self, mask: int, n: int):
        self._inside = [b for b in range(n) if mask >> b & 1]
        self._outside = [b for b in range(n) if not mask >> b & 1]
        # pos[src]: src's position in inside + outside, so that the image
        # of src under the pair (pi, po) is (pi + po)[pos[src]]
        pos = [0] * n
        for k, src in enumerate(self._inside + self._outside):
            pos[src] = k
        # on n <= 1 points pi + po is already the one permutation, and
        # itemgetter of one position would return an int
        self._image = itemgetter(*pos) if n > 1 else tuple

    def __len__(self) -> int:
        return factorial(len(self._inside)) * factorial(len(self._outside))

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        # image(pi + po) for each pi, then each po, in C-level iterators
        image, outside = self._image, self._outside
        return chain.from_iterable(
            map(image, map(add, repeat(pi), permutations(outside)))
            for pi in permutations(self._inside)
        )


def mask_stabilizer(mask: int, n: int) -> _Stabilizer | None:
    """All permutations of range(n) mapping ``mask`` onto itself
    (setwise), as an iterable with ``len()``; None when there are more
    than ``_STABILIZER_CAP``."""
    group = _Stabilizer(mask, n)
    return group if len(group) <= _STABILIZER_CAP else None
