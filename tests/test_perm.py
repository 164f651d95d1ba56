from itertools import permutations
from math import factorial

import pytest

from tracelab._perm import _STABILIZER_CAP, apply_perm, mask_stabilizer


@pytest.mark.parametrize("n", range(7))
def test_mask_stabilizer_matches_bruteforce(n):
    # every mask on n <= 6 points: no repeats, |inside|! * |outside|!
    # permutations, and as a set exactly the permutations of range(n)
    # that map the mask onto itself
    every = list(permutations(range(n)))
    for mask in range(1 << n):
        perms = mask_stabilizer(mask, n)
        inside = mask.bit_count()
        assert len(set(perms)) == len(perms) == factorial(inside) * factorial(n - inside)
        assert all(isinstance(p, tuple) and len(p) == n for p in perms)
        fixing = {p for p in every if {p[b] for b in range(n) if mask >> b & 1} == {
            b for b in range(n) if mask >> b & 1}}
        assert set(perms) == fixing, (n, mask)


@pytest.mark.parametrize("inside, listed", [(1, False), (2, False), (3, True), (8, False)])
def test_mask_stabilizer_lists_only_up_to_its_cap(inside, listed):
    # on 10 points the stabilizer of a mask has |inside|! * |outside|!
    # permutations: None exactly when that passes the cap, else all of
    # them; sizes 1, 2 and 8 pass it, size 3 stays below
    n = 10
    mask = (1 << inside) - 1
    size = factorial(inside) * factorial(n - inside)
    assert (size <= _STABILIZER_CAP) == listed
    perms = mask_stabilizer(mask, n)
    if listed:
        assert len(set(perms)) == len(perms) == size
        assert all(apply_perm(p, mask) == mask for p in perms)
    else:
        assert perms is None


@pytest.mark.parametrize("n", range(6))
def test_apply_perm_matches_elementwise_image(n):
    for perm in permutations(range(n)):
        for mask in range(1 << n):
            image = sum(1 << perm[b] for b in range(n) if mask >> b & 1)
            assert apply_perm(perm, mask) == image, (perm, mask)
