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
        perms = list(mask_stabilizer(mask, n))
        inside = mask.bit_count()
        assert len(set(perms)) == len(perms) == factorial(inside) * factorial(n - inside)
        assert all(isinstance(p, tuple) and len(p) == n for p in perms)
        fixing = {p for p in every if {p[b] for b in range(n) if mask >> b & 1} == {
            b for b in range(n) if mask >> b & 1}}
        assert set(perms) == fixing, (n, mask)


@pytest.mark.parametrize("n", range(7))
def test_mask_stabilizer_len_and_passes(n):
    # len() is |inside|! * |outside|! without listing, and every pass
    # yields the same sequence
    for mask in range(1 << n):
        group = mask_stabilizer(mask, n)
        inside = mask.bit_count()
        assert len(group) == factorial(inside) * factorial(n - inside)
        first = list(group)
        assert list(group) == first and len(first) == len(group), (n, mask)


def test_mask_stabilizer_len_does_not_list():
    # the largest group under the cap on 10 points, a triple's stabilizer
    # (30,240 permutations): len() reads the size, and no pass has begun
    group = mask_stabilizer(0b111, 10)
    assert len(group) == factorial(3) * factorial(7) <= _STABILIZER_CAP
    assert not isinstance(group, (list, tuple))
    passes = iter(group), iter(group)
    assert next(passes[0]) == next(passes[1]) == tuple(range(10))


@pytest.mark.parametrize("inside, listed", [(1, False), (2, False), (3, True), (8, False)])
def test_mask_stabilizer_lists_only_up_to_its_cap(inside, listed):
    # on 10 points the stabilizer of a mask has |inside|! * |outside|!
    # permutations: None exactly when that passes the cap, else all of
    # them; sizes 1, 2 and 8 pass it, size 3 stays below
    n = 10
    mask = (1 << inside) - 1
    size = factorial(inside) * factorial(n - inside)
    assert (size <= _STABILIZER_CAP) == listed
    group = mask_stabilizer(mask, n)
    if listed:
        perms = list(group)
        assert len(set(perms)) == len(perms) == len(group) == size
        assert all(apply_perm(p, mask) == mask for p in perms)
    else:
        assert group is None


@pytest.mark.parametrize("n", range(6))
def test_apply_perm_matches_elementwise_image(n):
    for perm in permutations(range(n)):
        for mask in range(1 << n):
            image = sum(1 << perm[b] for b in range(n) if mask >> b & 1)
            assert apply_perm(perm, mask) == image, (perm, mask)
