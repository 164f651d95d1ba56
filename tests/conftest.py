"""Shared generators for randomized tests.

Everything random is seeded explicitly at the call site so failures
replay; generators return plain SetFamily values.
"""

from __future__ import annotations

import random

from tracelab import SetFamily, arrows, down_closure, is_downset


def random_family(rng: random.Random, n: int, max_size: int = 40) -> SetFamily:
    size = rng.randint(0, min(max_size, 1 << n))
    masks = {rng.randrange(1 << n) for _ in range(size)}
    return SetFamily.from_masks(n, masks)


def kernel_parity_families(seed: int, per_n: int = 30, max_n: int = 8):
    """(n, family) pairs for kernel parity tests: for each n = 1..max_n the
    empty family, the one-member families {{}}, {[n]} and one random
    one-member family, then ``per_n`` random families that are not
    down-sets, of up to 60 members each."""
    rng = random.Random(seed)
    out = []
    for n in range(1, max_n + 1):
        out.append((n, SetFamily.empty(n)))
        for m in (0, (1 << n) - 1, rng.randrange(1 << n)):
            out.append((n, SetFamily.from_masks(n, [m])))
        made = 0
        while made < per_n:
            fam = random_family(rng, n, max_size=60)
            if not is_downset(fam):
                out.append((n, fam))
                made += 1
    return out


def random_downset(rng: random.Random, n: int, gens: int = 6, max_card: int = 3) -> SetFamily:
    """Down-closure of a few random generators of bounded size."""
    masks = []
    for _ in range(gens):
        card = rng.randint(0, min(max_card, n))
        elems = rng.sample(range(n), card)
        m = 0
        for b in elems:
            m |= 1 << b
        masks.append(m)
    return down_closure(SetFamily.from_masks(n, masks))


def random_downset_avoiding(
    rng: random.Random, n: int, a: int, b: int, gens: int = 6, max_card: int = 3
) -> SetFamily:
    """A random down-set with no a-window trace of size >= b."""
    while True:
        fam = random_downset(rng, n, gens=gens, max_card=max_card)
        if not arrows(fam, a, b):
            return fam


def uncovered_pairs(fam: SetFamily) -> list[tuple[int, int]]:
    """(x, y) pairs contained in no member, 1-indexed."""
    out = []
    for x in range(1, fam.n + 1):
        for y in range(x + 1, fam.n + 1):
            both = (1 << (x - 1)) | (1 << (y - 1))
            if not any(m & both == both for m in fam.members):
                out.append((x, y))
    return out
