"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE k PASS/FAIL`` line (visible under
``pytest -s`` or in the failure report) and enforces the stated
tolerances exactly: searched values equal closed forms, time limits
hold, and randomized checks admit zero violations.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations
from math import comb, isclose

from tracelab import (
    Pattern,
    SetFamily,
    arrow_vs_pattern,
    arrows,
    crosscheck_mtilde,
    down_closure,
    downset_compress,
    ex3,
    is_downset,
    mask_of,
    max_cancellative,
    max_family,
    max_tilde,
    max_trace_over_ksets,
    mtilde_formula,
    pairwise_sum_bound_check,
    partite_family,
    partite_family_size,
    partite_sizes,
    symmetrize,
    t_count,
    trace_size,
)
from tracelab.search import ArrowQuery

from conftest import random_downset_avoiding, random_family, uncovered_pairs


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {label}")
        raise
    print(f"ACCEPTANCE {num} PASS: {label}")


def test_01_table_reproduction_at_desk_scale():
    with criterion(1, "searched pair/triple optima match the closed-form table"):
        for c in (1, 2, 3, 5, 6, 7, 8):
            for n in (5, 6, 7):
                t0 = time.perf_counter()
                res = max_tilde(ArrowQuery.tilde(n, c))
                elapsed = time.perf_counter() - t0
                assert res.proved_optimal, (c, n)
                assert res.optimum + 1 == mtilde_formula(c, n), (c, n)
                assert elapsed < 120.0, (c, n, elapsed)
        # the six-vertex exception sits inside the c=7 row checked above
        assert max_tilde(ArrowQuery.tilde(6, 7)).optimum + 1 == 17


def test_02_pair_trace_threshold_small_n():
    with criterion(2, "largest family below the (3,7) level is floor(n^2/4)+n+1"):
        for n in (4, 5, 6):
            t0 = time.perf_counter()
            res = max_family(ArrowQuery.downset(n, 3, 7))
            elapsed = time.perf_counter() - t0
            assert res.proved_optimal
            assert res.optimum == n * n // 4 + n + 1, n
            assert elapsed < 60.0, (n, elapsed)


def test_03_shatter_threshold_small_n():
    with criterion(3, "largest family below the (k,2^k) level is sum of binomials"):
        for (n, k) in ((4, 2), (5, 2), (4, 3)):
            res = max_family(ArrowQuery.downset(n, k, 1 << k))
            assert res.proved_optimal
            assert res.optimum == sum(comb(n, i) for i in range(k)), (n, k)


def test_04_partite_family_objects():
    with criterion(4, "3-block family size formula to n=1000; window maximum 12"):
        for n in range(3, 1001):
            sizes = partite_sizes(n, 3)
            prod = 1
            for s in sizes:
                prod *= 1 + s
            assert prod == partite_family_size(n, 3), n
        for n in range(4, 15):
            fam = partite_family(n, 3)
            assert len(fam) == partite_family_size(n, 3), n
            assert max_trace_over_ksets(fam, 4).max == 12, n


def test_05_compression_contract():
    with criterion(5, "500 random families: compression keeps size, lands on a down-set, never raises a trace"):
        rng = random.Random(0)
        for trial in range(500):
            n = rng.randint(1, 10)
            fam = random_family(rng, n, max_size=40)
            red = downset_compress(fam)
            assert len(red) == len(fam), trial
            assert is_downset(red), trial
            for k in range(1, min(4, n) + 1):
                for combo in combinations(range(1, n + 1), k):
                    y = mask_of(combo, n)
                    assert trace_size(red, y) <= trace_size(fam, y), (trial, combo)


def test_06_symmetrization_contract():
    with criterion(6, "200 random down-sets below the (4,13) level stay below it after symmetrization"):
        rng = random.Random(1)
        done = 0
        while done < 200:
            n = rng.randint(5, 9)
            fam = random_downset_avoiding(rng, n, 4, 13, gens=rng.randint(3, 8))
            pairs = uncovered_pairs(fam)
            if not pairs:
                continue
            x, y = rng.choice(pairs)
            out = symmetrize(fam, x, y)
            assert not arrows(out, 4, 13), (done, n, x, y)
            done += 1


def test_07_cancellative_extremal_values():
    with criterion(7, "cancellative maxima match the balanced products"):
        for n in range(2, 9):
            t0 = time.perf_counter()
            res = max_cancellative(n, 2)
            elapsed = time.perf_counter() - t0
            assert res.proved_optimal and res.optimum == n * n // 4, n
            assert elapsed < 300.0, (n, elapsed)
        for n in range(3, 8):
            t0 = time.perf_counter()
            res = max_cancellative(n, 3)
            elapsed = time.perf_counter() - t0
            expected = ((n + 2) // 3) * ((n + 1) // 3) * (n // 3)
            assert res.proved_optimal and res.optimum == expected, n
            assert elapsed < 300.0, (n, elapsed)


def test_08_arrow_pattern_equivalence_exhaustive():
    with criterion(8, "all 1024 down-closures of 3-graphs on [5]: arrow iff pattern present"):
        triples = list(combinations(range(1, 6), 3))
        for pick in range(1 << 10):
            chosen = [triples[i] for i in range(10) if pick >> i & 1]
            fam = down_closure(SetFamily.from_sets(5, chosen))
            for pat in Pattern:
                holds, free = arrow_vs_pattern(fam, 3, pat)
                assert holds == (not free), (pick, pat)


def test_09_forcing_size_dual_path():
    with criterion(9, "search path and Turán composition give the same forcing sizes"):
        for n in (4, 5):
            for pat, b in ((Pattern.K_COMPLETE, 15), (Pattern.K_MINUS, 14)):
                direct = max_family(ArrowQuery.downset(n, 4, b))
                turan = ex3(n, pat)
                assert direct.proved_optimal and turan.proved_optimal
                lhs = 1 + direct.optimum
                rhs = 1 + sum(comb(n, i) for i in range(3)) + turan.optimum
                assert lhs == rhs, (n, pat)


def test_10_stripped_vs_full_identity():
    with criterion(10, "pair/triple optimum plus n+1 equals the all-sizes optimum"):
        for (n, c) in ((5, 2), (5, 5), (6, 7)):
            assert crosscheck_mtilde(n, c) is True, (n, c)


def test_11_pairwise_sum_inequality():
    with criterion(11, "10^4 random non-negative vectors satisfy the bound; uniform attains it"):
        rng = random.Random(2)
        for trial in range(10_000):
            m = rng.randint(1, 10)
            scale = rng.choice([0.01, 1.0, 100.0])
            vec = [rng.random() * scale for _ in range(m)]
            check = pairwise_sum_bound_check(vec, rel_tol=1e-9)
            assert check.holds, (trial, vec)
        for m in range(2, 11):
            lhs, rhs, holds = pairwise_sum_bound_check([3.0] * m)
            assert holds and isclose(lhs, rhs, rel_tol=1e-12), m


def test_12_three_part_edge_recurrence():
    with criterion(12, "balanced 3-part edge counts: t(n) - t(n-3) = 2n - 3 to n=1000"):
        for n in range(8, 1001):
            assert t_count(3, n) - t_count(3, n - 3) == 2 * n - 3, n
