import random
from itertools import combinations

import pytest

from tracelab import (
    FamilyError,
    Pattern,
    SetFamily,
    arrow_vs_pattern,
    down_closure,
    elements_of,
    ex3,
    forcing_size_from_turan,
    is_cancellative,
    is_unionfree,
    level,
    mask_of,
    max_cancellative,
    max_family,
    partite_family,
    pattern_free,
    trace_size,
    violation_trace_window,
)
from tracelab.search import ArrowQuery


def brute_is_cancellative(h, l):
    """O(m^3) oracle straight from the definition."""
    ms = h.members
    for h1 in ms:
        for h2 in ms:
            if h1 >= h2 or (h1 & h2).bit_count() != l - 1:
                continue
            for h3 in ms:
                if (h1 ^ h2) & h3 == h1 ^ h2:
                    return False
    return True


def brute_ex3(n, limit):
    """Exhaust all 3-graphs on [n]; keep those with <= limit triples in
    every 4-window."""
    triples = list(combinations(range(1, n + 1), 3))
    windows = [mask_of(c, n) for c in combinations(range(1, n + 1), 4)]
    tmasks = [mask_of(t, n) for t in triples]
    best = 0
    for pick in range(1 << len(triples)):
        chosen = [tmasks[i] for i in range(len(triples)) if pick >> i & 1]
        if len(chosen) <= best:
            continue
        if all(sum(1 for m in chosen if m & w == m) <= limit for w in windows):
            best = len(chosen)
    return best


class TestIsCancellative:
    def test_witness_example(self):
        h = SetFamily.from_sets(5, [(1, 2, 3), (1, 2, 4), (3, 4, 5)])
        ok, witness = is_cancellative(h, 3)
        assert not ok
        assert tuple(elements_of(m) for m in witness) == ((1, 2, 3), (1, 2, 4), (3, 4, 5))

    def test_partite_levels_are_cancellative(self):
        for n in range(3, 13):
            lv = level(partite_family(n, 3), 3)
            assert is_cancellative(lv, 3).ok
            assert brute_is_cancellative(lv, 3)

    def test_tiny_families(self):
        assert is_cancellative(SetFamily.empty(4), 3).ok
        assert is_cancellative(SetFamily.from_sets(4, [(1, 2, 3), (1, 2, 4)]), 3).ok

    def test_triangle_is_the_pair_case(self):
        tri = SetFamily.from_sets(3, [(1, 2), (1, 3), (2, 3)])
        ok, witness = is_cancellative(tri, 2)
        assert not ok and len(witness) == 3

    def test_matches_oracle_random(self):
        rng = random.Random(211)
        for _ in range(40):
            n = rng.randint(4, 7)
            triples = [t for t in combinations(range(1, n + 1), 3) if rng.random() < 0.3]
            h = SetFamily.from_sets(n, triples)
            assert is_cancellative(h, 3).ok == brute_is_cancellative(h, 3)

    def test_rejects_non_uniform(self):
        with pytest.raises(FamilyError):
            is_cancellative(SetFamily.from_sets(4, [(1, 2)]), 3)


class TestIsUnionfree:
    def test_worked_example(self):
        h = SetFamily.from_sets(5, [(1, 2, 3), (1, 4, 5), (2, 4, 5)])
        ok, witness = is_unionfree(h, 3)
        assert not ok
        assert tuple(elements_of(m) for m in witness) == ((1, 4, 5), (2, 4, 5), (1, 2, 3))

    def test_implies_cancellative(self):
        rng = random.Random(223)
        for _ in range(60):
            n = rng.randint(4, 7)
            triples = [t for t in combinations(range(1, n + 1), 3) if rng.random() < 0.3]
            h = SetFamily.from_sets(n, triples)
            if is_unionfree(h, 3).ok:
                assert is_cancellative(h, 3).ok

    def test_single_member(self):
        assert is_unionfree(SetFamily.from_sets(4, [(1, 2, 3)]), 3).ok


class TestViolationWindow:
    def test_triple_level_with_buried_pair(self):
        fam = down_closure(SetFamily.from_sets(4, [(1, 2, 3), (1, 2, 4), (3, 4)]))
        y = violation_trace_window(fam, 3)
        assert elements_of(y) == (1, 2, 3, 4)
        assert trace_size(fam, y) >= 13

    def test_pair_level_triangle(self):
        fam = down_closure(SetFamily.from_sets(3, [(1, 2), (1, 3), (2, 3)]))
        y = violation_trace_window(fam, 2)
        assert elements_of(y) == (1, 2, 3)
        assert trace_size(fam, y) == 7

    def test_cancellative_level_yields_none(self):
        for n in (6, 7, 9):
            assert violation_trace_window(partite_family(n, 3), 3) is None

    def test_requires_downset(self):
        with pytest.raises(FamilyError):
            violation_trace_window(SetFamily.from_sets(4, [(1, 2, 3)]), 3)


class TestPatternFree:
    def test_complete_pattern(self):
        all4 = SetFamily.from_sets(4, combinations(range(1, 5), 3))
        assert not pattern_free(all4, 3, Pattern.K_COMPLETE)
        three = SetFamily.from_sets(4, [(1, 2, 3), (1, 2, 4), (1, 3, 4)])
        assert pattern_free(three, 3, Pattern.K_COMPLETE)
        assert not pattern_free(three, 3, Pattern.K_MINUS)

    def test_two_triples_are_minus_free(self):
        two = SetFamily.from_sets(5, [(1, 2, 3), (1, 2, 4)])
        assert pattern_free(two, 3, Pattern.K_MINUS)


class TestArrowVsPattern:
    def test_full_four_triples(self):
        fam = down_closure(SetFamily.from_sets(4, combinations(range(1, 5), 3)))
        holds, free = arrow_vs_pattern(fam, 3, Pattern.K_COMPLETE)
        assert holds and not free

    def test_two_triples_force_minus_level(self):
        fam = down_closure(SetFamily.from_sets(4, [(1, 2, 3), (1, 2, 4)]))
        holds, free = arrow_vs_pattern(fam, 3, Pattern.K_MINUS)
        assert not holds and free  # two triples only reach trace 12 < 14
        fam3 = down_closure(
            SetFamily.from_sets(4, [(1, 2, 3), (1, 2, 4), (1, 3, 4)])
        )
        holds, free = arrow_vs_pattern(fam3, 3, Pattern.K_MINUS)
        assert holds and not free

    def test_no_triples_at_all(self):
        fam = down_closure(SetFamily.from_sets(5, [(1, 2), (3, 4)]))
        for pat in Pattern:
            holds, free = arrow_vs_pattern(fam, 3, pat)
            assert not holds and free

    def test_equivalence_random_sample(self):
        rng = random.Random(227)
        for _ in range(80):
            n = 5
            triples = [t for t in combinations(range(1, n + 1), 3) if rng.random() < 0.35]
            fam = down_closure(SetFamily.from_sets(n, triples))
            for pat in Pattern:
                holds, free = arrow_vs_pattern(fam, 3, pat)
                assert holds == (not free)

    def test_oversize_member_rejected(self):
        fam = down_closure(SetFamily.from_sets(5, [(1, 2, 3, 4)]))
        with pytest.raises(FamilyError):
            arrow_vs_pattern(fam, 3, Pattern.K_COMPLETE)


class TestMaxCancellative:
    def test_balanced_product_small(self):
        # n = 10 (l=2) and n = 9 (l=3) are proved within 50k nodes only
        # with the averaging bound
        for n in (*range(2, 7), 10):
            res = max_cancellative(n, 2, budget_nodes=50_000)
            assert res.proved_optimal and res.optimum == n * n // 4, n
        for n in (*range(3, 7), 9):
            expected = ((n + 2) // 3) * ((n + 1) // 3) * (n // 3)
            res = max_cancellative(n, 3, budget_nodes=50_000)
            assert res.proved_optimal and res.optimum == expected, n

    def test_unproved_sub_query_still_searches_n_points(self):
        # cancellative-3-7 without symmetry does not prove within its share
        # of 20,000 nodes; the 8-point search must still run on the rest
        res = max_cancellative(8, 3, budget_nodes=20_000, use_symmetry=False)
        assert not res.proved_optimal and res.nodes <= 20_001
        assert res.optimum >= 18
        assert any(m >> 7 & 1 for m in res.witness.members)
        assert is_cancellative(res.witness, 3).ok

    def test_witness_reverifies(self):
        res = max_cancellative(6, 3)
        assert res.proved_optimal and res.optimum == 8
        assert is_cancellative(res.witness, 3).ok
        assert len(res.witness) == res.optimum

    def test_triangle_free_to_the_ground_cap(self):
        # from its seed T(2, n), every level of the chain closes at once
        for n, nodes in ((16, 14), (20, 18)):
            res = max_cancellative(n, 2)
            assert (res.optimum, res.proved_optimal, res.nodes) == (n * n // 4, True, nodes)
            assert is_cancellative(res.witness, 2).ok

    def test_l_validation(self):
        with pytest.raises(FamilyError):
            max_cancellative(6, 4)
        with pytest.raises(FamilyError):
            max_cancellative(21, 2)

    def test_symmetry_off_same(self):
        assert (
            max_cancellative(5, 3).optimum
            == max_cancellative(5, 3, use_symmetry=False).optimum
        )


class TestEx3:
    def test_single_window(self):
        assert ex3(4, Pattern.K_COMPLETE).optimum == 3
        assert ex3(4, Pattern.K_MINUS).optimum == 2

    def test_matches_bruteforce_n5(self):
        assert ex3(5, Pattern.K_COMPLETE).optimum == brute_ex3(5, 3) == 7
        assert ex3(5, Pattern.K_MINUS).optimum == brute_ex3(5, 2) == 5

    def test_witness_pattern_free(self):
        res = ex3(6, Pattern.K_MINUS)
        assert pattern_free(res.witness, 3, Pattern.K_MINUS)
        assert len(res.witness) == res.optimum
        # proved within 50k nodes only with the averaging bound
        res = ex3(8, Pattern.K_COMPLETE, budget_nodes=50_000)
        assert (res.optimum, res.proved_optimal) == (36, True)
        assert pattern_free(res.witness, 3, Pattern.K_COMPLETE)
        assert len(res.witness) == res.optimum


class TestForcingComposition:
    def test_four_vertices(self):
        assert forcing_size_from_turan(4, 3, Pattern.K_COMPLETE) == 1 + 11 + 3 == 15
        assert forcing_size_from_turan(4, 3, Pattern.K_MINUS) == 1 + 11 + 2 == 14

    def test_agrees_with_direct_search(self):
        for n in (4, 5):
            for pat, b in [(Pattern.K_COMPLETE, 15), (Pattern.K_MINUS, 14)]:
                composed = forcing_size_from_turan(n, 3, pat)
                direct = max_family(ArrowQuery.downset(n, 4, b)).optimum + 1
                assert composed == direct

    def test_only_triples_supported(self):
        with pytest.raises(FamilyError):
            forcing_size_from_turan(5, 2, Pattern.K_COMPLETE)


class TestCancellativeBruteforce:
    def test_triples_on_five_vertices(self):
        triples = list(combinations(range(1, 6), 3))
        best = 0
        for pick in range(1 << len(triples)):
            chosen = [triples[i] for i in range(len(triples)) if pick >> i & 1]
            if len(chosen) <= best:
                continue
            if brute_is_cancellative(SetFamily.from_sets(5, chosen), 3):
                best = len(chosen)
        assert max_cancellative(5, 3).optimum == best == 4

    def test_pairs_on_five_vertices(self):
        pairs = list(combinations(range(1, 6), 2))
        best = 0
        for pick in range(1 << len(pairs)):
            chosen = [pairs[i] for i in range(len(pairs)) if pick >> i & 1]
            if len(chosen) <= best:
                continue
            if brute_is_cancellative(SetFamily.from_sets(5, chosen), 2):
                best = len(chosen)
        assert max_cancellative(5, 2).optimum == best == 6


class TestParallelSearches:
    def test_cancellative_threads(self):
        # the search is sequential only: the old parallel knob is refused and
        # the sequential run still proves the optimum
        res = max_cancellative(6, 3)
        assert res.optimum == 8 and res.proved_optimal
        with pytest.raises(TypeError):
            max_cancellative(6, 3, threads=2)
        with pytest.raises(TypeError):
            ex3(5, Pattern.K_COMPLETE, threads=2)
