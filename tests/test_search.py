import json
from itertools import combinations

import pytest

from tracelab import (
    FamilyError,
    Pattern,
    SetFamily,
    TildeFamily,
    arrows,
    crosscheck_mtilde,
    decide_arrow,
    ex3,
    hookarrow,
    is_antichain,
    is_downset,
    max_antichain,
    max_cancellative,
    max_family,
    max_tilde,
    mtilde_formula,
    partite_family_size,
    run_query,
    threshold,
    trace_size,
)
from tracelab.search import (
    MODE_ANTICHAIN,
    MODE_DOWNSET,
    MODE_TILDE,
    ArrowQuery,
)


# ---------------------------------------------------------------------------
# brute-force oracles (independent of the branch-and-bound path)


def brute_max_avoiding(n, a, b, downsets_only):
    """Exhaust every family of sets of size < a on [n]; return the largest
    avoiding an a-window trace of size >= b."""
    universe = [m for m in range(1 << n) if m.bit_count() < a]
    windows = []
    for combo in combinations(range(n), a):
        w = 0
        for bbit in combo:
            w |= 1 << bbit
        windows.append(w)
    best = 0
    for pick in range(1 << len(universe)):
        masks = [universe[i] for i in range(len(universe)) if pick >> i & 1]
        if len(masks) <= best:
            continue
        fam = SetFamily.from_masks(n, masks)
        if downsets_only and not is_downset(fam):
            continue
        if all(trace_size(fam, w) < b for w in windows):
            best = len(masks)
    return best


def brute_max_tilde(n, c):
    """Exhaust complete pair/triple families on [n]."""
    pairs = list(combinations(range(1, n + 1), 2))
    triples = list(combinations(range(1, n + 1), 3))
    best = 0
    for gpick in range(1 << len(pairs)):
        g2set = {pairs[i] for i in range(len(pairs)) if gpick >> i & 1}
        allowed = [
            t for t in triples if all(tuple(sorted(p)) in g2set for p in combinations(t, 2))
        ]
        for tpick in range(1 << len(allowed)):
            g3 = [allowed[i] for i in range(len(allowed)) if tpick >> i & 1]
            if len(g2set) + len(g3) <= best:
                continue
            tf = TildeFamily(n, SetFamily.from_sets(n, g2set), SetFamily.from_sets(n, g3))
            if not hookarrow(tf, c):
                best = len(g2set) + len(g3)
    return best


def brute_max_antichain(n, k):
    """Exhaust all families on [n]; keep antichains below the shatter level."""
    from tracelab import max_trace_over_ksets

    best = 0
    all_masks = list(range(1 << n))
    for pick in range(1 << (1 << n)):
        masks = [all_masks[i] for i in range(1 << n) if pick >> i & 1]
        if len(masks) <= best:
            continue
        fam = SetFamily.from_masks(n, masks)
        if not is_antichain(fam):
            continue
        if max_trace_over_ksets(fam, k + 1).max < (1 << (k + 1)):
            best = len(masks)
    return best


# ---------------------------------------------------------------------------


class TestValidation:
    def test_vacuous_b_rejected(self):
        with pytest.raises(FamilyError):
            max_family(ArrowQuery.downset(4, 3, 9))
        with pytest.raises(FamilyError):
            max_family(ArrowQuery.downset(4, 3, 1))

    def test_bad_a(self):
        with pytest.raises(FamilyError):
            max_family(ArrowQuery.downset(4, 5, 7))

    def test_wrong_mode_dispatch(self):
        with pytest.raises(FamilyError):
            max_family(ArrowQuery.tilde(5, 3))
        with pytest.raises(FamilyError):
            max_tilde(ArrowQuery.downset(5, 3, 7))
        with pytest.raises(FamilyError):
            ArrowQuery(n=5, mode="bogus").validate()

    def test_tilde_c_range(self):
        with pytest.raises(FamilyError):
            max_tilde(ArrowQuery.tilde(5, 11))
        with pytest.raises(FamilyError):
            max_tilde(ArrowQuery.tilde(3, 2))

    def test_ground_cap(self):
        with pytest.raises(FamilyError):
            max_family(ArrowQuery.downset(21, 3, 7))


class TestDownsetSearch:
    def test_pair_threshold_values(self):
        # largest family below the (3,7) forcing level: floor(n^2/4)+n+1
        for n in (4, 5, 6):
            res = max_family(ArrowQuery.downset(n, 3, 7))
            assert res.proved_optimal
            assert res.optimum == n * n // 4 + n + 1
            assert res.optimum == threshold("three_seven", n) - 1

    def test_shatter_threshold_values(self):
        assert max_family(ArrowQuery.downset(4, 2, 4)).optimum == 5
        assert max_family(ArrowQuery.downset(5, 2, 4)).optimum == 6
        assert max_family(ArrowQuery.downset(4, 3, 8)).optimum == 11

    def test_quadruple_window_value_is_partite_size(self):
        # computed data point, pinned against the pair/triple identity below
        res = max_family(ArrowQuery.downset(5, 4, 13))
        assert res.proved_optimal and res.optimum == 18
        assert res.optimum == partite_family_size(5, 3)

    def test_witness_reverifies(self):
        res = max_family(ArrowQuery.downset(6, 3, 7))
        assert is_downset(res.witness)
        assert not arrows(res.witness, 3, 7)
        assert len(res.witness) == res.optimum

    def test_matches_bruteforce_with_and_without_downset_restriction(self):
        # compression is lossless: the unrestricted optimum is no larger
        got = max_family(ArrowQuery.downset(4, 3, 7)).optimum
        assert got == brute_max_avoiding(4, 3, 7, downsets_only=True)
        assert got == brute_max_avoiding(4, 3, 7, downsets_only=False)

    def test_matches_bruteforce_other_levels(self):
        for b in (4, 5, 6):
            got = max_family(ArrowQuery.downset(4, 3, b)).optimum
            assert got == brute_max_avoiding(4, 3, b, downsets_only=False)

    def test_monotone_in_b_and_n(self):
        prev = 0
        for b in range(2, 9):
            cur = max_family(ArrowQuery.downset(5, 3, b)).optimum
            assert cur >= prev
            prev = cur
        prev = 0
        for n in range(3, 7):
            cur = max_family(ArrowQuery.downset(n, 3, 7)).optimum
            assert cur >= prev
            prev = cur

    def test_symmetry_off_same_optimum(self):
        for (n, a, b) in [(4, 3, 7), (5, 4, 10), (5, 3, 6), (4, 4, 14)]:
            on = max_family(ArrowQuery.downset(n, a, b))
            off = max_family(ArrowQuery.downset(n, a, b, use_symmetry=False))
            assert on.optimum == off.optimum

    def test_budget_exhaustion_unproved(self):
        res = max_family(ArrowQuery.downset(7, 4, 13, budget_nodes=40))
        assert not res.proved_optimal
        assert 40 <= res.nodes <= 41
        # the witness is still a genuine feasible family
        assert is_downset(res.witness)
        assert not arrows(res.witness, 4, 13)
        # every entry point honours the node budget: at most one node over
        for budget, run in [
            (30, lambda b: max_tilde(ArrowQuery.tilde(7, 5, budget_nodes=b))),
            (30, lambda b: max_antichain(ArrowQuery.antichain(6, 2, budget_nodes=b))),
            (30, lambda b: max_cancellative(8, 3, budget_nodes=b)),
            (30, lambda b: max_cancellative(9, 2, budget_nodes=b)),
            (30, lambda b: ex3(7, Pattern.K_COMPLETE, budget_nodes=b)),
        ]:
            res = run(budget)
            assert not res.proved_optimal
            assert res.nodes <= budget + 1


class TestTildeSearch:
    def test_formula_rows_at_5(self):
        for c in (1, 2, 3, 5, 6, 7):
            res = max_tilde(ArrowQuery.tilde(5, c))
            assert res.proved_optimal
            assert res.optimum + 1 == mtilde_formula(c, 5)

    def test_exceptional_six(self):
        res = max_tilde(ArrowQuery.tilde(6, 7))
        assert res.optimum == 16
        assert len(res.witness.g3) == 4

    def test_matches_bruteforce_n4(self):
        for c in (1, 2, 3, 4, 5, 6):
            got = max_tilde(ArrowQuery.tilde(4, c)).optimum
            assert got == brute_max_tilde(4, c)

    def test_witness_reverifies(self):
        res = max_tilde(ArrowQuery.tilde(6, 6))
        assert res.proved_optimal and res.optimum + 1 == mtilde_formula(6, 6)
        assert res.witness.complete
        assert not hookarrow(res.witness, 6)
        assert len(res.witness) == res.optimum

    def test_symmetry_off_same_optimum(self):
        for (n, c) in [(5, 3), (5, 5), (4, 6), (5, 7)]:
            on = max_tilde(ArrowQuery.tilde(n, c))
            off = max_tilde(ArrowQuery.tilde(n, c, use_symmetry=False))
            assert on.optimum == off.optimum

    def test_threads_same_optimum(self):
        # the search is sequential only: a `threads` setting is refused from
        # Python and from a query file, and the optimum is still proved
        res = max_tilde(ArrowQuery.tilde(6, 6))
        assert res.proved_optimal
        with pytest.raises(TypeError):
            ArrowQuery.tilde(6, 6, threads=2)
        obj = ArrowQuery.tilde(6, 6).to_json_obj()
        obj["threads"] = 2
        with pytest.raises(FamilyError):
            ArrowQuery.from_json_obj(obj)


class TestAntichainSearch:
    def test_matches_conjectured_bound_small(self):
        assert max_antichain(ArrowQuery.antichain(4, 1)).optimum == 4
        assert max_antichain(ArrowQuery.antichain(4, 2)).optimum == 6
        assert max_antichain(ArrowQuery.antichain(5, 2)).optimum == 10

    def test_matches_bruteforce_n4(self):
        for k in (1, 2):
            got = max_antichain(ArrowQuery.antichain(4, k)).optimum
            assert got == brute_max_antichain(4, k)

    def test_uniform_level_feasible(self):
        # the k-level itself always satisfies the constraint
        res = max_antichain(ArrowQuery.antichain(5, 2))
        from math import comb

        assert res.optimum >= comb(5, 2)
        assert is_antichain(res.witness)

    def test_k_range(self):
        with pytest.raises(FamilyError):
            max_antichain(ArrowQuery.antichain(4, 4))


class TestDecideArrow:
    def test_pair_trace_threshold(self):
        assert decide_arrow(4, 10, 3, 7) is True
        assert decide_arrow(4, 9, 3, 7) is False

    def test_shatter_threshold(self):
        for (n, k) in [(4, 2), (5, 2), (4, 3), (5, 3)]:
            m = threshold("sauer_shelah", n, k=k)
            assert decide_arrow(n, m, k, 1 << k) is True
            assert decide_arrow(n, m - 1, k, 1 << k) is False

    def test_indeterminate_on_budget(self):
        assert decide_arrow(7, 40, 4, 13, budget_nodes=30) is None


class TestCrosscheck:
    def test_identity_small(self):
        assert crosscheck_mtilde(5, 2) is True
        assert crosscheck_mtilde(4, 3) is True

    def test_indeterminate_on_budget(self):
        assert crosscheck_mtilde(6, 7, budget_nodes=10) is None


class TestQueryJson:
    def test_roundtrip(self):
        q = ArrowQuery.tilde(6, 7, budget_nodes=123, budget_secs=4.5)
        again = ArrowQuery.from_json_obj(q.to_json_obj())
        assert (again.n, again.c, again.mode) == (6, 7, MODE_TILDE)
        assert again.budget_nodes == 123

    def test_downset_json(self):
        q = ArrowQuery.from_json_obj({"n": 4, "a": 3, "b": 7})
        assert q.mode == MODE_DOWNSET
        res = run_query(q)
        assert res.optimum == 9

    def test_antichain_json(self):
        q = ArrowQuery.from_json_obj({"n": 4, "k": 2, "mode": MODE_ANTICHAIN})
        assert run_query(q).optimum == 6

    def test_result_json_shape(self):
        res = max_tilde(ArrowQuery.tilde(5, 5))
        obj = res.to_json_obj()
        assert set(obj) == {"optimum", "proved_optimal", "witness", "nodes", "elapsed_ms"}
        json.dumps(obj)  # serializable
        assert obj["witness"]["n"] == 5


class TestEngineStress:
    def test_quadruple_window_bruteforce_n4(self):
        # every forbidden level for 4-windows on [4], against exhaustion
        # over all families of sets of size <= 3 (32768 of them per level)
        for b in (9, 11, 13, 14, 15, 16):
            got = max_family(ArrowQuery.downset(4, 4, b)).optimum
            assert got == brute_max_avoiding(4, 4, b, downsets_only=False), b

    def test_edge_case_a1(self):
        # any nonempty member fills some 1-window; only the empty set survives
        res = max_family(ArrowQuery.downset(5, 1, 2))
        assert res.optimum == 1 and res.witness.sets() == [()]


class TestHigherWindows:
    def test_quintuple_window_all_small_sizes(self):
        # members up to size 4; the single 5-window must stay below 25
        res = max_family(ArrowQuery.downset(5, 5, 25))
        assert res.proved_optimal and res.optimum == 24
        assert is_downset(res.witness) and not arrows(res.witness, 5, 25)

    def test_shatter_boundary_a_equals_n(self):
        from math import comb

        res = max_family(ArrowQuery.downset(6, 6, 64))
        assert res.optimum == sum(comb(6, i) for i in range(6)) == 63

    def test_level_sum_thresholds_force_the_arrow(self):
        # triple/quadruple-level bounds plus lower levels are sufficient
        for n in (4, 5, 6):
            assert decide_arrow(n, threshold("four_thirteen", n), 4, 13) is True
        assert decide_arrow(5, threshold("five_twentyfive", 5), 5, 25) is True

    def test_partite_families_avoid_their_level(self):
        from tracelab import partite_family

        for (n, l) in [(5, 2), (6, 3), (7, 3), (9, 3)]:
            fam = partite_family(n, l)
            assert not arrows(fam, l + 1, 3 * 2 ** (l - 1) + 1)
            assert len(fam) == threshold("partite_nonarrow", n, l=l)


class TestGridAgainstBruteforce:
    def test_pair_windows_full_grid(self):
        for n in (4, 5):
            for b in (2, 3, 4):
                got = max_family(ArrowQuery.downset(n, 2, b)).optimum
                assert got == brute_max_avoiding(n, 2, b, downsets_only=False), (n, b)

    def test_triple_windows_full_grid_n4(self):
        for b in range(2, 9):
            got = max_family(ArrowQuery.downset(4, 3, b)).optimum
            assert got == brute_max_avoiding(4, 3, b, downsets_only=False), b

    def test_tilde_high_targets_n4(self):
        for c in (7, 8, 9, 10):
            got = max_tilde(ArrowQuery.tilde(4, c)).optimum
            assert got == brute_max_tilde(4, c), c

    def test_antichain_k0(self):
        res = max_antichain(ArrowQuery.antichain(4, 0))
        assert res.optimum == 1


def test_random_window_problems_match_bruteforce():
    # seeded fuzz across cardinalities, window sizes, and caps
    import random
    from math import comb as _comb

    from tracelab.search import _Budget, _build_uniform_window_state, _solve_state

    rng = random.Random(99)
    done = 0
    while done < 40:
        n = rng.randint(4, 6)
        card = rng.randint(1, 3)
        win = rng.randint(max(card, 2), min(n, card + 2))
        cap = rng.randint(0, _comb(win, card))
        if _comb(n, card) > 12:  # keep the exhaustive side cheap
            continue
        done += 1
        cands = []
        for c in combinations(range(n), card):
            m = 0
            for bb in c:
                m |= 1 << bb
            cands.append(m)
        wins = []
        for c in combinations(range(n), win):
            w = 0
            for bb in c:
                w |= 1 << bb
            wins.append(w)
        best = 0
        for pick in range(1 << len(cands)):
            chosen = [cands[i] for i in range(len(cands)) if pick >> i & 1]
            if len(chosen) <= best:
                continue
            if all(sum(1 for m in chosen if m & w == m) <= cap for w in wins):
                best = len(chosen)
        for sym in (True, False):
            got, _sel, comp = _solve_state(
                _build_uniform_window_state,
                (n, card, win, cap),
                best0=-1,
                exclude_first_cards=frozenset(),
                budget=_Budget(10**8, None),
                use_symmetry=sym,
            )
            assert comp and got == best, (n, card, win, cap, sym)


def test_search_is_deterministic():
    a = max_tilde(ArrowQuery.tilde(6, 6))
    b = max_tilde(ArrowQuery.tilde(6, 6))
    assert a.to_json_obj()["witness"] == b.to_json_obj()["witness"]
    assert a.nodes == b.nodes
    c = max_family(ArrowQuery.downset(6, 3, 7))
    d = max_family(ArrowQuery.downset(6, 3, 7))
    assert c.to_json_obj()["witness"] == d.to_json_obj()["witness"]
