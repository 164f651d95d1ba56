import dataclasses
import hashlib
import json
from copy import deepcopy
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import tracelab.cancellative_turan as canc_mod
import tracelab.search as search_mod
from tracelab import (
    FamilyError,
    Pattern,
    PatternCheck,
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
    partite_family,
    partite_family_size,
    run_query,
    threshold,
    trace_size,
)
from tracelab.search import (
    _MODES,
    MODE_ANTICHAIN,
    MODE_DOWNSET,
    MODE_TILDE,
    ArrowQuery,
)
from tracelab.setcore import _canon_key, kset_masks, submasks


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

    def test_link_problem_closed_form(self):
        # (3, 7) is the link problem of (4, 13); its closed form, proved
        # through n = 9 by the vertex-deletion bound's sub-query chain
        for n in range(3, 10):
            res = max_family(ArrowQuery.downset(n, 3, 7))
            assert (res.optimum, res.proved_optimal) == (n * n // 4 + n + 1, True), n

    def test_vertex_deletion_bound_proves_8_4_13(self):
        # |G| = 48 at n = 8, sub-queries included in the node count
        res = max_family(ArrowQuery.downset(8, 4, 13))
        assert (res.optimum, res.proved_optimal) == (48, True)
        assert res.nodes <= 13_000

    @pytest.mark.parametrize(
        "args, optimum", [((7, 6, 12), 13), ((7, 6, 14), 16), ((7, 6, 16), 19), ((6, 5, 23), 34)]
    )
    def test_bound_proves_without_symmetry(self, args, optimum):
        # proofs that the window-packing bound alone did not finish within
        # this budget
        res = max_family(ArrowQuery.downset(*args, use_symmetry=False, budget_nodes=20_000))
        assert (res.optimum, res.proved_optimal) == (optimum, True)

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
            # proves in 7 nodes from its seed, T(2, 9)
            (5, lambda b: max_cancellative(9, 2, budget_nodes=b)),
            (30, lambda b: ex3(7, Pattern.K_COMPLETE, budget_nodes=b)),
        ]:
            res = run(budget)
            assert not res.proved_optimal
            assert res.nodes <= budget + 1

    def test_unproved_level_starts_from_its_sub_query(self):
        # without symmetry the lower levels of (7, 5, 24) stop at their
        # share of 50 nodes, so each level starts from what its sub-query
        # chose; without that start the query stops at 28
        res = max_family(ArrowQuery.downset(7, 5, 24, budget_nodes=50, use_symmetry=False))
        assert (res.optimum, res.proved_optimal, res.nodes) == (37, False, 51)
        assert is_downset(res.witness) and not arrows(res.witness, 5, 24)


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

    def test_vertex_deletion_bound_proves_10_5(self):
        # the frontier's tilde rung, its n = 5..9 levels included in the
        # node count
        res = max_tilde(ArrowQuery.tilde(10, 5, budget_nodes=50_000))
        assert (res.optimum, res.proved_optimal, res.nodes) == (25, True, 17_177)

    def test_unproved_level_starts_the_next_one(self, monkeypatch):
        # without symmetry the n = 7 level of (8, 7) stops at its share of
        # the budget, so the n = 8 level starts from the candidates it
        # chose (or the larger seed) and returns a re-checked family
        ran = []
        real = search_mod._Searcher.run

        def spy(searcher):
            ran.append((searcher.state.nbits, real(searcher)))
            return ran[-1][1]

        monkeypatch.setattr(search_mod._Searcher, "run", spy)
        res = max_tilde(ArrowQuery.tilde(8, 7, use_symmetry=False, budget_nodes=20_000))
        assert ran == [(4, True), (5, True), (6, True), (7, False), (8, False)]
        assert not res.proved_optimal and res.optimum == len(res.witness) >= 28
        assert res.witness.complete and not hookarrow(res.witness, 7)

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

    def test_ground_cap(self):
        # the state holds all 2^n subsets and is built outside the node
        # budget, so the search stops at 9 points; with no node to tick
        # it returns its seed, the middle layer
        res = max_antichain(ArrowQuery.antichain(9, 4, budget_nodes=0))
        assert (res.optimum, res.proved_optimal) == (126, False)
        with pytest.raises(FamilyError, match="n <= 9"):
            max_antichain(ArrowQuery.antichain(10, 4))

    def test_vertex_deletion_bound_proves_8_4(self):
        # Sperner's bound: the middle layer, C(8, 4), sub-queries included
        res = max_antichain(ArrowQuery.antichain(8, 4))
        assert (res.optimum, res.proved_optimal, res.nodes) == (70, True, 3_516)
        assert set(res.witness.members) == set(kset_masks(8, 4))

    def test_k_is_n_minus_1_proves_sperner(self):
        # no antichain shatters [n], so the optimum is Sperner's C(7, 3) = 35;
        # the vacuous (6, 5) sub-query carries the bound
        res = max_antichain(ArrowQuery.antichain(7, 6))
        assert (res.optimum, res.proved_optimal, res.nodes) == (35, True, 3_515)

    @pytest.mark.slow
    def test_vertex_deletion_bound_proves_7_3_to_7_5(self):
        for k in (3, 4, 5):
            res = max_antichain(ArrowQuery.antichain(7, k))
            assert (res.optimum, res.proved_optimal) == (35, True), k


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
        # tilde(n, c) + n + 1 = M(n, 4, c + 5): the identity the hook
        # count rests on, as it reads the full family's 4-window trace
        assert crosscheck_mtilde(4, 3) is True
        for n in range(5, 9):
            for c in range(1, 9):
                assert crosscheck_mtilde(n, c) is True, (n, c)

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

    @settings(max_examples=300, deadline=None)
    @given(
        mode=hs.sampled_from(_MODES),
        n=hs.integers(-1, 21),
        x=hs.integers(-1, 9),
        y=hs.integers(-1, 40),
        over=hs.fixed_dictionaries(
            {},
            optional={"a": hs.integers(-1, 40)}
            | {key: hs.none() | hs.integers(-1, 40) for key in ("b", "c", "k")},
        ),
        sym=hs.booleans(),
    )
    def test_valid_query_round_trips(self, mode, n, x, y, over, sym):
        # a query that validate() accepts is one from_json_obj rebuilds from
        # its to_json_obj(), all but use_symmetry, which the JSON form does
        # not carry: a mode's own constructor, with any of a, b, c, k
        # overridden and the budgets at their defaults
        made = {
            MODE_DOWNSET: lambda: ArrowQuery.downset(n, x, y),
            MODE_TILDE: lambda: ArrowQuery.tilde(n, x),
            MODE_ANTICHAIN: lambda: ArrowQuery.antichain(n, x),
        }[mode]()
        q = dataclasses.replace(made, **over, use_symmetry=sym)
        try:
            q.validate()
        except FamilyError:
            return
        again = ArrowQuery.from_json_obj(q.to_json_obj())
        assert dataclasses.replace(again, use_symmetry=sym) == q

    def test_fields_the_mode_ignores_or_contradicts_are_refused(self):
        # each of these validated, and either ran or lost a field in
        # to_json_obj()
        for q, said in (
            (ArrowQuery(n=6, a=5, mode=MODE_TILDE, c=7),
             "mode 'tilde-complete' sets 'a' to 4, got 5"),
            (ArrowQuery(n=5, a=3, b=7, c=3),
             "mode 'full-downset' does not read 'c'"),
            (ArrowQuery(n=5, a=2, b=3, mode=MODE_ANTICHAIN, k=2),
             "mode 'antichain' sets 'a' to 3, got 2"),
        ):
            with pytest.raises(FamilyError, match=said):
                q.validate()
            with pytest.raises(FamilyError, match=said):
                run_query(q)

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

    from tracelab.search import _UniformCapState, _build_uniform_window_state, _solve_state

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

        def within_caps(fam, *_):
            return all(sum(1 for m in fam.members if m & w == m) <= cap for w in wins)

        for sym in (True, False):
            res = _solve_state(
                _build_uniform_window_state,
                (n, card, win, cap),
                sub_query=_UniformCapState.sub_query,
                witness=SetFamily.from_masks,
                recheck=within_caps,
                budget_nodes=10**8,
                budget_secs=search_mod.DEFAULT_BUDGET_SECS,
                use_symmetry=sym,
            )
            assert res.proved_optimal and res.optimum == best, (n, card, win, cap, sym)


@pytest.mark.parametrize(
    "module, builder, cls, args, run",
    [
        (search_mod, "_build_downset_state", search_mod._DownsetState, (6, 4, 13),
         lambda: max_family(ArrowQuery.downset(6, 4, 13))),
        (search_mod, "_build_tilde_state", search_mod._TildeState, (7, 6),
         lambda: max_tilde(ArrowQuery.tilde(7, 6))),
        (search_mod, "_build_antichain_state", search_mod._AntichainState, (6, 2),
         lambda: max_antichain(ArrowQuery.antichain(6, 2))),
        (canc_mod, "_build_uniform_window_state", search_mod._UniformCapState, (7, 2, 3, 2),
         lambda: max_cancellative(7, 2)),
        (canc_mod, "_build_cancellative_state", canc_mod._CancellativeState, (6, 3),
         lambda: max_cancellative(6, 3)),
        (canc_mod, "_build_uniform_window_state", search_mod._UniformCapState, (6, 3, 4, 3),
         lambda: ex3(6, Pattern.K_COMPLETE)),
    ],
    ids=["max_family", "max_tilde", "max_antichain", "max_cancellative-2",
         "max_cancellative-3", "ex3"],
)
def test_levels_form_one_chain(monkeypatch, module, builder, cls, args, run):
    # every search declares at most one sub-query, so its levels are a
    # chain: each built once, bottom up, from one that declares none to
    # the query's own state, and each build is the sub-query of the next
    calls = []
    real = getattr(module, builder)

    def counting(*level):
        calls.append(level)
        return real(*level)

    monkeypatch.setattr(module, builder, counting)
    assert run().proved_optimal
    assert len(calls) >= 3 and calls[-1] == args
    assert cls.sub_query(*calls[0]) is None
    assert all(cls.sub_query(*above) == below for below, above in zip(calls, calls[1:]))


def test_levels_are_built_one_at_a_time(monkeypatch):
    # a level's state is built only when its turn comes, after the states
    # of the levels below it are done with: whenever a state is built, at
    # most one other (the level just searched) is still alive
    import weakref

    alive = weakref.WeakSet()
    at_build = []
    real = search_mod._build_downset_state

    def tracking(*args):
        at_build.append(len(alive))
        st = real(*args)
        alive.add(st)
        return st

    monkeypatch.setattr(search_mod, "_build_downset_state", tracking)
    res = max_family(ArrowQuery.downset(8, 4, 13))
    assert (res.optimum, res.proved_optimal) == (48, True)
    assert len(at_build) > 2 and max(at_build) <= 1


def test_zero_node_budget_keeps_empty_set_witness():
    # a run stopped before its first node returns the level's re-checked
    # seed, unproved: the 2-partite family on 5 points, 3 * 4 members,
    # the empty set among them
    res = max_family(ArrowQuery.downset(5, 3, 7, budget_nodes=0))
    assert (res.optimum, res.proved_optimal) == (12, False)
    assert res.witness == partite_family(5, 2)
    assert 0 in res.witness.members


def test_search_is_deterministic():
    a = max_tilde(ArrowQuery.tilde(6, 6))
    b = max_tilde(ArrowQuery.tilde(6, 6))
    assert a.to_json_obj()["witness"] == b.to_json_obj()["witness"]
    assert a.nodes == b.nodes
    c = max_family(ArrowQuery.downset(6, 3, 7))
    d = max_family(ArrowQuery.downset(6, 3, 7))
    assert c.to_json_obj()["witness"] == d.to_json_obj()["witness"]


@pytest.mark.parametrize(
    "module, checker, fake, run",
    [
        (search_mod, "arrows", lambda *a: True, lambda: max_family(ArrowQuery.downset(5, 3, 7))),
        (search_mod, "hookarrow", lambda *a: True, lambda: max_tilde(ArrowQuery.tilde(5, 6))),
        (search_mod, "is_antichain", lambda *a: False,
         lambda: max_antichain(ArrowQuery.antichain(4, 1))),
        (canc_mod, "is_cancellative", lambda *a: PatternCheck(False, None),
         lambda: max_cancellative(5, 3)),
        (canc_mod, "pattern_free", lambda *a: False, lambda: ex3(5, Pattern.K_COMPLETE)),
    ],
    ids=["max_family", "max_tilde", "max_antichain", "max_cancellative", "ex3"],
)
def test_failed_reverification_raises(monkeypatch, module, checker, fake, run):
    # a witness the independent checker rejects is never returned
    monkeypatch.setattr(module, checker, fake)
    with pytest.raises(RuntimeError, match="re-verification"):
        run()


@pytest.mark.parametrize(
    "run",
    [
        lambda: max_family(ArrowQuery.downset(5, 3, 7)),
        lambda: max_tilde(ArrowQuery.tilde(5, 6)),
        lambda: max_antichain(ArrowQuery.antichain(4, 1)),
        lambda: max_cancellative(5, 3),
        lambda: ex3(5, Pattern.K_COMPLETE),
    ],
    ids=["max_family", "max_tilde", "max_antichain", "max_cancellative", "ex3"],
)
def test_lost_witness_member_raises(monkeypatch, run):
    # a canonical listing that repeats one chosen mask (and so drops
    # another) fails the length check, whatever the predicate says
    real = search_mod._canonicalize

    def repeat_one(masks):
        ms = real(masks)
        return ms[:-1] + ms[-2:-1]

    for module in (search_mod, canc_mod):
        if hasattr(module, "_canonicalize"):
            monkeypatch.setattr(module, "_canonicalize", repeat_one)
    with pytest.raises(RuntimeError, match="re-verification"):
        run()


@pytest.mark.parametrize(
    "run",
    [
        lambda: max_family(ArrowQuery.downset(6, 4, 13)),
        lambda: max_tilde(ArrowQuery.tilde(6, 6)),
        lambda: max_antichain(ArrowQuery.antichain(4, 1)),
        lambda: max_cancellative(6, 3),
        lambda: max_cancellative(7, 2),
        lambda: ex3(6, Pattern.K_COMPLETE),
    ],
    ids=["max_family", "max_tilde", "max_antichain", "max_cancellative", "trianglefree", "ex3"],
)
def test_finished_search_leaves_no_reference_cycles(run):
    # states, searchers and sub-query results are freed by reference
    # counting alone, so none waits for the cyclic collector
    import gc

    run()  # imports and first-call caches
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


# (optimum, proved_optimal, nodes) with symmetry on and off.  The DFS is
# deterministic, so a change that claims not to alter the search must
# leave every triple exactly as it is.
_NODE_PINS = {
    "downset-6-4-13": (lambda s: max_family(ArrowQuery.downset(6, 4, 13, use_symmetry=s)),
                       (27, True, 32), (27, True, 457)),
    "downset-6-3-7": (lambda s: max_family(ArrowQuery.downset(6, 3, 7, use_symmetry=s)),
                      (16, True, 20), (16, True, 40)),
    "tilde-6-6": (lambda s: max_tilde(ArrowQuery.tilde(6, 6, use_symmetry=s)),
                  (12, True, 20), (12, True, 594)),
    "tilde-6-7": (lambda s: max_tilde(ArrowQuery.tilde(6, 7, use_symmetry=s)),
                  (16, True, 22), (16, True, 362)),
    "antichain-5-2": (lambda s: max_antichain(ArrowQuery.antichain(5, 2, use_symmetry=s)),
                      (10, True, 23), (10, True, 77)),
    "antichain-5-1": (lambda s: max_antichain(ArrowQuery.antichain(5, 1, use_symmetry=s)),
                      (5, True, 78), (5, True, 862)),
    "cancellative-2-7": (lambda s: max_cancellative(7, 2, use_symmetry=s),
                         (12, True, 5), (12, True, 5)),
    "cancellative-3-6": (lambda s: max_cancellative(6, 3, use_symmetry=s),
                         (8, True, 14), (8, True, 44)),
    "ex3-k4-6": (lambda s: ex3(6, Pattern.K_COMPLETE, use_symmetry=s),
                 (14, True, 3), (14, True, 3)),
    "ex3-k4minus-6": (lambda s: ex3(6, Pattern.K_MINUS, use_symmetry=s),
                      (10, True, 69), (10, True, 69)),
}


@pytest.mark.parametrize("sym", [True, False], ids=["sym", "nosym"])
@pytest.mark.parametrize("name", sorted(_NODE_PINS))
def test_node_counts_pinned(name, sym):
    run, with_sym, without_sym = _NODE_PINS[name]
    res = run(sym)
    assert (res.optimum, res.proved_optimal, res.nodes) == (with_sym if sym else without_sym)


def _witness_sha256(witness):
    if isinstance(witness, TildeFamily):
        masks = [*witness.g2.members, *witness.g3.members]
    else:
        masks = list(witness.members)
    return hashlib.sha256(repr(masks).encode()).hexdigest()


# Runs stopped by budget_nodes: (optimum, proved_optimal, nodes, sha256 of
# the witness masks) with symmetry on and off.  Where the budget stops the
# search, and which incumbent it leaves, depends on the order in which
# nodes are ticked and incumbents recorded, so these pin that order.
# Every level starts from its re-checked seed, so a stopped run keeps at
# least the seed (tilde-6-7 at 0 nodes: K6, 15 members).  trianglefree-10
# now proves within 300 nodes, from T(2, 10); 5 still stops it.  With
# symmetry, tilde-9-5 proves within 3,000 nodes under its deletion bound.
# antichain-6-2 stops on its seed, the 15 pairs on 6 points (K6 again).
_BUDGET_STOP_PINS = {
    ("tilde-9-5", 3000): (
        lambda s, b: max_tilde(ArrowQuery.tilde(9, 5, use_symmetry=s, budget_nodes=b)),
        (20, True, 191, "c5a31ace89f1c91a91a30fd2e223646df5fdcdfc1f54108313c7abc006fd461f"),
        (20, False, 3001, "c5a31ace89f1c91a91a30fd2e223646df5fdcdfc1f54108313c7abc006fd461f"),
    ),
    ("downset-8-4-13", 3000): (
        lambda s, b: max_family(ArrowQuery.downset(8, 4, 13, use_symmetry=s, budget_nodes=b)),
        (48, False, 3001, "db54379c374fd7ebc802f979c596f69ab3ac8166fb6e4700af33ef93a087a00d"),
        (48, False, 3001, "db54379c374fd7ebc802f979c596f69ab3ac8166fb6e4700af33ef93a087a00d"),
    ),
    ("ex3-k4-7", 3000): (
        lambda s, b: ex3(7, Pattern.K_COMPLETE, use_symmetry=s, budget_nodes=b),
        (23, False, 3001, "b2ff29ef8949e51a49afcc919fb9d0da25001dce4cda40f9e895899acc12c7d2"),
        (23, False, 3001, "b2ff29ef8949e51a49afcc919fb9d0da25001dce4cda40f9e895899acc12c7d2"),
    ),
    ("trianglefree-10", 3000): (
        lambda s, b: max_cancellative(10, 2, use_symmetry=s, budget_nodes=b),
        (25, True, 8, "ca4f41cdeebfc55abe552ac639cda12daa0e8f21bb30387ff9f5f75e7f02b8d9"),
        (25, True, 8, "ca4f41cdeebfc55abe552ac639cda12daa0e8f21bb30387ff9f5f75e7f02b8d9"),
    ),
    ("trianglefree-10", 300): (
        lambda s, b: max_cancellative(10, 2, use_symmetry=s, budget_nodes=b),
        (25, True, 8, "ca4f41cdeebfc55abe552ac639cda12daa0e8f21bb30387ff9f5f75e7f02b8d9"),
        (25, True, 8, "ca4f41cdeebfc55abe552ac639cda12daa0e8f21bb30387ff9f5f75e7f02b8d9"),
    ),
    ("trianglefree-10", 5): (
        lambda s, b: max_cancellative(10, 2, use_symmetry=s, budget_nodes=b),
        (25, False, 6, "ca4f41cdeebfc55abe552ac639cda12daa0e8f21bb30387ff9f5f75e7f02b8d9"),
        (25, False, 6, "ca4f41cdeebfc55abe552ac639cda12daa0e8f21bb30387ff9f5f75e7f02b8d9"),
    ),
    ("tilde-10-5", 3000): (
        lambda s, b: max_tilde(ArrowQuery.tilde(10, 5, use_symmetry=s, budget_nodes=b)),
        (25, False, 3001, "ca4f41cdeebfc55abe552ac639cda12daa0e8f21bb30387ff9f5f75e7f02b8d9"),
        (25, False, 3001, "ca4f41cdeebfc55abe552ac639cda12daa0e8f21bb30387ff9f5f75e7f02b8d9"),
    ),
    ("downset-9-4-13", 3000): (
        lambda s, b: max_family(ArrowQuery.downset(9, 4, 13, use_symmetry=s, budget_nodes=b)),
        (64, False, 3001, "de58f6372500f7ab13e74787ef49464346b9b99fa80d568647d0ad5e79384dcb"),
        (64, False, 3001, "de58f6372500f7ab13e74787ef49464346b9b99fa80d568647d0ad5e79384dcb"),
    ),
    ("tilde-6-7", 0): (
        lambda s, b: max_tilde(ArrowQuery.tilde(6, 7, use_symmetry=s, budget_nodes=b)),
        (15, False, 1, "f407543d0a255ca200f0166e00af59599000b66aaf367e69dcf6dd4a212bbed3"),
        (15, False, 1, "f407543d0a255ca200f0166e00af59599000b66aaf367e69dcf6dd4a212bbed3"),
    ),
    ("tilde-6-7", 1): (
        lambda s, b: max_tilde(ArrowQuery.tilde(6, 7, use_symmetry=s, budget_nodes=b)),
        (15, False, 2, "f407543d0a255ca200f0166e00af59599000b66aaf367e69dcf6dd4a212bbed3"),
        (15, False, 2, "f407543d0a255ca200f0166e00af59599000b66aaf367e69dcf6dd4a212bbed3"),
    ),
    ("antichain-6-2", 300): (
        lambda s, b: max_antichain(ArrowQuery.antichain(6, 2, use_symmetry=s, budget_nodes=b)),
        (15, False, 301, "f407543d0a255ca200f0166e00af59599000b66aaf367e69dcf6dd4a212bbed3"),
        (15, False, 301, "f407543d0a255ca200f0166e00af59599000b66aaf367e69dcf6dd4a212bbed3"),
    ),
    ("cancellative-3-8", 3000): (
        lambda s, b: max_cancellative(8, 3, use_symmetry=s, budget_nodes=b),
        (18, True, 114, "70324605b3888fbad743f6214d456ae2663a6102baf649ac5954341408f26dff"),
        (18, False, 3001, "70324605b3888fbad743f6214d456ae2663a6102baf649ac5954341408f26dff"),
    ),
}


@pytest.mark.parametrize("sym", [True, False], ids=["sym", "nosym"])
@pytest.mark.parametrize(
    "key", sorted(_BUDGET_STOP_PINS), ids=lambda k: f"{k[0]}-budget{k[1]}"
)
def test_budget_stopped_runs_pinned(key, sym):
    run, with_sym, without_sym = _BUDGET_STOP_PINS[key]
    res = run(sym, key[1])
    got = (res.optimum, res.proved_optimal, res.nodes, _witness_sha256(res.witness))
    assert got == (with_sym if sym else without_sym)


def _prereqs(st, i):
    """The candidates one element smaller than candidate i, from
    ``st.masks`` alone."""
    m = st.masks[i]
    return [
        j
        for j, mj in enumerate(st.masks)
        if mj & m == mj and mj.bit_count() + 1 == m.bit_count()
    ]


def _chosen(st, j):
    return st.inbits >> j & 1


def _marked_out(moves):
    """The candidates a walk has marked out, from its own record: the
    "out" moves it has not undone.  The references read this, never the
    state, for what was excluded."""
    return _bits(i for (kind, i), _ in moves if kind == "out")


def _undecided(st, out):
    """The candidates neither chosen nor in ``out``, the marked-out ones."""
    decided = st.inbits | out
    return [i for i in range(len(st.masks)) if not decided >> i & 1]


def _chosen_masks(st):
    return [m for j, m in enumerate(st.masks) if _chosen(st, j)]


def _frozen(st):
    """Every attribute of a state but ``lean`` (which ``reach()`` sets),
    deep-copied: equal before and after a move only if the move changed
    nothing, and after ``restore`` only if the snapshot holds all a move
    changes."""
    return deepcopy({k: v for k, v in vars(st).items() if k != "lean"})


def _closure_ref(st, out, i):
    """i plus its transitively missing one-smaller subsets, walked one
    level at a time; None if any of them is in ``out``, the marked-out
    candidates.  The reference for the
    candidates ``try_add_group`` adds, the change in ``inbits``."""
    adds = []
    stack = [i]
    seen = set()
    while stack:
        j = stack.pop()
        if j in seen:
            continue
        seen.add(j)
        if _chosen(st, j):
            continue
        if out >> j & 1:
            return None
        adds.append(j)
        stack.extend(_prereqs(st, j))
    return adds


def _window_fills(st):
    """Chosen candidates per window of a ``_CapState``, recounted from the
    chosen masks (the bits of ``inbits``)."""
    chosen = _chosen_masks(st)
    return [sum(1 for m in chosen if m & w == m) for w in st.windows]


def _decoded_fills(st):
    """Per-window counts decoded from ``packed``: ``width``-bit fields,
    each biased by 2^(width-1) - 1 - cap."""
    field = (1 << st.width) - 1
    bias = (1 << st.width - 1) - 1 - st.cap
    return [(st.packed >> w * st.width & field) - bias for w in range(len(st.windows))]


def _check_fields(st, where):
    """The packed counters match the recount from the chosen masks, and
    so do ``full`` (the top bits of the windows at cap) and ``resid``."""
    fills = _window_fills(st)
    assert _decoded_fills(st) == fills, where
    top = 1 << st.width - 1
    assert st.full == sum(top << w * st.width for w, c in enumerate(fills) if c == st.cap), where
    assert st.resid == st.cap * len(st.windows) - sum(fills), where


def _brute_counted(st, out):
    """Candidates of a ``_CapState`` that ``free`` should hold, from the
    chosen and the marked-out (``out``) candidates, the window fills and
    the prerequisites alone: undecided, in no full window, and with no
    marked-out prerequisite."""
    fills = _window_fills(st)

    def fits(i):
        m = st.masks[i]
        return all(fills[wi] < st.cap for wi, w in enumerate(st.windows) if m & w == m)

    return [
        i
        for i in _undecided(st, out)
        if fits(i) and not any(out >> p & 1 for p in _prereqs(st, i))
    ]


def _brute_subtree_max(st, out):
    """Most undecided candidates that can still be added together: closed
    under prerequisites (each one chosen already or added too) and within
    every window cap.  Subsets are grown in index order, in which every
    prerequisite (one element smaller) precedes the sets that need it."""
    undecided = _undecided(st, out)
    wins = {
        i: [wi for wi, w in enumerate(st.windows) if st.masks[i] & w == st.masks[i]]
        for i in undecided
    }
    room = [st.cap - c for c in _window_fills(st)]
    taken = set()
    best = 0

    def grow(pos):
        nonlocal best
        best = max(best, len(taken))
        for k in range(pos, len(undecided)):
            i = undecided[k]
            if all(_chosen(st, p) or p in taken for p in _prereqs(st, i)) and all(
                room[w] > 0 for w in wins[i]
            ):
                taken.add(i)
                for w in wins[i]:
                    room[w] -= 1
                grow(k + 1)
                for w in wins[i]:
                    room[w] += 1
                taken.remove(i)

    grow(0)
    return best


def _undo(st, moves):
    """Restore the snapshot taken before the last move of ``moves``."""
    _, here = moves.pop()
    st.restore(here)
    assert st.snapshot() == here


# Reference for the uniform states (ex3, triangle-free, cancellative):
# each is "no forbidden configuration among the chosen candidates", listed
# from the masks alone.


def _conflicts(st):
    """``pairs[i][j]``: for each forbidden configuration holding the
    candidates i and j, the bitset of its other members.  A configuration
    is cap+1 candidates inside one window or, in a cancellative state,
    edges H1, H2 meeting in l-1 points and an edge H3 covering their
    difference; here each has at least three members."""
    ms = st.masks
    bad = set()
    if isinstance(st, canc_mod._CancellativeState):
        for a, b in combinations(range(len(ms)), 2):
            if (ms[a] & ms[b]).bit_count() == st.cards[0] - 1:
                d = ms[a] ^ ms[b]
                bad.update(frozenset((a, b, c)) for c, mc in enumerate(ms) if d & mc == d)
    else:
        for w in st.windows:
            inside = [i for i, m in enumerate(ms) if m & w == m]
            bad.update(frozenset(c) for c in combinations(inside, st.cap + 1))
    pairs = [[[] for _ in ms] for _ in ms]
    for conf in bad:
        full = sum(1 << j for j in conf)
        for i, j in permutations(conf, 2):
            pairs[i][j].append(full & ~(1 << i | 1 << j))
    return pairs


def _addable(pairs, chosen, idxs):
    """The candidates of ``idxs`` that no forbidden configuration blocks
    once the chosen bitset is in."""
    ins = [i for i in range(chosen.bit_length()) if chosen >> i & 1]
    return [j for j in idxs if not any(r & chosen == r for i in ins for r in pairs[i][j])]


def _brute_u(st, out, pairs):
    """U from the primary state: the chosen candidates plus the undecided
    ones that can still be added."""
    chosen = st.inbits
    return chosen | sum(1 << i for i in _addable(pairs, chosen, _undecided(st, out)))


def _brute_free_max(st, out, pairs):
    """Most members, chosen ones included, of a family in the subtree:
    exhaustive growth in index order, pruned by the number of candidates
    still addable."""
    best = 0

    def grow(cands, chosen, taken):
        nonlocal best
        best = max(best, taken)
        for k, i in enumerate(cands):
            if taken + len(cands) - k <= best:
                return
            grown = chosen | 1 << i
            # a candidate addable before i went in is blocked only by a
            # configuration holding i
            later = [j for j in cands[k + 1:] if not any(r & grown == r for r in pairs[i][j])]
            grow(later, grown, taken + 1)

    chosen = st.inbits
    grow(_addable(pairs, chosen, _undecided(st, out)), chosen, chosen.bit_count())
    return best


def _reach_ref(st, u, m, link):
    """The vertex-deletion bound from its definition, on the bitset U = u:
    for every vertex v, the members of U that avoid v, at most m, plus
    those that contain v, at most ``link`` (None: no cap); and the first
    term averaged over v, each member avoiding at least n - k vertices,
    or at least one where k = n (an antichain: only the full set avoids
    none, and a sum of 0 means U holds nothing else, so the average
    reads |U|)."""
    members = [mask for i, mask in enumerate(st.masks) if u >> i & 1]
    size = len(members)
    per_vertex, total = [], 0
    for v in range(st.nbits):
        d = sum(1 for mask in members if mask >> v & 1)
        total += min(m, size - d)
        per_vertex.append(min(m, size - d) + (d if link is None else min(link, d)))
    spare = max(st.nbits - max(st.cards), 1)
    average = total // spare if total else size
    return min(min(per_vertex), average)


def _averaged(build, args):
    """``build(*args)`` with its averaging bound on, as ``_solve_state``
    turns it on, but with M found by brute force (None when the state
    declares no sub-query); also its conflicts."""
    st = build(*args)
    m = None
    sub = type(st).sub_query(*args)
    if sub is not None:
        assert sub == (args[0] - 1, *args[1:])
        smaller = build(*sub)
        m = _brute_free_max(smaller, 0, _conflicts(smaller))
        st.start_averaging(m)
    return st, _conflicts(st), m


def _check_averaging(st, out, pairs, m, memo, where):
    """U is exact, no marked-out candidate (``out``) is chosen, and the
    averaging bound is its definition and covers the subtree optimum;
    True when it meets it.  ``memo`` caches optima by the chosen and
    marked-out candidates."""
    u = _brute_u(st, out, pairs)
    assert st.free == u & ~st.inbits and not st.inbits & out, where
    if m is None:  # too few points for the bound
        assert not st.has_reach, where
        return False
    key = st.inbits, out
    if key not in memo:
        memo[key] = _brute_free_max(st, out, pairs)
    reach = st.reach()
    assert reach == _reach_ref(st, u, m, None), where
    counted = [i for i in range(len(st.masks)) if (u & ~st.inbits) >> i & 1]
    assert st.pick_first() == _pick_ref(st, counted, u), where
    assert reach >= memo[key], where
    return reach == memo[key]


# Reference for the down-set bound: M by brute force.


def _brute_downset_max(n, a, b):
    """Largest down-set on [n] of sets of size < a, the empty set
    included, with every a-window trace below b.  Down-sets are grown one
    set at a time in (size, mask) order, a set only once all its
    one-smaller subsets are in, so each is met once; traces only grow."""
    sets = sorted((m for m in range(1, 1 << n) if m.bit_count() < a),
                  key=lambda m: (m.bit_count(), m))
    wins = [sum(1 << x for x in c) for c in combinations(range(n), a)]
    fam = {0}
    best = 0

    def grow(pos):
        nonlocal best
        best = max(best, len(fam))
        for k in range(pos, len(sets)):
            m = sets[k]
            if all(m & ~(1 << x) in fam for x in range(n) if m >> x & 1):
                fam.add(m)
                if all(len({f & w for f in fam}) < b for w in wins):
                    grow(k + 1)
                fam.remove(m)

    grow(0)
    return best


def _bounded_downset(args):
    """``_build_downset_state(*args)`` with its bound on, as
    ``_solve_state`` turns it on, but with M = M(n-1, a, b) found by
    brute force; and (M, None), no link cap, or None when the state has
    too few points for the bound.  The search for M reaches the same
    optimum, with symmetry on and off."""
    n, a, b = args
    st = search_mod._build_downset_state(*args)
    sub = search_mod._DownsetState.sub_query(*args)
    if n - 1 < a:
        assert sub is None
        return st, None
    assert sub == (n - 1, a, b), args
    m = _brute_downset_max(*sub)
    for sym in (True, False):
        res = max_family(ArrowQuery.downset(*sub, use_symmetry=sym))
        assert (res.optimum, res.proved_optimal) == (m, True), (sub, sym)
    st.start_averaging(m)
    return st, (m, None)


def _bounded_tilde(args):
    """``_build_tilde_state(*args)`` with its bound on, as ``_solve_state``
    turns it on, but with M = tilde(n-1, c) found by brute force; and
    (M, None), no link cap, or None when the state has too few points for
    the bound (or for c <= 2, where it declares none).  The search for M
    reaches the same optimum, with symmetry on and off."""
    n, c = args
    st = search_mod._build_tilde_state(*args)
    sub = search_mod._TildeState.sub_query(*args)
    if n - 1 < 4 or c <= 2:
        assert sub is None
        return st, None
    assert sub == (n - 1, c), args
    m = brute_max_tilde(n - 1, c)
    for sym in (True, False):
        res = max_tilde(ArrowQuery.tilde(n - 1, c, use_symmetry=sym))
        assert (res.optimum, res.proved_optimal) == (m, True), (args, sym)
    st.start_averaging(m)
    return st, (m, None)


def _brute_cap_u(st, out):
    """U of a ``_CapState`` from its chosen and marked-out candidates: the
    chosen candidates plus the counted ones."""
    return st.inbits | sum(1 << i for i in _brute_counted(st, out))


def _check_cap_u(st, out, bound, memo, where):
    """After a move on a down-set or tilde state: U is exact, no
    marked-out candidate (``out``) is chosen and, where the state carries
    the vertex-deletion bound with (M, L) = ``bound`` (L None: the link
    is capped by d_v alone), ``reach()`` is the bound's definition and
    covers the subtree optimum (``memo`` caches it by the chosen and
    marked-out candidates); True when it meets it."""
    u = _brute_cap_u(st, out)
    assert st.free == u & ~st.inbits and not st.inbits & out, where
    if bound is None:
        assert not st.has_reach, where
        return False
    key = st.inbits, out
    if key not in memo:
        memo[key] = st.inbits.bit_count() + _brute_subtree_max(st, out)
    reach = st.reach()
    assert reach == _reach_ref(st, u, *bound), where
    assert reach >= memo[key], where
    return reach == memo[key]


def _pick_ref(st, counted, u):
    """What ``pick_first()`` returns: the largest counted candidate, the
    smallest index first within a size; after ``reach()`` on U = ``u``
    (None: the state has no bound), the smallest-index counted candidate
    of that size that contains the first vertex of least degree in U,
    where one does."""
    first = max(counted, key=lambda i: (st.cards[i], -i), default=None)
    if first is None or u is None:
        return first
    members = [mask for i, mask in enumerate(st.masks) if u >> i & 1]
    degrees = [sum(1 for mask in members if mask >> v & 1) for v in range(st.nbits)]
    v = degrees.index(min(degrees))
    at_v = [i for i in counted if st.cards[i] == st.cards[first] and st.masks[i] >> v & 1]
    return min(at_v, default=first)


def _check_cap_counted(st, out, where):
    """``free`` holds the counted candidates, and ``pick_first()`` picks
    among them by ``_pick_ref``: after ``reach()`` where the state has the
    bound, else the largest, the smallest index first within a size."""
    counted = _brute_counted(st, out)
    assert st.free == sum(1 << i for i in counted), where
    u = None
    if st.has_reach:
        st.reach()
        u = _brute_cap_u(st, out)
    else:
        assert st.lean == -1, where
    assert st.pick_first() == _pick_ref(st, counted, u), where


# ex3 (K4, K4-), triangle-free, cancellative l=3
_UNIFORM_BUILDS = [
    *((search_mod._build_uniform_window_state, (n, 3, 4, cap))
      for n in (4, 5, 6) for cap in (3, 2)),
    *((search_mod._build_uniform_window_state, (n, 2, 3, 2)) for n in range(3, 8)),
    *((canc_mod._build_cancellative_state, (n, 3)) for n in range(4, 8)),
]


def _random_move(st, rng, moves, undo, add, counted_only=False):
    """One step of a seeded walk.  With probability ``undo``, or when no
    candidate is undecided, restore the snapshot taken before the last
    move; else with probability ``add`` try to add an undecided
    candidate (a counted one, with ``counted_only``), and else mark one
    out.  ``moves`` holds each move with the snapshot before it, and is
    the walk's own record of what it marked out; a failed add changes
    nothing and is not kept.  Returns ``(i, added)`` for an add attempt,
    else None."""
    open_ = _undecided(st, _marked_out(moves))
    pool = [i for i in open_ if st.free >> i & 1] if counted_only else open_
    r = rng.random()
    if moves and (not open_ or r < undo):
        _undo(st, moves)
    elif pool and r < add:
        i = rng.choice(pool)
        here = st.snapshot()
        added = st.try_add_group(i)
        if added:
            moves.append((("in", i), here))
        else:
            assert st.snapshot() == here, ("in", i)
        return i, added
    elif open_:
        i = rng.choice(open_)
        here = st.snapshot()
        st.mark_out(st.bits[i])
        moves.append((("out", i), here))


def test_all_in_matches_bruteforce_on_random_states():
    # Bound soundness of _CapState on small states, checked against brute
    # force along seeded random add/out/undo walks, where an undo restores
    # the snapshot taken before the move.  (The name is kept from the
    # all-in shortcut this test used to check.)  A down-set walk starts
    # from the state as built, with the empty set (candidate 0) chosen and
    # counted once in every window under the cap b - 1, and never decides
    # it again.  After every move, failed adds included, U is exact on
    # every state, and on down-sets and on tilde from n = 5 and c >= 3 the
    # vertex-deletion bound, with M by brute force (the empty set among
    # the down-set's members, as in the state), is its definition and
    # covers the subtree optimum.  The branching pick is recomputed too:
    # after reach(), at the first least-degree vertex of U; on the states
    # without the bound (tilde on 4 points or with c <= 2), the largest
    # counted candidate.  Undoing a whole walk leaves every attribute as
    # it was.  The uniform and antichain states follow, with their own
    # references.
    import random
    from collections import Counter

    from tracelab.search import (
        _build_downset_state,
        _build_tilde_state,
        _build_uniform_window_state,
    )

    builds = [
        (_build_tilde_state, (4, 4)),
        (_build_tilde_state, (4, 6)),
        (_build_tilde_state, (5, 2)),
        (_build_tilde_state, (5, 3)),
        (_build_tilde_state, (5, 5)),
        (_build_tilde_state, (5, 7)),
        (_build_downset_state, (4, 4, 12)),
        (_build_downset_state, (5, 3, 5)),
        (_build_downset_state, (5, 3, 7)),
        (_build_downset_state, (5, 3, 6)),
        (_build_downset_state, (5, 2, 3)),
        (_build_downset_state, (6, 2, 4)),
        (_build_uniform_window_state, (6, 2, 3, 2)),
        (_build_uniform_window_state, (5, 3, 4, 2)),
        (_build_uniform_window_state, (5, 2, 4, 3)),
    ]
    rng = random.Random(2024)
    tight = 0  # states where the bound equals the subtree optimum
    reach_tight = Counter()  # states of each build where reach() does
    for build, args in builds:
        if build is _build_downset_state:
            st, bound = _bounded_downset(args)
        elif build is _build_tilde_state:
            st, bound = _bounded_tilde(args)
        else:
            st, bound = build(*args), None
        memo = {}
        assert len(st.masks) <= 20  # brute force stays cheap
        assert all(p < i for i in range(len(st.masks)) for p in _prereqs(st, i))
        # pick_first reads the index order as (size, mask)
        assert st.masks == sorted(st.masks, key=lambda m: (m.bit_count(), m))
        start = _frozen(st)
        for _walk in range(4):
            moves = []
            for _ in range(60):
                where, out = (build.__name__, args, moves), _marked_out(moves)
                _check_cap_counted(st, out, where)
                _check_fields(st, where)
                best = _brute_subtree_max(st, out)
                bound_now = st.bound_remaining()
                assert bound_now >= best, where
                tight += bound_now == best
                reach_tight[build] += _check_cap_u(st, out, bound, memo, where)
                _random_move(st, rng, moves, 0.2, 0.65)
            where, out = (build.__name__, args, moves), _marked_out(moves)
            _check_cap_counted(st, out, where)
            reach_tight[build] += _check_cap_u(st, out, bound, memo, where)
            while moves:
                _undo(st, moves)
            assert _frozen(st) == start
    assert tight, "no walk reached a state where the bound is exact"
    assert reach_tight[_build_downset_state], "the down-set bound is never exact"
    assert reach_tight[_build_tilde_state], "the tilde bound is never exact"

    # The uniform states carry the averaging bound over U (chosen and
    # counted candidates): after every move, failed adds included, U
    # matches brute force, the bound covers the optimum and the pick
    # after it is at the first least-degree vertex.
    rng = random.Random(3)
    tight = 0
    for build, args in _UNIFORM_BUILDS:
        where = (build.__name__, args)
        st, pairs, m = _averaged(build, args)
        memo = {}
        start = _frozen(st)
        for _walk in range(2):
            moves = []
            tight += _check_averaging(st, 0, pairs, m, memo, (*where, moves))
            for _ in range(30):
                _random_move(st, rng, moves, 0.2, 0.65)
                out = _marked_out(moves)
                tight += _check_averaging(st, out, pairs, m, memo, (*where, moves))
                if isinstance(st, search_mod._CapState):
                    _check_fields(st, (*where, moves))
                else:
                    _check_counted_fields(st, (*where, moves))
            while moves:
                _undo(st, moves)
            assert _frozen(st) == start, where
    assert tight, "no walk reached a state where the averaging bound is exact"

    # The antichain states carry the bound with M = L = the optimum on
    # n-1 points, by brute force: after every move, free is the addable
    # candidates, the packed fields decode, reach() is its definition and
    # covers the subtree optimum, and the pick after it is at the first
    # least-degree vertex.  The full set alone is checked first: it
    # avoids no vertex, and the bound still reads its one member.
    rng = random.Random(26)
    tight = 0
    for args in ((3, 1), (4, 1), (4, 2), (5, 2)):
        st, m = _bounded_antichain(args)
        memo = {}
        start = _frozen(st)
        here = st.snapshot()
        assert st.try_add_group(len(st.masks) - 1)
        assert st.free == 0
        tight += _check_antichain_reach(st, 0, m, memo, (args, "full set"))
        st.restore(here)
        for _walk in range(2):
            moves = []
            tight += _check_antichain_reach(st, 0, m, memo, (args, moves))
            for _ in range(30):
                _random_move(st, rng, moves, 0.2, 0.65)
                out = _marked_out(moves)
                tight += _check_antichain_reach(st, out, m, memo, (args, moves))
            while moves:
                _undo(st, moves)
            assert _frozen(st) == start, args
    assert tight, "no walk reached a state where the antichain bound is exact"


def _bounded_antichain(args):
    """``_build_antichain_state(*args)`` with its bound on, as
    ``_solve_state`` turns it on, but with M = L = the optimum on n-1
    points by brute force, growing the empty state on n-1 points; and
    M.  The search for M reaches it, with symmetry on and off."""
    n, k = args
    st = search_mod._build_antichain_state(*args)
    assert search_mod._AntichainState.sub_query(*args) == (n - 1, k), args
    m = _brute_counted_max(search_mod._build_antichain_state(n - 1, k), 0, _antichain_addable)
    for sym in (True, False):
        res = max_antichain(ArrowQuery.antichain(n - 1, k, use_symmetry=sym))
        assert (res.optimum, res.proved_optimal) == (m, True), (args, sym)
    st.start_averaging(m)
    return st, m


def _check_antichain_reach(st, out, m, memo, where):
    """After a move on an antichain state whose bound runs with
    M = L = m: ``free`` holds exactly the addable candidates, the packed
    fields decode, ``reach()`` is the bound's definition and covers the
    subtree optimum (``memo`` caches it by the chosen and marked-out
    candidates), and ``pick_first()`` follows ``_pick_ref``; True when
    the bound meets the optimum."""
    counted = _addable_set(st, out, _antichain_addable)
    assert st.free == _bits(counted) and not st.inbits & out, where
    _check_counted_fields(st, where)
    u = st.inbits | st.free
    key = st.inbits, out
    if key not in memo:
        memo[key] = st.inbits.bit_count() + _brute_counted_max(st, out, _antichain_addable)
    reach = st.reach()
    assert reach == _reach_ref(st, u, m, m), where
    assert st.pick_first() == _pick_ref(st, counted, u), where
    assert reach >= memo[key], where
    return reach == memo[key]


def _overflows(st, closure):
    """Would adding ``closure`` put more than ``cap`` chosen candidates in
    some window?  Recounted from the chosen masks."""
    return any(
        fill + sum(1 for j in closure if st.masks[j] & w == st.masks[j]) > st.cap
        for fill, w in zip(_window_fills(st), st.windows)
    )


def _bits(idxs):
    return sum(1 << j for j in idxs)


def test_cap_state_failed_add_changes_nothing():
    # A _CapState add sums its closure's window increments into a copy of
    # the packed counters, so an add that overflows a window on a later
    # closure member must leave the state as it found it: the snapshot
    # and every other attribute.  Seeded add/out/undo walks on down-set
    # and tilde states, where closures hold several members, and on the
    # uniform window states, whose U bitset and averaging bound are
    # checked against brute force after every move; so are U on the
    # down-set and tilde states, and the down-set bound.  An add fails
    # exactly when its closure has an excluded or a blocked member (an
    # early fail, before the counters are read) or overflows a window;
    # both kinds occur, counted from _closure_ref.  A successful add
    # chooses exactly the closure: the change in inbits.  The down-set
    # states start with the empty set chosen and under the cap b - 1, so
    # the recounted window fills include it, and no closure holds it
    # (it is chosen already).
    import random

    from tracelab.search import (
        _build_downset_state,
        _build_tilde_state,
        _build_uniform_window_state,
    )

    builds = [
        (_build_downset_state, (5, 3, 5)),
        (_build_downset_state, (5, 4, 8)),
        (_build_downset_state, (6, 3, 6)),
        (_build_tilde_state, (5, 4)),
        (_build_tilde_state, (6, 6)),
    ]
    builds += [(b, args) for b, args in _UNIFORM_BUILDS if b is _build_uniform_window_state]
    rng = random.Random(707)
    late_overflows = 0  # failed adds whose closure is counted but overflows
    early_fails = 0  # failed adds with a blocked closure member
    for build, args in builds:
        uniform = build is _build_uniform_window_state
        memo = {}
        if uniform:
            st, pairs, m = _averaged(build, args)
        elif build is _build_downset_state:
            st, bound = _bounded_downset(args)
        else:
            st, bound = build(*args), None
        start = _frozen(st)
        for _walk in range(6):
            moves = []
            for _ in range(50):
                where, out = (build.__name__, args, moves), _marked_out(moves)
                if uniform:
                    _check_averaging(st, out, pairs, m, memo, where)
                else:
                    _check_cap_u(st, out, bound, memo, where)
                _check_fields(st, where)
                open_ = _undecided(st, out)
                r = rng.random()
                if moves and (not open_ or r < 0.2):
                    _undo(st, moves)
                elif r < 0.8:
                    i = rng.choice(open_)
                    closure = _closure_ref(st, out, i)
                    counted = set(_brute_counted(st, out))
                    early = closure is None or any(j not in counted for j in closure)
                    overflow = not early and _overflows(st, closure)
                    before, here = _frozen(st), st.snapshot()
                    added = st.try_add_group(i)
                    assert added != (early or overflow), where
                    if not added:
                        assert st.snapshot() == here and _frozen(st) == before, where
                        late_overflows += overflow and len(closure) >= 2 and not _overflows(st, [i])
                        early_fails += closure is not None and early
                    else:
                        assert st.inbits ^ before["inbits"] == _bits(closure), where
                        assert st.free == _bits(_brute_counted(st, out)), where
                        moves.append((("in", i), here))
                else:
                    i = rng.choice(open_)
                    here = st.snapshot()
                    st.mark_out(st.bits[i])
                    moves.append((("out", i), here))
            where, out = (build.__name__, args, moves), _marked_out(moves)
            if uniform:
                _check_averaging(st, out, pairs, m, memo, where)
            else:
                _check_cap_u(st, out, bound, memo, where)
            _check_fields(st, where)
            while moves:
                _undo(st, moves)
            assert _frozen(st) == start, (build.__name__, args)
    assert late_overflows, "no add overflowed on a closure member after the first"
    assert early_fails, "no add failed on a blocked closure member"


def test_cap_state_structure_matches_bruteforce():
    # _CapState derives its window bitsets, window increments, child and
    # below bitsets from (n, cards, win, cap); recount them by brute-force
    # containment for every builder at n <= 6.  The down-set state's
    # candidates start with the empty set, which it chooses at build, so
    # its root has that one candidate chosen, with cap b - 1; every other
    # root has none.  From the root, an add of any undecided candidate
    # chooses exactly the candidate and the candidates inside it (inbits
    # afterwards), and restoring the root snapshot restores every
    # attribute.  The caps are loose enough that no root add overflows.
    from tracelab.search import (
        _build_downset_state,
        _build_tilde_state,
        _build_uniform_window_state,
    )

    builds = [(_build_downset_state, (n, a, 1 << a)) for n in range(1, 7) for a in range(1, n + 1)]
    builds += [(_build_tilde_state, (n, 10)) for n in range(4, 7)]
    builds += [
        (_build_uniform_window_state, (n, card, win, cap))
        for n in range(2, 7)
        for card, win, cap in ((2, 3, 2), (2, 4, 5), (3, 4, 3))
        if win <= n
    ]
    for build, args in builds:
        st = build(*args)
        masks, where = st.masks, (build.__name__, args)
        assert st.window_bits == [
            sum(1 << i for i, m in enumerate(masks) if m & w == m) for w in st.windows
        ], where
        assert st.inc == [
            sum(1 << wi * st.width for wi, w in enumerate(st.windows) if m & w == m) for m in masks
        ], where
        assert st.child_bits == [
            sum(1 << j for j, mj in enumerate(masks)
                if mi & mj == mi and mj.bit_count() == mi.bit_count() + 1)
            for mi in masks
        ], where
        assert st.below_bits == [
            sum(1 << j for j, mj in enumerate(masks) if mj & mi == mj and mj != mi) for mi in masks
        ], where
        _check_fields(st, where)
        if build is _build_downset_state:
            assert (masks[0], st.inbits, st.cap) == (0, 1, args[2] - 1), where
        else:
            assert st.inbits == 0, where
        start, root = _frozen(st), st.snapshot()
        for i in _undecided(st, 0):
            mi = masks[i]
            assert st.try_add_group(i), where
            assert st.inbits == _bits(j for j, mj in enumerate(masks) if mj & mi == mj), where
            _check_fields(st, where)
            st.restore(root)
            assert _frozen(st) == start, where


def test_downset_state_chooses_the_empty_set_at_build(monkeypatch):
    # The empty set is an ordinary down-set candidate: on every (n, a, b)
    # with n <= 6, candidate 0 is the empty set, the state as built has it
    # in inbits and not in free, every a-window's decoded count is 1, and
    # free is the brute-force counted set (empty for b = 2, where that one
    # member fills each window).  A seed mask of size >= a is still no
    # candidate, and the search refuses it.
    for n in range(1, 7):
        for a in range(1, n + 1):
            for b in range(2, (1 << a) + 1):
                st = search_mod._build_downset_state(n, a, b)
                where = (n, a, b)
                assert st.masks[0] == 0 and st.cap == b - 1, where
                assert st.inbits & 1 and not st.free & 1, where
                assert _decoded_fills(st) == [1] * len(st.windows), where
                _check_fields(st, where)
                assert st.free == _bits(_brute_counted(st, 0)), where
    for extra in (0b111, 0b11111):
        _mutated_seed(
            monkeypatch, search_mod, "max_family_seed", (5, 3, 7),
            lambda level, masks: masks + [extra],
        )
        with pytest.raises(RuntimeError, match="not a candidate"):
            max_family(ArrowQuery.downset(5, 3, 7))
        monkeypatch.undo()


def test_cap_state_fields_hold_full_windows():
    # The packed counters at their limits: each window is filled with the
    # most members its cap allows (down-sets with b = 2^a take every
    # candidate of the window, tilde with c = 10 all but one), then every
    # undecided candidate is tried, so a tentative count reaches the most
    # candidates a window holds; with cap = 0 every window starts full.
    # After every move each decoded field equals the recount and free is
    # the brute-force counted set; a failed add changes no attribute, and
    # restoring a snapshot restores every attribute.
    from tracelab.search import (
        _build_downset_state,
        _build_tilde_state,
        _build_uniform_window_state,
    )

    builds = [(_build_downset_state, (a + 1, a, 1 << a)) for a in range(2, 6)]
    builds += [(_build_tilde_state, (n, 10)) for n in (4, 5, 6)]
    builds += [(_build_uniform_window_state, (n, card, win, 0))
               for n, card, win in ((3, 2, 3), (4, 2, 3), (4, 3, 4), (5, 3, 4), (5, 2, 4))]
    for build, args in builds:
        st = build(*args)
        start = _frozen(st)
        for w, window in enumerate(st.windows):
            inside = [i for i, m in enumerate(st.masks) if m & window == m]
            moves = []
            where = (build.__name__, args, window, moves)
            # largest first, so every add but the first few is a closure
            for i in sorted(inside, key=lambda i: -st.cards[i]):
                if i in _undecided(st, 0):
                    before, here = _frozen(st), st.snapshot()
                    if st.try_add_group(i):
                        moves.append((("in", i), here))
                    else:
                        assert _frozen(st) == before, where
                    _check_fields(st, where)
                    assert st.free == _bits(_brute_counted(st, 0)), where
            assert _window_fills(st)[w] == min(st.cap, len(inside)), where
            for i in _undecided(st, 0):
                before, here = _frozen(st), st.snapshot()
                added = st.try_add_group(i)
                assert added != _overflows(st, _closure_ref(st, 0, i)), where
                if added:
                    _check_fields(st, where)
                    st.restore(here)
                assert _frozen(st) == before, where
            while moves:
                _undo(st, moves)
                _check_fields(st, where)
            assert _frozen(st) == start, where


# Reference addability for the antichain and cancellative states, from the
# chosen masks alone (the per-candidate re-test the states used to run at
# every node).


def _antichain_addable(st, chosen, i):
    m = st.masks[i]
    if any(m != f and m & f in (m, f) for f in chosen):
        return False
    for w in st.windows:
        seen = {f & w for f in chosen}
        if (m & w) not in seen and len(seen) >= (1 << w.bit_count()) - 1:
            return False
    return True


def _cancellative_addable(st, chosen, i):
    e = st.masks[i]
    lm1 = e.bit_count() - 1
    diffs = {f ^ g for f, g in combinations(chosen, 2) if (f & g).bit_count() == lm1}
    cov2 = {d for f in chosen for d in _pairs(f)}
    if any(d in diffs for d in _pairs(e)):
        return False
    return not any((e & f).bit_count() == lm1 and (e ^ f) in cov2 for f in chosen)


def _pairs(m):
    bits = [1 << b for b in range(m.bit_length()) if m >> b & 1]
    return [x | y for x, y in combinations(bits, 2)]


def _addable_set(st, out, addable):
    chosen = _chosen_masks(st)
    return [i for i in _undecided(st, out) if addable(st, chosen, i)]


def _brute_counted_max(st, out, addable):
    """Most undecided candidates addable together, by exhaustive growth in
    index order (both constraints are hereditary), pruned by a count bound."""
    undecided = _undecided(st, out)
    chosen = _chosen_masks(st)
    best = 0

    def grow(pos, taken):
        nonlocal best
        best = max(best, taken)
        for k in range(pos, len(undecided)):
            if taken + len(undecided) - k <= best:
                return
            i = undecided[k]
            if addable(st, chosen, i):
                chosen.append(st.masks[i])
                grow(k + 1, taken + 1)
                chosen.pop()

    grow(0, 0)
    return best


def _check_counted_fields(st, where):
    """Decode the bitsets an antichain or cancellative state adds to the
    common three, against the chosen masks.  Antichain: bit t of window
    w's field of ``seen`` is set exactly when a chosen set's projection
    onto the window is its t-th submask (in ``submasks`` order), and no
    bit lies above the last field; window w's field of ``count``, less
    its bias 2^(field-1) - (field-1), is the popcount of its field of
    ``seen``, and its top bit is set exactly when the window is one
    projection short of shattered.  Cancellative: bit p of ``diffs`` is
    set exactly when pairs[p] is the difference of two chosen edges
    meeting in l-1 points, and of ``cov`` when a chosen edge covers it.
    Returns the number of antichain windows that are full (one
    projection short of shattered)."""
    chosen = _chosen_masks(st)
    full = 0
    if isinstance(st, search_mod._AntichainState):
        width = st.field
        bias = (1 << width - 1) - (width - 1)
        assert st.seen >> len(st.windows) * width == 0, where
        assert st.count >> len(st.windows) * width == 0, where
        for w, window in enumerate(st.windows):
            field = st.seen >> w * width & (1 << width) - 1
            shown = {p for t, p in enumerate(submasks(window)) if field >> t & 1}
            assert shown == {f & window for f in chosen}, where
            count = st.count >> w * width & (1 << width) - 1
            assert count - bias == field.bit_count(), where
            assert count >> width - 1 == (len(shown) == width - 1), where
            full += len(shown) == width - 1
    else:
        lm1 = st.cards[0] - 1
        diffs = {f ^ g for f, g in combinations(chosen, 2) if (f & g).bit_count() == lm1}
        cov = {d for f in chosen for d in _pairs(f)}
        assert st.diffs == _bits(p for p, d in enumerate(st.pairs) if d in diffs), where
        assert st.cov == _bits(p for p, d in enumerate(st.pairs) if d in cov), where
    return full


def _check_counted_walks(builds, seed, walks, steps, brute_max):
    """Seeded add/out/undo walks on antichain and cancellative states:
    after every move ``free`` is exactly the addable candidates of the
    reference, an add of an undecided candidate succeeds exactly when
    the reference can add it, ``pick_first()`` picks the largest addable
    one (smallest index first), the added bitsets decode to the chosen
    masks and, with ``brute_max``, the bound covers the subtree optimum.
    Undoing a walk restores every attribute.  Without ``brute_max`` the
    walks add counted candidates only, so they grow large families.
    Returns the number of full antichain windows met, summed over the
    states."""
    import random

    rng = random.Random(seed)
    full = 0
    for build, args, addable in builds:
        st = build(*args)
        start = _frozen(st)
        for _walk in range(walks):
            moves = []
            for _ in range(steps):
                where, out = (build.__name__, args, moves), _marked_out(moves)
                ref = _addable_set(st, out, addable)
                assert st.free == _bits(ref) and not st.inbits & out, where
                first = max(ref, key=lambda i: (st.cards[i], -i), default=None)
                assert st.pick_first() == first, where
                full += _check_counted_fields(st, where)
                if brute_max:
                    assert st.bound_remaining() >= _brute_counted_max(st, out, addable), where
                move = _random_move(st, rng, moves, 0.25, 0.75, counted_only=not brute_max)
                if move is not None:
                    i, added = move
                    assert added == (i in ref), where
            while moves:
                _undo(st, moves)
            assert _frozen(st) == start, (build.__name__, args)
    return full


def test_counted_states_match_bruteforce_on_random_states():
    # The antichain and cancellative states keep free exact by bitsets of
    # what the chosen sets show (projections, differences, covered pairs)
    # instead of re-testing addability.  Along seeded add/out/undo walks,
    # the counted candidates must be exactly the addable ones, the bound
    # must cover the subtree optimum, and restoring snapshots must
    # restore the state.
    from tracelab.cancellative_turan import _build_cancellative_state
    from tracelab.search import _build_antichain_state

    builds = [(_build_antichain_state, (n, k), _antichain_addable)
              for n in (3, 4) for k in range(n)]
    builds += [(_build_cancellative_state, (n, 3), _cancellative_addable) for n in range(3, 7)]
    assert _check_counted_walks(builds, 606, 3, 40, True), "no antichain window filled"


@pytest.mark.slow
def test_counted_states_match_bruteforce_n7():
    # the same walks at n = 7, growing large families: free against the
    # reference after every move, and windows that fill (k = 1, 2)
    from tracelab.cancellative_turan import _build_cancellative_state
    from tracelab.search import _build_antichain_state

    builds = [(_build_antichain_state, (7, k), _antichain_addable) for k in (1, 2, 3)]
    builds.append((_build_cancellative_state, (7, 3), _cancellative_addable))
    assert _check_counted_walks(builds, 77, 2, 60, False), "no antichain window filled"


def test_pick_orbit_and_fixed_match_bruteforce():
    # The branching step on states along seeded add/out/undo walks
    # (n <= 6), under groups listed by mask_stabilizer for random masks:
    # _pick's orbit bits are the images of e's mask under the group that
    # are still counted, and ``fixed`` holds, in the group's order, the
    # permutations that map e's mask onto itself.  Under "FULL" the orbit
    # is e's size within free, with no group e alone, and with nothing
    # counted there is no pick.  Marking out a set of candidates in one
    # move (an orbit, or any undecided ones) leaves the snapshot that
    # marking its members out one at a time does; the walks check single
    # moves against brute force.
    import random

    from tracelab._perm import mask_stabilizer

    builds = [
        (search_mod._build_downset_state, (5, 3, 6)),
        (search_mod._build_tilde_state, (6, 6)),
        (search_mod._build_uniform_window_state, (6, 3, 4, 2)),
        (search_mod._build_antichain_state, (4, 2)),
        (canc_mod._build_cancellative_state, (6, 3)),
    ]
    rng = random.Random(23)
    cut = 0  # orbits with a member that is no longer counted
    for build, args in builds:
        st = build(*args)
        searcher = search_mod._Searcher(st, search_mod._Budget(1, 1.0))
        n = st.nbits
        for _walk in range(3):
            moves = []
            for _ in range(25):
                where = (build.__name__, args, moves)
                group = mask_stabilizer(rng.randrange(1 << n), n)
                e = st.pick_first()
                if e is None:
                    assert searcher._pick(group) == (None, 0, None), where
                else:
                    m = st.masks[e]

                    def image(p):
                        return sum(1 << p[x] for x in range(n) if m >> x & 1)

                    orbit = _bits({st.idx_of[image(p)] for p in group})
                    fixed = [p for p in group if image(p) == m]
                    assert searcher._pick(group) == (e, orbit & st.free, fixed), where
                    cut += bool(orbit & ~st.free)
                    same_size = _bits(i for i, c in enumerate(st.cards) if c == st.cards[e])
                    assert searcher._pick("FULL") == (e, same_size & st.free, None), where
                    assert searcher._pick(None) == (e, 1 << e, None), where
                    some = rng.getrandbits(len(st.masks)) & ~st.inbits
                    for bits in (orbit & st.free, same_size & st.free, some):
                        here = st.snapshot()
                        st.mark_out(bits)
                        whole = st.snapshot()
                        st.restore(here)
                        for i in range(bits.bit_length()):
                            if bits >> i & 1:
                                st.mark_out(1 << i)
                        assert st.snapshot() == whole, where
                        st.restore(here)
                _random_move(st, rng, moves, 0.2, 0.5)
            while moves:
                _undo(st, moves)
    assert cut, "no orbit met a candidate that is no longer counted"


def test_budget_stop_inside_a_move_returns_the_incumbent():
    # A budget stop can land between a move and the restore of the
    # snapshot before it (below an add, or in a sub-query level).  The search ends there and returns its incumbent;
    # the stopped state is not restored, and only the incumbent is read.
    for n, c in ((5, 6), (6, 4), (6, 8)):
        for budget in (5, 20, 60, 200, 500):
            for sym in (True, False):
                res = max_tilde(ArrowQuery.tilde(n, c, use_symmetry=sym, budget_nodes=budget))
                assert res.proved_optimal or res.nodes == budget + 1, (n, c, budget, sym)
                assert not hookarrow(res.witness, c)


# ---------------------------------------------------------------------------
# seeds: every search level starts from a re-checked construction


def _mutated_seed(monkeypatch, module, name, query_args, mutate):
    """Replace the seed ``module.name`` at the query's own level by
    ``mutate(level, seed masks)``; the levels below keep the real seed."""
    real = getattr(module, name)

    def mutant(*level):
        masks = real(*level)
        return mutate(level, list(masks)) if level == query_args else masks

    monkeypatch.setattr(module, name, mutant)


def test_seed_one_member_too_many_raises(monkeypatch):
    # the 2-partite family is optimal at (5, 3, 7), so any extra
    # candidate makes the seed infeasible
    def plus_one(level, masks):
        st = search_mod._build_downset_state(*level)
        return masks + [next(m for m in st.masks if m not in masks)]

    _mutated_seed(monkeypatch, search_mod, "max_family_seed", (5, 3, 7), plus_one)
    with pytest.raises(RuntimeError, match="seed failed independent re-verification"):
        max_family(ArrowQuery.downset(5, 3, 7))


def test_seed_member_breaking_the_constraint_raises(monkeypatch):
    # K_{3,3} with its last edge moved inside a part: same size, but the
    # 4-set {1, 2, 4, 5} now spans 5 edges
    def swap(level, masks):
        return masks[:-1] + [0b11]

    _mutated_seed(monkeypatch, search_mod, "max_tilde_seed", (6, 5), swap)
    with pytest.raises(RuntimeError, match="seed failed independent re-verification"):
        max_tilde(ArrowQuery.tilde(6, 5))


def test_antichain_seed_one_layer_up_raises(monkeypatch):
    # the layer of the (k+1)-sets is an antichain, but on 6 >= 2(k+1)
    # points its traces on a (k+1)-set are all of that set's subsets
    _mutated_seed(
        monkeypatch, search_mod, "antichain_seed", (6, 2), lambda level, masks: list(kset_masks(6, 3))
    )
    with pytest.raises(RuntimeError, match="seed failed independent re-verification"):
        max_antichain(ArrowQuery.antichain(6, 2))


def test_seed_mask_outside_the_candidates_raises(monkeypatch):
    # a construction built for 7 points has members the 6-point search
    # cannot hold
    _mutated_seed(
        monkeypatch, canc_mod, "ex3_k4_seed", (6,), lambda level, masks: canc_mod.ex3_k4_seed(7)
    )
    with pytest.raises(RuntimeError, match="not a candidate"):
        ex3(6, Pattern.K_COMPLETE)


def test_seed_applies_to_every_level(monkeypatch):
    # the sub-query levels start from their own seeds too: each level of
    # (6, 4, 13), the query's included, asks for one, once
    asked = []
    real = search_mod.max_family_seed

    def counting(*level):
        asked.append(level)
        return real(*level)

    monkeypatch.setattr(search_mod, "max_family_seed", counting)
    max_family(ArrowQuery.downset(6, 4, 13))
    assert asked == [(4, 4, 13), (5, 4, 13), (6, 4, 13)]


def _counted_pattern_free(monkeypatch):
    """The ground-set sizes of the families ``pattern_free`` checks."""
    checked = []
    real = canc_mod.pattern_free

    def counting(h, *args):
        checked.append(h.n)
        return real(h, *args)

    monkeypatch.setattr(canc_mod, "pattern_free", counting)
    return checked


def test_a_level_ending_on_its_seed_is_rechecked_once(monkeypatch):
    # with no node to tick, every level of ex3(20, K4) ends on its seed,
    # which is re-checked once, when it is certified: one pattern_free
    # call per level, n = 4..20
    checked = _counted_pattern_free(monkeypatch)
    res = ex3(20, Pattern.K_COMPLETE, budget_nodes=0)
    assert checked == list(range(4, 21))
    assert list(res.witness.members) == sorted(canc_mod.ex3_k4_seed(20), key=_canon_key)


def test_a_level_beating_its_seed_rechecks_its_result(monkeypatch):
    # the n = 6 seed one member short: the search finds a larger family
    # there, which is re-checked too
    checked = _counted_pattern_free(monkeypatch)
    _mutated_seed(monkeypatch, canc_mod, "ex3_k4_seed", (6,), lambda level, masks: masks[:-1])
    res = ex3(6, Pattern.K_COMPLETE)
    assert (res.optimum, res.proved_optimal) == (14, True)
    assert checked == [4, 5, 6, 6]


def _parity_queries(small: bool, *, ex3_top: int, cancellative_tops):
    """(name, run(sym)) for a parity sweep at 20,000 nodes: down-sets on
    n <= 7 points with every a, b; tilde on n = 4..7 with c = 1..10; ex3 on n = 4..``ex3_top`` with both patterns; cancellative
    for each (l, top) in ``cancellative_tops`` on n = l..top.  Only the
    queries on n <= 6 points when ``small``, else only the rest."""
    budget = 20_000

    def points(first, last):
        return (n for n in range(first, last + 1) if (n <= 6) == small)

    for n in points(1, 7):
        for a in range(1, n + 1):
            for b in range(2, (1 << a) + 1):
                yield f"downset-{n}-{a}-{b}", lambda s, q=(n, a, b): max_family(
                    ArrowQuery.downset(*q, use_symmetry=s, budget_nodes=budget))
    for n in points(4, 7):
        for c in range(1, 11):
            yield f"tilde-{n}-{c}", lambda s, q=(n, c): max_tilde(
                ArrowQuery.tilde(*q, use_symmetry=s, budget_nodes=budget))
    for n in points(4, ex3_top):
        for p in Pattern:
            yield f"ex3-{p.value}-{n}", lambda s, n=n, p=p: ex3(
                n, p, use_symmetry=s, budget_nodes=budget)
    for l, top in cancellative_tops:
        for n in points(l, top):
            yield f"cancellative-{l}-{n}", lambda s, n=n, l=l: max_cancellative(
                n, l, use_symmetry=s, budget_nodes=budget)


def _check_seed_parity(monkeypatch, small, sym):
    # each query runs seeded and with seed=lambda *level: None.  Where the
    # unseeded search proves, the seeded one proves the same optimum;
    # where it stops, the seeded incumbent is no smaller; and the seeded
    # search never ticks more nodes
    real = search_mod._solve_state

    def unseeded(*args, **kw):
        return real(*args, **{**kw, "seed": lambda *level: None})

    queries = _parity_queries(small, ex3_top=7, cancellative_tops=((2, 9), (3, 8)))
    for name, run in queries:
        seeded = run(sym)
        with monkeypatch.context() as m:
            m.setattr(search_mod, "_solve_state", unseeded)
            m.setattr(canc_mod, "_solve_state", unseeded)
            plain = run(sym)
        assert seeded.nodes <= plain.nodes, name
        if plain.proved_optimal:
            assert (seeded.optimum, seeded.proved_optimal) == (plain.optimum, True), name
        else:
            assert seeded.optimum >= plain.optimum, name


@pytest.mark.parametrize("sym", [True, False], ids=["sym", "nosym"])
def test_seeds_keep_every_optimum(monkeypatch, sym):
    _check_seed_parity(monkeypatch, True, sym)


@pytest.mark.slow
@pytest.mark.parametrize("sym", [True, False], ids=["sym", "nosym"])
def test_seeds_keep_every_optimum_n7(monkeypatch, sym):
    _check_seed_parity(monkeypatch, False, sym)


def test_seeded_pins():
    # ex3(9, K4) proves Turán's 54: its n = 8 and n = 9 levels close at
    # the root.  The n = 7 level, two points below the query, needs 7,086
    # nodes and may tick only (3/4)^2 of the budget, rounded down at each
    # step: 7,087 of 12,600 nodes, but 6,750 of 12,000, which stop it
    res = ex3(9, Pattern.K_COMPLETE, budget_nodes=12_600)
    assert (res.optimum, res.proved_optimal, res.nodes) == (54, True, 7_088)
    res = ex3(9, Pattern.K_COMPLETE, budget_nodes=12_000)
    assert (res.optimum, res.proved_optimal) == (54, False)
    # without symmetry, the sub-queries of (9, 4, 13) use up 50,000 nodes,
    # but the query level still starts from the paper's family
    res = max_family(ArrowQuery.downset(9, 4, 13, budget_nodes=50_000, use_symmetry=False))
    assert (res.optimum, res.proved_optimal) == (64, False)
    assert res.witness == partite_family(9, 3)


def _first_counted_pick(self):
    """``pick_first`` without the least-degree rule: the highest-cardinality
    counted candidate, smallest mask first."""
    free = self.free
    if not free:
        return None
    low = free & self.card_bits[self.cards[free.bit_length() - 1]]
    return (low & -low).bit_length() - 1


def _check_order_parity(monkeypatch, small, sym):
    # each query runs with the least-degree pick and with the first
    # counted candidate.  Any branching order covers every family, so
    # where the plain order proves, the least-degree one proves the same
    # optimum, and where only it proves, its optimum is no smaller.  The
    # sweep covers every search the least-degree rule reaches
    queries = _parity_queries(small, ex3_top=8, cancellative_tops=((2, 10), (3, 9)))
    for name, run in queries:
        lean = run(sym)
        with monkeypatch.context() as m:
            m.setattr(search_mod._CountedState, "pick_first", _first_counted_pick)
            plain = run(sym)
        if plain.proved_optimal:
            assert (lean.optimum, lean.proved_optimal) == (plain.optimum, True), name
        elif lean.proved_optimal:
            assert lean.optimum >= plain.optimum, name


@pytest.mark.parametrize("sym", [True, False], ids=["sym", "nosym"])
def test_branching_order_keeps_every_optimum(monkeypatch, sym):
    _check_order_parity(monkeypatch, True, sym)


@pytest.mark.slow
@pytest.mark.parametrize("sym", [True, False], ids=["sym", "nosym"])
def test_branching_order_keeps_every_optimum_n7(monkeypatch, sym):
    _check_order_parity(monkeypatch, False, sym)


def _check_tilde_bound_parity(monkeypatch, small, sym):
    # each tilde query runs with the vertex-deletion bound and with its
    # sub-query declared away, which leaves the bound off.  The bound is
    # sound, so where the search without it proves, the one with it
    # proves the same optimum, and where it stops, the incumbent with the
    # bound is no smaller
    queries = _parity_queries(small, ex3_top=3, cancellative_tops=())  # no ex3, no cancellative
    for name, run in queries:
        if not name.startswith("tilde-"):  # nor the down-sets
            continue
        bounded = run(sym)
        with monkeypatch.context() as m:
            m.setattr(search_mod._TildeState, "sub_query", staticmethod(lambda *args: None))
            plain = run(sym)
        if plain.proved_optimal:
            assert (bounded.optimum, bounded.proved_optimal) == (plain.optimum, True), name
        else:
            assert bounded.optimum >= plain.optimum, name


@pytest.mark.parametrize("sym", [True, False], ids=["sym", "nosym"])
def test_tilde_bound_keeps_every_optimum(monkeypatch, sym):
    _check_tilde_bound_parity(monkeypatch, True, sym)


@pytest.mark.slow
@pytest.mark.parametrize("sym", [True, False], ids=["sym", "nosym"])
def test_tilde_bound_keeps_every_optimum_n7(monkeypatch, sym):
    _check_tilde_bound_parity(monkeypatch, False, sym)


def _check_antichain_bound_parity(monkeypatch, small, sym):
    # each antichain query, every k on n = 2..6 points when small, else
    # on 7, runs with the vertex-deletion bound and with its sub-query
    # declared away, at 20,000 nodes, as in the tilde sweep above: where
    # the search without the bound proves, the one with it proves the
    # same optimum, and where it stops, the incumbent with the bound is
    # no smaller.  Both run without the seed: on these points the layer
    # is optimal wherever the searches prove, so a seeded search would
    # return it however much an unsound bound pruned
    monkeypatch.setattr(search_mod, "antichain_seed", lambda *level: None)
    for n in range(2, 7) if small else (7,):
        for k in range(n):
            query = ArrowQuery.antichain(n, k, use_symmetry=sym, budget_nodes=20_000)
            bounded = max_antichain(query)
            with monkeypatch.context() as m:
                m.setattr(search_mod._AntichainState, "sub_query", staticmethod(lambda *args: None))
                plain = max_antichain(query)
            if plain.proved_optimal:
                assert (bounded.optimum, bounded.proved_optimal) == (plain.optimum, True), (n, k)
            else:
                assert bounded.optimum >= plain.optimum, (n, k)


@pytest.mark.parametrize("sym", [True, False], ids=["sym", "nosym"])
def test_antichain_bound_keeps_every_optimum(monkeypatch, sym):
    _check_antichain_bound_parity(monkeypatch, True, sym)


@pytest.mark.slow
@pytest.mark.parametrize("sym", [True, False], ids=["sym", "nosym"])
def test_antichain_bound_keeps_every_optimum_n7(monkeypatch, sym):
    _check_antichain_bound_parity(monkeypatch, False, sym)


def test_least_degree_pins():
    # the paper's family is optimal at n = 9, and cancellative-3-10 proves
    # the balanced product
    res = max_family(ArrowQuery.downset(9, 4, 13))
    assert (res.optimum, res.proved_optimal, res.nodes) == (64, True, 24_231)
    assert res.witness == partite_family(9, 3)
    res = max_cancellative(10, 3)
    assert (res.optimum, res.proved_optimal, res.nodes) == (36, True, 1_208)


@pytest.mark.slow
def test_least_degree_pins_slow():
    res = ex3(8, Pattern.K_MINUS)
    assert (res.optimum, res.proved_optimal, res.nodes) == (22, True, 376_937)
