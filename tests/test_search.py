import hashlib
import json
from copy import deepcopy
from itertools import combinations, permutations

import pytest

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
                sub_queries=_UniformCapState.sub_queries,
                witness=SetFamily.from_masks,
                recheck=within_caps,
                budget_nodes=10**8,
                budget_secs=None,
                use_symmetry=sym,
            )
            assert res.proved_optimal and res.optimum == best, (n, card, win, cap, sym)


def test_downset_query_is_one_search(monkeypatch):
    # each level is built exactly once, after every level it declares, and
    # the query's own state last: no per-prefix subproblems.  Every other
    # build is a sub-query that some build declares.
    declare = search_mod._DownsetState.sub_queries
    calls = []
    real = search_mod._build_downset_state

    def counting(*args):
        assert all(sub in calls for sub in declare(*args)), args
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(search_mod, "_build_downset_state", counting)
    res = max_family(ArrowQuery.downset(6, 4, 13))
    assert (res.optimum, res.proved_optimal) == (27, True)
    assert calls[-1] == (6, 4, 13)
    assert len(set(calls)) == len(calls)
    assert all(any(sub in declare(*args) for args in calls) for sub in calls[:-1])
    assert (5, 4, 13) in calls and (5, 3, 7) in calls  # deletion and link


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
                       (27, True, 59), (27, True, 972)),
    "downset-6-3-7": (lambda s: max_family(ArrowQuery.downset(6, 3, 7, use_symmetry=s)),
                      (16, True, 23), (16, True, 71)),
    "tilde-6-6": (lambda s: max_tilde(ArrowQuery.tilde(6, 6, use_symmetry=s)),
                  (12, True, 21), (12, True, 1550)),
    "tilde-6-7": (lambda s: max_tilde(ArrowQuery.tilde(6, 7, use_symmetry=s)),
                  (16, True, 26), (16, True, 1567)),
    "antichain-5-2": (lambda s: max_antichain(ArrowQuery.antichain(5, 2, use_symmetry=s)),
                      (10, True, 95), (10, True, 497)),
    "antichain-5-1": (lambda s: max_antichain(ArrowQuery.antichain(5, 1, use_symmetry=s)),
                      (5, True, 79), (5, True, 1375)),
    "cancellative-2-7": (lambda s: max_cancellative(7, 2, use_symmetry=s),
                         (12, True, 5), (12, True, 5)),
    "cancellative-3-6": (lambda s: max_cancellative(6, 3, use_symmetry=s),
                         (8, True, 16), (8, True, 46)),
    "ex3-k4-6": (lambda s: ex3(6, Pattern.K_COMPLETE, use_symmetry=s),
                 (14, True, 3), (14, True, 3)),
    "ex3-k4minus-6": (lambda s: ex3(6, Pattern.K_MINUS, use_symmetry=s),
                      (10, True, 147), (10, True, 203)),
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
# now proves within 300 nodes, from T(2, 10); 5 still stops it.
_BUDGET_STOP_PINS = {
    ("tilde-9-5", 3000): (
        lambda s, b: max_tilde(ArrowQuery.tilde(9, 5, use_symmetry=s, budget_nodes=b)),
        (20, False, 3001, "c5a31ace89f1c91a91a30fd2e223646df5fdcdfc1f54108313c7abc006fd461f"),
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


def _closure_ref(st, i):
    """i plus its transitively missing one-smaller subsets, walked one
    level at a time; None if any of them is out.  The reference for the
    candidates ``try_add_group`` adds."""
    adds = []
    stack = [i]
    seen = set()
    while stack:
        j = stack.pop()
        if j in seen:
            continue
        seen.add(j)
        if st.status[j] == 1:
            continue
        if st.status[j] == 2:
            return None
        adds.append(j)
        stack.extend(_prereqs(st, j))
    return adds


def _window_fills(st):
    """Chosen candidates per window of a ``_CapState``, recounted from the
    chosen masks (``status == 1``)."""
    chosen = [m for m, s in zip(st.masks, st.status) if s == 1]
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


def _brute_counted(st):
    """Candidates of a ``_CapState`` that ``free`` should hold, from the
    primary state (status, window fills, prerequisites) alone: undecided,
    in no full window, and with no excluded prerequisite."""
    fills = _window_fills(st)

    def fits(i):
        m = st.masks[i]
        return all(fills[wi] < st.cap for wi, w in enumerate(st.windows) if m & w == m)

    return [
        i
        for i in range(len(st.masks))
        if st.status[i] == 0 and fits(i) and all(st.status[p] != 2 for p in _prereqs(st, i))
    ]


def _brute_subtree_max(st):
    """Most undecided candidates that can still be added together: closed
    under prerequisites (each one chosen already or added too) and within
    every window cap.  Subsets are grown in index order, in which every
    prerequisite (one element smaller) precedes the sets that need it."""
    undecided = [i for i in range(len(st.masks)) if st.status[i] == 0]
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
            if all(st.status[p] == 1 or p in taken for p in _prereqs(st, i)) and all(
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


def _undo(st, move):
    kind, payload = move
    if kind == "in":
        st.undo_add_group(payload)
    else:
        st.unmark_out(payload)


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


def _chosen_bits(st):
    return sum(1 << i for i, s in enumerate(st.status) if s == 1)


def _addable(pairs, chosen, idxs):
    """The candidates of ``idxs`` that no forbidden configuration blocks
    once the chosen bitset is in."""
    ins = [i for i in range(chosen.bit_length()) if chosen >> i & 1]
    return [j for j in idxs if not any(r & chosen == r for i in ins for r in pairs[i][j])]


def _brute_u(st, pairs):
    """U from the primary state: the chosen candidates plus the undecided
    ones that can still be added."""
    chosen = _chosen_bits(st)
    undecided = [i for i, s in enumerate(st.status) if s == 0]
    return chosen | sum(1 << i for i in _addable(pairs, chosen, undecided))


def _brute_free_max(st, pairs):
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

    chosen = _chosen_bits(st)
    undecided = [i for i, s in enumerate(st.status) if s == 0]
    grow(_addable(pairs, chosen, undecided), chosen, chosen.bit_count())
    return best


def _reach_ref(st, u, m, link, implied):
    """The vertex-deletion bound from its definition, on the bitset U = u:
    for every vertex v, the members of U and the ``implied`` ones that
    avoid v, at most m, plus those that contain v, at most ``link`` (None:
    no cap); and the first term averaged over v, each member avoiding at
    least n - k vertices.  In candidates, so less ``implied``."""
    members = [mask for i, mask in enumerate(st.masks) if u >> i & 1]
    size = len(members) + implied
    per_vertex, total = [], 0
    for v in range(st.nbits):
        d = sum(1 for mask in members if mask >> v & 1)
        total += min(m, size - d)
        per_vertex.append(min(m, size - d) + (d if link is None else min(link, d)))
    spare = st.nbits - max(st.cards)
    return min(min(per_vertex), total // spare) - implied


def _averaged(build, args):
    """``build(*args)`` with its averaging bound on, as ``_solve_state``
    turns it on, but with M found by brute force (None when the state
    declares no sub-query); also its conflicts."""
    st = build(*args)
    m = None
    subs = type(st).sub_queries(*args)
    if subs:
        (sub,) = subs
        assert sub == (args[0] - 1, *args[1:])
        smaller = build(*sub)
        m = _brute_free_max(smaller, _conflicts(smaller))
        st.start_averaging(m)
    return st, _conflicts(st), m


def _check_averaging(st, pairs, m, memo, where):
    """U is exact, and the averaging bound is its definition and covers
    the subtree optimum; True when it meets it.  ``memo`` caches optima
    by status."""
    u = _brute_u(st, pairs)
    chosen = _chosen_bits(st)
    assert (st.free, st.inbits) == (u & ~chosen, chosen), where
    if m is None:  # too few points for the bound
        assert not st.has_reach, where
        return False
    key = tuple(st.status)
    if key not in memo:
        memo[key] = _brute_free_max(st, pairs)
    reach = st.reach()
    assert reach == _reach_ref(st, u, m, None, 0), where
    assert reach >= memo[key], where
    return reach == memo[key]


# Reference for the down-set bound: M and the link cap L by brute force.


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
    ``_solve_state`` turns it on, but with M = M(n-1, a, b) and
    L = M(n-1, a-1, (b-1)//2 + 1) found by brute force; and (M, L), or
    None when the state has too few points for the bound.  The searches
    for M and L reach the same optima, with symmetry on and off."""
    n, a, b = args
    st = search_mod._build_downset_state(*args)
    subs = search_mod._DownsetState.sub_queries(*args)
    if n - 1 < a:
        assert subs == ()
        return st, None
    assert subs == ((n - 1, a, b), (n - 1, a - 1, (b - 1) // 2 + 1)), args
    optima = tuple(_brute_downset_max(*sub) for sub in subs)
    for sub, opt in zip(subs, optima):
        for sym in (True, False):
            res = max_family(ArrowQuery.downset(*sub, use_symmetry=sym))
            assert (res.optimum, res.proved_optimal) == (opt, True), (sub, sym)
    st.start_averaging(*optima)
    return st, optima


def _brute_cap_u(st):
    """U of a ``_CapState`` from the primary state: the chosen candidates
    plus the counted ones."""
    chosen = sum(1 << i for i, s in enumerate(st.status) if s == 1)
    return chosen | sum(1 << i for i in _brute_counted(st))


def _check_cap_u(st, bound, memo, where):
    """After a move on a down-set or tilde state: U is exact and, where
    the state carries the down-set bound with (M, L) = ``bound``,
    ``reach()`` is the bound's definition and covers the subtree optimum
    (``memo`` caches it by status); True when it meets it."""
    u = _brute_cap_u(st)
    chosen = _chosen_bits(st)
    assert (st.free, st.inbits) == (u & ~chosen, chosen), where
    if bound is None:
        assert not st.has_reach, where
        return False
    key = tuple(st.status)
    if key not in memo:
        memo[key] = st.status.count(1) + _brute_subtree_max(st)
    reach = st.reach()
    assert reach == _reach_ref(st, u, *bound, 1), where
    assert reach >= memo[key], where
    return reach == memo[key]


def _check_cap_counted(st, where):
    """``free`` holds the counted candidates, and ``pick_first()`` is the
    largest of them, the smallest index first within a size."""
    counted = _brute_counted(st)
    assert st.free == sum(1 << i for i in counted), where
    first = max(counted, key=lambda i: (st.cards[i], -i), default=None)
    assert st.pick_first() == first, where


# ex3 (K4, K4-), triangle-free, cancellative l=3
_UNIFORM_BUILDS = [
    *((search_mod._build_uniform_window_state, (n, 3, 4, cap))
      for n in (4, 5, 6) for cap in (3, 2)),
    *((search_mod._build_uniform_window_state, (n, 2, 3, 2)) for n in range(3, 8)),
    *((canc_mod._build_cancellative_state, (n, 3)) for n in range(4, 8)),
]


def test_all_in_matches_bruteforce_on_random_states():
    # Bound soundness of _CapState on small states, checked against brute
    # force along seeded random add/out/undo walks.  (The name is kept from
    # the all-in shortcut this test used to check.)  After every move,
    # failed adds included, U is exact on every state, and on down-sets
    # the vertex-deletion bound, with M and L by brute force, is its
    # definition and covers the subtree optimum.
    import random

    from tracelab.search import (
        _build_downset_state,
        _build_tilde_state,
        _build_uniform_window_state,
    )

    builds = [
        (_build_tilde_state, (4, 4)),
        (_build_tilde_state, (4, 6)),
        (_build_tilde_state, (5, 5)),
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
    reach_tight = 0  # states where the down-set bound does
    for build, args in builds:
        if build is _build_downset_state:
            st, bound = _bounded_downset(args)
        else:
            st, bound = build(*args), None
        memo = {}
        assert len(st.masks) <= 20  # brute force stays cheap
        assert all(p < i for i in range(len(st.masks)) for p in _prereqs(st, i))
        # pick_first reads the index order as (size, mask)
        assert st.masks == sorted(st.masks, key=lambda m: (m.bit_count(), m))
        start = _cap_snapshot(st)
        for _walk in range(4):
            moves = []
            for _ in range(60):
                where = (build.__name__, args, moves)
                _check_cap_counted(st, where)
                _check_fields(st, where)
                best = _brute_subtree_max(st)
                bound_now = st.bound_remaining()
                assert bound_now >= best, where
                tight += bound_now == best
                reach_tight += _check_cap_u(st, bound, memo, where)
                open_ = [i for i in range(len(st.masks)) if st.status[i] == 0]
                r = rng.random()
                if moves and (not open_ or r < 0.2):
                    _undo(st, moves.pop())
                elif r < 0.65:
                    adds = st.try_add_group(rng.choice(open_))
                    if adds is not None:
                        moves.append(("in", adds))
                else:
                    i = rng.choice(open_)
                    st.mark_out(i)
                    moves.append(("out", i))
            _check_cap_counted(st, (build.__name__, args, moves))
            reach_tight += _check_cap_u(st, bound, memo, (build.__name__, args, moves))
            for move in reversed(moves):
                _undo(st, move)
            assert _cap_snapshot(st) == start
    assert tight, "no walk reached a state where the bound is exact"
    assert reach_tight, "no walk reached a state where the down-set bound is exact"

    # The uniform states carry the averaging bound over U (chosen and
    # counted candidates): after every move, failed adds included, U
    # matches brute force and the bound covers the optimum.
    rng = random.Random(3)
    tight = 0
    for build, args in _UNIFORM_BUILDS:
        where = (build.__name__, args)
        st, pairs, m = _averaged(build, args)
        memo = {}
        start = _walk_snapshot(st)
        for _walk in range(2):
            moves = []
            tight += _check_averaging(st, pairs, m, memo, (*where, moves))
            for _ in range(30):
                open_ = [i for i in range(len(st.masks)) if st.status[i] == 0]
                r = rng.random()
                if moves and (not open_ or r < 0.2):
                    _undo(st, moves.pop())
                elif r < 0.65:
                    adds = st.try_add_group(rng.choice(open_))
                    if adds is not None:
                        moves.append(("in", adds))
                else:
                    i = rng.choice(open_)
                    st.mark_out(i)
                    moves.append(("out", i))
                tight += _check_averaging(st, pairs, m, memo, (*where, moves))
                if isinstance(st, search_mod._CapState):
                    _check_fields(st, (*where, moves))
            for move in reversed(moves):
                _undo(st, move)
            assert _walk_snapshot(st) == start, where
    assert tight, "no walk reached a state where the averaging bound is exact"


def _cap_snapshot(st):
    return deepcopy((st.status, st.packed, st.full, st.free, st.inbits, st.resid, st.trail))


def _walk_snapshot(st):
    """The whole mutable state of a uniform window or cancellative state."""
    return _cap_snapshot(st) if isinstance(st, search_mod._CapState) else _counted_snapshot(st)


def _overflows(st, closure):
    """Would adding ``closure`` put more than ``cap`` chosen candidates in
    some window?  Recounted from the chosen masks."""
    return any(
        fill + sum(1 for j in closure if st.masks[j] & w == st.masks[j]) > st.cap
        for fill, w in zip(_window_fills(st), st.windows)
    )


def test_cap_state_failed_add_changes_nothing():
    # A _CapState add sums its closure's window increments into a copy of
    # the packed counters, so an add that overflows a window on a later
    # closure member must leave the state as it found it.  Seeded
    # add/out/undo walks on down-set and tilde states, where closures hold
    # several members, and on the uniform window states, whose U bitset
    # and averaging bound are checked against brute force after every
    # move; so are U on the down-set and tilde states, and the down-set
    # bound.  An add fails exactly when its closure has an excluded or a
    # blocked member (an early fail, before the counters are read) or
    # overflows a window; both kinds occur, counted from _closure_ref.
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
        start = _cap_snapshot(st)
        for _walk in range(6):
            moves = []
            for _ in range(50):
                where = (build.__name__, args, moves)
                if uniform:
                    _check_averaging(st, pairs, m, memo, where)
                else:
                    _check_cap_u(st, bound, memo, where)
                _check_fields(st, where)
                open_ = [i for i in range(len(st.masks)) if st.status[i] == 0]
                r = rng.random()
                if moves and (not open_ or r < 0.2):
                    _undo(st, moves.pop())
                elif r < 0.8:
                    i = rng.choice(open_)
                    closure = _closure_ref(st, i)
                    counted = set(_brute_counted(st))
                    early = closure is None or any(j not in counted for j in closure)
                    overflow = not early and _overflows(st, closure)
                    before = _cap_snapshot(st)
                    adds = st.try_add_group(i)
                    assert (adds is None) == (early or overflow), where
                    if adds is None:
                        assert _cap_snapshot(st) == before, where
                        late_overflows += overflow and len(closure) >= 2 and not _overflows(st, [i])
                        early_fails += closure is not None and early
                    else:
                        assert sorted(adds) == sorted(closure), where
                        assert st.free == sum(1 << j for j in _brute_counted(st)), where
                        moves.append(("in", adds))
                else:
                    i = rng.choice(open_)
                    st.mark_out(i)
                    moves.append(("out", i))
            where = (build.__name__, args, moves)
            if uniform:
                _check_averaging(st, pairs, m, memo, where)
            else:
                _check_cap_u(st, bound, memo, where)
            _check_fields(st, where)
            for move in reversed(moves):
                _undo(st, move)
            assert _cap_snapshot(st) == start, (build.__name__, args)
    assert late_overflows, "no add overflowed on a closure member after the first"
    assert early_fails, "no add failed on a blocked closure member"


def test_cap_state_structure_matches_bruteforce():
    # _CapState derives its window bitsets, window increments, child and
    # below bitsets from (n, cards, win, cap); recount them by brute-force
    # containment for every builder at n <= 6.  From the root, an add
    # takes exactly the candidate and the candidates inside it, and its
    # undo restores the state.  The caps are loose enough that no root add
    # overflows.
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
        start = _cap_snapshot(st)
        for i, mi in enumerate(masks):
            adds = st.try_add_group(i)
            assert adds is not None, where
            assert sorted(adds) == [j for j, mj in enumerate(masks) if mj & mi == mj], where
            _check_fields(st, where)
            st.undo_add_group(adds)
            assert _cap_snapshot(st) == start, where


def test_cap_state_fields_hold_full_windows():
    # The packed counters at their limits: each window is filled with the
    # most members its cap allows (down-sets with b = 2^a take every
    # candidate of the window, tilde with c = 10 all but one), then every
    # undecided candidate is tried, so a tentative count reaches the most
    # candidates a window holds; with cap = 0 every window starts full.
    # After every move each decoded field equals the recount and free is
    # the brute-force counted set; undo restores the state.
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
        start = _cap_snapshot(st)
        for w, window in enumerate(st.windows):
            inside = [i for i, m in enumerate(st.masks) if m & window == m]
            moves = []
            where = (build.__name__, args, window, moves)
            # largest first, so every add but the first few is a closure
            for i in sorted(inside, key=lambda i: -st.cards[i]):
                if st.status[i] == 0:
                    before = _cap_snapshot(st)
                    adds = st.try_add_group(i)
                    if adds is None:
                        assert _cap_snapshot(st) == before, where
                    else:
                        moves.append(("in", adds))
                    _check_fields(st, where)
                    assert st.free == sum(1 << j for j in _brute_counted(st)), where
            assert _window_fills(st)[w] == min(st.cap, len(inside)), where
            for i in range(len(st.masks)):
                if st.status[i] == 0:
                    before = _cap_snapshot(st)
                    adds = st.try_add_group(i)
                    assert (adds is None) == _overflows(st, _closure_ref(st, i)), where
                    if adds is not None:
                        _check_fields(st, where)
                        st.undo_add_group(adds)
                    assert _cap_snapshot(st) == before, where
            for move in reversed(moves):
                _undo(st, move)
                _check_fields(st, where)
            assert _cap_snapshot(st) == start, where


# Reference addability for the antichain and cancellative states, from the
# chosen masks alone (the per-candidate re-test the states used to run at
# every node).


def _antichain_addable(st, chosen, i):
    m = st.masks[i]
    if any(m != f and m & f in (m, f) for f in chosen):
        return False
    for w in st.windows:
        seen = {f & w for f in chosen}
        if (m & w) not in seen and len(seen) >= st.cap:
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


def _addable_set(st, addable):
    chosen = [st.masks[j] for j in range(len(st.masks)) if st.status[j] == 1]
    return [i for i in range(len(st.masks)) if st.status[i] == 0 and addable(st, chosen, i)]


def _brute_counted_max(st, addable):
    """Most undecided candidates addable together, by exhaustive growth in
    index order (both constraints are hereditary), pruned by a count bound."""
    undecided = [i for i in range(len(st.masks)) if st.status[i] == 0]
    chosen = [st.masks[j] for j in range(len(st.masks)) if st.status[j] == 1]
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


def _counted_snapshot(st):
    extra = st.seen if hasattr(st, "seen") else (st.diffs, st.cov2)
    return deepcopy((st.status, st.blocked, st.free, st.inbits, extra))


def test_counted_states_match_bruteforce_on_random_states():
    # The antichain and cancellative states keep a per-candidate blocked
    # count instead of re-testing addability.  Along seeded add/out/undo
    # walks, the counted candidates must be exactly the addable ones, the
    # bound must cover the subtree optimum, and undo must restore the state.
    import random

    from tracelab.cancellative_turan import _build_cancellative_state
    from tracelab.search import _build_antichain_state

    builds = [(_build_antichain_state, (n, k), _antichain_addable)
              for n in (3, 4) for k in range(n)]
    builds += [(_build_cancellative_state, (n, 3), _cancellative_addable) for n in range(3, 7)]
    rng = random.Random(606)
    for build, args, addable in builds:
        st = build(*args)
        start = _counted_snapshot(st)
        for _walk in range(3):
            moves = []
            for _ in range(40):
                where = (build.__name__, args, moves)
                ref = _addable_set(st, addable)
                counted = [i for i in range(len(st.masks)) if not (st.status[i] or st.blocked[i])]
                assert counted == ref, where
                assert (st.free, st.inbits) == (sum(1 << i for i in ref), _chosen_bits(st)), where
                first = max(ref, key=lambda i: (st.cards[i], -i), default=None)
                assert st.pick_first() == first, where
                assert st.bound_remaining() >= _brute_counted_max(st, addable), where
                open_ = [i for i in range(len(st.masks)) if st.status[i] == 0]
                r = rng.random()
                if moves and (not open_ or r < 0.25):
                    _undo(st, moves.pop())
                elif open_ and r < 0.75:
                    i = rng.choice(open_)
                    adds = st.try_add_group(i)
                    assert (adds is not None) == (i in ref), where
                    if adds is not None:
                        moves.append(("in", adds))
                elif open_:
                    i = rng.choice(open_)
                    st.mark_out(i)
                    moves.append(("out", i))
            for move in reversed(moves):
                _undo(st, move)
            assert _counted_snapshot(st) == start, (build.__name__, args)


def test_budget_stop_inside_a_move_returns_the_incumbent():
    # A budget stop can land between a move and its undo (inside the
    # exclusion-first branch of tilde, or below an add).  The search ends
    # there and returns its incumbent; the stopped state is not unwound,
    # so its undo stack is never read out of order.
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
    levels = search_mod._levels(search_mod._DownsetState.sub_queries, (6, 4, 13))
    assert asked == list(levels)


def _seed_parity_queries(small: bool):
    """(name, run(sym)) for the seed parity sweep: the queries with n <= 6
    when ``small``, else those with n >= 7."""
    budget = 20_000
    ns = range(1, 7) if small else (7,)
    for n in ns:
        for a in range(1, n + 1):
            for b in range(2, (1 << a) + 1):
                yield f"downset-{n}-{a}-{b}", lambda s, q=(n, a, b): max_family(
                    ArrowQuery.downset(*q, use_symmetry=s, budget_nodes=budget))
        if n < 4:
            continue
        for c in range(1, 11):
            yield f"tilde-{n}-{c}", lambda s, q=(n, c): max_tilde(
                ArrowQuery.tilde(*q, use_symmetry=s, budget_nodes=budget))
        for p in Pattern:
            yield f"ex3-{p.value}-{n}", lambda s, n=n, p=p: ex3(
                n, p, use_symmetry=s, budget_nodes=budget)
    for l, top in ((2, 9), (3, 8)):
        for n in range(l, top + 1):
            if (n <= 6) == small:
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

    for name, run in _seed_parity_queries(small):
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
    # the root.  45,000 nodes do not suffice, because the n = 7 level,
    # two points below the query, may tick only (3/4)^2 of the budget
    # (25,312 nodes) and needs 33,282
    res = ex3(9, Pattern.K_COMPLETE, budget_nodes=60_000)
    assert (res.optimum, res.proved_optimal, res.nodes) == (54, True, 33_284)
    res = ex3(9, Pattern.K_COMPLETE, budget_nodes=45_000)
    assert (res.optimum, res.proved_optimal) == (54, False)
    # without symmetry, the sub-queries of (9, 4, 13) use up 50,000 nodes,
    # but the query level still starts from the paper's family
    res = max_family(ArrowQuery.downset(9, 4, 13, budget_nodes=50_000, use_symmetry=False))
    assert (res.optimum, res.proved_optimal) == (64, False)
    assert res.witness == partite_family(9, 3)
