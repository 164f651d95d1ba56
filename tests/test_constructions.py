import json
import math
import random
from itertools import combinations

import pytest

from tracelab import (
    FamilyError,
    Pattern,
    SetFamily,
    TildeFamily,
    arrows,
    elements_of,
    full_to_tilde,
    hook_count_max,
    hookarrow,
    is_antichain,
    is_cancellative,
    is_downset,
    max_trace_over_ksets,
    mtilde_formula,
    pairwise_sum_bound_check,
    partite_family,
    partite_family_size,
    partite_sizes,
    pattern_free,
    shadow,
    special6,
    t_count,
    threshold,
    tilde_from_json,
    tilde_to_full,
    tilde_to_json,
    turan_graph,
)
from tracelab.constructions import (
    antichain_seed,
    ex3_k4_seed,
    max_cancellative_seed,
    max_family_seed,
    max_tilde_seed,
)


# Each closed form written out on its own, with its own copy of the
# balanced split: references for the parity tests below.


def _ref_turan_sizes(r, n):
    if not 1 <= r <= n:
        raise FamilyError("bad r")
    q, rem = divmod(n, r)
    return [q + 1] * rem + [q] * (r - rem)


def _ref_partite_family_size(n, l):
    if not 1 <= l <= n:
        raise FamilyError("bad l")
    out = 1
    for i in range(l):
        out *= 1 + (n + i) // l
    return out


def _ref_partite_threshold(n, l):
    prod = 1
    for i in range(l):
        prod *= (n + l + i) // l
    return prod


def _ref_cube3(n):
    return ((n + 2) // 3) * ((n + 1) // 3) * (n // 3)


def _ref_four_thirteen(n):
    return _ref_cube3(n) + math.comb(n, 2) + n + 2


def _ref_five_twentyfive(n):
    prod = 1
    for i in range(4):
        prod *= (n + i) // 4
    return prod + math.comb(n, 3) + math.comb(n, 2) + n + 2


def _outcome(fn, *args):
    """fn's value, or the marker "FamilyError" when it raises one."""
    try:
        return fn(*args)
    except FamilyError:
        return "FamilyError"


def random_complete_tilde(rng, n):
    pairs = [p for p in combinations(range(1, n + 1), 2) if rng.random() < 0.5]
    g2 = SetFamily.from_sets(n, pairs)
    triples = [
        t
        for t in combinations(range(1, n + 1), 3)
        if all(tuple(sorted(p)) in set(g2.sets()) for p in combinations(t, 2))
        and rng.random() < 0.5
    ]
    return TildeFamily(n, g2, SetFamily.from_sets(n, triples))


class TestPartite:
    def test_sizes_match_closed_form_everywhere(self):
        for n in range(1, 1001):
            for l in range(1, min(n, 8) + 1):
                sizes = partite_sizes(n, l)
                assert sum(sizes) == n
                prod = 1
                for s in sizes:
                    prod *= 1 + s
                assert prod == partite_family_size(n, l)

    def test_explicit_family_small(self):
        for n in range(1, 13):
            for l in range(1, n + 1):
                fam = partite_family(n, l)
                assert len(fam) == partite_family_size(n, l)
                assert is_downset(fam)

    def test_single_block(self):
        fam = partite_family(4, 1)
        assert fam.sets() == [(), (1,), (2,), (3,), (4,)]

    def test_formula_big_n(self):
        assert partite_family_size(25, 3) == 9 * 9 * 10

    def test_explicit_sizes(self):
        fam = partite_family(5, 2, sizes=[3, 2])
        assert len(fam) == 4 * 3
        with pytest.raises(FamilyError):
            partite_family(5, 2, sizes=[3, 3])
        with pytest.raises(FamilyError):
            partite_family(5, 3, sizes=[3, 2])

    def test_max_window_trace_hits_three_doublings(self):
        # a window meeting one block twice realizes 3 * 2^(l-1)
        for l in (1, 2, 3, 4):
            for n in (l + 1, l + 3, 9, 12):
                if n < l + 1 or n > 12:
                    continue
                fam = partite_family(n, l)
                assert max_trace_over_ksets(fam, l + 1).max == 3 * (1 << (l - 1))
        for n in (13, 14):
            assert max_trace_over_ksets(partite_family(n, 4), 5).max == 24


class TestTuran:
    def test_edge_counts(self):
        assert t_count(3, 6) == 12
        assert t_count(3, 7) == 16  # 21 - 3 - 1 - 1
        assert t_count(2, 4) == 4

    def test_graph_matches_count(self):
        for r in range(1, 5):
            for n in range(r, 11):
                assert len(turan_graph(r, n)) == t_count(r, n)

    def test_three_part_recurrence(self):
        for n in range(8, 1001):
            assert t_count(3, n) - t_count(3, n - 3) == 2 * n - 3

    def test_sizes_near_equal(self):
        assert partite_sizes(7, 3) == [3, 2, 2]
        assert partite_sizes(6, 3) == [2, 2, 2]


class TestOneBalancedSplit:
    # every closed form gives the value, and raises for the inputs, that
    # its written-out reference gives, for n = 0..60 and every l (and l
    # just outside 1..n)

    def test_part_sizes_and_counts(self):
        for n in range(61):
            for l in range(-1, n + 3):
                ref_sizes = _outcome(_ref_turan_sizes, l, n)
                assert _outcome(partite_sizes, n, l) == ref_sizes
                assert _outcome(partite_family_size, n, l) == _outcome(
                    _ref_partite_family_size, n, l
                )
                ref_edges = (
                    ref_sizes
                    if ref_sizes == "FamilyError"
                    else math.comb(n, 2) - sum(math.comb(s, 2) for s in ref_sizes)
                )
                assert _outcome(t_count, l, n) == ref_edges

    def test_turan_graph_parts(self):
        for n in range(13):
            for r in range(-1, n + 3):
                ref_sizes = _outcome(_ref_turan_sizes, r, n)
                got = _outcome(turan_graph, r, n)
                if ref_sizes == "FamilyError":
                    assert got == "FamilyError"
                else:
                    assert len(got) == math.comb(n, 2) - sum(math.comb(s, 2) for s in ref_sizes)

    def test_thresholds(self):
        for n in range(61):
            assert threshold("four_thirteen", n) == _ref_four_thirteen(n)
            assert threshold("five_twentyfive", n) == _ref_five_twentyfive(n)
            for l in range(-1, n + 3):
                ok = 1 <= l <= n
                ref = _ref_partite_threshold(n, l) if ok else "FamilyError"
                got = _outcome(threshold, "partite_nonarrow", n, l)
                assert got == ref
                got = _outcome(threshold, "partite_arrow", n, l)
                assert got == (ref + 1 if ok else "FamilyError")
            for kind in ("partite_nonarrow", "partite_arrow"):
                assert _outcome(threshold, kind, n) == "FamilyError"

    def test_small_n_values(self):
        # below l some parts are 0; the level-bound thresholds still
        # evaluate there
        assert [threshold("four_thirteen", n) for n in range(3)] == [2, 3, 5]

    def test_row8_cube(self):
        # row 8 is |G| - n: one more than the pair/triple part of the
        # 3-partite family, whose size is cubic in n
        for n in range(61):
            want = _ref_partite_family_size(n, 3) - n if n >= 5 else "FamilyError"
            assert _outcome(mtilde_formula, 8, n) == want


class TestSpecial6:
    def test_shape(self):
        tf = special6()
        assert len(tf) == 16
        assert len(tf.g2) == 12 and len(tf.g3) == 4
        assert tf.complete

    def test_every_4set_carries_at_most_6(self):
        tf = special6()
        res = hook_count_max(tf)
        assert res.max == 6
        assert elements_of(res.witness) == (1, 2, 3, 5)
        assert not hookarrow(tf, 7)

    def test_full_family_size_23(self):
        full = tilde_to_full(special6())
        assert len(full) == 23
        assert not arrows(full, 4, 12)


class TestHook:
    def test_bipartite_graph_max_4(self):
        for n in (4, 5, 7):
            tf = TildeFamily(n, turan_graph(2, n), SetFamily.empty(n))
            assert hook_count_max(tf).max == 4

    def test_all_pairs_on_5(self):
        g2 = SetFamily.from_sets(5, combinations(range(1, 6), 2))
        tf = TildeFamily(5, g2, SetFamily.empty(5))
        assert hook_count_max(tf).max == 6
        assert not hookarrow(tf, 7)

    def test_incomplete_rejected_with_missing_pairs(self):
        tf = TildeFamily(4, SetFamily.empty(4), SetFamily.from_sets(4, [(1, 2, 3)]))
        with pytest.raises(FamilyError, match=r"missing shadow pairs"):
            hook_count_max(tf)

    def test_hook_equivalent_to_full_arrow(self):
        rng = random.Random(101)
        for _ in range(30):
            n = rng.randint(4, 8)
            tf = random_complete_tilde(rng, n)
            full = tilde_to_full(tf)
            for c in (2, 4, 6):
                assert hookarrow(tf, c) == arrows(full, 4, c + 5)


class TestFullTilde:
    def test_empty_tilde(self):
        tf = TildeFamily(4, SetFamily.empty(4), SetFamily.empty(4))
        full = tilde_to_full(tf)
        assert full.sets() == [(), (1,), (2,), (3,), (4,)]

    def test_roundtrip_random(self):
        rng = random.Random(103)
        for _ in range(100):
            tf = random_complete_tilde(rng, rng.randint(4, 7))
            again = full_to_tilde(tilde_to_full(tf))
            assert again.g2 == tf.g2 and again.g3 == tf.g3

    def test_full_to_tilde_contracts(self):
        with pytest.raises(FamilyError, match="singleton"):
            full_to_tilde(SetFamily.from_sets(3, [()]))
        with pytest.raises(FamilyError, match="too large"):
            full_to_tilde(SetFamily.from_masks(4, range(16)))
        not_down = SetFamily.from_sets(3, [(), (1,), (2,), (3,), (1, 2), (1, 2, 3)])
        with pytest.raises(FamilyError, match="down-set"):
            full_to_tilde(not_down)

    def test_tilde_json_roundtrip(self):
        tf = special6()
        blob = tilde_to_json(tf)
        again = tilde_from_json(blob)
        assert again == tf
        assert tilde_to_json(again) == blob
        obj = json.loads(blob)
        assert set(obj) == {"n", "g2", "g3"}


class TestFormulaTable:
    def test_known_values(self):
        assert mtilde_formula(5, 5) == 7
        assert mtilde_formula(7, 6) == 17
        assert mtilde_formula(7, 7) == math.comb(7, 2) + 1
        assert mtilde_formula(6, 5) == t_count(3, 5) + 1 == 9
        assert mtilde_formula(3, 7) == 5
        assert mtilde_formula(8, 27) == 10 * 10 * 10 - 27 == 973

    def test_row4_has_no_formula(self):
        with pytest.raises(FamilyError, match="c=4"):
            mtilde_formula(4, 9)

    def test_small_n_rejected(self):
        with pytest.raises(FamilyError):
            mtilde_formula(3, 4)
        with pytest.raises(FamilyError):
            mtilde_formula(9, 6)


class TestThresholds:
    def test_shatter_thresholds(self):
        assert threshold("sauer_shelah", 4, k=2) == 6
        assert threshold("sauer_shelah", 5, k=2) == 7
        assert threshold("sauer_shelah", 4, k=3) == 12

    def test_pair_threshold(self):
        assert threshold("three_seven", 4) == 10
        assert threshold("three_seven", 6) == 17

    def test_partite_thresholds(self):
        assert threshold("partite_arrow", 25, l=3) == 811
        assert threshold("partite_nonarrow", 25, l=3) == 810
        # non-arrow size equals the partite family size
        for n in range(3, 30):
            for l in range(1, min(n, 5) + 1):
                assert threshold("partite_nonarrow", n, l=l) == partite_family_size(n, l)

    def test_level_bound_thresholds(self):
        assert threshold("four_thirteen", 9) == 27 + 36 + 9 + 2
        assert threshold("five_twentyfive", 8) == 2 * 2 * 2 * 2 + 56 + 28 + 8 + 2

    def test_unknown_kind(self):
        with pytest.raises(FamilyError):
            threshold("nope", 5)
        with pytest.raises(FamilyError):
            threshold("sauer_shelah", 5)  # k missing


class TestPairwiseSumBound:
    def test_uniform_equality(self):
        lhs, rhs, holds = pairwise_sum_bound_check([1, 1, 1])
        assert holds and math.isclose(lhs, rhs, rel_tol=1e-12)

    def test_two_values(self):
        lhs, rhs, holds = pairwise_sum_bound_check([2, 0])
        assert (lhs, rhs, holds) == (0.0, 1.0, True)

    def test_rejects_bad_input(self):
        with pytest.raises(FamilyError):
            pairwise_sum_bound_check([])
        with pytest.raises(FamilyError):
            pairwise_sum_bound_check([1.0, -0.5])

    def test_random_vectors_hold(self):
        rng = random.Random(107)
        for _ in range(1000):
            m = rng.randint(1, 10)
            vec = [rng.random() * rng.choice([0.1, 1.0, 10.0]) for _ in range(m)]
            assert pairwise_sum_bound_check(vec).holds


class TestTildeFamilyType:
    def test_level_validation(self):
        with pytest.raises(FamilyError):
            TildeFamily(4, SetFamily.from_sets(4, [(1,)]), SetFamily.empty(4))
        with pytest.raises(FamilyError):
            TildeFamily(4, SetFamily.empty(4), SetFamily.from_sets(4, [(1, 2)]))
        with pytest.raises(FamilyError):
            TildeFamily(5, SetFamily.empty(4), SetFamily.empty(5))

    def test_completeness_detects_missing(self):
        g3 = SetFamily.from_sets(5, [(1, 2, 3)])
        g2 = SetFamily.from_sets(5, [(1, 2), (1, 3)])
        tf = TildeFamily(5, g2, g3)
        assert not tf.complete
        assert [elements_of(m) for m in tf.missing_shadow] == [(2, 3)]
        assert shadow(g3).members != g2.members


class TestSearchSeeds:
    # each search seed passes the predicate its search re-checks it with,
    # and has the size of its construction; the searches refuse a seed
    # that does not (tests/test_search.py)

    def test_downset_seed_is_the_partite_family(self):
        for n in range(1, 8):
            for a in range(1, n + 1):
                for b in range(2, (1 << a) + 1):
                    masks = max_family_seed(n, a, b)
                    if a < 2 or b <= 3 << (a - 2):
                        assert masks is None, (n, a, b)
                        continue
                    fam = SetFamily.from_masks(n, masks)
                    assert fam == partite_family(n, a - 1)
                    assert is_downset(fam) and not arrows(fam, a, b), (n, a, b)

    def test_tilde_seeds(self):
        for n in range(4, 10):
            sizes = {5: t_count(2, n), 6: t_count(3, n), 7: math.comb(n, 2),
                     8: t_count(3, n) + math.prod(partite_sizes(n, 3))}
            for c in range(1, 11):
                masks = max_tilde_seed(n, c)
                if c not in sizes:
                    assert masks is None
                    continue
                g2 = SetFamily.from_masks(n, [m for m in masks if m.bit_count() == 2])
                g3 = SetFamily.from_masks(n, [m for m in masks if m.bit_count() == 3])
                tf = TildeFamily(n, g2, g3)
                assert len(tf) == len(masks) == sizes[c], (n, c)
                assert tf.complete and not hookarrow(tf, c), (n, c)

    def test_cancellative_seeds(self):
        for l in (2, 3):
            for n in range(l, 13):
                fam = SetFamily.from_masks(n, max_cancellative_seed(n, l))
                assert len(fam) == math.prod(partite_sizes(n, l)), (n, l)
                assert is_cancellative(fam, l).ok, (n, l)

    def test_antichain_seed_is_a_layer(self):
        # the min(k, n//2)-sets: an antichain of that size that shatters
        # no (k+1)-set
        for n in range(1, 10):
            for k in range(n):
                fam = SetFamily.from_masks(n, antichain_seed(n, k))
                size = min(k, n // 2)
                assert len(fam) == math.comb(n, size), (n, k)
                assert all(m.bit_count() == size for m in fam.members), (n, k)
                assert is_antichain(fam) and not arrows(fam, k + 1, 1 << (k + 1)), (n, k)

    def test_ex3_k4_seed_is_turans_construction(self):
        sizes = {4: 3, 5: 7, 6: 14, 7: 23, 8: 36, 9: 54}
        for n in range(4, 12):
            fam = SetFamily.from_masks(n, ex3_k4_seed(n))
            assert pattern_free(fam, 3, Pattern.K_COMPLETE), n
            if n in sizes:
                assert len(fam) == sizes[n], n
