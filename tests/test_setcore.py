import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelab import (
    FamilyError,
    SetFamily,
    arrows,
    delete,
    down_closure,
    elements_of,
    family_from_json,
    family_from_text,
    family_to_json,
    family_to_text,
    is_antichain,
    is_downset,
    level,
    link,
    link_avoiding,
    mask_of,
    max_trace_over_ksets,
    pair_delete,
    pair_link,
    partite_family,
    shadow,
    special6,
    trace,
)

from conftest import random_downset, random_family


def brute_max_trace(fam, k):
    """Independent oracle: rebuild each trace as a family and count."""
    best, witness = 0, None
    for combo in combinations(range(1, fam.n + 1), k):
        y = mask_of(combo, fam.n)
        size = len(trace(fam, y))
        if size > best or (size == best and (witness is None or y < witness)):
            best, witness = size, y
    return best, witness


families = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.sets(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=20).map(
        lambda masks: SetFamily.from_masks(n, masks)
    )
)


class TestSetFamily:
    def test_canonical_order(self):
        fam = SetFamily.from_sets(4, [(1, 2), (3,), (), (1, 2), (2, 3)])
        assert fam.sets() == [(), (3,), (1, 2), (2, 3)]  # card, then mask value

    def test_rejects_out_of_range(self):
        with pytest.raises(FamilyError):
            SetFamily.from_sets(3, [(4,)])
        with pytest.raises(FamilyError):
            SetFamily(3, (8,))
        with pytest.raises(FamilyError):
            SetFamily(0, ())

    def test_rejects_non_canonical_tuple(self):
        with pytest.raises(FamilyError):
            SetFamily(3, (3, 1))  # pair before singleton
        with pytest.raises(FamilyError):
            SetFamily(3, (1, 1))

    def test_membership_index(self):
        for n in (4, 24):
            fam = SetFamily.from_sets(n, [(1,), (2, 3), (n,)])
            assert mask_of([1], n) in fam
            assert mask_of([2, 3], n) in fam
            assert mask_of([n], n) in fam
            assert mask_of([2], n) not in fam
            assert mask_of([1, n], n) not in fam
            assert 0 not in fam

    def test_index_skipped_for_large_ground(self):
        fam = SetFamily.from_sets(30, [(1,), (29, 30)])
        assert mask_of([29, 30], 30) in fam
        assert mask_of([1], 30) in fam
        assert mask_of([29], 30) not in fam
        assert mask_of([1, 29, 30], 30) not in fam


class TestTrace:
    def test_power_set_restriction(self):
        fam = SetFamily.power_family(4)
        tr = trace(fam, mask_of([1, 2, 3], 4))
        assert len(tr) == 8

    def test_partite_trace(self):
        # two blocks {1,2}, {3,4}; 9 members; trace on {1,2,3} drops to 6
        fam = partite_family(4, 2)
        assert len(fam) == 9
        tr = trace(fam, mask_of([1, 2, 3], 4))
        assert len(tr) == 6
        assert tr.sets() == [(), (1,), (2,), (3,), (1, 3), (2, 3)]

    def test_singleton(self):
        fam = SetFamily.from_sets(5, [()])
        assert len(trace(fam, mask_of([2, 4], 5))) == 1

    def test_bad_window(self):
        with pytest.raises(FamilyError):
            trace(SetFamily.from_sets(3, [(1,)]), 1 << 5)

    @settings(max_examples=60, deadline=None)
    @given(families, st.data())
    def test_trace_size_bounds(self, fam, data):
        y = data.draw(st.integers(min_value=0, max_value=(1 << fam.n) - 1))
        tr = trace(fam, y)
        assert len(tr) <= min(max(len(fam), 1), 1 << y.bit_count())

    @settings(max_examples=60, deadline=None)
    @given(families, st.data())
    def test_trace_composes(self, fam, data):
        y = data.draw(st.integers(min_value=0, max_value=(1 << fam.n) - 1))
        y2 = data.draw(st.integers(min_value=0, max_value=(1 << fam.n) - 1)) & y
        assert trace(trace(fam, y), y2).members == trace(fam, y2).members


class TestMaxTrace:
    def test_partite_12_3(self):
        fam = partite_family(12, 3)
        res = max_trace_over_ksets(fam, 4)
        assert res.max == 12
        assert elements_of(res.witness) == (1, 2, 5, 9)

    def test_small_cube(self):
        fam = SetFamily.from_masks(4, range(8))  # all subsets of {1,2,3}
        assert max_trace_over_ksets(fam, 4).max == 8

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(3, 8)
            fam = random_downset(rng, n)
            for k in (2, 3):
                got = max_trace_over_ksets(fam, k)
                exp_max, exp_wit = brute_max_trace(fam, k)
                assert (got.max, got.witness) == (exp_max, exp_wit)

    def test_window_size_validated(self):
        with pytest.raises(FamilyError):
            max_trace_over_ksets(SetFamily.from_sets(3, [(1,)]), 4)


class TestArrows:
    def test_partite_12_3_not_13(self):
        assert not arrows(partite_family(12, 3), 4, 13)

    def test_full_power_set(self):
        assert arrows(SetFamily.power_family(4), 4, 16)

    def test_partite_6_2_not_3_7(self):
        assert not arrows(partite_family(6, 2), 3, 7)


class TestLinks:
    def test_small_example(self):
        fam = SetFamily.from_sets(2, [(), (1,), (2,), (1, 2)])
        assert link(fam, 1).sets() == [(), (2,)]
        assert delete(fam, 1).sets() == [(), (2,)]

    def test_partite_link_size(self):
        fam = partite_family(6, 3)
        assert len(link(fam, 1)) == 9  # (1+2)(1+2) over the other two blocks

    def test_link_delete_partition(self):
        rng = random.Random(5)
        for _ in range(30):
            fam = random_family(rng, rng.randint(1, 7))
            for i in range(1, fam.n + 1):
                assert len(fam) == len(link(fam, i)) + len(delete(fam, i))

    def test_pair_ops(self):
        fam = SetFamily.from_sets(3, [(1, 2), (1, 2, 3), (3,), (1,)])
        assert pair_link(fam, 1, 2).sets() == [(), (3,)]
        assert pair_delete(fam, 1, 2).sets() == [(3,)]
        assert link_avoiding(fam, 1, 2).sets() == [()]
        with pytest.raises(FamilyError):
            pair_link(fam, 2, 2)

    def test_downset_closed_under_links(self):
        rng = random.Random(11)
        for _ in range(20):
            fam = random_downset(rng, rng.randint(2, 7))
            for i in range(1, fam.n + 1):
                assert is_downset(link(fam, i))
                assert is_downset(delete(fam, i))


class TestLevelShadow:
    def test_level_counts(self):
        assert len(level(SetFamily.power_family(3), 2)) == 3
        f93 = partite_family(9, 3)
        assert len(level(f93, 3)) == 27
        assert sum(len(level(f93, l)) for l in range(10)) == len(f93)

    def test_level_range(self):
        with pytest.raises(FamilyError):
            level(SetFamily.from_sets(3, [(1,)]), 4)

    def test_shadow_single(self):
        assert shadow(SetFamily.from_sets(3, [(1, 2, 3)])).sets() == [(1, 2), (1, 3), (2, 3)]

    def test_shadow_of_special6_triples(self):
        tf = special6()
        expected = {
            (1, 3), (1, 4), (2, 3), (2, 4),
            (1, 5), (1, 6), (2, 5), (2, 6),
            (3, 5), (3, 6), (4, 5), (4, 6),
        }
        assert set(shadow(tf.g3).sets()) == expected

    def test_shadow_oracle(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(3, 7)
            triples = [c for c in combinations(range(1, n + 1), 3) if rng.random() < 0.4]
            fam3 = SetFamily.from_sets(n, triples)
            expected = {tuple(sorted(p)) for t in triples for p in combinations(t, 2)}
            assert set(shadow(fam3).sets()) == expected

    def test_shadow_rejects_non_uniform(self):
        with pytest.raises(FamilyError):
            shadow(SetFamily.from_sets(3, [(1, 2)]))


class TestPredicates:
    def test_downset_examples(self):
        assert is_downset(SetFamily.from_sets(2, [(), (1,), (2,), (1, 2)]))
        assert not is_downset(SetFamily.from_sets(2, [(1, 2)]))
        for n, l in [(5, 2), (6, 3), (7, 4)]:
            assert is_downset(partite_family(n, l))

    def test_antichain_examples(self):
        assert is_antichain(SetFamily.from_sets(2, [(1,), (2,)]))
        assert not is_antichain(SetFamily.from_sets(2, [(1,), (1, 2)]))
        assert is_antichain(level(SetFamily.power_family(5), 3))

    def test_down_closure(self):
        fam = down_closure(SetFamily.from_sets(3, [(1, 2, 3)]))
        assert len(fam) == 8
        assert is_downset(fam)


class TestSerialization:
    def test_text_roundtrip_byte_exact(self):
        fam = SetFamily.from_sets(5, [(), (2,), (1, 3), (2, 3, 5)])
        text = family_to_text(fam)
        assert text.splitlines()[0] == "n=5"
        assert "-" in text.splitlines()
        again = family_from_text(text)
        assert again == fam
        assert family_to_text(again) == text

    def test_json_roundtrip_byte_exact(self):
        fam = partite_family(6, 2)
        blob = family_to_json(fam)
        again = family_from_json(blob)
        assert again == fam
        assert family_to_json(again) == blob

    def test_text_errors(self):
        with pytest.raises(FamilyError):
            family_from_text("sets first\n1,2\n")
        with pytest.raises(FamilyError):
            family_from_text("n=3\n1,x\n")
        with pytest.raises(FamilyError):
            family_from_text("n=3\n4\n")

    def test_json_errors(self):
        with pytest.raises(FamilyError):
            family_from_json("not json")
        with pytest.raises(FamilyError):
            family_from_json('{"sets": [[1]]}')
