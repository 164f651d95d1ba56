import hashlib
import random
from itertools import combinations

import pytest

import tracelab.setcore as setcore
import tracelab.transforms as transforms
from tracelab import (
    FamilyError,
    PartitionStructure,
    SetFamily,
    arrows,
    aux_triples_linear,
    downset_compress,
    downshift,
    elements_of,
    is_downset,
    link,
    link_avoiding,
    mask_of,
    max_trace_over_ksets,
    partite_family,
    partition_classes,
    symmetrize,
    symmetrize_if_profitable,
    trace_size,
)

from conftest import (
    kernel_parity_families,
    random_downset,
    random_downset_avoiding,
    random_family,
    uncovered_pairs,
)


def all_window_trace_sizes(fam, max_k=4):
    """From-scratch trace sizes on every window of size <= max_k."""
    out = {}
    for k in range(1, min(max_k, fam.n) + 1):
        for combo in combinations(range(1, fam.n + 1), k):
            y = mask_of(combo, fam.n)
            out[y] = trace_size(fam, y)
    return out


def shift_rule(fam, i):
    """Reference: each member F containing i becomes F - {i} unless
    F - {i} is in ``fam``, every member tested against ``fam`` as given."""
    bit = 1 << (i - 1)
    return SetFamily.from_masks(
        fam.n, (m ^ bit if m & bit and (m ^ bit) not in fam else m for m in fam.members)
    )


def downshift_fixpoint(fam):
    """Reference: downshift at i = 1..n, one new family per shift, until a
    full pass changes nothing."""
    cur = fam
    while True:
        before = cur
        for i in range(1, fam.n + 1):
            cur = downshift(cur, i)
        if cur == before:
            return cur


class TestDownshift:
    def test_blocked_shift_keeps_family(self):
        fam = SetFamily.from_sets(2, [(1, 2), (2,)])
        assert downshift(fam, 1) == fam

    def test_plain_shift(self):
        fam = SetFamily.from_sets(2, [(1, 2)])
        assert downshift(fam, 1).sets() == [(2,)]

    def test_size_preserved_and_traces_monotone(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(2, 7)
            fam = random_family(rng, n, max_size=25)
            i = rng.randint(1, n)
            shifted = downshift(fam, i)
            assert len(shifted) == len(fam)
            before = all_window_trace_sizes(fam)
            after = all_window_trace_sizes(shifted)
            assert all(after[y] <= before[y] for y in before)

    def test_matches_shift_rule(self):
        for n, fam in kernel_parity_families(seed=43):
            for i in range(1, n + 1):
                assert downshift(fam, i).members == shift_rule(fam, i).members, (fam, i)

    def test_bad_element(self):
        with pytest.raises(FamilyError):
            downshift(SetFamily.from_sets(3, [(1,)]), 4)


class TestCompress:
    def test_single_triple_collapses(self):
        fam = SetFamily.from_sets(3, [(1, 2, 3)])
        assert downset_compress(fam).sets() == [()]

    def test_downset_is_fixpoint(self):
        fam = partite_family(6, 3)
        assert downset_compress(fam) == fam

    def test_equals_iterated_downshift_fixpoint(self):
        for _, fam in kernel_parity_families(seed=43):
            assert downset_compress(fam).members == downshift_fixpoint(fam).members, fam

    def test_contracts_on_random_families(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(2, 8)
            fam = random_family(rng, n, max_size=30)
            red = downset_compress(fam)
            assert len(red) == len(fam)
            assert is_downset(red)
            before = all_window_trace_sizes(fam)
            after = all_window_trace_sizes(red)
            assert all(after[y] <= before[y] for y in before)


def _ref_downset_compress(fam):
    """Reference: down-shifts at i = 1..n in place on one set of masks,
    pass after pass, until a full pass changes nothing."""
    masks = set(fam.members)
    while True:
        changed = False
        for b in range(fam.n):
            bit = 1 << b
            moved = [m for m in masks if m & bit and m ^ bit not in masks]
            masks.difference_update(moved)
            masks.update(m ^ bit for m in moved)
            changed = changed or bool(moved)
        if not changed:
            return SetFamily.from_masks(fam.n, masks)


class TestCompressOnePass:
    # downset_compress runs one pass, or none on a down-set, where the
    # loop above ends on a pass that changes nothing; the effective shifts,
    # and so the result, are the same

    def test_matches_quiet_pass_loop_on_every_family_up_to_n_3(self):
        for n in (1, 2, 3):
            for code in range(1 << (1 << n)):
                fam = SetFamily.from_masks(n, (m for m in range(1 << n) if code >> m & 1))
                assert downset_compress(fam).members == _ref_downset_compress(fam).members, fam

    def test_matches_quiet_pass_loop_on_parity_families(self):
        for _, fam in kernel_parity_families(seed=61):
            assert downset_compress(fam).members == _ref_downset_compress(fam).members, fam

    def test_matches_quiet_pass_loop_up_to_n_26(self):
        rng = random.Random(67)
        for n in range(2, 27):
            for _ in range(6):
                masks = set()
                for _ in range(rng.randint(1, 12 * n)):
                    masks.add(sum(1 << b for b in rng.sample(range(n), rng.randint(0, min(n, 7)))))
                fam = SetFamily.from_masks(n, masks)
                assert downset_compress(fam).members == _ref_downset_compress(fam).members, fam

    def test_downset_input_runs_no_shift(self, monkeypatch):
        calls = []
        real = transforms._shift

        def counted(masks, bit):
            calls.append(bit)
            return real(masks, bit)

        monkeypatch.setattr(transforms, "_shift", counted)
        for fam in (partite_family(9, 3), SetFamily.empty(4), SetFamily.from_sets(3, [()])):
            assert downset_compress(fam) == fam
        assert calls == []
        downset_compress(SetFamily.from_sets(3, [(1, 2, 3)]))
        assert calls


class TestOneDownsetScan:
    def test_chain_scans_red_once(self, monkeypatch):
        scanned = []
        real = setcore._closed_down

        def counted(masks):
            scanned.append(masks)
            return real(masks)

        monkeypatch.setattr(setcore, "_closed_down", counted)
        fam = SetFamily.from_sets(5, [(1, 2, 3), (2, 4), (5,), (1, 4, 5)])
        red = downset_compress(fam)
        assert is_downset(red)
        max_trace_over_ksets(red, 3)
        partition_classes(red)
        symmetrize_if_profitable(red, 2, 5)
        assert len(scanned) == 1 and scanned[0] == frozenset(red.members)
        # a fresh object with the same members is scanned again: the
        # result is kept on the family object, not in the module
        assert is_downset(SetFamily(red.n, red.members))
        assert len(scanned) == 2


def _pipeline_pin_inputs():
    """120 random families on n = 10..16 (cycling), each of 30n draws of
    members with 1..6 elements, with a pair (x, y) no member holds both
    of, then partite_family(n, 3) for n = 20..26 with the pair (1, 2)."""
    rng = random.Random(1)
    out = []
    for i in range(120):
        n = 10 + i % 7
        x, y = sorted(rng.sample(range(1, n + 1), 2))
        both = (1 << (x - 1)) | (1 << (y - 1))
        masks = set()
        for _ in range(30 * n):
            m = 0
            for b in rng.sample(range(n), rng.randint(1, 6)):
                m |= 1 << b
            if m & both == both:
                m ^= 1 << (y - 1)
            masks.add(m)
        out.append((SetFamily.from_masks(n, masks), x, y))
    out += [(partite_family(n, 3), 1, 2) for n in range(20, 27)]
    return out


class TestPipelinePin:
    def test_kernel_outputs_unchanged(self):
        # compress -> is_downset -> trace scan -> partition -> symmetrize on
        # the benchmark's family-pipeline inputs (seed 1); the digest was
        # read from the plain implementations (a quiet pass closing every
        # compression, a frozenset per link, every class tested per member)
        h = hashlib.sha256()
        for fam, x, y in _pipeline_pin_inputs():
            red = downset_compress(fam)
            ps = partition_classes(red)
            out = (
                red.members,
                is_downset(red),
                tuple(max_trace_over_ksets(red, 3)),
                ps.classes,
                ps.aux.members,
                symmetrize_if_profitable(red, x, y).members,
            )
            h.update(repr(out).encode())
        assert h.hexdigest() == "2b8fd20a0282dc8c5c4a8c9cd402a4b35c8597e45b101c5c62e8f4e642e47fad"


class TestSymmetrize:
    def test_fixpoint_when_links_equal(self):
        fam = SetFamily.from_sets(3, [(), (1,), (2,)])
        assert symmetrize(fam, 1, 2) == fam

    def test_same_block_is_identity(self):
        fam = partite_family(6, 2)
        assert symmetrize(fam, 1, 2) == fam  # 1, 2 share a block, equal links

    def test_result_shape(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(4, 7)
            fam = random_downset_avoiding(rng, n, 4, 13)
            x, y = rng.sample(range(1, n + 1), 2)
            out = symmetrize(fam, x, y)
            assert is_downset(out)
            kept = len(fam) - len(link(fam, y))
            assert len(out) == kept + len(link_avoiding(fam, x, y))
            assert link(out, x) == link(out, y) or any(
                m & (1 << (x - 1)) and m & (1 << (y - 1)) for m in fam.members
            )

    def test_preserves_no_big_trace_4_13(self):
        rng = random.Random(37)
        for _ in range(40):
            n = rng.randint(5, 8)
            fam = random_downset_avoiding(rng, n, 4, 13)
            x, y = rng.sample(range(1, n + 1), 2)
            assert not arrows(symmetrize(fam, x, y), 4, 13)

    def test_preserves_no_big_trace_3_7(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(4, 7)
            fam = random_downset_avoiding(rng, n, 3, 7, max_card=2)
            x, y = rng.sample(range(1, n + 1), 2)
            assert not arrows(symmetrize(fam, x, y), 3, 7)

    def test_requires_downset_and_distinct(self):
        with pytest.raises(FamilyError):
            symmetrize(SetFamily.from_sets(3, [(1, 2)]), 1, 2)
        with pytest.raises(FamilyError):
            symmetrize(SetFamily.from_sets(3, [()]), 2, 2)


class TestSymmetrizeIfProfitable:
    def test_worked_example(self):
        fam = SetFamily.from_sets(3, [(), (1,), (2,), (1, 3), (3,)])
        out = symmetrize_if_profitable(fam, 1, 2)
        assert out.sets() == [(), (1,), (2,), (3,), (1, 3), (2, 3)]
        assert len(out) == 6

    def test_equal_links_unchanged(self):
        fam = SetFamily.from_sets(3, [(), (1,), (2,)])
        assert symmetrize_if_profitable(fam, 1, 2) == fam

    def test_link_equality_and_growth(self):
        rng = random.Random(43)
        done = 0
        while done < 30:
            n = rng.randint(4, 7)
            fam = random_downset_avoiding(rng, n, 4, 13)
            pairs = uncovered_pairs(fam)
            if not pairs:
                continue
            x, y = rng.choice(pairs)
            out = symmetrize_if_profitable(fam, x, y)
            assert len(out) >= len(fam)
            assert link(out, x) == link(out, y)
            done += 1

    def test_contract_error_names_offender(self):
        fam = SetFamily.from_sets(3, [(), (1,), (2,), (1, 2)])
        with pytest.raises(FamilyError, match=r"\{1, 2\}"):
            symmetrize_if_profitable(fam, 1, 2)


class TestPartition:
    def test_partite_blocks_are_classes(self):
        ps = partition_classes(partite_family(6, 3))
        assert [elements_of(z) for z in ps.classes] == [(1, 2), (3, 4), (5, 6)]
        assert len(ps.aux) == 8  # every block-incidence pattern occurs

    def test_power_family_gives_singleton_classes(self):
        ps = partition_classes(SetFamily.power_family(3))
        assert ps.r == 3
        assert all(z.bit_count() == 1 for z in ps.classes)
        assert len(ps.aux) == 8

    def test_trivial_family_single_class(self):
        ps = partition_classes(SetFamily.from_sets(5, [()]))
        assert ps.r == 1
        assert elements_of(ps.classes[0]) == (1, 2, 3, 4, 5)
        assert ps.aux.sets() == [()]

    def test_members_hit_classes_at_most_once(self):
        rng = random.Random(47)
        for _ in range(30):
            fam = random_downset_avoiding(rng, rng.randint(4, 7), 4, 13)
            ps = partition_classes(fam)
            for m in fam.members:
                assert all((m & z).bit_count() <= 1 for z in ps.classes)
                pattern = 0
                for ci, z in enumerate(ps.classes):
                    if m & z:
                        pattern |= 1 << ci
                assert pattern in ps.aux

    def test_partite_reconstruction_is_exact(self):
        fam = partite_family(7, 3)
        ps = partition_classes(fam)
        rebuilt = set()
        for m in range(1 << fam.n):
            if any((m & z).bit_count() > 1 for z in ps.classes):
                continue
            pattern = 0
            for ci, z in enumerate(ps.classes):
                if m & z:
                    pattern |= 1 << ci
            if pattern in ps.aux:
                rebuilt.add(m)
        assert rebuilt == set(fam.members)

    def test_ordering_size_then_smallest(self):
        fam = partite_family(5, 3)  # blocks of sizes 2, 2, 1
        ps = partition_classes(fam)
        assert [z.bit_count() for z in ps.classes] == [2, 2, 1]
        assert [elements_of(z) for z in ps.classes] == [(1, 2), (3, 4), (5,)]

    def test_requires_downset(self):
        with pytest.raises(FamilyError):
            partition_classes(SetFamily.from_sets(3, [(1, 2)]))


def _ref_partition_classes(fam):
    """partition_classes by its definition: one link family per element,
    grouped by equal member sets."""
    if not is_downset(fam):
        raise FamilyError("partition_classes requires a down-set")
    links = [frozenset(link(fam, i).members) for i in range(1, fam.n + 1)]
    class_of, masks = {}, []
    for b, lk in enumerate(links):
        if lk in class_of:
            masks[class_of[lk]] |= 1 << b
        else:
            class_of[lk] = len(masks)
            masks.append(1 << b)
    masks.sort(key=lambda z: (-z.bit_count(), z & -z))
    patterns = set()
    for m in fam.members:
        pat = 0
        for ci, z in enumerate(masks):
            if m & z:
                pat |= 1 << ci
        patterns.add(pat)
    return PartitionStructure(tuple(masks), SetFamily.from_masks(max(len(masks), 1), patterns))


def _link_tuple_partition(fam):
    """partition_classes with each element's class key the tuple of its
    link's members, every member tested for the element."""
    keys = [tuple(m ^ (1 << b) for m in fam.members if m >> b & 1) for b in range(fam.n)]
    masks = []
    for key in dict.fromkeys(keys):
        masks.append(sum(1 << b for b in range(fam.n) if keys[b] == key))
    masks.sort(key=lambda z: (-z.bit_count(), z & -z))
    patterns = {sum(1 << ci for ci, z in enumerate(masks) if m & z) for m in fam.members}
    return PartitionStructure(tuple(masks), SetFamily.from_masks(max(len(masks), 1), patterns))


def _ref_symmetrize_if_profitable(fam, x, y):
    """symmetrize_if_profitable by its definition: the orientation from
    the sizes of the two link families."""
    if x == y:
        raise FamilyError("symmetrize needs two distinct elements")
    both = (1 << (x - 1)) | (1 << (y - 1))
    if any(m & both == both for m in fam.members):
        raise FamilyError("a member contains both")
    if len(link(fam, x)) >= len(link(fam, y)):
        return symmetrize(fam, x, y)
    return symmetrize(fam, y, x)


def _outcome(fn, *args):
    """fn's value, or the marker "FamilyError" when it raises one."""
    try:
        return fn(*args)
    except FamilyError:
        return "FamilyError"


def _parity_downsets():
    """Compressed kernel parity families (n = 1..8) and random down-sets
    on n = 1..12."""
    fams = [downset_compress(fam) for _, fam in kernel_parity_families(seed=53)]
    rng = random.Random(59)
    for n in range(1, 13):
        for _ in range(4):
            fams.append(random_downset(rng, n, gens=rng.randint(1, 6), max_card=4))
    return fams


class TestLinksWithoutFamilies:
    # partition_classes and symmetrize_if_profitable read the links off
    # the members; they agree with the link-family versions everywhere

    def test_partition_matches_link_families(self):
        for fam in _parity_downsets():
            assert partition_classes(fam) == _ref_partition_classes(fam)

    def test_partition_matches_link_tuples_on_random_downsets(self):
        # n = 9, 10 put elements in a second byte lane of the members' words;
        # the partite families make classes of several such elements
        rng = random.Random(67)
        fams = [partite_family(n, l) for n in (9, 10) for l in (2, 3, 4)]
        for n in range(1, 11):
            for _ in range(12):
                fams.append(random_downset(rng, n, gens=rng.randint(1, 8), max_card=5))
        for fam in fams:
            assert partition_classes(fam) == _link_tuple_partition(fam), fam

    def test_partition_refuses_what_link_families_refuse(self):
        for _, fam in kernel_parity_families(seed=53, per_n=3):
            assert _outcome(partition_classes, fam) == _outcome(_ref_partition_classes, fam)

    def test_profitable_orientation_matches_link_sizes(self):
        raised = kept = 0
        for fam in _parity_downsets():
            for x in range(1, fam.n + 1):
                for y in range(1, fam.n + 1):
                    if x == y:
                        continue
                    got = _outcome(symmetrize_if_profitable, fam, x, y)
                    assert got == _outcome(_ref_symmetrize_if_profitable, fam, x, y)
                    raised += got == "FamilyError"
                    kept += got != "FamilyError"
        # both outcomes occur: members holding both elements, and none
        assert raised and kept

    def test_degree_tie_keeps_x_over_y(self):
        # deg 1 = deg 2 = 2, with different links: x's link is copied
        fam = SetFamily.from_sets(4, [(), (1,), (2,), (3,), (4,), (1, 3), (2, 4)])
        assert symmetrize_if_profitable(fam, 1, 2) == symmetrize(fam, 1, 2)
        assert symmetrize_if_profitable(fam, 2, 1) == symmetrize(fam, 2, 1)
        assert symmetrize(fam, 1, 2) != symmetrize(fam, 2, 1)
        assert symmetrize_if_profitable(fam, 1, 2) == _ref_symmetrize_if_profitable(fam, 1, 2)

    def test_member_with_both_raises(self):
        fam = SetFamily.from_sets(3, [(), (1,), (2,), (3,), (1, 2)])
        for x, y in ((1, 2), (2, 1)):
            with pytest.raises(FamilyError, match="contains both"):
                symmetrize_if_profitable(fam, x, y)


class TestAuxTriples:
    def test_shared_pair_rejected(self):
        ps = PartitionStructure((1, 2, 4, 8), SetFamily.from_sets(4, [(1, 2, 3), (1, 2, 4)]))
        assert not aux_triples_linear(ps)

    def test_near_disjoint_quadruple_accepted(self):
        aux = SetFamily.from_sets(6, [(1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)])
        ps = PartitionStructure((1, 2, 4, 8, 16, 32), aux)
        assert aux_triples_linear(ps)

    def test_single_triple_accepted(self):
        ps = PartitionStructure((1, 2, 4), SetFamily.from_sets(3, [(1, 2, 3), (1,)]))
        assert aux_triples_linear(ps)
