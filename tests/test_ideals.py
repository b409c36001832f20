"""Ideal layer: block partition, certificates, set algebra, membership."""

import operator
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cstarseq.errors import DomainError
from cstarseq.ideals import (
    BlockSet,
    Decision,
    IdealDescriptor,
    SetDescription,
    TailCertificate,
    TailKind,
    _BLOCK_RULES,
    _DENSITY_RULES,
    _FIN_RULES,
    block_elements,
    block_index,
    block_members,
    block_union,
    filter_membership,
    ideal_by_name,
    max_block_index,
    membership,
)


def run_length_encode(members) -> list[list[int]]:
    """Reference for the window runs of ``SetDescription.to_json``: sorted
    members as inclusive [start, end] intervals."""
    runs = []
    for n in sorted(members):
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return runs


def oracle_block_index(n: int) -> int:
    """Independent oracle: factor out powers of two by division."""
    j = 1
    while n % 2 == 0:
        n //= 2
        j += 1
    return j


class TestBlockPartition:
    def test_block_index_against_oracle(self):
        for n in range(1, 5000):
            assert block_index(n) == oracle_block_index(n)

    def test_blocks_partition_the_window(self):
        n_max = 2048
        seen = []
        for j in range(1, max_block_index(n_max) + 1):
            seen.extend(block_members(j, n_max))
        assert sorted(seen) == list(range(1, n_max + 1))

    def test_block_members_formula(self):
        # Delta_3 = {4(2s-1)} = {4, 12, 20, ...}
        assert block_members(3, 40) == [4, 12, 20, 28, 36]

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            block_index(0)
        with pytest.raises(DomainError):
            block_members(0, 10)


# Small block numbers, so that drawn sets have adjacent and touching runs.
block_numbers = st.sets(st.integers(1, 40), max_size=30)


class TestBlockSet:
    """Run-length block sets against a frozenset reference."""

    @settings(max_examples=300, deadline=None)
    @given(block_numbers, block_numbers, st.integers(0, 42))
    def test_matches_frozenset_reference(self, ra, rb, j):
        a, b = BlockSet(ra), BlockSet(rb)
        assert list(a) == sorted(ra)
        assert len(a) == len(ra)
        assert bool(a) == bool(ra)
        assert (j in a) == (j in ra)
        assert a == frozenset(ra) and frozenset(ra) == a
        assert a.runs == run_length_encode(ra)
        assert (a == b) == (ra == rb)
        for op in (operator.or_, operator.and_, operator.sub):
            got, want = op(a, b), op(frozenset(ra), frozenset(rb))
            assert set(got) == want
            # Canonical runs: touching runs merged, so equal sets have
            # equal runs and hash alike.
            assert got.runs == run_length_encode(want)
            assert got == BlockSet(want)
            assert hash(got) == hash(BlockSet(want))

    @settings(max_examples=150, deadline=None)
    @given(arrays(bool, st.tuples(st.integers(1, 6), st.integers(0, 40))))
    def test_mask_and_row_construction(self, masks):
        want = [run_length_encode((np.flatnonzero(row) + 1).tolist())
                for row in masks]
        rows = BlockSet.rows(masks)
        assert [js.runs for js in rows] == want
        assert [len(js) for js in rows] == masks.sum(1).tolist()
        assert BlockSet.from_mask(masks[0]).runs == want[0]

    @settings(max_examples=150, deadline=None)
    @given(block_numbers, st.sampled_from([TailCertificate.block_bounded,
                                           TailCertificate.block_cobounded]))
    def test_certificate_json_and_complement(self, blocks, make):
        cert = make(blocks)
        assert cert.to_json()["blocks"] == run_length_encode(blocks)
        assert cert.complement().blocks == frozenset(blocks)
        assert cert.complement().complement() == cert

    def test_long_runs_cost_their_ends_only(self):
        big = BlockSet(range(1, 10 ** 12))
        assert len(big) == 10 ** 12 - 1
        assert 10 ** 12 - 1 in big and 10 ** 12 not in big
        assert (big | BlockSet([10 ** 12])).runs == [[1, 10 ** 12]]
        assert (big - BlockSet([5])).runs == [[1, 4], [6, 10 ** 12 - 1]]
        assert (big & BlockSet(range(7, 9))).runs == [[7, 8]]

    def test_immutable_and_picklable(self):
        js = BlockSet([1, 2, 5])
        with pytest.raises(AttributeError):
            js.edges = ()
        assert pickle.loads(pickle.dumps(js)) == js


class TestCertificates:
    def test_empty_block_sets_normalize(self):
        assert TailCertificate.block_bounded([]).kind is TailKind.FINITE
        assert TailCertificate.block_cobounded([]).kind is TailKind.COFINITE

    def test_complement_involutive_on_structured_kinds(self):
        for cert in (
            TailCertificate.finite(),
            TailCertificate.cofinite(),
            TailCertificate.block_bounded([1, 3]),
            TailCertificate.block_cobounded([2]),
        ):
            assert cert.complement().complement() == cert

    def test_complement_of_weak_kinds_is_unknown(self):
        assert (TailCertificate.unknown().complement().kind
                is TailKind.UNKNOWN)


tail_strategy = st.one_of(
    st.just(TailCertificate.finite()),
    st.just(TailCertificate.cofinite()),
    st.builds(TailCertificate.block_bounded,
              st.sets(st.integers(1, 6), max_size=4)),
    st.builds(TailCertificate.block_cobounded,
              st.sets(st.integers(1, 6), max_size=4)),
)


def concrete_tail(cert: TailCertificate, lo: int, hi: int) -> set:
    """Explicit members of the certified tail restricted to (lo, hi]."""
    members = set(range(lo + 1, hi + 1))
    if cert.kind is TailKind.FINITE:
        return set()
    if cert.kind is TailKind.COFINITE:
        return members
    blocks = {n for n in members if block_index(n) in cert.blocks}
    if cert.kind is TailKind.BLOCK_BOUNDED:
        return blocks
    return members - blocks


class TestSetAlgebra:
    @settings(max_examples=120, deadline=None)
    @given(st.sets(st.integers(1, 32)), st.sets(st.integers(1, 32)),
           tail_strategy, tail_strategy)
    def test_union_intersection_windows_and_tails(self, wa, wb, ta, tb):
        a = SetDescription(frozenset(wa), 32, ta)
        b = SetDescription(frozenset(wb), 32, tb)
        u = a.union(b)
        i = a.intersection(b)
        d = a.minus(b)
        assert u.window == wa | wb
        assert i.window == wa & wb
        assert d.window == wa - wb
        # The structured kinds are closed under these operations, so each
        # result is exact: never Unknown, and equal to the true set on a
        # concrete stretch well beyond the window.
        ca, cb = concrete_tail(ta, 32, 512), concrete_tail(tb, 32, 512)
        for joined, truth in ((u, ca | cb), (i, ca & cb), (d, ca - cb)):
            assert joined.tail.kind is not TailKind.UNKNOWN
            assert concrete_tail(joined.tail, 32, 512) == truth

    @settings(max_examples=80, deadline=None)
    @given(st.sets(st.integers(1, 32)), tail_strategy)
    def test_complement_is_involutive(self, w, t):
        a = SetDescription(frozenset(w), 32, t)
        cc = a.complement().complement()
        assert cc.window == a.window
        if t.kind in (TailKind.FINITE, TailKind.COFINITE,
                      TailKind.BLOCK_BOUNDED, TailKind.BLOCK_COBOUNDED):
            assert cc.tail == a.tail

    def test_window_bounds_enforced(self):
        with pytest.raises(DomainError):
            SetDescription(frozenset({40}), 32, TailCertificate.finite())

    def test_run_length_encoding(self):
        assert run_length_encode({1, 2, 3, 7, 9, 10}) == [[1, 3], [7, 7], [9, 10]]

    def test_block_union_members(self):
        d = block_union([1, 2], 16)
        assert d.window == frozenset({1, 3, 5, 7, 9, 11, 13, 15, 2, 6, 10, 14})
        assert d.tail.kind is TailKind.BLOCK_BOUNDED


@st.composite
def window_pairs(draw):
    """A window size and two member sets inside it."""
    size = draw(st.integers(1, 200))
    members = st.sets(st.integers(1, size))
    return size, draw(members), draw(members)


class TestMaskSetOps:
    """Mask-backed windows against a frozenset reference."""

    @settings(max_examples=150, deadline=None)
    @given(window_pairs(), tail_strategy, tail_strategy)
    def test_ops_match_frozenset_reference(self, pair, ta, tb):
        size, wa, wb = pair
        a = SetDescription(frozenset(wa), size, ta)
        b = SetDescription(frozenset(wb), size, tb)
        everything = frozenset(range(1, size + 1))
        assert a.window == wa
        assert a.union(b).window == wa | wb
        assert a.intersection(b).window == wa & wb
        assert a.complement().window == everything - wa
        assert a.minus(b).window == wa - wb
        assert a.to_json()["window"] == run_length_encode(wa)
        assert a.to_json()["size"] == size

    @settings(max_examples=60, deadline=None)
    @given(window_pairs(), tail_strategy)
    def test_mask_and_members_build_the_same_value(self, pair, t):
        size, w, _ = pair
        mask = np.zeros(size, dtype=bool)
        mask[[n - 1 for n in w]] = True
        by_mask = SetDescription(mask, size, t)
        by_members = SetDescription(frozenset(w), size, t)
        assert by_mask == by_members
        assert hash(by_mask) == hash(by_members)
        # The set keeps its own copy of a writable mask.
        mask[:] = ~mask
        assert by_mask.window == w
        assert not by_mask.mask.flags.writeable

    @pytest.mark.parametrize("shape", [(31,), (33,), (4, 8), ()])
    def test_wrong_shape_mask_rejected(self, shape):
        with pytest.raises(DomainError):
            SetDescription(np.zeros(shape, dtype=bool), 32,
                           TailCertificate.finite())

    def test_sets_are_immutable(self):
        s = SetDescription.full(8)
        with pytest.raises(ValueError):
            s.mask[0] = False
        with pytest.raises(AttributeError):
            s.size = 9


class TestMembership:
    def setup_method(self):
        self.fin = IdealDescriptor.fin()
        self.blk = IdealDescriptor.block()
        self.d0 = IdealDescriptor.density_zero()

    def test_finite_in_every_ideal(self):
        s = SetDescription(frozenset({1, 2}), 16, TailCertificate.finite())
        for ideal in (self.fin, self.blk, self.d0):
            assert membership(ideal, s).decision is Decision.IN

    def test_cofinite_never_in_a_nontrivial_ideal(self):
        s = SetDescription.full(16)
        for ideal in (self.fin, self.blk, self.d0):
            assert membership(ideal, s).decision is Decision.NOT_IN

    def test_single_block_splits_the_ideals(self):
        s = block_elements(1, 16)
        assert membership(self.fin, s).decision is Decision.NOT_IN
        assert membership(self.blk, s).decision is Decision.IN
        assert membership(self.d0, s).decision is Decision.UNKNOWN

    def test_unknown_tail_gives_unknown(self):
        s = SetDescription(frozenset({1}), 16, TailCertificate.unknown())
        for ideal in (self.fin, self.blk, self.d0):
            assert membership(ideal, s).decision is Decision.UNKNOWN

    def test_filter_membership_via_complement(self):
        s = block_union([1], 16).complement()
        assert filter_membership(self.blk, s).decision is Decision.IN
        assert filter_membership(self.fin, s).decision is Decision.NOT_IN

    def test_verdicts_carry_certificates(self):
        s = SetDescription.empty(16)
        v = membership(self.fin, s)
        assert v.certificate
        assert "finite" in v.certificate

    def test_registry(self):
        assert ideal_by_name("fin").name == "fin"
        assert ideal_by_name("block").has_ap() is False
        with pytest.raises(DomainError):
            ideal_by_name("nope")

    def test_rule_tables_cover_every_kind(self):
        for rules in (_FIN_RULES, _BLOCK_RULES, _DENSITY_RULES):
            assert set(rules) == set(TailKind)
        # Under the (AP) ideals only a finite set is certified In, which
        # is why the (AP) witness is all of N.
        for rules in (_FIN_RULES, _DENSITY_RULES):
            assert [k for k, (d, _) in rules.items()
                    if d is Decision.IN] == [TailKind.FINITE]

