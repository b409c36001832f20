"""Convergence lab: A(eps) sets, verdict engines, audits.

Window-level claims are checked against brute-force oracles that assemble
the distance elements independently (LAPACK operator norms, explicit
formulas derived in the test file) rather than through the gap profiles.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from cstarseq import convergence
from cstarseq.convergence import (
    Index,
    Point,
    Question,
    VerdictBundle,
    a_epsilon_set,
    cauchy_criteria_cross_check,
    counterexample_audit,
    i_cauchy_def_verdict,
    i_cauchy_ek_verdict,
    i_cauchy_pair_verdict,
    i_convergence_verdict,
    i_star_cauchy_verdict,
    i_star_convergence_verdict,
    implication_audit,
    istar_witness_from_ap,
)
from cstarseq.errors import (
    DomainError,
    PreconditionError,
    UnsupportedOperationError,
)
from cstarseq.ideals import (
    Decision,
    IdealDescriptor,
    SetDescription,
    TailCertificate,
    TailKind,
    Verdict,
    block_index,
    block_union,
    filter_membership,
)
from cstarseq.metrics import (
    default_function_f,
    make_diag_metric,
    make_discrete_metric,
    make_reciprocal_function_metric,
    make_scaled_function_metric,
    metric_by_name,
)
from cstarseq.reporting import (
    _METRIC_NAMES,
    _SCENARIO_NAMES,
    RunConfig,
    build_metric,
    run,
)
from cstarseq.sequences import (
    BlockTail,
    SequenceScenario,
    _least_below,
    make_alternating,
    make_block_harmonic,
    make_constant,
    make_harmonic,
    scenario_by_name,
)

FIN = IdealDescriptor.fin()
BLK = IdealDescriptor.block()
D0 = IdealDescriptor.density_zero()

HARMONIC = make_harmonic()
BLOCK_SEQ = make_block_harmonic()


def oracle_window(norms: np.ndarray, eps: float) -> frozenset:
    """Brute-force offender enumeration from a vector of distance norms."""
    return frozenset(int(i) + 1 for i in np.nonzero(norms >= eps)[0])


def oracle_diag_norms(alpha, xs, c):
    """Largest singular value of diag(g, alpha g), assembled via LAPACK on a
    subsample and by the max formula on the rest."""
    out = np.maximum(1.0, alpha) * np.abs(xs - c)
    for i in range(0, len(xs), max(1, len(xs) // 37)):
        m = np.diag([abs(xs[i] - c), alpha * abs(xs[i] - c)])
        assert abs(np.linalg.norm(m, 2) - out[i]) < 1e-12
    return out


class TestAEpsilonSet:
    def test_window_matches_bruteforce_harmonic(self):
        n = 512
        xs = 1.0 / np.arange(1, n + 1)
        for alpha in (0.5, 2.0):
            m = make_diag_metric(alpha)
            for eps in (0.5, 0.1, 0.01):
                for center in (0.0, 1.0 / 7):
                    a = a_epsilon_set(HARMONIC, m, Point(center), eps, n)
                    want = oracle_window(
                        oracle_diag_norms(alpha, xs, center), eps)
                    assert a.window == want

    def test_index_center_resolution(self):
        m = make_diag_metric(1.0)
        a_idx = a_epsilon_set(HARMONIC, m, Index(7), 0.1, 256)
        a_pt = a_epsilon_set(HARMONIC, m, Point(1.0 / 7), 0.1, 256)
        assert a_idx.window == a_pt.window

    def test_tail_certificate_harmonic_finite(self):
        m = make_diag_metric(0.5)
        a = a_epsilon_set(HARMONIC, m, Point(0.0), 0.01, 4096)
        assert a.tail.kind is TailKind.FINITE

    def test_tail_certificate_reciprocal_cofinite(self):
        m = make_reciprocal_function_metric(default_function_f(2.0, 64))
        a = a_epsilon_set(HARMONIC, m, Index(4), 0.5, 1024)
        assert a.tail.kind is TailKind.COFINITE

    def test_tail_certificate_block(self):
        m = make_scaled_function_metric(default_function_f(2.0, 64))
        a = a_epsilon_set(BLOCK_SEQ, m, Point(0.0), 0.5, 1024)
        assert a.tail.kind is TailKind.BLOCK_BOUNDED
        # offending blocks: 2/j >= 0.5 iff j <= 4
        assert a.tail.blocks == frozenset({1, 2, 3, 4})

    def test_invalid_inputs(self):
        m = make_diag_metric(1.0)
        with pytest.raises(DomainError):
            a_epsilon_set(HARMONIC, m, Point(0.0), 0.0, 64)
        with pytest.raises(DomainError):
            a_epsilon_set(HARMONIC, m, Index(0), 0.1, 64)


class TestIConvergence:
    def test_harmonic_converges_under_fin(self):
        m = make_diag_metric(0.5)
        for k in range(1, 11):
            b = i_convergence_verdict(HARMONIC, m, 0.0, FIN, 1.0 / k, 2048)
            assert b.decision is Decision.IN

    def test_wrong_limit_fails(self):
        m = make_diag_metric(0.5)
        b = i_convergence_verdict(HARMONIC, m, 0.5, FIN, 0.1, 2048)
        assert b.decision is Decision.NOT_IN

    def test_block_sequence_converges_under_block_ideal_only(self):
        m = make_scaled_function_metric(default_function_f(2.0, 64))
        assert i_convergence_verdict(
            BLOCK_SEQ, m, 0.0, BLK, 0.5, 1024).decision is Decision.IN
        assert i_convergence_verdict(
            BLOCK_SEQ, m, 0.0, FIN, 0.5, 1024).decision is Decision.NOT_IN

    def test_near_equal_constants_do_not_share_points(self):
        # make_constant names both constants "constant:1" ({v:g}); points
        # cached under that name would make every index of the second
        # sequence offend at eps = 5e-8.
        make_constant(1.0).points(64)
        s = make_constant(1.0000001)
        b = i_convergence_verdict(s, metric_by_name("diag"), 1.0000001, FIN,
                                  5e-8, 64)
        assert b.witness_set.window == frozenset()
        assert b.decision is Decision.IN

    def test_constant_sequence(self):
        m = make_diag_metric(2.0)
        s = make_constant(3.0)
        assert i_convergence_verdict(
            s, m, 3.0, FIN, 1e-6, 256).decision is Decision.IN


class TestICauchyDefinition:
    def test_harmonic_witness_values(self):
        # With norm max(1, alpha) |1/n - 1/n0| the analytic first good
        # center is n0 = ceil(slope/eps) + 1.
        for alpha, eps, expect_n0 in ((0.5, 0.1, 11), (2.0, 0.01, 201)):
            m = make_diag_metric(alpha)
            b = i_cauchy_def_verdict(HARMONIC, m, FIN, eps, 4096)
            assert b.decision is Decision.IN
            assert b.witness_index == expect_n0

    def test_witness_set_matches_bruteforce(self):
        m = make_diag_metric(0.5)
        b = i_cauchy_def_verdict(HARMONIC, m, FIN, 0.1, 4096)
        xs = 1.0 / np.arange(1, 4097)
        want = oracle_window(
            oracle_diag_norms(0.5, xs, 1.0 / b.witness_index), 0.1)
        assert b.witness_set.window == want

    def test_reciprocal_universal_notin(self):
        m = make_reciprocal_function_metric(default_function_f(2.0, 64))
        for eps in (0.1, 0.5, 1.0):
            b = i_cauchy_def_verdict(HARMONIC, m, FIN, eps, 1024)
            assert b.decision is Decision.NOT_IN

    def test_block_sequence_fin_vs_block(self):
        m = make_scaled_function_metric(default_function_f(2.0, 64))
        assert i_cauchy_def_verdict(
            BLOCK_SEQ, m, BLK, 0.3, 1024).decision is Decision.IN
        assert i_cauchy_def_verdict(
            BLOCK_SEQ, m, FIN, 0.3, 1024).decision is Decision.NOT_IN

    def test_alternating_threshold(self):
        m = make_diag_metric(1.0)
        assert i_cauchy_def_verdict(
            make_alternating(), m, FIN, 0.5, 512).decision is Decision.NOT_IN
        assert i_cauchy_def_verdict(
            make_alternating(), m, FIN, 2.5, 512).decision is Decision.IN


class TestICauchyPair:
    def test_block_cut_oracle(self):
        # Independent derivation of the cut: D = Delta_1 u ... u Delta_J
        # works as soon as pairwise norms off D stay below eps, i.e.
        # 2 * (1/(J+1) - 0) < eps at the worst pair; the smallest J with
        # envelope(J) < eps / (2 * scale) gives 1/J < 0.2/4 = 0.05 -> J=21.
        eps, scale = 0.2, 2.0
        j = 1
        while 1.0 / j >= eps / (2.0 * scale):
            j += 1
        assert j == 21
        m = make_scaled_function_metric(default_function_f(2.0, 64))
        b = i_cauchy_pair_verdict(BLOCK_SEQ, m, BLK, eps, 8192)
        assert b.decision is Decision.IN
        assert b.cut_index == 21
        assert b.witness_set.window == block_union(range(1, 22), 8192).window

    @pytest.mark.parametrize("eps, cut", [
        (0.2, 21), (0.1, 41), (0.01, 401), (1e-5, 400001),
        # 1/16 == eps / 4 exactly, so 16 misses the strict bound: J = 17.
        (0.25, 17),
    ])
    def test_block_cut_index(self, eps, cut):
        # Least J with 1/J < eps / (2 * scale), scale 2, found here by a
        # scan up from just below 4/eps.
        j = max(1, int(4.0 / eps) - 2)
        while not 1.0 / j < eps / 4.0:
            j += 1
        assert j == cut
        m = make_scaled_function_metric(default_function_f(2.0, 64))
        b = i_cauchy_pair_verdict(BLOCK_SEQ, m, BLK, eps, 1024)
        assert b.decision is Decision.IN
        assert b.cut_index == cut
        assert b.witness_set.tail.blocks == frozenset(range(1, cut + 1))

    def test_block_cut_search_is_logarithmic(self):
        calls = []

        def envelope(j):
            calls.append(j)
            return 1.0 / j

        s = _block_harmonic_with_envelope(envelope)
        m = make_scaled_function_metric(default_function_f(2.0, 64))
        b = i_cauchy_pair_verdict(s, m, BLK, 1e-5, 256)
        assert b.cut_index == 400001
        # Doubling to 2^19 and bisecting below it: about 2 log2(J) calls,
        # where a linear scan makes J.
        assert len(calls) <= 2 * (400001).bit_length() + 2

    def test_block_cut_search_guard(self):
        # An envelope that never drops below eps / (2 * scale) has no cut:
        # the pair cell is Unknown instead of aborting the report.
        s = _block_harmonic_with_envelope(lambda j: 1.0)
        m = make_scaled_function_metric(default_function_f(2.0, 64))
        b = i_cauchy_pair_verdict(s, m, BLK, 0.1, 256)
        assert b.decision is Decision.UNKNOWN

    def test_least_below_cap(self):
        assert _least_below(lambda j: 1.0 / j, 0.1, 2 ** 53) == 11
        # The least j with 1/j < 1e-3 is 1001: a cap below it raises.
        assert _least_below(lambda j: 1.0 / j, 1e-3, 1001) == 1001
        with pytest.raises(DomainError):
            _least_below(lambda j: 1.0 / j, 1e-3, 1000)
        with pytest.raises(DomainError):
            _least_below(lambda j: 1.0, 0.5, 2 ** 53)

    def test_cut_beyond_2_53_is_one_unknown_cell(self):
        # At eps 1e-17 the cut 1/J < eps / 4 lies near 4e17 > 2^53.
        report = run(RunConfig(scenario="block-harmonic", metric="scaled",
                               ideal="block", eps_list=(1e-17,), window=16))
        cells = {c["question"]: c["decision"]
                 for c in report.to_json()["cells"]}
        assert cells["i_cauchy_pair"] == "unknown"
        assert report.exit_code == 0

    @pytest.mark.parametrize("metric", ["diag", "scaled"])
    def test_pair_cut_target_underflow_falls_through(self, metric):
        # eps / (2 scale) is 0.0 for the least subnormal eps: no cut is
        # searched, and the cell is Unknown instead of aborting the report.
        m = metric_by_name(metric)
        b = i_cauchy_pair_verdict(make_block_harmonic(), m, BLK, 5e-324, 16)
        assert b.decision is Decision.UNKNOWN
        report = run(RunConfig(scenario="block-harmonic", metric=metric,
                               ideal="block", eps_list=(5e-324,), window=16))
        pair = [c for c in report.to_json()["cells"]
                if c["question"] == "i_cauchy_pair"]
        assert [c["decision"] for c in pair] == ["unknown"]

    def test_pair_certificate_is_one_run(self):
        # D = blocks 1..4 000 001 costs one run, not four million ints.
        m = make_scaled_function_metric(default_function_f(2.0, 64))
        tracemalloc.start()
        try:
            b = i_cauchy_pair_verdict(BLOCK_SEQ, m, BLK, 1e-6, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        blocks = b.witness_set.tail.blocks
        assert len(blocks) == 4_000_001
        assert blocks.runs == [[1, 4_000_001]]
        assert peak < 1 << 20

    def test_eps_third_underflow_decided(self):
        # eps / 3 is 0.0 for the least subnormal eps: no E_k(eps/3) is
        # tried, and the reciprocal distance floor decides.
        m = make_reciprocal_function_metric(default_function_f(2.0, 64))
        for ideal in (FIN, D0, BLK):
            b = i_cauchy_pair_verdict(HARMONIC, m, ideal, 5e-324, 16)
            assert b.decision is Decision.NOT_IN

    def test_pair_witness_really_works(self):
        # Off D = blocks 1..21, every index has block >= 22 and the value
        # 1/j sits in (0, 1/22]; the worst pair norm is below eps.
        m = make_scaled_function_metric(default_function_f(2.0, 64))
        b = i_cauchy_pair_verdict(BLOCK_SEQ, m, BLK, 0.2, 2048)
        off_blocks = [j for j in range(22, 200)]
        vals = np.array([BLOCK_SEQ.generator(2 ** (j - 1))
                         for j in off_blocks])
        worst = 2.0 * (vals.max() - vals.min())
        assert worst < 0.2
        assert b.decision is Decision.IN

    def test_harmonic_empty_witness(self):
        m = make_diag_metric(0.5)
        b = i_cauchy_pair_verdict(HARMONIC, m, FIN, 2.0, 512)
        assert b.decision is Decision.IN
        assert b.witness_set.window == frozenset()

    def test_block_sequence_not_pair_cauchy_under_fin(self):
        m = make_scaled_function_metric(default_function_f(2.0, 64))
        b = i_cauchy_pair_verdict(BLOCK_SEQ, m, FIN, 0.3, 1024)
        assert b.decision is Decision.NOT_IN

    def test_reciprocal_not_pair_cauchy(self):
        m = make_reciprocal_function_metric(default_function_f(2.0, 64))
        b = i_cauchy_pair_verdict(HARMONIC, m, FIN, 0.5, 512)
        assert b.decision is Decision.NOT_IN


def _block_harmonic_with_envelope(envelope) -> SequenceScenario:
    """Block-harmonic with a caller-supplied envelope for the block values."""
    return SequenceScenario(
        name="block-harmonic",
        generator=BLOCK_SEQ.generator,
        tail_model=BlockTail(
            value=lambda j: 1.0 / j,
            limit=0.0,
            envelope=envelope,
            value_interval=lambda j: (0.0, 1.0 / (j + 1)),
        ),
        point_bounds=(0.0, 1.0),
        injective=False,
        nominal_limit=0.0,
    )


def _eventually_constant_blocks(table, limit) -> SequenceScenario:
    """x_n = table[j - 1] on Delta_j for the listed blocks j, the limit on
    every later block; built only from the public tail-model API."""
    vals = np.array(list(table) + [limit])

    def value(j):
        out = vals[np.minimum(np.asarray(j), len(table) + 1) - 1]
        return out if np.ndim(j) else float(out)

    return SequenceScenario(
        name="eventually-constant-blocks",
        generator=lambda n: value(block_index(n)),
        tail_model=BlockTail(
            value=value, limit=limit,
            envelope=lambda j: max((abs(v - limit) for v in table[j - 1:]),
                                   default=0.0),
        ),
        point_bounds=(float(vals.min()), float(vals.max())),
        injective=False,
        nominal_limit=limit,
    )


class TestICauchyEk:
    def test_agrees_with_definition_on_harmonic(self):
        m = make_diag_metric(0.5)
        for eps in (1.0, 0.1, 0.01):
            d = i_cauchy_def_verdict(HARMONIC, m, FIN, eps, 2048).decision
            e = i_cauchy_ek_verdict(HARMONIC, m, FIN, eps, 2048).decision
            assert d is e is Decision.IN

    def test_k_set_window_oracle(self):
        # Independent derivation: E_k(eps) = {n : 2 |1/n - 1/k| >= eps} is
        # cofinite (hence outside Fin) exactly when the tail value
        # 2 (1/k - 0) exceeds eps, i.e. k < 2/eps; with eps = 0.1 the
        # strict offenders are k = 1..19 (k = 20 sits on the boundary and
        # may stay undecided, which cannot flip the finite-tail verdict).
        m = make_diag_metric(2.0)
        b = i_cauchy_ek_verdict(HARMONIC, m, FIN, 0.1, 1024)
        assert frozenset(range(1, 20)) <= b.witness_set.window
        assert b.witness_set.window <= frozenset(range(1, 21))
        assert b.witness_set.tail.kind is TailKind.FINITE
        assert b.decision is Decision.IN

    def test_reciprocal_k_is_cofinite(self):
        m = make_reciprocal_function_metric(default_function_f(2.0, 64))
        b = i_cauchy_ek_verdict(HARMONIC, m, FIN, 0.5, 512)
        assert b.decision is Decision.NOT_IN
        assert b.witness_set.tail.kind is TailKind.COFINITE

    def test_block_sequence_under_block_ideal(self):
        m = make_scaled_function_metric(default_function_f(2.0, 64))
        b = i_cauchy_ek_verdict(BLOCK_SEQ, m, BLK, 0.3, 1024)
        assert b.decision is Decision.IN


class TestCrossCheck:
    GRID_EPS = (1.0, 0.1, 0.01)

    def test_no_conflicts_on_core_grid(self):
        mets = [make_diag_metric(0.5), make_diag_metric(2.0),
                make_scaled_function_metric(default_function_f(2.0, 64)),
                make_discrete_metric()]
        for s in (HARMONIC, BLOCK_SEQ, make_constant(0.0)):
            for ideal in (FIN, BLK, D0):
                for m in mets:
                    rep = cauchy_criteria_cross_check(
                        s, m, ideal, self.GRID_EPS, 1024)
                    assert rep["consistent"], rep["conflicts"]

    @pytest.mark.parametrize("table, limit", [
        ([0.0], 1.0),                      # 0 on Delta_1, 1 elsewhere
        ([0.5, 0.5, 0.5], 0.0),            # 0.5 on blocks 1-3, 0 beyond
        ([1.0 / j for j in range(1, 81)], 0.0),  # constant past the probe
    ])
    @pytest.mark.parametrize("metric", ["discrete", "reciprocal"])
    def test_repeated_block_values_keep_the_pair_form_sound(self, table,
                                                            limit, metric):
        # Block values that are eventually constant are I-Cauchy for the
        # block ideal: D = the blocks before the constant part is in it.
        # Their repeated values must not trigger the distinct-value floor.
        s = _eventually_constant_blocks(table, limit)
        rep = cauchy_criteria_cross_check(
            s, metric_by_name(metric), BLK, (0.3, 0.1, 0.01, 1e-3), 4096)
        assert rep["consistent"], rep["conflicts"]
        for cell in rep["cells"]:
            assert Decision.NOT_IN.value not in cell["decisions"].values()


class TestIStar:
    def test_full_witness_harmonic(self):
        m = make_diag_metric(0.5)
        b = i_star_cauchy_verdict(
            HARMONIC, m, FIN, SetDescription.full(1024), 0.1, 1024)
        assert b.decision is Decision.IN
        assert b.cut_index is not None

    def test_witness_must_be_in_filter(self):
        m = make_diag_metric(0.5)
        bad = SetDescription(frozenset({1}), 1024,
                             __import__("cstarseq").TailCertificate.finite())
        b = i_star_cauchy_verdict(HARMONIC, m, FIN, bad, 0.1, 1024)
        assert b.decision is Decision.NOT_IN

    def test_block_witness_defeated(self):
        # Excluding blocks 1..l leaves blocks l+1, l+2 whose fixed gap
        # 2 (1/(l+1) - 1/(l+2)) = 2/((l+1)(l+2)) defeats eps0.
        m = make_scaled_function_metric(default_function_f(2.0, 64))
        for l in (1, 4, 9):
            eps0 = 2.0 / (3.0 * (l + 1) * (l + 2))
            w = block_union(range(1, l + 1), 2048).complement()
            assert filter_membership(BLK, w).decision is Decision.IN
            b = i_star_cauchy_verdict(BLOCK_SEQ, m, BLK, w, eps0, 2048)
            assert b.decision is Decision.NOT_IN

    def test_i_star_convergence(self):
        m = make_diag_metric(0.5)
        full = SetDescription.full(1024)
        assert i_star_convergence_verdict(
            HARMONIC, m, FIN, 0.0, full, 0.1, 1024).decision is Decision.IN
        assert i_star_convergence_verdict(
            HARMONIC, m, FIN, 0.7, full, 0.1, 1024).decision is Decision.NOT_IN

    def test_alternating_istar_not_cauchy(self):
        m = make_diag_metric(1.0)
        full = SetDescription.full(512)
        b = i_star_cauchy_verdict(make_alternating(), m, FIN, full, 0.5, 512)
        assert b.decision is Decision.NOT_IN

    def test_block_istar_convergence_in_past_the_listed_blocks(self):
        # Blocks 1 and 2 hold 1.0 and 0.5, every later block the limit 0;
        # the witness drops blocks 1 and 2, so the kept blocks sit on the
        # limit from block 3 on.
        s = _eventually_constant_blocks([1.0, 0.5], 0.0)
        w = block_union(range(1, 3), 1024).complement()
        b = i_star_convergence_verdict(s, make_diag_metric(0.5), BLK, 0.0, w,
                                       0.1, 1024)
        assert b.decision is Decision.IN
        assert b.verdict.certificate == ("all active blocks within eps of "
                                         "the limit")
        assert b.cut_index == 3

    def test_block_istar_convergence_far_blocks_undecided(self):
        # The witness drops every probed block, and the blocks beyond them
        # take values in [0, 1/65], whose scaled distances to 0 straddle
        # eps = 1e-3.
        m = make_scaled_function_metric(default_function_f(2.0, 64))
        w = block_union(range(1, 65), 4096).complement()
        assert filter_membership(BLK, w).decision is Decision.IN
        b = i_star_convergence_verdict(BLOCK_SEQ, m, BLK, 0.0, w, 1e-3, 4096)
        assert b.decision is Decision.UNKNOWN
        assert b.verdict.certificate == "far blocks undecided"

    def test_istar_convergence_quotes_the_filter_certificate(self):
        finite = SetDescription(frozenset({1, 2}), 256,
                                TailCertificate.finite())
        fm = filter_membership(FIN, finite)
        assert fm.decision is Decision.NOT_IN
        b = i_star_convergence_verdict(HARMONIC, make_diag_metric(0.5), FIN,
                                       0.0, finite, 0.1, 256)
        assert b.decision is Decision.NOT_IN
        assert b.verdict.certificate == ("witness filter membership: "
                                         + fm.certificate)

    def test_istar_cauchy_witness_of_unknown_tail_is_undecided(self):
        w = SetDescription(frozenset({1}), 256, TailCertificate.unknown())
        b = i_star_cauchy_verdict(HARMONIC, make_diag_metric(0.5), FIN, w,
                                  0.1, 256)
        assert b.decision is Decision.UNKNOWN
        assert b.verdict.certificate == "witness filter membership undecided"


class TestApWitnessRoute:
    def test_fin_witness_certifies_istar(self):
        m = make_diag_metric(0.5)
        w = istar_witness_from_ap(HARMONIC, m, FIN, 2048)
        assert filter_membership(FIN, w).decision is Decision.IN
        for k in range(1, 11):
            b = i_star_cauchy_verdict(HARMONIC, m, FIN, w, 1.0 / k, 2048)
            assert b.decision is Decision.IN

    def test_block_ideal_refused(self):
        m = make_scaled_function_metric(default_function_f(2.0, 64))
        with pytest.raises(UnsupportedOperationError):
            istar_witness_from_ap(BLOCK_SEQ, m, BLK, 2048)

    def test_non_cauchy_input_refused(self):
        m = make_reciprocal_function_metric(default_function_f(2.0, 64))
        with pytest.raises(PreconditionError):
            istar_witness_from_ap(HARMONIC, m, FIN, 1024)

    @pytest.mark.parametrize("n_max", [16, 4096])
    def test_witness_is_n_and_every_a_k_is_finite(self, n_max):
        """Wherever the witness is built it is all of N: each A_k of the
        definition form has a finite tail, so P \\ B_k = P & A_k is finite,
        the property the (AP) lemma asks of P."""
        built = []
        for sn, mn, ideal in itertools.product(_SCENARIO_NAMES, _METRIC_NAMES,
                                               (FIN, D0)):
            s, m = scenario_by_name(sn), build_metric(mn)
            try:
                p = istar_witness_from_ap(s, m, ideal, n_max)
            except PreconditionError:
                continue
            built.append((sn, mn, ideal.name))
            assert p == SetDescription.full(n_max)
            for k in range(1, 11):
                a_k = i_cauchy_def_verdict(s, m, ideal, 1.0 / k,
                                           n_max).witness_set
                assert a_k.tail.kind is TailKind.FINITE
                assert p.minus(a_k.complement()).tail.kind is TailKind.FINITE
        assert ("harmonic", "diag", "fin") in built
        assert ("constant:0", "scaled", "density0") in built


class TestCounterexampleAudit:
    def test_reproduction(self):
        m = make_scaled_function_metric(default_function_f(2.0, 64))
        rep = counterexample_audit(10, 8192, m)
        assert rep["reproduced"]
        assert rep["ap_witness_unsupported"]
        for entry in rep["entries"]:
            l = entry["l"]
            assert entry["expected_gap"] == pytest.approx(
                2.0 / ((l + 1) * (l + 2)), rel=1e-15)
            for pair in entry["pairs"]:
                assert pair["gap_matches_formula"]
                assert pair["exceeds_eps0"]

    def test_gap_values_against_direct_evaluation(self):
        # Oracle: pick explicit members of blocks l+1 and l+2 and evaluate
        # the metric element norm through LAPACK-free sup over samples.
        s = make_block_harmonic()
        for l in (1, 5, 10):
            m_idx, n_idx = 2 ** l, 2 ** (l + 1)
            gap = 2.0 * abs(s.generator(m_idx) - s.generator(n_idx))
            assert gap == pytest.approx(2.0 / ((l + 1) * (l + 2)), rel=1e-12)
            assert gap > 2.0 / (3.0 * (l + 1) * (l + 2))

    def test_window_too_small_rejected(self):
        m = make_scaled_function_metric(default_function_f(2.0, 64))
        with pytest.raises(DomainError):
            counterexample_audit(10, 1024, m)


class TestImplicationAudit:
    def test_grid_consistent(self):
        scens = [HARMONIC, BLOCK_SEQ, make_constant(0.0)]
        mets = [make_diag_metric(0.5), make_diag_metric(2.0),
                make_scaled_function_metric(default_function_f(2.0, 64)),
                make_discrete_metric()]
        rep = implication_audit(scens, (FIN, BLK), mets, (1.0, 0.1, 0.01),
                                1024)
        assert rep["consistent"], rep["violations"]

    def test_disagreeing_engines_are_reported(self, monkeypatch):
        # The pair form is made to answer NotIn where the definition form
        # answers In: the cross-check lists the cell, and every implication
        # the row checks against I-Cauchy reports a violation.
        m = make_diag_metric(0.5)

        def refuting(s, m, ideal, eps, n_max):
            return VerdictBundle(Question.ICAUCHY_PAIR, eps,
                                 Verdict(Decision.NOT_IN, "patched"))

        monkeypatch.setattr(convergence, "i_cauchy_pair_verdict", refuting)
        cc = cauchy_criteria_cross_check(HARMONIC, m, FIN, (1.0, 0.1), 512)
        assert not cc["consistent"]
        assert cc["conflicts"] == cc["cells"]
        assert cc["conflicts"][1] == {"epsilon": 0.1, "decisions": {
            "definition": "in", "pair": "not_in", "ek": "in"}}
        monkeypatch.setattr(convergence, "_proof_inclusion_holds",
                            lambda *args: False)
        rep = implication_audit([HARMONIC], [FIN], [m], [0.1], 512)
        label = f"harmonic/fin/{m.name}/eps=0.1"
        assert not rep["consistent"]
        assert rep["violations"] == [
            f"{label}: I-Cauchy criteria conflict",
            f"{label}: IConv=In but ICauchy=NotIn",
            f"{label}: B(2eps) not within A(eps)",
            f"{label}: IStarCauchy=In but ICauchy=NotIn",
            f"{label}: IStarConv=In but ICauchy=NotIn",
        ]

    def test_row_shape(self):
        rep = implication_audit([HARMONIC], [FIN],
                                [make_diag_metric(0.5)], [0.1], 256)
        row = rep["rows"][0]
        assert row["i_convergence"] == "in"
        assert row["proof_inclusion_b2eps_in_aeps"] is True
