"""Metric layer: gap profiles, built-in metrics, axiom verification."""

import warnings
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarseq.algebra import (
    DEFAULT_TOL,
    ToleranceProfile,
    const_function,
    function_element,
    is_positive,
    matrix_element,
    op_norm,
    precedes,
)
from cstarseq.errors import (
    DomainError,
    InternalConsistencyError,
    PreconditionError,
    StructuralError,
)
from cstarseq.metrics import (
    ALL,
    CstarMetric,
    GapKind,
    GapProfile,
    NONE,
    STATUSES,
    distance_norm,
    make_diag_metric,
    make_discrete_metric,
    make_reciprocal_function_metric,
    make_scaled_function_metric,
    metric_by_name,
    verify_axioms,
)

finite = st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False)


def scalar_verify_axioms(m, samples, tol):
    """The metric axioms checked element by element, one ``precedes`` call
    per triple: the reference for the stacked ``verify_axioms``."""
    pts = sorted(set(float(s) for s in samples))
    ok_i = ok_ii = ok_iii = True
    worst = 0.0
    witnesses = []
    for x in pts:
        n = op_norm(m.eval(x, x))
        if n > tol.norm_tol:
            ok_i = False
            worst = max(worst, n)
            witnesses.append((x, x))
    for x, y in combinations(pts, 2):
        dxy = m.eval(x, y)
        if not is_positive(dxy, tol):
            ok_i = False
            witnesses.append((x, y))
        if op_norm(dxy) <= tol.norm_tol:
            ok_i = False
            witnesses.append((x, y))
        dev = float(np.max(np.abs(dxy.entries - m.eval(y, x).entries)))
        if dev > tol.norm_tol * (1.0 + op_norm(dxy)):
            ok_ii = False
            worst = max(worst, dev)
            witnesses.append((x, y))
    for x, y, z in permutations(pts, 3):
        lhs = m.eval(x, y)
        rhs = m.eval(x, z) + m.eval(z, y)
        if not precedes(lhs, rhs, tol):
            ok_iii = False
            worst = max(worst, op_norm(lhs) - op_norm(rhs))
            witnesses.append((x, y, z))
    return ok_i, ok_ii, ok_iii, worst, tuple(witnesses[:10])


class TestGapProfile:
    def test_linear(self):
        gp = GapProfile(GapKind.LINEAR, 2.0)
        assert gp.norm_of_gap(0.3) == pytest.approx(0.6)
        assert gp.norm_of_gap(0.05) >= 0.1
        assert not gp.norm_of_gap(0.049) >= 0.1

    def test_reciprocal(self):
        gp = GapProfile(GapKind.RECIPROCAL, 2.0)
        assert gp.norm_of_gap(0.0) == 0.0
        assert gp.norm_of_gap(4.0) == pytest.approx(0.5)
        assert np.allclose(gp.norm_of_gaps(np.array([0.0, 1.0, 4.0])),
                           [0.0, 2.0, 0.5])

    def test_reciprocal_subnormal_gap_is_inf_without_warning(self):
        gp = GapProfile(GapKind.RECIPROCAL, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gp.norm_of_gap(np.float64(5e-324)) == np.inf

    def test_discrete(self):
        gp = GapProfile(GapKind.DISCRETE, 1.0)
        assert gp.norm_of_gap(0.0) == 0.0
        assert gp.norm_of_gap(7.0) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([GapKind.LINEAR, GapKind.RECIPROCAL, GapKind.DISCRETE]),
        st.floats(min_value=0.0, max_value=4.0),
        st.floats(min_value=0.0, max_value=4.0),
        st.floats(min_value=0.01, max_value=3.0),
        st.booleans(),
    )
    def test_interval_status_sound_against_sampling(
        self, kind, a, b, eps, zero_ok
    ):
        glo, ghi = min(a, b), max(a, b)
        gp = GapProfile(kind, 1.5)
        status = gp.interval_status(glo, ghi, eps, zero_attainable=zero_ok)
        gaps = [g for g in np.linspace(glo, ghi, 17) if g > 0.0 or zero_ok]
        if glo == 0.0 and not zero_ok:
            gaps = [g for g in gaps if g > 0.0]
            if ghi > 0.0:
                gaps.append(min(ghi, 1e-9))
        offenders = [g for g in gaps if gp.norm_of_gap(g) >= eps]
        if status == ALL:
            assert len(offenders) == len(gaps)
        elif status == NONE:
            assert not offenders
        # MIXED makes no claim.

    def test_empty_interval_rejected(self):
        with pytest.raises(DomainError):
            GapProfile(GapKind.LINEAR).interval_status(1.0, 0.5, 0.1, False)


class TestBuiltinMetrics:
    def test_diag_metric_norm_oracle(self):
        # Oracle: assemble the diagonal matrix and take the largest
        # singular value via LAPACK directly.
        for alpha in (0.5, 2.0):
            m = make_diag_metric(alpha)
            for x, y in [(1.0, 0.5), (-1.0, 2.0), (0.1, 0.1)]:
                want = float(np.linalg.norm(
                    np.diag([abs(x - y), alpha * abs(x - y)]), 2))
                assert distance_norm(m, x, y) == pytest.approx(want, abs=1e-12)

    def test_diag_rejects_negative_alpha(self):
        with pytest.raises(DomainError):
            make_diag_metric(-1.0)

    def test_reciprocal_metric_norm(self):
        m = make_reciprocal_function_metric(const_function(2.0, 8))
        assert distance_norm(m, 1.0, 1.0) == 0.0
        assert distance_norm(m, 0.0, 0.5) == pytest.approx(4.0)

    def test_reciprocal_requires_norm_above_one(self):
        with pytest.raises(PreconditionError):
            make_reciprocal_function_metric(const_function(0.5, 8))

    def test_reciprocal_requires_positive_samples(self):
        with pytest.raises(PreconditionError):
            make_reciprocal_function_metric(function_element([2.0, 0.0]))

    def test_scaled_metric_norm(self):
        m = make_scaled_function_metric(const_function(2.0, 8))
        assert distance_norm(m, 0.25, 0.0) == pytest.approx(0.5)

    def test_discrete_metric(self):
        m = make_discrete_metric()
        assert distance_norm(m, 1.0, 1.0) == 0.0
        assert distance_norm(m, 1.0, 5.0) == pytest.approx(1.0)

    def test_formula_cross_check_catches_mismatch(self):
        base = make_diag_metric(1.0)
        broken = CstarMetric(
            algebra=base.algebra, name="broken", eval_fn=base.eval_fn,
            gap_profile=base.gap_profile,
            norm_formula=lambda x, y: 3.0 * abs(x - y) + 1.0,
        )
        with pytest.raises(InternalConsistencyError):
            distance_norm(broken, 0.0, 1.0)

    def test_registry(self):
        assert metric_by_name("diag", alpha=2.0).name == "diag(alpha=2)"
        assert metric_by_name("discrete").gap_profile.kind is GapKind.DISCRETE
        with pytest.raises(DomainError):
            metric_by_name("nope")

    @settings(max_examples=100, deadline=None)
    @given(finite, finite)
    def test_gap_profile_agrees_with_distance_norm(self, x, y):
        for m in (make_diag_metric(0.5), make_diag_metric(2.0),
                  make_discrete_metric()):
            gp = m.gap_profile
            assert gp.norm_of_gap(abs(x - y)) == pytest.approx(
                distance_norm(m, x, y), rel=1e-9, abs=1e-12
            )


class TestAxiomVerification:
    PTS = (-1.0, -0.25, 0.0, 0.5, 2.0)

    def test_diag_and_scaled_and_discrete_pass(self):
        for m in (make_diag_metric(0.5), make_diag_metric(2.0),
                  make_scaled_function_metric(const_function(2.0, 8)),
                  make_discrete_metric()):
            rep = verify_axioms(m, self.PTS)
            assert rep.all_pass(), (m.name, rep.witness_triples)

    def test_reciprocal_triangle_fails_and_is_reported(self):
        m = make_reciprocal_function_metric(const_function(2.0, 8))
        rep = verify_axioms(m, self.PTS)
        assert rep.axiom_i_pass and rep.axiom_ii_pass
        assert not rep.axiom_iii_pass
        assert rep.witness_triples  # violations come with witnesses

    @pytest.mark.parametrize("pts", [
        (-1.0, -0.25, 0.0, 0.5, 2.0),
        (0.0, 0.1, 0.3, 0.35, 1.0, 4.0, 9.0),
        (-3.0, 1e-9, 2e-9),
    ])
    @pytest.mark.parametrize("tol", [DEFAULT_TOL, ToleranceProfile(
        norm_tol=1e-10, self_adjoint_tol=1e-10, positivity_tol=0.3)])
    def test_matches_scalar_loop(self, pts, tol):
        for m in (make_reciprocal_function_metric(const_function(2.0, 8)),
                  make_reciprocal_function_metric(function_element(
                      [1.5, 3.0, 0.5, 2.0])),
                  make_diag_metric(0.5), make_discrete_metric(),
                  make_scaled_function_metric(const_function(2.0, 8))):
            rep = verify_axioms(m, pts, tol)
            got = (rep.axiom_i_pass, rep.axiom_ii_pass, rep.axiom_iii_pass,
                   rep.worst_violation, rep.witness_triples)
            assert got == scalar_verify_axioms(m, pts, tol), m.name
            assert type(rep.worst_violation) is float
        # The reciprocal triangle fails on every point set here, so the
        # witnesses and the worst violation compare nontrivially.
        rep = verify_axioms(
            make_reciprocal_function_metric(const_function(2.0, 8)), pts, tol)
        assert not rep.axiom_iii_pass and rep.worst_violation > 0.0

    def test_asymmetric_and_indefinite_metric_witnessed(self):
        base = make_diag_metric(0.5)
        m = CstarMetric(
            algebra=base.algebra, name="skewed",
            eval_fn=lambda x, y: base.eval(x, y) * (-1.0 if x < y else 1.0),
            gap_profile=base.gap_profile,
        )
        rep = verify_axioms(m, self.PTS)
        assert not rep.axiom_i_pass and not rep.axiom_ii_pass
        assert (rep.axiom_i_pass, rep.axiom_ii_pass, rep.axiom_iii_pass,
                rep.worst_violation, rep.witness_triples) \
            == scalar_verify_axioms(m, self.PTS, DEFAULT_TOL)

    def test_overflowing_triangle_raises(self):
        base = make_diag_metric(0.5)
        m = CstarMetric(algebra=base.algebra, name="huge",
                        eval_fn=lambda x, y: base.eval(x, y) * 1e307,
                        gap_profile=base.gap_profile)
        with np.errstate(over="ignore"), pytest.raises(StructuralError):
            verify_axioms(m, (0.0, 10.0, 20.0))

    def test_overflowing_non_self_adjoint_triangle_raises(self):
        # Every distance is finite, but d(x, z) + d(z, y) overflows.
        base = make_diag_metric(0.5)
        zero = matrix_element(np.zeros((2, 2)))
        huge = matrix_element([[0.0, 1e308], [0.0, 0.0]])
        m = CstarMetric(algebra=base.algebra, name="skew-huge",
                        eval_fn=lambda x, y: zero if x == y else huge,
                        gap_profile=base.gap_profile)
        with np.errstate(over="ignore"), pytest.raises(StructuralError):
            verify_axioms(m, (0.0, 10.0, 20.0))

    def test_overflowing_loop_distance_reported(self):
        # d(x, x) is finite but d(x, x) - d(x, x)* overflows.  Only pairs
        # of distinct points go through the positivity rule, so the loop
        # is reported as an axiom (i) failure, not raised.
        base = make_diag_metric(0.5)
        loop = matrix_element([[0.0, 1e308], [-1e308, 0.0]])
        m = CstarMetric(
            algebra=base.algebra, name="looped",
            eval_fn=lambda x, y: loop if x == y else base.eval(x, y),
            gap_profile=base.gap_profile,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = verify_axioms(m, self.PTS)
        assert not rep.axiom_i_pass and rep.axiom_ii_pass
        assert rep.worst_violation == 1e308
        assert (rep.axiom_i_pass, rep.axiom_ii_pass, rep.axiom_iii_pass,
                rep.worst_violation, rep.witness_triples) \
            == scalar_verify_axioms(m, self.PTS, DEFAULT_TOL)

    def test_values_outside_the_algebra_rejected(self):
        m = CstarMetric(algebra=make_diag_metric(0.5).algebra, name="off",
                        eval_fn=lambda x, y: const_function(abs(x - y), 8),
                        gap_profile=GapProfile(GapKind.LINEAR))
        with pytest.raises(StructuralError):
            verify_axioms(m, self.PTS)

    def test_degenerate_metric_detected(self):
        base = make_discrete_metric()
        broken = CstarMetric(
            algebra=base.algebra, name="zero",
            eval_fn=lambda x, y: base.algebra.zero(),
            gap_profile=base.gap_profile,
        )
        rep = verify_axioms(broken, self.PTS)
        assert not rep.axiom_i_pass  # definiteness fails

    def test_needs_three_points(self):
        with pytest.raises(PreconditionError):
            verify_axioms(make_discrete_metric(), (0.0, 1.0))


# Separations on and off the status boundaries: with the scales and eps
# below, every cut scale / eps and eps / scale is one of these values.
_GAPS = st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]) | st.floats(
    min_value=0.0, max_value=10.0)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(list(GapKind)),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.sampled_from([0.125, 0.25, 0.5, 1.0, 2.0, 4.0])
    | st.floats(min_value=1e-6, max_value=10.0),
    st.lists(st.tuples(_GAPS, _GAPS, st.booleans()), min_size=1, max_size=16),
)
def test_vectorised_interval_status_agrees_with_scalar(kind, scale, eps, rows):
    gp = GapProfile(kind, scale)
    glo = np.array([min(a, b) for a, b, _ in rows])
    ghi = np.array([max(a, b) for a, b, _ in rows])
    zero = np.array([z for _, _, z in rows])
    codes = gp.interval_status_codes(glo, ghi, eps, zero)
    want = [gp.interval_status(lo, hi, eps, zero_attainable=bool(z))
            for lo, hi, z in zip(glo, ghi, zero)]
    assert [STATUSES[c] for c in codes] == want
