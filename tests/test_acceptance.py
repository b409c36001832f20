"""Acceptance suite.

Each test covers one acceptance criterion and prints a single
``[PASS]``/``[FAIL]`` line for it.  All window-level claims are checked
against oracles computed independently in this file (direct LAPACK norms,
explicit formulas, brute-force enumeration).
"""

import sys
import time

import numpy as np
import pytest

from cstarseq.algebra import (
    function_element,
    involution,
    matrix_element,
    multiply,
    op_norm,
    is_positive,
    precedes,
    spectrum,
)
from cstarseq.convergence import (
    Index,
    a_epsilon_set,
    cauchy_criteria_cross_check,
    counterexample_audit,
    i_cauchy_def_verdict,
    i_star_cauchy_verdict,
    implication_audit,
    istar_witness_from_ap,
)
from cstarseq.errors import UnsupportedOperationError
from cstarseq.ideals import (
    Decision,
    IdealDescriptor,
    TailKind,
    block_union,
    filter_membership,
)
from cstarseq.metrics import (
    default_function_f,
    make_diag_metric,
    make_discrete_metric,
    make_reciprocal_function_metric,
    make_scaled_function_metric,
    verify_axioms,
)
from cstarseq.norms import (
    discrete_metric_homogeneity_witness,
    induce_metric,
    invariance_audit,
    make_real_abs_norm,
    make_scaled_diag_norm,
    verify_norm_axioms,
)
from cstarseq.reporting import audit_json, audit_paper
from cstarseq.sequences import (
    make_block_harmonic,
    make_constant,
    make_harmonic,
)

FIN = IdealDescriptor.fin()
BLK = IdealDescriptor.block()


class _Criterion:
    """Prints exactly one [PASS]/[FAIL] line per criterion."""

    def __init__(self, number, title):
        self.number = number
        self.title = title

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] criterion {self.number}: {self.title}",
              file=sys.stderr)
        return False


def test_criterion_1_example_diag_reproduction():
    with _Criterion(1, "harmonic sequence is Fin-Cauchy under the diagonal "
                       "metric, witness n0=11 with offenders {1..5}"):
        t0 = time.monotonic()
        s = make_harmonic()
        n = 10_000
        for alpha in (0.5, 2.0):
            m = make_diag_metric(alpha)
            for eps in (0.1, 0.01):
                b = i_cauchy_def_verdict(s, m, FIN, eps, n)
                assert b.decision is Decision.IN
        m = make_diag_metric(0.5)
        b = i_cauchy_def_verdict(s, m, FIN, 0.1, n)
        assert b.witness_index == 11
        # Independent brute-force enumeration of the offender window.
        xs = 1.0 / np.arange(1, n + 1)
        norms = np.maximum(1.0, 0.5) * np.abs(xs - 1.0 / 11)
        want = frozenset(int(i) + 1 for i in np.nonzero(norms >= 0.1)[0])
        assert want == frozenset({1, 2, 3, 4, 5})
        assert b.witness_set.window == want
        assert time.monotonic() - t0 < 1.0


def test_criterion_2_example_reciprocal_reproduction():
    with _Criterion(2, "reciprocal metric defeats Fin-Cauchy with Cofinite "
                       "certificates at every scheduled center"):
        t0 = time.monotonic()
        s = make_harmonic()
        m = make_reciprocal_function_metric(default_function_f(2.0, 64))
        n = 4096
        for eps in (0.1, 0.5, 1.0):
            b = i_cauchy_def_verdict(s, m, FIN, eps, n)
            assert b.decision is Decision.NOT_IN
            for n0 in s.tail_model.schedule(s, m.gap_profile, eps, n):
                a = a_epsilon_set(s, m, Index(n0), eps, n)
                assert a.tail.kind is TailKind.COFINITE
        assert time.monotonic() - t0 < 1.0


def test_criterion_3_block_counterexample_reproduction():
    with _Criterion(3, "block sequence: pair witness blocks 1..21, gap "
                       "formula to 1e-12, AP witness construction refused"):
        t0 = time.monotonic()
        s = make_block_harmonic()
        m = make_scaled_function_metric(default_function_f(2.0, 64))
        b = i_cauchy_pair_verdict_check(s, m)
        rep = counterexample_audit(10, 8192, m)
        assert rep["reproduced"]
        for entry in rep["entries"]:
            l = entry["l"]
            want_gap = 2.0 / ((l + 1) * (l + 2))
            eps0 = 2.0 / (3.0 * (l + 1) * (l + 2))
            assert entry["expected_gap"] == pytest.approx(want_gap,
                                                          rel=1e-15)
            assert entry["eps0"] == pytest.approx(eps0, rel=1e-15)
            for pair in entry["pairs"]:
                assert abs(pair["gap"] - want_gap) <= 1e-12 * want_gap
                assert pair["gap"] > eps0
        with pytest.raises(UnsupportedOperationError):
            istar_witness_from_ap(s, m, BLK, 8192)
        assert time.monotonic() - t0 < 5.0


def i_cauchy_pair_verdict_check(s, m):
    from cstarseq.convergence import i_cauchy_pair_verdict

    b = i_cauchy_pair_verdict(s, m, BLK, 0.2, 8192)
    assert b.decision is Decision.IN
    assert b.cut_index == 21
    assert b.witness_set.window == block_union(range(1, 22), 8192).window
    return b


GRID_SCENARIOS = lambda: (make_harmonic(), make_block_harmonic(),
                          make_constant(0.0))
GRID_METRICS = lambda: (make_diag_metric(0.5), make_diag_metric(2.0),
                        make_scaled_function_metric(default_function_f(2.0, 64)),
                        make_discrete_metric())
GRID_EPS = (1.0, 0.1, 0.01)


def test_criterion_4_criteria_equivalence_grid():
    with _Criterion(4, "the three I-Cauchy criteria never conflict across "
                       "the scenario/ideal/metric/eps grid"):
        for s in GRID_SCENARIOS():
            for ideal in (FIN, BLK):
                for m in GRID_METRICS():
                    rep = cauchy_criteria_cross_check(s, m, ideal, GRID_EPS,
                                                      2048)
                    assert rep["consistent"], rep["conflicts"]


def test_criterion_5_implications_grid():
    with _Criterion(5, "convergence/Cauchy implications and the "
                       "B(2eps)-in-A(eps) proof inclusion hold on the grid"):
        rep = implication_audit(GRID_SCENARIOS(), (FIN, BLK), GRID_METRICS(),
                                GRID_EPS, 2048)
        assert rep["consistent"], rep["violations"]
        # The inclusion must be exercised, not vacuously skipped.
        checked = [r for r in rep["rows"]
                   if r["proof_inclusion_b2eps_in_aeps"] is True]
        assert checked


def test_criterion_6_ap_witness_route():
    with _Criterion(6, "AP construction yields an I*-Cauchy witness for the "
                       "harmonic sequence under Fin at eps=1/k, k=1..10"):
        s = make_harmonic()
        m = make_diag_metric(0.5)
        p = istar_witness_from_ap(s, m, FIN, 4096)
        assert filter_membership(FIN, p).decision is Decision.IN
        for k in range(1, 11):
            b = i_star_cauchy_verdict(s, m, FIN, p, 1.0 / k, 4096)
            assert b.decision is Decision.IN


def _random_elements(rng, kind, count):
    if kind == "m2":
        for _ in range(count):
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            yield matrix_element(m, "complex")
    elif kind == "m4":
        for _ in range(count):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            yield matrix_element(m, "complex")
    else:
        for _ in range(count):
            yield function_element(rng.standard_normal(64)
                                   + 1j * rng.standard_normal(64))


def test_criterion_7_order_lemma_property_suite():
    with _Criterion(7, "positivity/order/norm laws hold over 500 randomized "
                       "trials in M2, M4 and the 64-point function algebra"):
        t0 = time.monotonic()
        rng = np.random.default_rng(2026)
        trials = 500
        for kind in ("m2", "m4", "fn"):
            for a in _random_elements(rng, kind, trials):
                sq = multiply(involution(a), a)
                # a*a is positive.
                assert is_positive(sq)
                # C*-identity.
                assert op_norm(sq) == pytest.approx(op_norm(a) ** 2,
                                                    rel=1e-8, abs=1e-10)
                # The involution is isometric.
                assert op_norm(involution(a)) == pytest.approx(
                    op_norm(a), rel=1e-9, abs=1e-10)
            # Order sandwich and norm monotonicity on positive pairs.
            for x in _random_elements(rng, kind, trials):
                a = multiply(involution(x), x)
                bump = rng.standard_normal(x.entries.shape) \
                    + 1j * rng.standard_normal(x.entries.shape)
                y = type(x)(x.descriptor, bump)
                b = a + multiply(involution(y), y)
                assert precedes(a, b)           # 0 <= a <= b
                assert op_norm(a) <= op_norm(b) + 1e-9  # norm monotone
        assert time.monotonic() - t0 < 5.0


def test_criterion_8_spectrum_oracle():
    with _Criterion(8, "iterative 2x2 spectra match closed-form "
                       "characteristic roots over 1000 random matrices"):
        rng = np.random.default_rng(515)
        for _ in range(1000):
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            h = (m + m.conj().T) / 2.0
            got = [v.real for v in spectrum(matrix_element(h, "complex")).values]
            # Oracle: quadratic formula on the characteristic polynomial,
            # written out independently here.
            tr = (h[0, 0] + h[1, 1]).real
            det = (h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]).real
            disc = np.sqrt(max(tr * tr - 4.0 * det, 0.0))
            want = sorted([(tr - disc) / 2.0, (tr + disc) / 2.0])
            assert abs(got[0] - want[0]) < 1e-10
            assert abs(got[1] - want[1]) < 1e-10


def test_criterion_9_normed_space_suite():
    with _Criterion(9, "norm axioms, induced-metric identities to 1e-12, "
                       "discrete-metric homogeneity failure, and the "
                       "convergence grids hold over induced metrics"):
        pts = (-2.0, -0.5, 0.0, 1.0, 3.0)
        nd = make_scaled_diag_norm(1.0, 2.0)
        assert verify_norm_axioms(nd, pts).all_pass()
        dm = induce_metric(nd)
        assert verify_axioms(dm, pts).all_pass()
        for x, y in ((1.0, -0.5), (2.0, 0.25)):
            base = dm.eval(x, y).entries
            for z in (-1.0, 2.0):
                assert np.max(np.abs(dm.eval(x + z, y + z).entries
                                     - base)) < 1e-12
            for a in (-3.0, 0.5):
                assert np.max(np.abs(dm.eval(a * x, a * y).entries
                                     - abs(a) * base)) < 1e-12
        w = discrete_metric_homogeneity_witness()
        assert w["fails_homogeneity"]
        assert w["lhs_norm"] == pytest.approx(1.0)
        assert w["rhs_norm"] == pytest.approx(2.0)
        inv = invariance_audit(make_discrete_metric(), pts)
        assert inv.translation_pass and not inv.homogeneity_pass
        # Convergence grids run unchanged over the induced metrics.
        induced = [induce_metric(nd), induce_metric(make_real_abs_norm())]
        for s in GRID_SCENARIOS():
            for ideal in (FIN, BLK):
                for m in induced:
                    rep = cauchy_criteria_cross_check(s, m, ideal, GRID_EPS,
                                                      2048)
                    assert rep["consistent"], rep["conflicts"]
        rep = implication_audit(GRID_SCENARIOS(), (FIN, BLK), induced,
                                GRID_EPS, 2048)
        assert rep["consistent"], rep["violations"]


def test_criterion_10_determinism_and_runtime():
    with _Criterion(10, "audit-paper is byte-deterministic and all claims "
                        "pass within the runtime budget"):
        t0 = time.monotonic()
        r1 = audit_paper(window=8192)
        r2 = audit_paper(window=8192)
        assert r1["all_pass"], [c for c in r1["claims"]
                                if c["status"] == "FAIL"]
        assert audit_json(r1) == audit_json(r2)
        assert time.monotonic() - t0 < 60.0
