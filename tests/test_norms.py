"""Normed structure: axioms, induced metrics, invariance, norm convergence."""

from itertools import combinations

import numpy as np
import pytest

from cstarseq.algebra import DEFAULT_TOL, is_positive, op_norm, precedes
from cstarseq.errors import DomainError, PreconditionError
from cstarseq.ideals import Decision
from cstarseq.metrics import make_discrete_metric, verify_axioms
from cstarseq.norms import (
    CstarNorm,
    discrete_metric_homogeneity_witness,
    induce_metric,
    invariance_audit,
    make_real_abs_norm,
    make_scaled_diag_norm,
    norm_by_name,
    norm_convergence_verdict,
    verify_norm_axioms,
)
from cstarseq.sequences import (
    make_alternating,
    make_block_harmonic,
    make_constant,
    make_harmonic,
)

PTS = (-2.0, -0.5, 0.0, 1.0, 3.0)
SCALARS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0)


def scalar_verify_norm_axioms(nrm, samples, tol=DEFAULT_TOL):
    """The norm axioms checked element by element, one ``precedes`` call
    per pair: the reference for the stacked ``verify_norm_axioms``."""
    pts = sorted(set(float(s) for s in samples))
    ok_def = ok_hom = ok_tri = True
    worst = 0.0
    witnesses = []
    n0 = op_norm(nrm.eval(0.0))
    if n0 > tol.norm_tol:
        ok_def = False
        worst = max(worst, n0)
        witnesses.append((0.0,))
    for x in pts:
        nx = nrm.eval(x)
        if not is_positive(nx, tol):
            ok_def = False
            witnesses.append((x,))
        if x != 0.0 and op_norm(nx) <= tol.norm_tol:
            ok_def = False
            witnesses.append((x,))
        for lam in SCALARS:
            rhs = abs(lam) * nx
            dev = float(np.max(np.abs(nrm.eval(lam * x).entries
                                      - rhs.entries)))
            if dev > tol.norm_tol * (1.0 + op_norm(rhs)):
                ok_hom = False
                worst = max(worst, dev)
                witnesses.append((lam, x))
    for x, y in combinations(pts, 2):
        lhs = nrm.eval(x + y)
        rhs = nrm.eval(x) + nrm.eval(y)
        if not precedes(lhs, rhs, tol):
            ok_tri = False
            worst = max(worst, op_norm(lhs) - op_norm(rhs))
            witnesses.append((x, y))
    return ok_def, ok_hom, ok_tri, worst, tuple(witnesses[:10])


class TestNormAxioms:
    def test_scaled_diag_passes(self):
        rep = verify_norm_axioms(make_scaled_diag_norm(1.0, 2.0), PTS)
        assert rep.all_pass(), rep.witnesses

    def test_real_abs_passes(self):
        rep = verify_norm_axioms(make_real_abs_norm(), PTS)
        assert rep.all_pass()

    def test_scaled_diag_entries(self):
        n = make_scaled_diag_norm(1.0, 2.0)
        assert np.allclose(n.eval(-3.0).entries, np.diag([3.0, 6.0]))
        assert n.scalar_norm(-3.0) == pytest.approx(6.0)

    def test_shifted_pseudo_norm_fails_homogeneity(self):
        base = make_real_abs_norm()
        broken = CstarNorm(
            algebra=base.algebra, name="abs-plus-one",
            eval_fn=lambda x: base.eval(x) + base.algebra.identity(),
        )
        rep = verify_norm_axioms(broken, PTS)
        assert not rep.definiteness_pass or not rep.homogeneity_pass

    def test_matches_scalar_loop(self):
        base = make_real_abs_norm()
        diag = make_scaled_diag_norm(1.0, 2.0)
        norms = [
            diag, base,
            CstarNorm(algebra=base.algebra, name="abs-plus-one",
                      eval_fn=lambda x: base.eval(x) + base.algebra.identity()),
            # Not subadditive: ||x||_A = x^2 diag(1, 2) breaks the triangle.
            CstarNorm(algebra=diag.algebra, name="square",
                      eval_fn=lambda x: diag.eval(x) * abs(x)),
            # Not positive: -|x|.
            CstarNorm(algebra=base.algebra, name="negated",
                      eval_fn=lambda x: -base.eval(x)),
        ]
        for pts in (PTS, (0.5, 1.0, 1.5, 4.0)):
            for nrm in norms:
                rep = verify_norm_axioms(nrm, pts)
                got = (rep.definiteness_pass, rep.homogeneity_pass,
                       rep.triangle_pass, rep.worst_violation, rep.witnesses)
                assert got == scalar_verify_norm_axioms(nrm, pts), nrm.name
        assert not verify_norm_axioms(norms[3], PTS).triangle_pass

    def test_weights_must_be_positive(self):
        with pytest.raises(DomainError):
            make_scaled_diag_norm(0.0, 1.0)

    def test_registry(self):
        assert norm_by_name("real-abs").name == "real-abs"
        with pytest.raises(DomainError):
            norm_by_name("nope")

    def test_needs_two_points(self):
        with pytest.raises(PreconditionError):
            verify_norm_axioms(make_real_abs_norm(), (1.0,))


class TestInducedMetric:
    def test_induced_metric_passes_axioms(self):
        for nrm in (make_scaled_diag_norm(1.0, 2.0), make_real_abs_norm()):
            dm = induce_metric(nrm)
            assert verify_axioms(dm, PTS).all_pass()

    def test_induced_identities_entrywise(self):
        # D(x + z, y + z) = D(x, y) and D(a x, a y) = |a| D(x, y), checked
        # entrywise to 1e-12.
        dm = induce_metric(make_scaled_diag_norm(1.0, 2.0))
        for x, y in ((1.0, -0.5), (2.0, 3.0)):
            base = dm.eval(x, y).entries
            for z in (-1.0, 0.5, 4.0):
                assert np.max(np.abs(
                    dm.eval(x + z, y + z).entries - base)) < 1e-12
            for a in (-3.0, 0.5, 2.0):
                assert np.max(np.abs(
                    dm.eval(a * x, a * y).entries - abs(a) * base)) < 1e-12

    def test_invariance_audit_passes_for_induced(self):
        rep = invariance_audit(induce_metric(make_real_abs_norm()), PTS)
        assert rep.translation_pass and rep.homogeneity_pass

    def test_discrete_metric_fails_homogeneity(self):
        rep = invariance_audit(make_discrete_metric(), PTS)
        assert rep.translation_pass
        assert not rep.homogeneity_pass

    def test_discrete_witness_values(self):
        w = discrete_metric_homogeneity_witness()
        assert w["lhs_norm"] == pytest.approx(1.0)
        assert w["rhs_norm"] == pytest.approx(2.0)
        assert w["fails_homogeneity"]

    def test_induced_gap_profile_slope(self):
        dm = induce_metric(make_scaled_diag_norm(1.0, 2.0))
        assert dm.gap_profile.scale == pytest.approx(2.0)


class TestNormConvergence:
    def test_harmonic_witness_201(self):
        n = make_scaled_diag_norm(1.0, 2.0)
        b = norm_convergence_verdict(make_harmonic(), n, 0.0, 0.01, 4096)
        assert b.decision is Decision.IN
        assert b.witness_index == 201
        # Oracle: 2/n < 0.01 iff n > 200.
        assert 2.0 / 201 < 0.01 <= 2.0 / 200

    def test_constant_sequence_immediate(self):
        n = make_real_abs_norm()
        b = norm_convergence_verdict(make_constant(5.0), n, 5.0, 1e-9, 256)
        assert b.decision is Decision.IN
        assert b.witness_index == 1

    def test_alternating_does_not_converge(self):
        n = make_real_abs_norm()
        b = norm_convergence_verdict(make_alternating(), n, 1.0, 0.5, 256)
        assert (b.decision, b.certificate) == (
            Decision.NOT_IN, "block 1 recurs with norm >= eps")

    def test_block_harmonic_does_not_converge_to_zero(self):
        # x_n = 1 on the odd n: block 1 recurs at norm 1 from the limit 0.
        n = make_real_abs_norm()
        b = norm_convergence_verdict(make_block_harmonic(), n, 0.0, 0.1, 256)
        assert (b.decision, b.certificate) == (
            Decision.NOT_IN, "block 1 recurs with norm >= eps")
        # No probed block value is 0.6 from 0.5; the far blocks stay
        # uncertified, so the block rule decides nothing.
        b = norm_convergence_verdict(make_block_harmonic(), n, 0.5, 0.6, 256)
        assert (b.decision, b.certificate) == (
            Decision.UNKNOWN, "window clean but tail uncertified")

    def test_eps_must_be_positive(self):
        with pytest.raises(DomainError):
            norm_convergence_verdict(
                make_harmonic(), make_real_abs_norm(), 0.0, 0.0, 64)
