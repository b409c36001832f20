"""C*-algebra valued norms on the real line and their induced metrics.

A norm assigns to each vector x an algebra element ||x||_A that is positive,
definite, absolutely homogeneous and subadditive.  Every such norm induces a
metric D(x, y) = ||x - y||_A that is translation invariant and homogeneous;
the invariance audit verifies both properties on sample grids and exhibits
the discrete metric as one that no norm can induce.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    AlgebraElement,
    DEFAULT_TOL,
    ToleranceProfile,
    matrix_algebra,
    op_norm,
    op_norms,
    positivity_rule,
    stack_entries,
)
from .errors import DomainError, PreconditionError
from .ideals import Decision, IN, NOT_IN
from .metrics import CstarMetric, GapKind, GapProfile, make_discrete_metric
from .sequences import SequenceScenario, probe_depth


@dataclass(frozen=True, eq=False)
class CstarNorm:
    """A C*-algebra valued norm || . ||_A on the real line."""

    algebra: AlgebraDescriptor
    name: str
    eval_fn: Callable[[float], AlgebraElement]
    scalar_formula: Optional[Callable[[float], float]] = None

    def eval(self, x: float) -> AlgebraElement:
        return self.eval_fn(x)

    def scalar_norm(self, x: float) -> float:
        if self.scalar_formula is not None:
            return self.scalar_formula(x)
        return op_norm(self.eval(x))


# ---------------------------------------------------------------------------
# Built-ins


def make_scaled_diag_norm(a: float, b: float) -> CstarNorm:
    """||x||_A = |x| diag(a, b) in M_2 with a, b > 0."""
    if a <= 0.0 or b <= 0.0:
        raise DomainError("diagonal weights must be positive")
    desc = matrix_algebra(2, "real")
    top = max(a, b)

    def ev(x: float) -> AlgebraElement:
        g = abs(x)
        return AlgebraElement(desc, np.diag([a * g, b * g]).astype(complex))

    return CstarNorm(
        algebra=desc,
        name=f"scaled-diag(a={a:g},b={b:g})",
        eval_fn=ev,
        scalar_formula=lambda x: top * abs(x),
    )


def make_real_abs_norm() -> CstarNorm:
    """||x||_A = |x| as a 1x1 matrix: the classical absolute value."""
    desc = matrix_algebra(1, "real")

    def ev(x: float) -> AlgebraElement:
        return AlgebraElement(desc, np.array([[abs(x)]], dtype=complex))

    return CstarNorm(
        algebra=desc,
        name="real-abs",
        eval_fn=ev,
        scalar_formula=abs,
    )


# Built-in norms by configuration name, in listing order.
NORMS = {
    "scaled-diag": lambda: make_scaled_diag_norm(1.0, 2.0),
    "real-abs": make_real_abs_norm,
}


def norm_by_name(name: str) -> CstarNorm:
    if name not in NORMS:
        raise DomainError(f"unknown norm {name!r}")
    return NORMS[name]()


# ---------------------------------------------------------------------------
# Axiom verification


@dataclass(frozen=True)
class NormAxiomReport:
    definiteness_pass: bool
    homogeneity_pass: bool
    triangle_pass: bool
    worst_violation: float
    witnesses: tuple

    def all_pass(self) -> bool:
        return (self.definiteness_pass and self.homogeneity_pass
                and self.triangle_pass)


# The scalars homogeneity is checked at, by the norm and invariance audits.
NORM_SCALARS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0)
INVARIANCE_SCALARS = (-2.0, 0.5, 2.0, 3.0)
# The shifts translation invariance is checked at.
INVARIANCE_SHIFTS = (-1.5, 1.0, 2.0)


def verify_norm_axioms(
    nrm: CstarNorm,
    samples: Sequence[float],
    tol: ToleranceProfile = DEFAULT_TOL,
) -> NormAxiomReport:
    """Check definiteness, absolute homogeneity (at ``NORM_SCALARS``) and
    subadditivity over the sample points; failures are reported with
    witnesses, not raised.  The positivity of every ||x||_A, and
    subadditivity ||x + y||_A <= ||x||_A + ||y||_A over every pair x < y,
    are each one stacked ``positivity_rule`` call."""
    pts = sorted(set(float(s) for s in samples))
    if len(pts) < 2:
        raise PreconditionError("need at least 2 distinct sample points")
    ok_def = ok_hom = True
    worst = 0.0
    witnesses: list[tuple] = []

    n0 = op_norm(nrm.eval(0.0))
    if n0 > tol.norm_tol:
        ok_def = False
        worst = max(worst, n0)
        witnesses.append((0.0,))
    values = [nrm.eval(x) for x in pts]
    stack = stack_entries(nrm.algebra, values)
    positive, norms = positivity_rule(nrm.algebra, stack, tol)
    for x, nx, pos, norm in zip(pts, values, positive.tolist(), norms.tolist()):
        if not pos:
            ok_def = False
            witnesses.append((x,))
        if x != 0.0 and norm <= tol.norm_tol:
            ok_def = False
            witnesses.append((x,))
        for lam in NORM_SCALARS:
            lhs = nrm.eval(lam * x)
            rhs = abs(lam) * nx
            dev = float(np.max(np.abs(lhs.entries - rhs.entries)))
            if dev > tol.norm_tol * (1.0 + op_norm(rhs)):
                ok_hom = False
                worst = max(worst, dev)
                witnesses.append((lam, x))
    i, j = np.triu_indices(len(pts), 1)
    lhs = stack_entries(nrm.algebra, (nrm.eval(pts[a] + pts[b])
                                      for a, b in zip(i.tolist(), j.tolist())))
    rhs = stack[i] + stack[j]
    holds, _ = positivity_rule(nrm.algebra, rhs - lhs, tol)
    broken = np.flatnonzero(~holds)
    slack = op_norms(nrm.algebra, lhs[broken]) - op_norms(nrm.algebra,
                                                         rhs[broken])
    worst = max([worst, *slack.tolist()])
    witnesses += [(pts[i[t]], pts[j[t]]) for t in broken.tolist()]
    return NormAxiomReport(
        definiteness_pass=ok_def,
        homogeneity_pass=ok_hom,
        triangle_pass=not broken.size,
        worst_violation=worst,
        witnesses=tuple(witnesses[:10]),
    )


# ---------------------------------------------------------------------------
# Induced metric and invariance


def induce_metric(nrm: CstarNorm) -> CstarMetric:
    """D(x, y) = ||x - y||_A; the gap profile is linear with slope
    || ||1||_A ||."""
    slope = op_norm(nrm.eval(1.0))
    return CstarMetric(
        algebra=nrm.algebra,
        name=f"induced:{nrm.name}",
        eval_fn=lambda x, y: nrm.eval(x - y),
        norm_formula=lambda x, y: nrm.scalar_norm(x - y),
        gap_profile=GapProfile(GapKind.LINEAR, slope),
    )


@dataclass(frozen=True)
class InvarianceReport:
    metric_name: str
    translation_pass: bool
    homogeneity_pass: bool
    witnesses: tuple


def invariance_audit(
    metric: CstarMetric,
    samples: Sequence[float],
    tol: ToleranceProfile = DEFAULT_TOL,
) -> InvarianceReport:
    """Check translation invariance D(x+z, y+z) = D(x, y) for z in
    ``INVARIANCE_SHIFTS`` and homogeneity D(ax, ay) = |a| D(x, y) for a in
    ``INVARIANCE_SCALARS`` over the sample grid.

    Induced metrics satisfy both; the discrete metric fails homogeneity,
    which is exactly why no norm induces it.
    """
    pts = sorted(set(float(s) for s in samples))
    ok_trans = ok_hom = True
    witnesses: list[tuple] = []
    for x, y in permutations(pts, 2):
        base = metric.eval(x, y)
        for z in INVARIANCE_SHIFTS:
            shifted = metric.eval(x + z, y + z)
            dev = float(np.max(np.abs(shifted.entries - base.entries)))
            if dev > tol.norm_tol * (1.0 + op_norm(base)):
                ok_trans = False
                witnesses.append(("translation", x, y, z))
        for lam in INVARIANCE_SCALARS:
            scaled = metric.eval(lam * x, lam * y)
            target = abs(lam) * base
            dev = float(np.max(np.abs(scaled.entries - target.entries)))
            if dev > tol.norm_tol * (1.0 + op_norm(target)):
                ok_hom = False
                witnesses.append(("homogeneity", x, y, lam))
    return InvarianceReport(
        metric_name=metric.name,
        translation_pass=ok_trans,
        homogeneity_pass=ok_hom,
        witnesses=tuple(witnesses[:10]),
    )


def discrete_metric_homogeneity_witness(tol: ToleranceProfile = DEFAULT_TOL):
    """The discrete metric is translation invariant but not homogeneous:
    D(2, 0) is the identity while 2 D(1, 0) is twice the identity."""
    m = make_discrete_metric()
    lhs = m.eval(2.0, 0.0)
    rhs = 2.0 * m.eval(1.0, 0.0)
    gap = op_norm(lhs - rhs)
    return {
        "metric": m.name,
        "lhs_norm": op_norm(lhs),
        "rhs_norm": op_norm(rhs),
        "gap_norm": gap,
        "fails_homogeneity": gap > tol.norm_tol,
    }


# ---------------------------------------------------------------------------
# Norm convergence


@dataclass(frozen=True)
class NormConvergenceBundle:
    epsilon: float
    decision: Decision
    certificate: str
    witness_index: Optional[int] = None


def norm_convergence_verdict(
    s: SequenceScenario,
    nrm: CstarNorm,
    limit: float,
    eps: float,
    n_max: int,
) -> NormConvergenceBundle:
    """Classical norm convergence: the smallest n0 with
    || ||x_n - limit||_A || < eps for every n >= n0, certified through the
    scenario's tail interval.  For a block tail every block is infinite, so
    a block value with norm >= eps recurs, which decides NotIn; otherwise
    the blocks beyond the probe depth are certified through the tail's
    value interval, and n0 = 1."""
    if not (eps > 0.0):
        raise DomainError("eps must be positive")
    model = s.tail_model
    slope = op_norm(nrm.eval(1.0))
    if model.blockwise:
        jprobe = probe_depth(n_max)
        js = np.arange(1, jprobe + 1)
        far = np.flatnonzero(slope * np.abs(model.value(js) - limit) >= eps)
        if far.size:
            return NormConvergenceBundle(
                eps, NOT_IN, f"block {far[0] + 1} recurs with norm >= eps",
            )
        # The probed blocks hold every window point, and none offends.
        offending = far
        lo, hi = model.value_interval(jprobe)
    else:
        norms = slope * np.abs(s.points(n_max) - limit)
        offending = np.nonzero(norms >= eps)[0]
        lo, hi = model.interval(n_max)
    tail_worst = slope * max(abs(lo - limit), abs(hi - limit))
    if tail_worst >= eps:
        return NormConvergenceBundle(
            eps, Decision.UNKNOWN,
            "tail interval does not certify norms below eps",
        )
    n0 = int(offending[-1]) + 2 if offending.size else 1
    return NormConvergenceBundle(
        eps, IN,
        f"norms < eps for all n >= {n0}; tail certified by interval",
        witness_index=n0,
    )
