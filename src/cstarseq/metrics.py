"""C*-algebra valued metrics on the real line.

Every built-in metric factors through the separation ``g = |x - y|``: the
distance element is a fixed algebra element scaled by a function of g, and
the distance norm is ``h(g)`` for a simple profile h (linear, reciprocal or
discrete).  The profile is recorded on the metric so the convergence engines
can reason about whole tails of a sequence analytically; the closed-form
norm is cross-checked against the operator norm of the assembled element.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import algebra
from .algebra import (
    AlgebraDescriptor,
    AlgebraElement,
    DEFAULT_TOL,
    ToleranceProfile,
    const_function,
    matrix_algebra,
    op_norm,
    op_norms,
    positivity_rule,
    stack_entries,
)
from .errors import DomainError, InternalConsistencyError, PreconditionError


class GapKind(enum.Enum):
    LINEAR = "linear"          # h(g) = scale * g
    RECIPROCAL = "reciprocal"  # h(g) = scale / g for g > 0, h(0) = 0
    DISCRETE = "discrete"      # h(g) = level for g > 0, h(0) = 0


ALL = "all"
NONE = "none"
MIXED = "mixed"
# Statuses by code, for the vectorised rule: code i stands for STATUSES[i].
STATUSES = (NONE, ALL, MIXED)


@dataclass(frozen=True)
class GapProfile:
    """Distance norm as a function of the separation |x - y|."""

    kind: GapKind
    scale: float = 1.0

    def norm_of_gap(self, g: float) -> float:
        if self.kind is GapKind.LINEAR:
            return self.scale * g
        if g == 0.0:
            return 0.0
        if self.kind is GapKind.RECIPROCAL:
            # Python float division gives inf for a subnormal g, where a
            # numpy scalar would also warn of the overflow.
            return self.scale / float(g)
        return self.scale

    def norm_of_gaps(self, gaps: np.ndarray) -> np.ndarray:
        gaps = np.asarray(gaps, dtype=float)
        if self.kind is GapKind.LINEAR:
            return self.scale * gaps
        if self.kind is GapKind.RECIPROCAL:
            with np.errstate(divide="ignore"):
                out = np.where(gaps > 0.0, self.scale / np.where(gaps > 0, gaps, 1.0), 0.0)
            return out
        return np.where(gaps > 0.0, self.scale, 0.0)

    def interval_status(
        self, glo: float, ghi: float, eps: float, zero_attainable: bool
    ) -> str:
        """Whether *every* / *no* / some separation in [glo, ghi] offends.

        ``zero_attainable`` marks that the separation can be exactly zero
        (identical points), where the norm is zero by definiteness.
        The answer is conservative: boundary configurations fall to MIXED.
        """
        if glo > ghi:
            raise DomainError("empty gap interval")
        if self.kind is GapKind.LINEAR:
            if self.scale * glo >= eps:
                return ALL
            if self.scale * ghi < eps:
                return NONE
            return MIXED
        if self.kind is GapKind.RECIPROCAL:
            cut = self.scale / eps
            zero_possible = zero_attainable and glo <= 0.0
            if ghi <= cut and glo >= 0.0 and not zero_possible and ghi > 0.0:
                return ALL
            if glo > cut or ghi == 0.0:
                return NONE
            return MIXED
        # discrete
        if self.scale < eps or ghi == 0.0:
            return NONE
        zero_possible = zero_attainable and glo <= 0.0
        if not zero_possible and self.scale >= eps:
            return ALL
        return MIXED

    def interval_status_codes(
        self, glo: np.ndarray, ghi: np.ndarray, eps: float, zero: np.ndarray
    ) -> np.ndarray:
        """``interval_status`` elementwise, as int8 codes into ``STATUSES``.

        Both rules are kept: a scalar call is some thirty times cheaper than
        this one on a single element, and the engines make thousands of
        scalar calls per audit, so routing them through numpy would slow
        the audits.  The two rules are tested to agree elementwise.
        """
        out = np.full(glo.shape, 2, dtype=np.int8)
        if self.kind is GapKind.LINEAR:
            out[self.scale * glo >= eps] = 1
            out[self.scale * ghi < eps] = 0
        elif self.kind is GapKind.RECIPROCAL:
            cut = self.scale / eps
            zero_possible = zero & (glo <= 0.0)
            out[(ghi <= cut) & (ghi > 0.0) & ~zero_possible] = 1
            out[(glo > cut) | (ghi == 0.0)] = 0
        else:
            zero_possible = zero & (glo <= 0.0)
            if self.scale < eps:
                out[:] = 0
            else:
                out[~zero_possible] = 1
                out[ghi == 0.0] = 0
        return out


@dataclass(frozen=True, eq=False)
class CstarMetric:
    """A C*-algebra valued metric d : R x R -> A, whose distance norm is
    ``gap_profile`` of the separation |x - y|."""

    algebra: AlgebraDescriptor
    name: str
    eval_fn: Callable[[float, float], AlgebraElement]
    gap_profile: GapProfile
    norm_formula: Optional[Callable[[float, float], float]] = None

    def eval(self, x: float, y: float) -> AlgebraElement:
        return self.eval_fn(x, y)


def distance_norm(
    m: CstarMetric, x: float, y: float, tol: ToleranceProfile = DEFAULT_TOL
) -> float:
    """||d(x, y)||, with the closed-form value asserted against the
    operator norm of the assembled element when both are available."""
    value = op_norm(m.eval(x, y))
    if m.norm_formula is not None:
        formula = m.norm_formula(x, y)
        if abs(value - formula) > tol.norm_tol * (1.0 + max(abs(value), abs(formula))):
            raise InternalConsistencyError(
                f"metric {m.name!r}: operator norm {value} disagrees with "
                f"closed form {formula} at ({x}, {y})"
            )
    return value


# ---------------------------------------------------------------------------
# Built-in metrics


def make_diag_metric(alpha: float) -> CstarMetric:
    """d(x, y) = diag(|x-y|, alpha |x-y|) in M_2; norm = max(1, alpha)|x-y|."""
    if alpha < 0:
        raise DomainError("alpha must be nonnegative")
    desc = matrix_algebra(2, "real")
    slope = max(1.0, alpha)

    def ev(x: float, y: float) -> AlgebraElement:
        g = abs(x - y)
        return AlgebraElement(desc, np.diag([g, alpha * g]).astype(complex))

    return CstarMetric(
        algebra=desc,
        name=f"diag(alpha={alpha:g})",
        eval_fn=ev,
        norm_formula=lambda x, y: slope * abs(x - y),
        gap_profile=GapProfile(GapKind.LINEAR, slope),
    )


def _check_function_scale(f: AlgebraElement, positive: bool) -> float:
    if f.descriptor.kind != algebra.FUNCTION:
        raise PreconditionError("f must live in a function algebra")
    norm_f = op_norm(f)
    if norm_f <= 1.0:
        raise PreconditionError("||f|| must exceed 1")
    values = f.entries
    if np.max(np.abs(values.imag)) > 1e-12:
        raise PreconditionError("f must be real-valued on the grid")
    if positive and np.min(values.real) <= 0.0:
        raise PreconditionError("f must be positive-valued on the grid")
    if not positive and np.min(values.real) < 0.0:
        raise PreconditionError("f must be nonnegative on the grid")
    return norm_f


def make_reciprocal_function_metric(f: AlgebraElement) -> CstarMetric:
    """d(x, y) = f / |x - y| for x != y, zero for x = y (||f|| > 1)."""
    norm_f = _check_function_scale(f, positive=True)
    desc = f.descriptor

    def ev(x: float, y: float) -> AlgebraElement:
        if x == y:
            return desc.zero()
        return AlgebraElement(desc, f.entries / abs(x - y))

    def formula(x: float, y: float) -> float:
        return 0.0 if x == y else norm_f / abs(x - y)

    return CstarMetric(
        algebra=desc,
        name=f"reciprocal(|f|={norm_f:g})",
        eval_fn=ev,
        norm_formula=formula,
        gap_profile=GapProfile(GapKind.RECIPROCAL, norm_f),
    )


def make_scaled_function_metric(f: AlgebraElement) -> CstarMetric:
    """d(x, y) = |x - y| f with ||f|| > 1 and nonnegative samples."""
    norm_f = _check_function_scale(f, positive=False)
    desc = f.descriptor

    def ev(x: float, y: float) -> AlgebraElement:
        return AlgebraElement(desc, abs(x - y) * f.entries)

    return CstarMetric(
        algebra=desc,
        name=f"scaled(|f|={norm_f:g})",
        eval_fn=ev,
        norm_formula=lambda x, y: abs(x - y) * norm_f,
        gap_profile=GapProfile(GapKind.LINEAR, norm_f),
    )


def make_discrete_metric() -> CstarMetric:
    """d(x, y) = identity matrix for x != y, zero for x = y."""
    desc = matrix_algebra(2, "real")

    def ev(x: float, y: float) -> AlgebraElement:
        return desc.identity() if x != y else desc.zero()

    return CstarMetric(
        algebra=desc,
        name="discrete",
        eval_fn=ev,
        norm_formula=lambda x, y: 1.0 if x != y else 0.0,
        gap_profile=GapProfile(GapKind.DISCRETE, 1.0),
    )


# ---------------------------------------------------------------------------
# Axiom verification


@dataclass(frozen=True)
class MetricAxiomReport:
    axiom_i_pass: bool       # positivity and definiteness
    axiom_ii_pass: bool      # symmetry
    axiom_iii_pass: bool     # triangle inequality
    worst_violation: float
    witness_triples: tuple

    def all_pass(self) -> bool:
        return self.axiom_i_pass and self.axiom_ii_pass and self.axiom_iii_pass


def verify_axioms(
    m: CstarMetric,
    samples: Sequence[float],
    tol: ToleranceProfile = DEFAULT_TOL,
) -> MetricAxiomReport:
    """Exhaustively check the three metric axioms over the sample points.

    d(x, y) is evaluated once per ordered pair of sample points.  The
    positivity of the pairs x < y, and the triangle inequality
    d(x, y) <= d(x, z) + d(z, y) of every triple of distinct points, are
    each one stacked ``positivity_rule`` call; the triangle stack holds
    n(n-1)(n-2) elements, so memory grows as O(n^3 * element size).
    Failures are reported, not raised; witnesses carry the offending
    points, pairs in ``combinations`` and triples in ``permutations``
    order.
    """
    pts = sorted(set(float(s) for s in samples))
    if len(pts) < 3:
        raise PreconditionError("need at least 3 distinct sample points")
    n = len(pts)
    desc = m.algebra
    d = stack_entries(desc, (m.eval(x, y) for x in pts for y in pts))
    norms = op_norms(desc, d).reshape(n, n)
    d = d.reshape(n, n, *desc.shape)

    # Axiom (i) on the diagonal: d(x, x) = 0.
    diag = np.diagonal(norms)
    loops = np.flatnonzero(diag > tol.norm_tol)
    witnesses = [(pts[i], pts[i]) for i in loops.tolist()]
    violations = diag[loops].tolist()

    # Axioms (i) and (ii) per pair x < y: d(x, y) positive and nonzero,
    # d(y, x) = d(x, y).  A pair is a witness once per failed check.
    i, j = np.triu_indices(n, 1)
    positive, _ = positivity_rule(desc, d[i, j], tol)
    deviation = np.abs(d[i, j] - d[j, i]).reshape(len(i), -1).max(axis=1)
    asymmetric = deviation > tol.norm_tol * (1.0 + norms[i, j])
    fails = np.stack([~positive, norms[i, j] <= tol.norm_tol, asymmetric],
                     axis=1)
    rows = np.nonzero(fails)[0]
    witnesses += [(pts[i[r]], pts[j[r]]) for r in rows.tolist()]
    violations += deviation[asymmetric].tolist()

    # Axiom (iii) per triple of distinct points (x, y, z), in the operand
    # order (d(x, z) + d(z, y)) - d(x, y) of ``precedes``.
    i, j, k = np.indices((n, n, n)).reshape(3, -1)
    distinct = (i != j) & (j != k) & (i != k)
    i, j, k = i[distinct], j[distinct], k[distinct]
    rhs = d[i, k] + d[k, j]
    holds, _ = positivity_rule(desc, rhs - d[i, j], tol)
    broken = np.flatnonzero(~holds)
    witnesses += [(pts[i[r]], pts[j[r]], pts[k[r]]) for r in broken.tolist()]
    violations += (norms[i[broken], j[broken]]
                   - op_norms(desc, rhs[broken])).tolist()

    return MetricAxiomReport(
        axiom_i_pass=not loops.size and not fails[:, :2].any(),
        axiom_ii_pass=not asymmetric.any(),
        axiom_iii_pass=not broken.size,
        worst_violation=max([0.0, *violations]),
        witness_triples=tuple(witnesses[:10]),
    )


# ---------------------------------------------------------------------------
# Registry used by the CLI


def default_function_f(value: float = 2.0, grid_size: int = 64) -> AlgebraElement:
    return const_function(value, grid_size)


def _param_f(params) -> AlgebraElement:
    f = params.get("f")
    return f if isinstance(f, AlgebraElement) else default_function_f()


# Built-in metrics by configuration name, in listing order.
METRICS = {
    "diag": lambda **p: make_diag_metric(float(p.get("alpha", 0.5))),
    "reciprocal": lambda **p: make_reciprocal_function_metric(_param_f(p)),
    "scaled": lambda **p: make_scaled_function_metric(_param_f(p)),
    "discrete": lambda **p: make_discrete_metric(),
}


def metric_by_name(name: str, **params) -> CstarMetric:
    """Construct a built-in metric from its configuration name."""
    if name not in METRICS:
        raise DomainError(f"unknown metric {name!r}")
    return METRICS[name](**params)
