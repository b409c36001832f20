"""Concrete finite-scale C*-algebras.

Two carriers are supported: dense complex matrix algebras M_n (n <= 16) and
the algebra of bounded functions sampled on a finite grid (pointwise
operations, sup norm over the samples).  On top of element arithmetic the
module provides the involution, the operator norm, the spectrum, the
positivity predicate and the induced partial order ``a precedes b`` iff
``b - a`` is positive.

Self-adjoint matrix spectra are computed with a cyclic Jacobi iteration;
for 2x2 inputs the closed-form characteristic roots are used as an internal
cross-check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    DomainError,
    InternalConsistencyError,
    NumericError,
    StructuralError,
)

MAX_MATRIX_DIM = 16
MAX_GRID_SIZE = 4096

MATRIX = "matrix"
FUNCTION = "function"


@dataclass(frozen=True)
class ToleranceProfile:
    """Relative tolerances used by the positivity and norm predicates."""

    self_adjoint_tol: float = 1e-10
    positivity_tol: float = 1e-10
    norm_tol: float = 1e-10

    def __post_init__(self):
        for name in ("self_adjoint_tol", "positivity_tol", "norm_tol"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be nonnegative")


DEFAULT_TOL = ToleranceProfile()


@dataclass(frozen=True)
class AlgebraDescriptor:
    """Identifies a concrete algebra: M_dim or sampled functions on a grid."""

    kind: str
    dim: int = 0
    grid_size: int = 0
    scalars: str = "complex"

    def __post_init__(self):
        if self.kind == MATRIX:
            if not (1 <= self.dim <= MAX_MATRIX_DIM):
                raise DomainError(f"matrix dim must be in 1..{MAX_MATRIX_DIM}")
            if self.scalars not in ("real", "complex"):
                raise DomainError("scalars must be 'real' or 'complex'")
        elif self.kind == FUNCTION:
            if not (1 <= self.grid_size <= MAX_GRID_SIZE):
                raise DomainError(f"grid_size must be in 1..{MAX_GRID_SIZE}")
        else:
            raise DomainError(f"unknown algebra kind {self.kind!r}")

    @property
    def shape(self):
        if self.kind == MATRIX:
            return (self.dim, self.dim)
        return (self.grid_size,)

    def identity(self) -> "AlgebraElement":
        if self.kind == MATRIX:
            return AlgebraElement(self, np.eye(self.dim, dtype=complex))
        return AlgebraElement(self, np.ones(self.grid_size, dtype=complex))

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, np.zeros(self.shape, dtype=complex))


def matrix_algebra(dim: int, scalars: str = "real") -> AlgebraDescriptor:
    return AlgebraDescriptor(kind=MATRIX, dim=dim, scalars=scalars)


def function_algebra(grid_size: int) -> AlgebraDescriptor:
    return AlgebraDescriptor(kind=FUNCTION, grid_size=grid_size)


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """An element of a concrete C*-algebra; immutable after construction."""

    descriptor: AlgebraDescriptor
    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        if arr.shape != self.descriptor.shape:
            raise StructuralError(
                f"entries shape {arr.shape} does not match descriptor "
                f"shape {self.descriptor.shape}"
            )
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise StructuralError("entries must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def _check_same(self, other: "AlgebraElement"):
        if self.descriptor != other.descriptor:
            raise StructuralError("elements belong to different algebras")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        return AlgebraElement(self.descriptor, self.entries + other.entries)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        return AlgebraElement(self.descriptor, self.entries - other.entries)

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return multiply(self, other)

    def __mul__(self, scalar) -> "AlgebraElement":
        return AlgebraElement(self.descriptor, self.entries * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.descriptor, -self.entries)


def matrix_element(entries, scalars: str = "real") -> AlgebraElement:
    arr = np.asarray(entries, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise StructuralError("matrix entries must be a square array")
    return AlgebraElement(matrix_algebra(arr.shape[0], scalars), arr)


def function_element(samples) -> AlgebraElement:
    arr = np.asarray(samples, dtype=complex)
    if arr.ndim != 1:
        raise StructuralError("function samples must be a 1-d array")
    return AlgebraElement(function_algebra(arr.shape[0]), arr)


def const_function(value, grid_size: int = 64) -> AlgebraElement:
    return AlgebraElement(
        function_algebra(grid_size),
        np.full(grid_size, complex(value)),
    )


def involution(a: AlgebraElement) -> AlgebraElement:
    """a -> a*: conjugate transpose for matrices, conjugation for functions."""
    if a.descriptor.kind == MATRIX:
        return AlgebraElement(a.descriptor, a.entries.conj().T)
    return AlgebraElement(a.descriptor, a.entries.conj())


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    a._check_same(b)
    if a.descriptor.kind == MATRIX:
        return AlgebraElement(a.descriptor, a.entries @ b.entries)
    return AlgebraElement(a.descriptor, a.entries * b.entries)


# ---------------------------------------------------------------------------
# Jacobi eigensolver for Hermitian matrices


def _hermitian_eigvals(h: np.ndarray, max_sweeps: int = 60) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix via cyclic complex Jacobi sweeps.

    Returns the eigenvalues sorted ascending.  Raises NumericError with the
    final off-diagonal residual if the sweep budget is exhausted.
    """
    n = h.shape[0]
    a = np.array(h, dtype=complex)
    if n == 1:
        return np.array([a[0, 0].real])
    scale = max(1.0, float(np.max(np.abs(a))))
    stop = 1e-15 * scale * n

    def offdiag_norm(m):
        mask = ~np.eye(n, dtype=bool)
        return float(np.sqrt(np.sum(np.abs(m[mask]) ** 2)))

    for _ in range(max_sweeps):
        if offdiag_norm(a) <= stop:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                r = abs(apq)
                if r <= 1e-18 * scale:
                    continue
                theta = cmath.phase(apq)
                app = a[p, p].real
                aqq = a[q, q].real
                tau = (aqq - app) / (2.0 * r)
                if tau == 0.0:
                    t = 1.0
                else:
                    t = math.copysign(1.0, tau) / (
                        abs(tau) + math.sqrt(1.0 + tau * tau)
                    )
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                ephi = cmath.exp(-1j * theta)
                # columns: A <- A J with J = [[c, s], [-s e^{-i t}, c e^{-i t}]]
                colp = a[:, p].copy()
                colq = a[:, q].copy()
                a[:, p] = c * colp - s * ephi * colq
                a[:, q] = s * colp + c * ephi * colq
                # rows: A <- J^H A
                rowp = a[p, :].copy()
                rowq = a[q, :].copy()
                a[p, :] = c * rowp - s * ephi.conjugate() * rowq
                a[q, :] = s * rowp + c * ephi.conjugate() * rowq
    else:
        if offdiag_norm(a) > stop:
            raise NumericError(
                "Jacobi iteration did not converge",
                residual=offdiag_norm(a),
            )
    return np.sort(np.diag(a).real)


def _char_roots_2x2(m: np.ndarray) -> list[complex]:
    """Closed-form characteristic roots of a 2x2 matrix."""
    a, b = m[0, 0], m[0, 1]
    c, d = m[1, 0], m[1, 1]
    disc = cmath.sqrt((a - d) ** 2 + 4.0 * b * c)
    return [((a + d) - disc) / 2.0, ((a + d) + disc) / 2.0]


# ---------------------------------------------------------------------------
# Operator norm, spectrum, positivity, order


def op_norm(a: AlgebraElement) -> float:
    """Operator norm: largest singular value (matrices), sup over samples."""
    if a.descriptor.kind == FUNCTION:
        return float(np.max(np.abs(a.entries))) if a.entries.size else 0.0
    aa = a.entries.conj().T @ a.entries
    eigs = _hermitian_eigvals(aa)
    return math.sqrt(max(float(eigs[-1]), 0.0))


@dataclass(frozen=True)
class Spectrum:
    """Spectral values plus a per-value reality flag under tolerance."""

    values: tuple
    is_real: tuple

    def all_real(self) -> bool:
        return all(self.is_real)


def _sorted_spec(values: Iterable[complex], tol: ToleranceProfile) -> Spectrum:
    vals = sorted((complex(v) for v in values), key=lambda v: (v.real, v.imag))
    flags = tuple(abs(v.imag) <= tol.self_adjoint_tol * (1.0 + abs(v)) for v in vals)
    return Spectrum(values=tuple(vals), is_real=flags)


def is_self_adjoint(a: AlgebraElement, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    dev = op_norm(a - involution(a))
    return dev <= tol.self_adjoint_tol * (1.0 + op_norm(a))


def spectrum(a: AlgebraElement, tol: ToleranceProfile = DEFAULT_TOL) -> Spectrum:
    """All spectral values of ``a``.

    Function elements are multiplication operators, so the spectrum is the
    multiset of sample values.  Self-adjoint matrices go through the Jacobi
    iteration; for dim 2 the result is cross-checked against the closed-form
    characteristic roots.
    """
    if a.descriptor.kind == FUNCTION:
        return _sorted_spec(a.entries, tol)
    if is_self_adjoint(a, tol):
        herm = (a.entries + a.entries.conj().T) / 2.0
        vals = _hermitian_eigvals(herm)
        if a.descriptor.dim == 2:
            roots = sorted(r.real for r in _char_roots_2x2(herm))
            for got, want in zip(vals, roots):
                if abs(got - want) > 1e-10 * (1.0 + abs(want)):
                    raise InternalConsistencyError(
                        f"Jacobi eigenvalue {got} disagrees with closed-form "
                        f"root {want}"
                    )
        return _sorted_spec(vals, tol)
    # Non-self-adjoint spectra are only needed incidentally; defer to LAPACK.
    return _sorted_spec(np.linalg.eigvals(a.entries), tol)


def is_positive(a: AlgebraElement, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """True iff ``a`` is self-adjoint and its spectrum sits in [0, inf)."""
    norm_a = op_norm(a)
    dev = op_norm(a - involution(a))
    if dev > tol.self_adjoint_tol * (1.0 + norm_a):
        return False
    if a.descriptor.kind == FUNCTION:
        min_val = float(np.min(a.entries.real)) if a.entries.size else 0.0
    else:
        herm = (a.entries + a.entries.conj().T) / 2.0
        min_val = float(_hermitian_eigvals(herm)[0])
    return min_val >= -tol.positivity_tol * (1.0 + norm_a)


def precedes(
    a: AlgebraElement, b: AlgebraElement, tol: ToleranceProfile = DEFAULT_TOL
) -> bool:
    """Partial order of the positive cone: a <= b iff b - a is positive."""
    a._check_same(b)
    return is_positive(b - a, tol)
