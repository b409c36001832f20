"""Concrete finite-scale C*-algebras.

Two carriers are supported: dense complex matrix algebras M_n (n <= 16) and
the algebra of bounded functions sampled on a finite grid (pointwise
operations, sup norm over the samples).  On top of element arithmetic the
module provides the involution, the operator norm, the spectrum, the
positivity predicate and the induced partial order ``a precedes b`` iff
``b - a`` is positive.

Matrix norms and spectra go through LAPACK: the operator norm is the
largest singular value, and self-adjoint spectra come from the Hermitian
eigensolver applied to the Hermitian part.

Norms, self-adjointness and positivity are each one rule over a stack of
entries (axis 0 = element), so a batch of k elements costs one LAPACK call
per step.  An element is immutable, so its tolerance-free facts (||a||,
||a - a*|| and the Hermitian eigenvalues) are solved once and cached on it;
the element predicates and the stack rules share one pair of tolerance
comparisons, so a tolerance never enters the cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError, StructuralError

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


class _fact:
    """A fact of an immutable element, computed on first access and stored
    in the instance ``__dict__``, which later lookups read first: a
    ``functools.cached_property`` without the lock it takes on Python 3.11.
    A fact that raises stores nothing."""

    def __init__(self, compute):
        self.compute, self.name = compute, compute.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """An element of a concrete C*-algebra; immutable after construction.

    Its entries are read-only, and the norm, the deviation ||a - a*|| and
    the Hermitian eigenvalues are cached on first use: making the entries
    writable again voids these cached facts."""

    descriptor: AlgebraDescriptor
    entries: np.ndarray

    def __post_init__(self):
        # The caller may still hold a writable alias of its array: copy it.
        object.__setattr__(self, "entries", _checked(
            self.descriptor, np.array(self.entries, dtype=complex)))

    def _check_same(self, other: "AlgebraElement"):
        if self.descriptor != other.descriptor:
            raise StructuralError("elements belong to different algebras")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        return _fresh(self.descriptor, self.entries + other.entries)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        return _fresh(self.descriptor, self.entries - other.entries)

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return multiply(self, other)

    def __mul__(self, scalar) -> "AlgebraElement":
        return _fresh(self.descriptor, self.entries * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "AlgebraElement":
        return _fresh(self.descriptor, -self.entries)

    @_fact
    def _norm(self) -> float:
        return float(op_norms(self.descriptor, self.entries[None])[0])

    @_fact
    def _deviation(self) -> float:
        return float(_deviation_norms(self.descriptor, self.entries[None])[0])

    @_fact
    def _hermitian_eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of the Hermitian part of a matrix element;
        read only once it is self-adjoint."""
        return np.linalg.eigvalsh(_hermitian_part(self.descriptor, self.entries))


def _checked(descriptor: AlgebraDescriptor, arr: np.ndarray) -> np.ndarray:
    """``arr``, a complex array nothing else writes to, checked against
    ``descriptor`` and frozen in place.  Finiteness is checked even for
    results of element arithmetic: sums and products of finite entries can
    overflow."""
    if arr.shape != descriptor.shape:
        raise StructuralError(
            f"entries shape {arr.shape} does not match descriptor "
            f"shape {descriptor.shape}"
        )
    # One pass: a complex entry is finite iff both its parts are.
    if not np.isfinite(arr).all():
        raise StructuralError("entries must be finite")
    arr.setflags(write=False)
    return arr


def _fresh(descriptor: AlgebraDescriptor, arr: np.ndarray) -> AlgebraElement:
    """An element over ``arr``, a complex array just built by element
    arithmetic that no caller holds: checked and frozen, not copied."""
    a = object.__new__(AlgebraElement)
    object.__setattr__(a, "descriptor", descriptor)
    object.__setattr__(a, "entries", _checked(descriptor, arr))
    return a


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
    return _fresh(a.descriptor, _adjoints(a.descriptor, a.entries))


def _adjoints(descriptor: AlgebraDescriptor, stack: np.ndarray) -> np.ndarray:
    """The entries of a* for each element a of ``stack`` (or for one
    element's entries)."""
    if descriptor.kind == MATRIX:
        return stack.conj().swapaxes(-1, -2)
    return stack.conj()


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    a._check_same(b)
    if a.descriptor.kind == MATRIX:
        return _fresh(a.descriptor, a.entries @ b.entries)
    return _fresh(a.descriptor, a.entries * b.entries)


# ---------------------------------------------------------------------------
# Operator norm, spectrum, positivity, order


def stack_entries(
    descriptor: AlgebraDescriptor, elements: Iterable[AlgebraElement]
) -> np.ndarray:
    """The entries of ``elements``, all of ``descriptor``, as one stack
    (axis 0 = element)."""
    elements = list(elements)
    if any(e.descriptor != descriptor for e in elements):
        raise StructuralError("elements belong to different algebras")
    return np.stack([e.entries for e in elements])


def op_norm(a: AlgebraElement) -> float:
    """Operator norm: largest singular value (matrices), sup over samples."""
    return a._norm


def op_norms(descriptor: AlgebraDescriptor, stack: np.ndarray) -> np.ndarray:
    """``op_norm`` of each element of ``stack``, a stack of entries of
    ``descriptor`` (axis 0 = element).  Raises StructuralError when a norm
    overflows: finite entries can have a norm above the float range."""
    if descriptor.kind == FUNCTION:
        with np.errstate(over="ignore"):
            norms = np.abs(stack).max(axis=1)
    else:
        norms = np.linalg.svd(stack, compute_uv=False)[:, 0]
    # A Python pass: a numpy reduction costs more on the usual stack of one.
    if not all(map(math.isfinite, norms.tolist())):
        raise StructuralError("operator norm overflows")
    return norms


@dataclass(frozen=True)
class Spectrum:
    """Spectral values plus a per-value reality flag under tolerance."""

    values: tuple
    is_real: tuple

    def all_real(self) -> bool:
        return all(self.is_real)


def _sorted_spec(values: Iterable[complex], tol: ToleranceProfile) -> Spectrum:
    """Raises StructuralError when the modulus of a value exceeds the float
    range, as ``op_norms`` does for such a norm."""
    vals = sorted((complex(v) for v in values), key=lambda v: (v.real, v.imag))
    try:
        flags = tuple(abs(v.imag) <= tol.self_adjoint_tol * (1.0 + abs(v))
                      for v in vals)
    except OverflowError as exc:
        raise StructuralError("a spectral value's modulus is not finite") from exc
    return Spectrum(values=tuple(vals), is_real=flags)


def _with_adjoints(descriptor: AlgebraDescriptor, stack: np.ndarray, op) -> np.ndarray:
    """op(a, a*) for each a of ``stack``, with op numpy's add or subtract.
    Raises StructuralError, with no numpy warning, when one is not finite:
    an entry is inf or nan, or the sum overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = op(stack, _adjoints(descriptor, stack))
    if not np.isfinite(out).all():
        raise StructuralError("a + a* or a - a* is not finite")
    return out


def _hermitian_part(descriptor: AlgebraDescriptor, stack: np.ndarray) -> np.ndarray:
    return _with_adjoints(descriptor, stack, np.add) / 2.0


def _deviation_norms(descriptor: AlgebraDescriptor, stack: np.ndarray) -> np.ndarray:
    """||a - a*|| for each a of ``stack``.  When every a - a* is exactly zero
    no norm is solved: the norm of a zero element is exactly 0."""
    deviations = _with_adjoints(descriptor, stack, np.subtract)
    if not deviations.any():
        return np.zeros(len(stack))
    return op_norms(descriptor, deviations)


def _self_adjoint_test(deviation, norm, tol: ToleranceProfile):
    """||a - a*|| <= tol * (1 + ||a||), on floats or on arrays of them."""
    return deviation <= tol.self_adjoint_tol * (1.0 + norm)


def _positive_test(lowest, norm, tol: ToleranceProfile):
    """A self-adjoint a is positive iff its lowest spectral value is
    >= -tol * (1 + ||a||); on floats or on arrays of them."""
    return lowest >= -tol.positivity_tol * (1.0 + norm)


def self_adjoint_rule(
    descriptor: AlgebraDescriptor, stack: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> tuple:
    """Per element a of ``stack`` (entries of ``descriptor``, axis 0 =
    element): whether ||a - a*|| <= tol * (1 + ||a||), and ||a||, as two
    arrays.  Raises StructuralError when an a - a* or a norm is not
    finite."""
    if stack.shape[1:] != descriptor.shape:
        raise StructuralError(
            f"stack shape {stack.shape} does not hold elements of shape "
            f"{descriptor.shape}"
        )
    deviations = _deviation_norms(descriptor, stack)
    norms = op_norms(descriptor, stack)
    return _self_adjoint_test(deviations, norms, tol), norms


def positivity_rule(
    descriptor: AlgebraDescriptor, stack: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> tuple:
    """Per element a of ``stack``: whether a is positive (self-adjoint,
    with its spectrum in [0, inf)), and ||a||, as two arrays.  The
    self-adjoint matrices go through one batched Hermitian eigensolve of
    their Hermitian parts; the others are not positive and are not solved.
    The spectrum of a function element is its samples."""
    self_adjoint, norms = self_adjoint_rule(descriptor, stack, tol)
    if descriptor.kind == FUNCTION:
        lowest = stack.real.min(axis=1)
    else:
        lowest = np.full(len(stack), -np.inf)
        lowest[self_adjoint] = np.linalg.eigvalsh(
            _hermitian_part(descriptor, stack[self_adjoint]))[:, 0]
    return self_adjoint & _positive_test(lowest, norms, tol), norms


def is_self_adjoint(a: AlgebraElement, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    return bool(_self_adjoint_test(a._deviation, a._norm, tol))


def spectrum(a: AlgebraElement, tol: ToleranceProfile = DEFAULT_TOL) -> Spectrum:
    """All spectral values of ``a``.

    Function elements are multiplication operators, so the spectrum is the
    multiset of sample values.  Self-adjoint matrices go through LAPACK's
    Hermitian eigensolver on their Hermitian part; other matrices through
    its general eigensolver.
    """
    if a.descriptor.kind == FUNCTION:
        return _sorted_spec(a.entries, tol)
    if is_self_adjoint(a, tol):
        return _sorted_spec(a._hermitian_eigenvalues, tol)
    # Non-self-adjoint spectra are only needed incidentally.
    return _sorted_spec(np.linalg.eigvals(a.entries), tol)


def is_positive(a: AlgebraElement, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """True iff ``a`` is self-adjoint and its spectrum sits in [0, inf)."""
    if not is_self_adjoint(a, tol):
        return False
    lowest = (a.entries.real.min() if a.descriptor.kind == FUNCTION
              else a._hermitian_eigenvalues[0])
    return bool(_positive_test(lowest, a._norm, tol))


def precedes(
    a: AlgebraElement, b: AlgebraElement, tol: ToleranceProfile = DEFAULT_TOL
) -> bool:
    """Partial order of the positive cone: a <= b iff b - a is positive."""
    a._check_same(b)
    return is_positive(b - a, tol)
