"""Algebra layer: arithmetic, involution, norms, spectra, positivity."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cstarseq.algebra import (
    DEFAULT_TOL,
    AlgebraElement,
    function_algebra,
    function_element,
    involution,
    is_positive,
    is_self_adjoint,
    matrix_algebra,
    matrix_element,
    multiply,
    op_norm,
    op_norms,
    positivity_rule,
    precedes,
    self_adjoint_rule,
    spectrum,
)
from cstarseq.errors import DomainError, NumericError, StructuralError

finite = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


# ---------------------------------------------------------------------------
# Reference eigensolver, independent of LAPACK: cyclic complex Jacobi sweeps.


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


def random_matrix(rng, dim, complex_entries=True):
    m = rng.standard_normal((dim, dim))
    if complex_entries:
        m = m + 1j * rng.standard_normal((dim, dim))
    return matrix_element(m, "complex")


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return matrix_element((m + m.conj().T) / 2, "complex")


class TestDescriptors:
    def test_matrix_dim_bounds(self):
        matrix_algebra(16)
        with pytest.raises(DomainError):
            matrix_algebra(17)
        with pytest.raises(DomainError):
            matrix_algebra(0)

    def test_grid_bounds(self):
        function_algebra(4096)
        with pytest.raises(DomainError):
            function_algebra(4097)

    def test_identity_and_zero(self):
        desc = matrix_algebra(3)
        assert op_norm(desc.identity()) == pytest.approx(1.0)
        assert op_norm(desc.zero()) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(StructuralError):
            AlgebraElement(matrix_algebra(2), np.zeros((3, 3)))

    def test_nonfinite_rejected(self):
        # NaN and inf, in the real part and in the imaginary part.
        for bad in (complex(math.nan, 0.0), complex(math.inf, 0.0),
                    complex(0.0, math.nan), complex(0.0, -math.inf)):
            with pytest.raises(StructuralError):
                function_element([1.0, bad])
            with pytest.raises(StructuralError):
                matrix_element([[1.0, 0.0], [bad, 1.0]], "complex")

    def test_cross_algebra_ops_rejected(self):
        a = matrix_element(np.eye(2))
        b = matrix_element(np.eye(3))
        with pytest.raises(StructuralError):
            a + b


class TestValidation:
    """Every element is checked for finiteness, including the results of
    element arithmetic, and owns read-only complex entries."""

    @pytest.mark.parametrize("make", [
        lambda: matrix_element([[10.0, 1.0], [0.0, 10.0]]) * 1e308,
        lambda: (lambda a: a + a)(matrix_element([[1e308, 0.0], [0.0, 1.0]])),
        lambda: (lambda a: a - (-a))(function_element([1e308, 1.0])),
        lambda: (lambda a: a @ a)(matrix_element([[1e200, 1.0], [1.0, 1.0]])),
        lambda: (lambda a: a @ a)(function_element([1e200, 1.0])),
    ], ids=["scalar-mul", "add", "sub", "matmul", "function-mul"])
    def test_overflow_rejected(self, make):
        with np.errstate(all="ignore"):
            with pytest.raises(StructuralError):
                make()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_caller_array_mutation_does_not_reach_element(self, dtype):
        raw = np.eye(2, dtype=dtype)
        a = AlgebraElement(matrix_algebra(2), raw)
        b = matrix_element(raw)
        f_raw = np.ones(3, dtype=dtype)
        f = function_element(f_raw)
        raw[0, 0] = 7.0
        f_raw[1] = 7.0
        assert np.array_equal(a.entries, np.eye(2))
        assert np.array_equal(b.entries, np.eye(2))
        assert np.array_equal(f.entries, np.ones(3))

    def test_entries_read_only_and_complex(self):
        a = matrix_element([[1, 2], [3, 4]])
        f = function_element([1, 2, 3])
        made = [
            a, f, a + a, a - a, a * 2, 2 * a, -a, a @ a, involution(a),
            multiply(a, a), f + f, f @ f, involution(f), f * 0.5,
            AlgebraElement(a.descriptor, a.entries),
        ]
        for e in made:
            assert e.entries.dtype == np.complex128
            assert not e.entries.flags.writeable
            with pytest.raises(ValueError):
                e.entries[(0,) * e.entries.ndim] = 0.0


class TestInvolution:
    def test_matrix_star_is_conjugate_transpose(self):
        a = matrix_element([[1, 2j], [0, 3]], "complex")
        assert np.allclose(involution(a).entries, [[1, 0], [-2j, 3]])

    def test_involution_is_involutive(self):
        rng = np.random.default_rng(7)
        a = random_matrix(rng, 4)
        assert np.allclose(involution(involution(a)).entries, a.entries)

    def test_product_rule(self):
        rng = np.random.default_rng(8)
        a, b = random_matrix(rng, 3), random_matrix(rng, 3)
        lhs = involution(multiply(a, b))
        rhs = multiply(involution(b), involution(a))
        assert np.allclose(lhs.entries, rhs.entries)

    def test_function_star_is_conjugation(self):
        f = function_element([1 + 2j, -3j])
        assert np.allclose(involution(f).entries, [1 - 2j, 3j])


class TestNormAndSpectrum:
    def test_op_norm_nilpotent(self):
        # Largest singular value, not spectral radius.
        a = matrix_element([[0, 1], [0, 0]])
        assert op_norm(a) == pytest.approx(1.0)

    def test_known_spectrum(self):
        a = matrix_element([[2, 1], [1, 2]])
        spec = spectrum(a)
        assert [v.real for v in spec.values] == pytest.approx([1.0, 3.0])
        assert spec.all_real()

    def test_function_spectrum_is_sample_set(self):
        f = function_element([3.0, -1.0, 0.5])
        assert [v.real for v in spectrum(f).values] == [-1.0, 0.5, 3.0]

    def test_spectrum_matches_lapack(self):
        rng = np.random.default_rng(11)
        for dim in (2, 3, 5, 8, 16):
            a = random_hermitian(rng, dim)
            got = [v.real for v in spectrum(a).values]
            want = np.sort(np.linalg.eigvalsh(a.entries))
            assert np.allclose(got, want, atol=1e-10)
            assert np.allclose(got, _hermitian_eigvals(a.entries), atol=1e-10)

    def test_op_norm_matches_lapack(self):
        rng = np.random.default_rng(12)
        for dim in (2, 4, 7):
            a = random_matrix(rng, dim)
            want = float(np.linalg.norm(a.entries, 2))
            assert op_norm(a) == pytest.approx(want, abs=1e-10)
            gram = a.entries.conj().T @ a.entries
            jacobi = math.sqrt(max(float(_hermitian_eigvals(gram)[-1]), 0.0))
            assert op_norm(a) == pytest.approx(jacobi, abs=1e-10)

    def test_scalar_algebra(self):
        a = matrix_element([[-4.0]])
        assert op_norm(a) == pytest.approx(4.0)
        assert spectrum(a).values[0].real == pytest.approx(-4.0)


class TestPositivityAndOrder:
    def test_a_star_a_positive(self):
        rng = np.random.default_rng(21)
        a = random_matrix(rng, 4)
        assert is_positive(multiply(involution(a), a))

    def test_indefinite_not_positive(self):
        assert not is_positive(matrix_element([[1, 2], [2, 1]]))

    def test_non_self_adjoint_not_positive(self):
        assert not is_positive(matrix_element([[1, 1], [0, 1]]))

    def test_precedes_diagonal(self):
        a = matrix_element(np.diag([1.0, 2.0]))
        b = matrix_element(np.diag([1.5, 2.0]))
        assert precedes(a, b)
        assert not precedes(b, a)

    def test_order_norm_monotonicity(self):
        # 0 <= a <= b implies ||a|| <= ||b|| (normal cone, constant 1).
        rng = np.random.default_rng(22)
        for _ in range(50):
            x = random_matrix(rng, 3)
            a = multiply(involution(x), x)
            y = random_matrix(rng, 3)
            b = a + multiply(involution(y), y)
            assert precedes(a, b)
            assert op_norm(a) <= op_norm(b) + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, (3, 3), elements=finite),
           arrays(np.float64, (3, 3), elements=finite),
           arrays(np.float64, (3, 3), elements=finite),
           arrays(np.float64, (3, 3), elements=finite),
           st.floats(min_value=-4.0, max_value=4.0))
    def test_positivity_and_self_adjointness_share_one_rule(
            self, x_re, x_im, y_re, y_im, log_factor):
        # a = p + t k with p >= 0 and k* = -k, so ||a - a*|| = 2 t ||k||;
        # t makes t ||k|| equal 10^log_factor * self_adjoint_tol * (1 + ||p||).
        x = x_re + 1j * x_im
        y = y_re + 1j * y_im
        p = matrix_element(x.conj().T @ x, "complex")
        k = matrix_element((y - y.conj().T) / 2.0, "complex")
        assume(op_norm(k) > 1e-6)
        t = (10.0 ** log_factor * DEFAULT_TOL.self_adjoint_tol
             * (1.0 + op_norm(p)) / op_norm(k))
        a = p + t * k
        assert not is_positive(a) or is_self_adjoint(a)
        if log_factor <= -2.0:
            assert is_self_adjoint(a) and is_positive(a)
        if log_factor >= 2.0:
            assert not is_self_adjoint(a) and not is_positive(a)

    def test_function_positivity(self):
        assert is_positive(function_element([0.0, 1.0, 2.0]))
        assert not is_positive(function_element([0.0, -1.0]))


class TestCstarIdentityProperties:
    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, (3, 3), elements=finite),
           arrays(np.float64, (3, 3), elements=finite))
    def test_cstar_identity(self, re, im):
        a = matrix_element(re + 1j * im, "complex")
        lhs = op_norm(multiply(involution(a), a))
        rhs = op_norm(a) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, (3, 3), elements=finite))
    def test_star_isometry(self, re):
        a = matrix_element(re)
        assert op_norm(involution(a)) == pytest.approx(op_norm(a), abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, (8,), elements=finite),
           arrays(np.float64, (8,), elements=finite))
    def test_function_algebra_identity(self, u, v):
        f = function_element(u + 1j * v)
        assert op_norm(multiply(involution(f), f)) == pytest.approx(
            op_norm(f) ** 2, rel=1e-12, abs=1e-12
        )

    def test_self_adjoint_detection(self):
        assert is_self_adjoint(matrix_element([[1, 2], [2, 5]]))
        assert not is_self_adjoint(matrix_element([[1, 2], [3, 5]]))


# ---------------------------------------------------------------------------
# The stacked positivity rule


@st.composite
def stacked_elements(draw):
    """(descriptor, stack, cases): 1 to 5 elements of M1..M16 (real or complex)
    or of 64-point functions, each PSD, indefinite, PSD plus an
    anti-Hermitian part near the self-adjointness tolerance, or with an
    a - a* that overflows."""
    kind = draw(st.sampled_from(["matrix", "function"]))
    if kind == "matrix":
        dim = draw(st.integers(1, 16))
        scalars = draw(st.sampled_from(["real", "complex"]))
        desc = matrix_algebra(dim, scalars)
    else:
        desc = function_algebra(64)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cases = draw(st.lists(
        st.sampled_from(["psd", "indefinite", "near", "overflow"]),
        min_size=1, max_size=5))
    stack = np.stack([_element_entries(rng, desc, case, draw)
                      for case in cases])
    return desc, stack, cases


def _element_entries(rng, desc, case, draw):
    shape = desc.shape
    x = rng.standard_normal(shape)
    if desc.kind == "function" or desc.scalars == "complex":
        x = x + 1j * rng.standard_normal(shape)
    if desc.kind == "function":
        p = np.abs(x) ** 2
        k = 1j * rng.standard_normal(shape)
        if case == "indefinite":
            p = p - np.max(p) / 2.0
    else:
        p = x.conj().T @ x
        y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        k = (y - y.conj().T) / 2.0
        if case == "indefinite":
            p = p - np.eye(shape[0]) * np.max(np.abs(p)) / 2.0
    p = p.astype(complex)
    if case == "near":
        # t ||k|| is 10^u times the tolerance scale, u within a decade of 0.
        u = draw(st.floats(min_value=-1.0, max_value=1.0))
        norm_k, norm_p = (np.linalg.norm(v, np.inf if v.ndim == 1 else 2)
                          for v in (k, p))
        if norm_k > 0.0:
            p = p + (10.0 ** u * DEFAULT_TOL.self_adjoint_tol
                     * (1.0 + norm_p) / norm_k) * k
    if case == "overflow":
        p = p.copy()
        if desc.kind == "function":
            p[0] = 1e308j
        elif shape[0] > 1:
            p[0, 1], p[1, 0] = 1e308, -1e308
        else:
            p[0, 0] = 1e308j
    return p


def _bits(arr) -> bytes:
    return np.ascontiguousarray(arr).tobytes()


def _jacobi_norm(m: np.ndarray) -> float:
    """Largest singular value from the Jacobi solver.  The matrix is scaled
    to unit max entry first: the solver's accuracy is absolute at scale 1,
    and a deviation a - a* near the tolerance is about 1e-10."""
    top = float(np.max(np.abs(m)))
    if top == 0.0:
        return 0.0
    u = m / top
    return top * math.sqrt(max(_hermitian_eigvals(u.conj().T @ u)[-1], 0.0))


def _oracle(desc, entries):
    """(self-adjoint, positive, margins) from the test-side Jacobi solver
    (numpy max and min for functions).  The margins are the distances of
    the two tested quantities from their thresholds, relative to scale."""
    tol = DEFAULT_TOL
    if desc.kind == "function":
        norm = float(np.max(np.abs(entries)))
        dev = float(np.max(np.abs(entries - entries.conj())))
        lowest = float(np.min(entries.real))
    else:
        adj = entries.conj().T
        norm = _jacobi_norm(entries)
        dev = _jacobi_norm(entries - adj)
        lowest = float(_hermitian_eigvals((entries + adj) / 2.0)[0])
    sa_bound = tol.self_adjoint_tol * (1.0 + norm)
    pos_bound = -tol.positivity_tol * (1.0 + norm)
    self_adjoint = dev <= sa_bound
    margins = (abs(dev - sa_bound) / (1.0 + norm),
               abs(lowest - pos_bound) / (1.0 + norm))
    return self_adjoint, self_adjoint and lowest >= pos_bound, margins


class TestStackedRule:
    @settings(max_examples=150, deadline=None)
    @given(stacked_elements())
    def test_stack_agrees_with_stacks_of_one_bit_for_bit(self, drawn):
        desc, stack, cases = drawn
        if "overflow" in cases:
            # One finiteness check: the stack raises as its element does.
            with np.errstate(over="ignore"):
                for rule in (positivity_rule, self_adjoint_rule):
                    with pytest.raises(StructuralError):
                        rule(desc, stack[[cases.index("overflow")]])
                    with pytest.raises(StructuralError):
                        rule(desc, stack)
            return
        singles = [(positivity_rule(desc, row[None]),
                    self_adjoint_rule(desc, row[None])) for row in stack]
        positive, norms = positivity_rule(desc, stack)
        self_adjoint, sa_norms = self_adjoint_rule(desc, stack)
        assert positive.shape == norms.shape == (len(stack),)
        assert _bits(norms) == _bits(sa_norms)
        assert _bits(norms) == _bits(op_norms(desc, stack))
        assert _bits(positive) == _bits(
            np.concatenate([one[0][0] for one in singles]))
        assert _bits(norms) == _bits(
            np.concatenate([one[0][1] for one in singles]))
        assert _bits(self_adjoint) == _bits(
            np.concatenate([one[1][0] for one in singles]))
        # The element predicates are the rule on a stack of one.
        for row, pos, sa, norm in zip(stack, positive, self_adjoint, norms):
            a = AlgebraElement(desc, row)
            assert is_positive(a) is bool(pos)
            assert is_self_adjoint(a) is bool(sa)
            assert op_norm(a) == norm
            assert not pos or sa

    @settings(max_examples=150, deadline=None)
    @given(stacked_elements())
    def test_stack_agrees_with_jacobi_oracle(self, drawn):
        desc, stack, cases = drawn
        stack = stack[[case != "overflow" for case in cases]]
        assume(len(stack))
        positive, _ = positivity_rule(desc, stack)
        self_adjoint, _ = self_adjoint_rule(desc, stack)
        for row, pos, sa in zip(stack, positive, self_adjoint):
            want_sa, want_pos, (sa_margin, pos_margin) = _oracle(desc, row)
            # Inputs within rounding of a threshold may go either way.
            if sa_margin > 1e-13:
                assert bool(sa) == want_sa
                if want_sa and pos_margin > 1e-9:
                    assert bool(pos) == want_pos
                if not want_sa:
                    assert not pos

    def test_mixed_stack_decides_each_element(self):
        # PSD, indefinite, not self-adjoint but with a PSD Hermitian part.
        desc = matrix_algebra(2, "complex")
        stack = np.array([[[2.0, 1.0], [1.0, 2.0]],
                          [[1.0, 2.0], [2.0, 1.0]],
                          [[2.0, 1.0], [0.0, 2.0]]], dtype=complex)
        positive, norms = positivity_rule(desc, stack)
        self_adjoint, _ = self_adjoint_rule(desc, stack)
        assert positive.tolist() == [True, False, False]
        assert self_adjoint.tolist() == [True, True, False]
        assert norms[0] == pytest.approx(3.0)

    def test_non_self_adjoint_elements_are_not_solved(self):
        # a - a* and ||a|| are finite, but a + a* overflows: a is not
        # self-adjoint, so its Hermitian part is never formed.
        desc = matrix_algebra(2, "complex")
        stack = np.array([[[1e308, 5e307], [0.0, 1e308]],
                          [[2.0, 1.0], [1.0, 2.0]]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            positive, norms = positivity_rule(desc, stack)
            assert not is_positive(AlgebraElement(desc, stack[0]))
        assert positive.tolist() == [False, True]
        assert np.isfinite(norms).all()

    def test_function_stack(self):
        desc = function_algebra(3)
        stack = np.array([[0.0, 1.0, 2.0], [0.0, -1.0, 2.0],
                          [1.0, 1.0 + 1e-3j, 1.0]], dtype=complex)
        positive, norms = positivity_rule(desc, stack)
        assert positive.tolist() == [True, False, False]
        assert norms.tolist() == [2.0, 2.0, abs(1.0 + 1e-3j)]

    def test_empty_stack(self):
        for desc in (matrix_algebra(3), function_algebra(5)):
            positive, norms = positivity_rule(
                desc, np.zeros((0, *desc.shape), dtype=complex))
            assert positive.shape == norms.shape == (0,)

    def test_wrong_shape_rejected(self):
        with pytest.raises(StructuralError):
            positivity_rule(matrix_algebra(2), np.zeros((1, 3, 3), complex))
