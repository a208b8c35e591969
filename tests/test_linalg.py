import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_gradient
from gridenergy.errors import InvalidMatrix, NotPositiveDefinite
from gridenergy.linalg import (DEFAULT_PSD_TOL, cholesky_clears, cholesky_psd,
                               fd_hessian, solve_rows, solve_spd, sym_eigen,
                               symmetrize)


def eig2x2(a, b, c):
    """Brute-force eigenvalues of [[a, b], [b, c]]."""
    mean = 0.5 * (a + c)
    rad = math.sqrt(0.25 * (a - c) ** 2 + b * b)
    return mean - rad, mean + rad


def charpoly_roots(a):
    """Eigenvalue oracle via the characteristic polynomial's companion
    matrix (Faddeev-LeVerrier coefficients, numpy.roots)."""
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    return np.sort(np.roots(coeffs).real)


class TestCholeskyPsd:
    def test_identity(self):
        v = cholesky_psd(np.eye(3), tol=0.0)
        assert v.psd and v.min_pivot == 1.0

    def test_indefinite_2x2(self):
        v = cholesky_psd([[1.0, 2.0], [2.0, 1.0]], tol=1e-12)
        assert not v.psd

    def test_spd_2x2(self):
        v = cholesky_psd([[2.0, -1.0], [-1.0, 2.0]])
        assert v.psd
        lo, _ = eig2x2(2.0, -1.0, 2.0)
        assert lo == pytest.approx(1.0)

    def test_semidefinite_boundary(self):
        # rank-1 PSD with an exactly zero eigenvalue
        a = np.outer([1.0, 2.0], [1.0, 2.0])
        assert cholesky_psd(a).psd

    def test_zero_diag_live_column(self):
        assert not cholesky_psd([[0.0, 1.0], [1.0, 0.0]]).psd

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidMatrix):
            cholesky_psd([[np.nan, 0.0], [0.0, 1.0]])

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            cholesky_psd(np.eye(2), tol=-1e-9)

    def test_agrees_with_eigen_sign(self):
        rng = np.random.default_rng(0)
        disagreements = 0
        for _ in range(10000):
            order = int(rng.integers(1, 13))
            a = rng.normal(size=(order, order))
            m = a + a.T
            verdict = cholesky_psd(m)
            w, _ = sym_eigen(m)
            tol_abs = DEFAULT_PSD_TOL * (1.0 + np.max(np.abs(np.diag(m))))
            if abs(w[0]) <= tol_abs:
                continue  # boundary band, either verdict acceptable
            if verdict.psd != (w[0] > 0):
                disagreements += 1
        assert disagreements == 0


class TestSymEigen:
    def test_diagonal(self):
        w, _ = sym_eigen(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0])

    def test_offdiagonal(self):
        w, _ = sym_eigen([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(w, [-1.0, 1.0])

    def test_against_charpoly_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.normal(size=(5, 5))
            m = a + a.T
            w, _ = sym_eigen(m)
            assert np.max(np.abs(w - charpoly_roots(m))) < 1e-9

    def test_reconstruction(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.normal(size=(8, 8)) * 10.0
            m = a + a.T
            w, v = sym_eigen(m)
            err = np.max(np.abs(v @ np.diag(w) @ v.T - m))
            assert err <= 1e-10 * (1.0 + np.max(np.abs(m)))


def gauss_solve(a, b):
    """Row-reduction oracle for the SPD solver."""
    a = a.astype(float).copy()
    b = b.astype(float).copy()
    n = len(b)
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        a[[k, p]] = a[[p, k]]
        b[[k, p]] = b[[p, k]]
        for i in range(k + 1, n):
            f = a[i, k] / a[k, k]
            a[i, k:] -= f * a[k, k:]
            b[i] -= f * b[k]
    x = np.zeros(n)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1:] @ x[k + 1:]) / a[k, k]
    return x


class TestSolveSpd:
    def test_identity(self):
        assert np.allclose(solve_spd(np.eye(2), [1.0, 2.0]), [1.0, 2.0])

    def test_diagonal(self):
        x = solve_spd([[2.0, 0.0], [0.0, 4.0]], [2.0, 4.0])
        assert np.allclose(x, [1.0, 1.0])

    def test_against_elimination_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.normal(size=(6, 6))
            spd = a @ a.T + 6.0 * np.eye(6)
            rhs = rng.normal(size=6)
            x = solve_spd(spd, rhs)
            assert np.max(np.abs(x - gauss_solve(spd, rhs))) < 1e-9

    def test_residual_property(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            order = int(rng.integers(1, 12))
            a = rng.normal(size=(order, order))
            spd = a @ a.T + order * np.eye(order)
            rhs = rng.normal(size=order)
            x = solve_spd(spd, rhs)
            res = np.linalg.norm(spd @ x - rhs)
            assert res <= 1e-10 * (1.0 + np.linalg.norm(rhs))

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            solve_spd([[1.0, 2.0], [2.0, 1.0]], [1.0, 1.0])

    def test_singular_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            solve_spd([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0])

    def test_rounding_cholesky_then_singular_lu_rejected(self):
        # Cholesky passes these singular Laplacians through rounding, and LU
        # then meets an exact zero pivot: still NotPositiveDefinite, never
        # numpy's LinAlgError.
        np.linalg.cholesky(CHOLESKY_PASSES_LU_FAILS)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(CHOLESKY_PASSES_LU_FAILS, np.ones(3))
        with pytest.raises(NotPositiveDefinite, match="singular or indefinite"):
            solve_spd(CHOLESKY_PASSES_LU_FAILS, [1.0, 1.0, 1.0])
        rng, past_cholesky = np.random.default_rng(50), 0
        for _ in range(300):
            a = singular_laplacian(rng, (3, 9))
            try:
                solve_spd(a, rng.standard_normal(len(a)))
            except NotPositiveDefinite as exc:
                past_cholesky += isinstance(exc.__cause__, np.linalg.LinAlgError) and (
                    "Singular" in str(exc.__cause__))
        assert past_cholesky >= 20

    def test_wrong_rhs_length_rejected(self):
        with pytest.raises(InvalidMatrix, match="rhs length 3 != order 2"):
            solve_spd(np.eye(2), [1.0, 2.0, 3.0])


# A singular Laplacian whose Cholesky factorization succeeds through rounding
# while its LU meets an exact zero pivot.
CHOLESKY_PASSES_LU_FAILS = np.array([[1.0, 0.0, -1.0], [0.0, 2.0, -2.0],
                                     [-1.0, -2.0, 3.0]])


def with_spectrum(rng, order, lam_min):
    """Q diag(lam_min, uniform[1, 10]...) Q^T, exactly symmetric, for a
    seeded orthogonal Q."""
    q, _ = np.linalg.qr(rng.standard_normal((order, order)))
    lam = np.concatenate(([lam_min], rng.uniform(1.0, 10.0, order - 1)))
    return symmetrize((q * lam) @ q.T)


def singular_laplacian(rng, orders=(2, 31)):
    """An exactly singular weighted Laplacian of a connected graph of an
    order in [orders[0], orders[1]): integer weights, so every row sums to
    exactly zero."""
    n = int(rng.integers(*orders))
    w = np.triu(rng.integers(1, 10, (n, n)) * (rng.random((n, n)) < 0.3), 1)
    w[rng.integers(0, np.arange(1, n)), np.arange(1, n)] = rng.integers(1, 10, n - 1)
    w = (w + w.T).astype(float)
    return np.diag(w.sum(axis=1)) - w


class TestCholeskyClears:
    """cholesky_clears proves that eigh finds no eigenvalue below -t."""

    # D's floor for eigenvalues up to 10.
    T = DEFAULT_PSD_TOL * 11.0

    @pytest.mark.parametrize("order", [1, 9, 22, 64, 181])
    def test_never_clears_what_eigh_fails(self, order):
        rng = np.random.default_rng(order)
        t = np.array([self.T])
        for _ in range(4):
            for k in (0.5, 0.0, -0.25, -0.49, -0.51, -1.0, -2.0):
                a = with_spectrum(rng, order, k * self.T)
                cleared = cholesky_clears(a[None], t)
                assert not (cleared and np.linalg.eigh(a)[0][0] < -self.T), k
                assert cleared or k < 0, k

    def test_a_stack_clears_only_as_a_whole(self):
        rng = np.random.default_rng(5)
        h = np.stack([with_spectrum(rng, 22, k * self.T) for k in (0.5, 0.0, 0.0)])
        t = np.full(3, self.T)
        assert cholesky_clears(h, t)
        h[1] = with_spectrum(rng, 22, -2.0 * self.T)
        assert not cholesky_clears(h, t)

    def test_singular_laplacians_never_clear(self):
        # A plain Cholesky succeeds on many of these singular matrices; with
        # no room left for rounding (t = 1e-300) no proof may hold.
        rng = np.random.default_rng(18)
        plain = 0
        for _ in range(2000):
            a = singular_laplacian(rng)
            assert not cholesky_clears(a[None], np.array([1e-300]))
            try:
                np.linalg.cholesky(a)
                plain += 1
            except np.linalg.LinAlgError:
                pass
        assert plain > 600

    def test_quiet(self):
        # ||h||_F overflows, or the factorization fails: no warning, no error.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert type(cholesky_clears(np.diag([1e200, 1.0])[None], np.array([1e191]))) is bool
            assert not cholesky_clears(np.diag([1.0, -1.0])[None], np.array([1e-9]))


def spy_np_solve(monkeypatch):
    """The matrix of every np.linalg.solve call."""
    solve, calls = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(a) or solve(a, b))
    return calls


class TestSolveRows:
    @pytest.mark.parametrize("rhs_shape", [(3,), (3, 2)])
    def test_singular_system_factored_once(self, monkeypatch, rhs_shape):
        a, b = np.ones((3, 3)), np.ones(rhs_shape)
        calls = spy_np_solve(monkeypatch)
        x, singular = solve_rows(a, b)
        assert len(calls) == 1
        assert x.tobytes() == np.full(rhs_shape, np.nan).tobytes()
        assert singular.shape == () and singular.dtype == bool and singular

    def test_stack_redoes_each_system(self, monkeypatch):
        # One singular system of three: the stacked call fails, then each
        # system is solved alone, and the others keep their solutions.
        rng = np.random.default_rng(5)
        a = np.stack([asymmetric_spd(rng, 3), np.ones((3, 3)), asymmetric_spd(rng, 3)])
        b = rng.normal(size=(3, 3, 1))
        calls = spy_np_solve(monkeypatch)
        x, singular = solve_rows(a, b)
        assert len(calls) == 4
        assert singular.tolist() == [False, True, False]
        assert np.isnan(x[1]).all()
        for k in (0, 2):
            assert x[k].tobytes() == np.linalg.solve(a[k], b[k]).tobytes()


@given(st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_gram_matrices_are_psd(vals):
    a = np.array(vals).reshape(2, 2)
    assert cholesky_psd(a @ a.T).psd


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_storage_is_exactly_symmetric(seed):
    rng = np.random.default_rng(seed)
    m = symmetrize(rng.normal(size=(4, 4)))
    assert np.array_equal(m, m.T)


def asymmetric_spd(rng, order):
    """A positive definite matrix off symmetry in its last bits, as products
    of rounded terms are."""
    a = rng.normal(size=(order, order))
    return a @ a.T + order * np.eye(order) + 1e-13 * rng.normal(size=(order, order))


def kernel_bytes(m, rhs):
    """Every result of the three kernels on m, as bytes."""
    w, v = sym_eigen(m)
    return (cholesky_psd(m), w.tobytes(), v.tobytes(), solve_spd(m, rhs).tobytes())


class TestSymMatrixStorage:
    """symmetrize's symmetric storage, which cholesky_psd, sym_eigen and
    solve_spd make of their input before anything else."""

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetrizes_into_new_array(self, seed):
        a = np.random.default_rng(seed).normal(size=(6, 6))
        before = a.copy()
        m = symmetrize(a)
        assert np.array_equal(m, 0.5 * (before + before.T))
        assert np.array_equal(a, before)

    def test_int_list(self):
        rows = [[2, 1, 0], [3, 5, 1], [0, 1, 4]]
        a = np.array(rows, dtype=float)
        assert kernel_bytes(rows, [1, 2, 3]) == kernel_bytes(a, [1.0, 2.0, 3.0])
        assert rows == [[2, 1, 0], [3, 5, 1], [0, 1, 4]]

    @pytest.mark.parametrize("seed", range(5))
    def test_kernels_see_the_symmetrized_matrix(self, seed):
        rng = np.random.default_rng(seed)
        a = asymmetric_spd(rng, 7)
        before, rhs = a.copy(), rng.normal(size=7)
        assert not np.array_equal(a, a.T)
        assert kernel_bytes(a, rhs) == kernel_bytes(symmetrize(a), rhs)
        assert np.array_equal(a, before)

    def test_stack(self):
        a = np.stack([asymmetric_spd(np.random.default_rng(k), 5) for k in range(4)])
        m = symmetrize(a)
        assert all(np.array_equal(m[k], symmetrize(a[k])) for k in range(4))
        w, v = sym_eigen(a)
        for k in range(4):
            wk, vk = sym_eigen(a[k])
            assert w[k].tobytes() == wk.tobytes() and v[k].tobytes() == vk.tobytes()

    def test_out(self):
        a = np.stack([asymmetric_spd(np.random.default_rng(k), 5) for k in range(3)])
        for m in (a[0], a):
            out = np.empty_like(m)
            assert symmetrize(m, out=out) is out
            assert out.tobytes() == symmetrize(m).tobytes()

    @pytest.mark.parametrize("shape", [(2, 3), (0, 0), (3,), (), (2, 2, 3), (2, 0, 0)])
    @pytest.mark.parametrize("kernel", [cholesky_psd, sym_eigen,
                                        lambda m: solve_spd(m, [1.0, 1.0])])
    def test_non_square_or_empty_rejected(self, kernel, shape):
        with pytest.raises(InvalidMatrix, match="expected a square matrix"):
            kernel(np.ones(shape))

    @pytest.mark.parametrize("kernel", [cholesky_psd, lambda m: solve_spd(m, [1.0, 1.0])])
    def test_one_matrix_only(self, kernel):
        with pytest.raises(InvalidMatrix, match="expected a square matrix"):
            kernel(np.ones((2, 2, 2)))

    @pytest.mark.parametrize("kernel", [cholesky_psd, sym_eigen,
                                        lambda m: solve_spd(m, [1.0, 1.0])])
    def test_overflowing_symmetrization_rejected(self, kernel):
        # Finite entries whose sum overflows leave a non-finite symmetrized
        # matrix.
        with np.errstate(over="ignore"), pytest.raises(InvalidMatrix, match="non-finite"):
            kernel([[1e308, 1e308], [1e308, 1.0]])


class TestFiniteDifferences:
    def test_gradient_of_quadratic(self):
        h = np.array([[2.0, 0.5], [0.5, 3.0]])
        f = lambda x: 0.5 * x @ h @ x
        x0 = np.array([0.7, -1.2])
        assert np.max(np.abs(fd_gradient(f, x0) - h @ x0)) < 1e-8

    def test_hessian_of_quartic(self):
        f = lambda x: x[0] ** 4 + x[0] * x[1] + math.sin(x[1])
        x0 = np.array([0.9, 0.4])
        expect = np.array([[12 * 0.9 ** 2, 1.0], [1.0, -math.sin(0.4)]])
        assert np.max(np.abs(fd_hessian(f, x0) - expect)) < 1e-5
