import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridenergy.errors import InvalidMatrix, NotPositiveDefinite
from gridenergy.linalg import (DEFAULT_PSD_TOL, SymMatrix, cholesky_psd,
                               fd_gradient, fd_hessian, solve_spd, sym_eigen)


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
        v = cholesky_psd(SymMatrix(np.eye(3)), tol=0.0)
        assert v.psd and v.min_pivot == 1.0

    def test_indefinite_2x2(self):
        v = cholesky_psd(SymMatrix([[1.0, 2.0], [2.0, 1.0]]), tol=1e-12)
        assert not v.psd

    def test_spd_2x2(self):
        v = cholesky_psd(SymMatrix([[2.0, -1.0], [-1.0, 2.0]]))
        assert v.psd
        lo, _ = eig2x2(2.0, -1.0, 2.0)
        assert lo == pytest.approx(1.0)

    def test_semidefinite_boundary(self):
        # rank-1 PSD with an exactly zero eigenvalue
        a = np.outer([1.0, 2.0], [1.0, 2.0])
        assert cholesky_psd(SymMatrix(a)).psd

    def test_zero_diag_live_column(self):
        assert not cholesky_psd(SymMatrix([[0.0, 1.0], [1.0, 0.0]])).psd

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidMatrix):
            cholesky_psd(SymMatrix([[np.nan, 0.0], [0.0, 1.0]]))

    def test_agrees_with_eigen_sign(self):
        rng = np.random.default_rng(0)
        disagreements = 0
        for _ in range(10000):
            order = int(rng.integers(1, 13))
            a = rng.normal(size=(order, order))
            m = SymMatrix(a + a.T)
            verdict = cholesky_psd(m)
            w, _ = sym_eigen(m)
            tol_abs = DEFAULT_PSD_TOL * (1.0 + np.max(np.abs(np.diag(m.entries))))
            if abs(w[0]) <= tol_abs:
                continue  # boundary band, either verdict acceptable
            if verdict.psd != (w[0] > 0):
                disagreements += 1
        assert disagreements == 0


class TestSymEigen:
    def test_diagonal(self):
        w, _ = sym_eigen(SymMatrix(np.diag([3.0, 1.0, 2.0])))
        assert np.allclose(w, [1.0, 2.0, 3.0])

    def test_offdiagonal(self):
        w, _ = sym_eigen(SymMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])

    def test_against_charpoly_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.normal(size=(5, 5))
            m = SymMatrix(a + a.T)
            w, _ = sym_eigen(m)
            assert np.max(np.abs(w - charpoly_roots(m.entries))) < 1e-9

    def test_reconstruction(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.normal(size=(8, 8)) * 10.0
            m = SymMatrix(a + a.T)
            w, v = sym_eigen(m)
            err = np.max(np.abs(v @ np.diag(w) @ v.T - m.entries))
            assert err <= 1e-10 * (1.0 + np.max(np.abs(m.entries)))


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
        assert np.allclose(solve_spd(SymMatrix(np.eye(2)), [1.0, 2.0]), [1.0, 2.0])

    def test_diagonal(self):
        x = solve_spd(SymMatrix([[2.0, 0.0], [0.0, 4.0]]), [2.0, 4.0])
        assert np.allclose(x, [1.0, 1.0])

    def test_against_elimination_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.normal(size=(6, 6))
            spd = a @ a.T + 6.0 * np.eye(6)
            rhs = rng.normal(size=6)
            x = solve_spd(SymMatrix(spd), rhs)
            assert np.max(np.abs(x - gauss_solve(spd, rhs))) < 1e-9

    def test_residual_property(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            order = int(rng.integers(1, 12))
            a = rng.normal(size=(order, order))
            spd = a @ a.T + order * np.eye(order)
            rhs = rng.normal(size=order)
            x = solve_spd(SymMatrix(spd), rhs)
            res = np.linalg.norm(spd @ x - rhs)
            assert res <= 1e-10 * (1.0 + np.linalg.norm(rhs))

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            solve_spd(SymMatrix([[1.0, 2.0], [2.0, 1.0]]), [1.0, 1.0])

    def test_singular_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            solve_spd(SymMatrix([[1.0, 1.0], [1.0, 1.0]]), [1.0, 1.0])


@given(st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_gram_matrices_are_psd(vals):
    a = np.array(vals).reshape(2, 2)
    assert cholesky_psd(SymMatrix(a @ a.T)).psd


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_storage_is_exactly_symmetric(seed):
    rng = np.random.default_rng(seed)
    m = SymMatrix(rng.normal(size=(4, 4)))
    assert np.array_equal(m.entries, m.entries.T)


class TestSymMatrixStorage:
    @pytest.mark.parametrize("seed", range(5))
    def test_symmetrizes_into_new_array(self, seed):
        a = np.random.default_rng(seed).normal(size=(6, 6))
        before = a.copy()
        m = SymMatrix(a)
        assert np.array_equal(m.entries, 0.5 * (before + before.T))
        assert np.array_equal(a, before)

    def test_int_list(self):
        rows = [[1, 2, 4], [3, 5, 7], [0, 9, 6]]
        a = np.array(rows, dtype=float)
        assert np.array_equal(SymMatrix(rows).entries, 0.5 * (a + a.T))
        assert rows == [[1, 2, 4], [3, 5, 7], [0, 9, 6]]


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
