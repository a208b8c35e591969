"""Dense symmetric linear-algebra kernels.

Everything here is sized for networks of at most a few hundred buses, so
dense storage and O(n^3) factorizations are fine. All routines are pure
functions of their inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix, NotPositiveDefinite, NumericalFailure

# Positive-semidefiniteness is always judged relative to the matrix scale:
# pivots/eigenvalues are compared against -tol * (1 + max |diagonal|].
DEFAULT_PSD_TOL = 1e-9


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """0.5 (a + a^T) of a square matrix, or of each matrix in a leading
    stack, in one new array, never in the caller's. SymMatrix stores this,
    and stacked kernels that must match it bit for bit call it too."""
    s = a + a.swapaxes(-1, -2)
    s *= 0.5
    return s


class SymMatrix:
    """Dense symmetric real matrix; storage keeps a[i, j] == a[j, i] exactly."""

    __slots__ = ("a",)

    def __init__(self, entries):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
        # Symmetrize once so both triangles are bit-identical from here on.
        self.a = _symmetrize(a)

    @property
    def order(self) -> int:
        return self.a.shape[0]

    @property
    def entries(self) -> np.ndarray:
        return self.a

    def __repr__(self):
        return f"SymMatrix(order={self.order})"


@dataclass(frozen=True)
class PsdVerdict:
    psd: bool
    min_pivot: float


def _check_finite(a: np.ndarray) -> np.ndarray:
    """a itself, after raising InvalidMatrix if any entry is not finite."""
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix has non-finite entries")
    return a


def cholesky_psd(m: SymMatrix, tol: float = DEFAULT_PSD_TOL) -> PsdVerdict:
    """Positive-semidefiniteness test by diagonally pivoted LDL factorization.

    Completes iff every pivot stays above -tol * (1 + max |diag|); a zero
    pivot is accepted only when its whole column is (numerically) zero,
    which is the semidefinite boundary case.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    a = _check_finite(m.entries).copy()
    n = m.order
    scale = 1.0 + float(np.max(np.abs(np.diag(a)))) if n else 1.0
    floor = -tol * scale
    # Column entries below this are treated as exact zeros next to a zero pivot.
    col_floor = np.sqrt(max(tol, np.finfo(float).eps)) * scale

    min_pivot = np.inf
    for k in range(n):
        j = k + int(np.argmax(np.diag(a)[k:]))
        if j != k:
            a[[k, j], :] = a[[j, k], :]
            a[:, [k, j]] = a[:, [j, k]]
        d = a[k, k]
        min_pivot = min(min_pivot, d)
        if d < floor:
            return PsdVerdict(False, min_pivot)
        col = a[k + 1:, k]
        if d <= tol * scale:
            if col.size and np.max(np.abs(col)) > col_floor:
                # Zero pivot with a live column: indefinite.
                return PsdVerdict(False, min_pivot)
            a[k + 1:, k] = 0.0
            a[k, k + 1:] = 0.0
            continue
        a[k + 1:, k + 1:] -= np.outer(col, col) / d
    return PsdVerdict(True, min_pivot)


def sym_eigen(m: SymMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition; eigenvalues ascending, eigenvectors in columns."""
    a = _check_finite(m.entries)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    return w, v


def solve_spd(m: SymMatrix, rhs) -> np.ndarray:
    """Solve m x = rhs for symmetric positive definite m."""
    a = _check_finite(m.entries)
    b = np.asarray(rhs, dtype=float)
    if b.shape[0] != m.order:
        raise InvalidMatrix(f"rhs length {b.shape[0]} != order {m.order}")
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("matrix is singular or indefinite") from exc
    return np.linalg.solve(a, b)


def fd_gradient(f, x, step: float | None = None) -> np.ndarray:
    """Central-difference gradient of a scalar function.

    Default step 1e-5 * (1 + |x_i|) balances truncation against rounding
    for the double-precision cross checks this is used in.
    """
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        h = step if step is not None else 1e-5 * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def fd_hessian(f, x, step: float | None = None) -> np.ndarray:
    """Central-difference Hessian of a scalar function."""
    x = np.asarray(x, dtype=float)
    n = x.size
    h = np.array([step if step is not None else 1e-5 * (1.0 + abs(x[i]))
                  for i in range(n)])
    hess = np.zeros((n, n))
    f0 = f(x)
    for i in range(n):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h[i]
        xm[i] -= h[i]
        hess[i, i] = (f(xp) - 2.0 * f0 + f(xm)) / (h[i] * h[i])
        for j in range(i + 1, n):
            xpp = x.copy()
            xpm = x.copy()
            xmp = x.copy()
            xmm = x.copy()
            xpp[[i, j]] += [h[i], h[j]]
            xpm[i] += h[i]
            xpm[j] -= h[j]
            xmp[i] -= h[i]
            xmp[j] += h[j]
            xmm[[i, j]] -= [h[i], h[j]]
            hess[i, j] = hess[j, i] = (
                f(xpp) - f(xpm) - f(xmp) + f(xmm)
            ) / (4.0 * h[i] * h[j])
    return hess
