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


@dataclass(frozen=True)
class PsdVerdict:
    psd: bool
    min_pivot: float


def symmetrize(a: np.ndarray) -> np.ndarray:
    """0.5 (a + a^T) of a square matrix, or of each matrix in a leading
    stack, in one new array, never in the caller's: the sum first, then an
    in-place halving, so both triangles are bit-identical."""
    s = a + a.swapaxes(-1, -2)
    s *= 0.5
    return s


def _symmetric(a, stack: bool = False) -> np.ndarray:
    """symmetrize(a) as floats, after raising InvalidMatrix unless a is a
    nonempty square matrix (or, with stack, a stack of them); then raising
    it when an entry of the result is not finite."""
    a = np.asarray(a, dtype=float)
    square = a.ndim >= 2 and a.shape[-1] == a.shape[-2] >= 1
    if not square or a.ndim > 2 and not stack:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    a = symmetrize(a)
    if not np.isfinite(a).all():
        raise InvalidMatrix("matrix has non-finite entries")
    return a


def cholesky_psd(m, tol: float = DEFAULT_PSD_TOL) -> PsdVerdict:
    """Positive-semidefiniteness test by diagonally pivoted LDL factorization.

    Completes iff every pivot stays above -tol * (1 + max |diag|); a zero
    pivot is accepted only when its whole column is (numerically) zero,
    which is the semidefinite boundary case.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    a = _symmetric(m)
    n = len(a)
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


def sym_eigen(m) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition; eigenvalues ascending, eigenvectors in
    columns. m may carry a leading stack axis, and the results then do."""
    a = _symmetric(m, stack=True)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    return w, v


def solve_spd(m, rhs) -> np.ndarray:
    """Solve m x = rhs for symmetric positive definite m."""
    a = _symmetric(m)
    b = np.asarray(rhs, dtype=float)
    if b.shape[0] != len(a):
        raise InvalidMatrix(f"rhs length {b.shape[0]} != order {len(a)}")
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("matrix is singular or indefinite") from exc
    return np.linalg.solve(a, b)


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
