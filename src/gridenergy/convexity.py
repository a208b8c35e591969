"""Membership tests for the convexity domain of the energy function.

The domain C is cut out by two conditions: every line phase difference at
most pi/2, and positive semidefiniteness of a PQ-by-PQ matrix built from
per-line terms B/cos(theta_ij) weighted by voltage ratios e^{rho_j-rho_i}.
C is an inner approximation of the true convexity region for meshed
networks and is exact on trees.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import HALF_PI, PFState, check_state, hessian
from .errors import (DomainError, NotConstantRatio, PhaseOutOfRange,
                     UnsupportedTopology)
from .linalg import DEFAULT_PSD_TOL, SymMatrix, cholesky_psd, sym_eigen
from .network import Network


@dataclass(frozen=True)
class ConvexityCertificate:
    in_c: bool
    phase_ok: bool
    lmi_min_eig: float
    tol_abs: float
    scale: float = 1.0  # 1 + max |diag| of the domain matrix; tol_abs = DEFAULT_PSD_TOL * scale


@dataclass(frozen=True)
class PhaseVoltageBox:
    """Per-line operating box: voltage ratios up to b_rho, phase differences
    up to b_theta radians."""

    b_rho: float
    b_theta: float

    def __post_init__(self):
        _check_b_rho(self.b_rho)
        if not (0.0 <= self.b_theta < HALF_PI):
            raise DomainError(f"b_theta must lie in [0, pi/2), got {self.b_theta}")

    @property
    def b_theta_deg(self) -> float:
        return math.degrees(self.b_theta)


def _check_b_rho(b_rho: float) -> None:
    if not (math.isfinite(b_rho) and b_rho >= 1.0):
        raise DomainError(f"b_rho must be finite and >= 1, got {b_rho}")


def _active_mask(n: Network) -> np.ndarray:
    """Lines with at least one PQ endpoint; only these enter the matrix."""
    f, t = n.edges[:, 0], n.edges[:, 1]
    return (n.pq_index_of[f] >= 0) | (n.pq_index_of[t] >= 0)


def line_factors(n: Network, d: np.ndarray) -> np.ndarray:
    """PQ-bus-by-line factor U of the domain matrix.

    Column k holds e^{d_k/2} at line k's from-bus and e^{-d_k/2} at its
    to-bus (PQ ends only), where d_k = rho_to - rho_from. Each line's block
    (b/cos theta) [[e^d, 1], [1, e^-d]] is then w_k u_k u_k^T.
    """
    f, t = n.edges[:, 0], n.edges[:, 1]
    pf, pt = n.pq_index_of[f], n.pq_index_of[t]
    k = np.arange(len(n.lines))
    u = np.zeros((len(n.pq), len(n.lines)))
    mf, mt = pf >= 0, pt >= 0
    u[pf[mf], k[mf]] = np.exp(0.5 * d[mf])
    u[pt[mt], k[mt]] = np.exp(-0.5 * d[mt])
    return u


def domain_matrix(n: Network, d: np.ndarray, w: np.ndarray, u=None,
                  diag_2b=None) -> np.ndarray:
    """The PQ-by-PQ domain matrix diag(2B) - U diag(w) U^T from per-line
    ratio exponents d (rho_to - rho_from) and weights w (b/cos theta).
    Callers holding U = line_factors(n, d) or diag(2B) pass them along."""
    u = line_factors(n, d) if u is None else u
    diag_2b = np.diag(2.0 * n.b_total[n.pq]) if diag_2b is None else diag_2b
    return diag_2b - (u * w) @ u.T


def convexity_matrix(n: Network, s: PFState) -> SymMatrix:
    """The domain matrix at a state. Requires every line phase strictly
    inside (-pi/2, pi/2)."""
    check_state(n, s)
    f, t = n.edges[:, 0], n.edges[:, 1]
    te = s.theta[f] - s.theta[t]
    if np.any(np.abs(te) >= HALF_PI):
        raise PhaseOutOfRange("a line phase difference reached 90 degrees")
    if len(n.pq) == 0:
        raise UnsupportedTopology("network has no PQ buses; the matrix is empty")
    return SymMatrix(domain_matrix(n, s.rho[t] - s.rho[f], n.b / np.cos(te)))


def in_domain_C(n: Network, s: PFState) -> ConvexityCertificate:
    """Certificate of membership in the convexity domain.

    Out-of-range phases yield in_c=False rather than an error. The matrix
    test uses the closed-set convention: smallest eigenvalue down to
    -DEFAULT_PSD_TOL*(1 + max diagonal) still passes.
    """
    check_state(n, s)
    f, t = n.edges[:, 0], n.edges[:, 1]
    te = s.theta[f] - s.theta[t]
    phase_ok = bool(np.all(np.abs(te) <= HALF_PI))
    if len(n.pq) == 0:
        return ConvexityCertificate(in_c=phase_ok, phase_ok=phase_ok,
                                    lmi_min_eig=math.inf, tol_abs=0.0)
    active = _active_mask(n)
    if np.any(np.abs(te[active]) >= HALF_PI):
        return ConvexityCertificate(in_c=False, phase_ok=phase_ok,
                                    lmi_min_eig=-math.inf, tol_abs=0.0)
    inv_cos = np.ones(len(n.lines))
    inv_cos[active] = 1.0 / np.cos(te[active])
    lm = domain_matrix(n, s.rho[t] - s.rho[f], n.b * inv_cos)
    w, _ = sym_eigen(SymMatrix(lm))
    lmi_min = float(w[0])
    scale = 1.0 + float(np.max(np.abs(np.diag(lm))))
    tol_abs = DEFAULT_PSD_TOL * scale
    return ConvexityCertificate(in_c=phase_ok and lmi_min >= -tol_abs,
                                phase_ok=phase_ok, lmi_min_eig=lmi_min,
                                tol_abs=tol_abs, scale=scale)


@dataclass(frozen=True)
class DomainDSample:
    in_d: bool
    samples: int
    alphas: np.ndarray


def in_domain_D_sampled(n: Network, s: PFState, samples: int = 64
                        ) -> DomainDSample:
    """Sampled test of the scaled-segment Hessian condition.

    Checks positive semidefiniteness of the full Hessian at alpha*(rho,
    theta) for alpha = k/samples, k = 0..samples, stopping at the first
    failure. This is a necessary check by sampling, not a certificate; on
    trees the matrix-domain test decides membership exactly instead.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    check_state(n, s)
    alphas = []
    ok = True
    for k in range(samples + 1):
        alpha = k / samples
        sa = PFState(alpha * s.rho, alpha * s.theta)
        h = hessian(n, sa)
        w, _ = sym_eigen(h)
        scale = 1.0 + float(np.max(np.abs(np.diag(h.entries))))
        alphas.append(alpha)
        if w[0] < -DEFAULT_PSD_TOL * scale:
            ok = False
            break
    return DomainDSample(in_d=ok, samples=samples, alphas=np.array(alphas))


def lossy_in_domain(n: Network, s: PFState) -> ConvexityCertificate:
    """Domain certificate for a constant-ratio lossy network.

    The lossy Hessian is the lossless one scaled by kappa^2 + 1, so the
    domain conditions coincide with the lossless ones on the same
    susceptances; only the all-PQ topology requirement is extra.
    """
    if len(n.pv) > 0:
        raise UnsupportedTopology(
            "constant-ratio lossy model requires all non-slack buses to be PQ")
    if n.lossy_ratio is None:
        raise NotConstantRatio("line g/b ratios are not uniform")
    return in_domain_C(n, s)


def matrix_convexity_gap(x1: float, y1: float, x2: float, y2: float,
                         lam: float) -> SymMatrix:
    """Loewner convexity gap of f(x, y) = (1/cos y) [[e^x, 1], [1, e^-x]].

    Returns lam*f(x1,y1) + (1-lam)*f(x2,y2) - f at the combined point;
    the matrix is positive semidefinite whenever |y1|, |y2| < pi/2.
    """
    for y in (y1, y2):
        if abs(y) > HALF_PI - 1e-6:
            raise PhaseOutOfRange("y arguments must stay below 90 degrees")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")

    def f(x, y):
        return np.array([[math.exp(x), 1.0], [1.0, math.exp(-x)]]) / math.cos(y)

    xm = lam * x1 + (1.0 - lam) * x2
    ym = lam * y1 + (1.0 - lam) * y2
    return SymMatrix(lam * f(x1, y1) + (1.0 - lam) * f(x2, y2) - f(xm, ym))


# ---------------------------------------------------------------------------
# operating-box phase bounds

@dataclass(frozen=True)
class PhaseBound(PhaseVoltageBox):
    """A phase budget: the operating box at ratio b_rho, certified when the
    whole box is proved inside C and a sampled estimate otherwise."""

    certified: bool

    @property
    def mode(self) -> str:
        return "exact-vertices" if self.certified else "sampled"


# PQ line ends of the box samples that the sampled test handles in one go:
# enough to amortize numpy's per-call cost, few enough that the temporaries
# stay near 128 kB each.
_CHUNK_ENTRIES = 1 << 14


def _pq_ends(n: Network) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Line, sign (+1 from-end, -1 to-end) and PQ position of every PQ line
    end: the from-ends in line order, then the to-ends."""
    pq = n.pq_index_of[n.edges.T].ravel()
    end = np.flatnonzero(pq >= 0)
    return end % len(n.lines), np.where(end < len(n.lines), 1.0, -1.0), pq[end]


def _box_samples(n: Network, log_ratio: float, samples: int,
                 seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Probe points of the operating box for the sampled estimate.

    A probe (d, phi) holds per-line ratio exponents d_e = rho_to - rho_from
    and per-line phase fractions phi_e in [-1, 1] of the phase budget under
    test. The deterministic battery worst-cases one line at a time (both
    ratio directions, that line's phase at the budget, the rest nominal);
    the random points draw bus profiles and rescale them onto the box
    boundary. Row k of the two arrays is probe k at the PQ ends of
    _pq_ends: the load term b_e e^{+-d_e} and the phase fraction phi_e.
    """
    f, t = n.edges[:, 0], n.edges[:, 1]
    active = np.flatnonzero(_active_mask(n))
    line, sign, _ = _pq_ends(n)
    battery = 2 * len(active)
    terms = np.empty((max(samples, battery), len(line)))
    phi = np.empty_like(terms)
    hit = line == np.repeat(active, 2)[:, None]
    d = np.where(hit, np.tile([log_ratio, -log_ratio], len(active))[:, None], 0.0)
    terms[:battery] = n.b[line] * np.exp(d * sign)
    phi[:battery] = hit
    rng = np.random.default_rng(seed)
    npq = len(n.pq)
    # Per-column draw bounds: the PQ rho, then the non-slack theta, the
    # layout one rng.uniform pair per probe would consume; a draw is
    # rng.uniform's low + (high - low) u, without its per-element broadcast.
    high = np.concatenate((np.full(npq, log_ratio), np.ones(len(n.ns))))
    step = max(1, _CHUNK_ENTRIES // len(n.lines))
    for lo in range(battery, len(terms), step):
        hi = min(lo + step, len(terms))
        draw = -high + (high - -high) * rng.random((hi - lo, len(high)))
        rho = np.zeros((hi - lo, n.n_bus))
        rho[:, n.pq] = draw[:, :npq]
        # Lines without a PQ end have d = 0 and so leave the worst |d| alone.
        d = rho[:, t[line]] - rho[:, f[line]]
        if log_ratio > 0:
            # Rows within the ratio bound scale by log_ratio / log_ratio = 1.
            d *= (log_ratio / np.max(np.abs(d), axis=1, initial=log_ratio))[:, None]
        terms[lo:hi] = n.b[line] * np.exp(d * sign)
        th = np.zeros_like(rho)
        th[:, n.ns] = draw[:, npq:]
        pk = th[:, f] - th[:, t]
        top = np.max(np.abs(pk), axis=1, initial=0.0)
        phi[lo:hi] = pk[:, line] / np.where(top > 0, top, 1.0)[:, None]
    return terms, phi


def _diag_line_failures(n: Network, terms: np.ndarray, phi: np.ndarray,
                        b_theta: float) -> int:
    """Fixed-neighbor diagonal test at every box probe of _box_samples.

    For every PQ bus: 2 B_i >= sum over its lines of B_e e^{u}/cos(theta).
    This is the domain condition when no two PQ buses are adjacent; on
    meshed networks it is the per-line operational criterion behind the
    sampled (non-certifying) phase budgets. The failing probes move to the
    front of terms and phi in probe order; returns their count.
    """
    npq = len(n.pq)
    step = max(1, _CHUNK_ENTRIES // terms.shape[1])
    # Positions in a chunk's flattened (rows, PQ bus) loads: per row the
    # from-ends, then the to-ends, in line order, the order np.add.at would
    # sum them in.
    bins = _pq_ends(n)[2] + npq * np.arange(step)[:, None]
    cap = 2.0 * n.b_total[n.pq]
    failed = 0
    for lo in range(0, len(terms), step):
        flow = terms[lo:lo + step] * (1.0 / np.cos(phi[lo:lo + step] * b_theta))
        rows = len(flow)
        load = np.bincount(bins[:rows].ravel(), flow.ravel(), rows * npq)
        bad = lo + np.flatnonzero(~np.all(load.reshape(rows, npq) <= cap, axis=1))
        terms[failed:failed + len(bad)] = terms[bad]
        phi[failed:failed + len(bad)] = phi[bad]
        failed += len(bad)
    return failed


# Width of max_phase_bound's bisection on b_theta: 0.1 degree.
_BOUND_RESOLUTION = math.radians(0.1)


def max_phase_bound(n: Network, b_rho: float, samples: int = 10000,
                    seed: int = 0) -> PhaseBound:
    """Phase budget b_theta for the per-line operating box at ratio b_rho.

    Up to 12 matrix-relevant lines the budget is a certificate: the domain
    matrix is Loewner-concave in the box variables and monotone in each
    per-line 1/cos(theta), so checking positive semidefiniteness at every
    ratio sign pattern with all phases at the budget covers the whole box
    (conservative on meshes, exact on trees).

    Past that it is a non-certifying operational estimate from samples: one
    line at a time is pushed to its ratio/phase corner (plus random box
    profiles) and judged by the fixed-neighbor diagonal criterion. Full box
    certification is hopeless at practical ratios - a single bus sagged
    b_rho below all its neighbors already leaves the domain at zero phase
    difference on realistic networks - so the estimate deliberately
    measures per-line headroom around the nominal profile instead, and says
    so via certified=False. Once a bisection point fails, only the probes
    that failed it are retested: a probe's loads are non-decreasing in
    b_theta (b e^{+-d} > 0, and 1/cos(phi b_theta) rises for |phi| <= 1), and
    every later point lies below the failed one.
    """
    _check_b_rho(b_rho)
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    if len(n.pq) == 0:
        # No matrix condition at all; any phases below 90 degrees qualify.
        return PhaseBound(b_rho=b_rho, b_theta=HALF_PI - _BOUND_RESOLUTION,
                          certified=True)

    active = np.flatnonzero(_active_mask(n))
    log_ratio = math.log(b_rho)
    certified = len(active) <= 12
    if certified:
        # Row p holds sign pattern p: line active[k] at +log_ratio where
        # bit k of p is set, at -log_ratio otherwise.
        bits = (np.arange(1 << len(active))[:, None] >> np.arange(len(active))) & 1
        patterns = np.zeros((len(bits), len(n.lines)))
        patterns[:, active] = np.where(bits, log_ratio, -log_ratio)

        def box_ok(b_theta: float) -> bool:
            w = n.b / math.cos(b_theta)
            return all(cholesky_psd(SymMatrix(domain_matrix(n, d, w))).psd
                       for d in patterns)
    else:
        terms, phi = _box_samples(n, log_ratio, samples, seed)

        def box_ok(b_theta: float) -> bool:
            nonlocal terms, phi
            failed = _diag_line_failures(n, terms, phi, b_theta)
            if failed:
                terms, phi = terms[:failed], phi[:failed]
            return not failed

    lo, hi = 0.0, HALF_PI - 1e-9
    if not box_ok(lo):
        return PhaseBound(b_rho=b_rho, b_theta=0.0, certified=certified)
    if box_ok(hi):
        lo = hi
    while hi - lo > _BOUND_RESOLUTION:
        mid = 0.5 * (lo + hi)
        if box_ok(mid):
            lo = mid
        else:
            hi = mid
    return PhaseBound(b_rho=b_rho, b_theta=lo, certified=certified)
