"""Membership tests for the convexity domain of the energy function.

The domain C is cut out by two conditions: every line phase difference at
most pi/2, and positive semidefiniteness of a PQ-by-PQ matrix built from
per-line terms B/cos(theta_ij) weighted by voltage ratios e^{rho_j-rho_i}.
C is an inner approximation of the true convexity region for meshed
networks and is exact on trees.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .energy import HALF_PI, PFState, check_one_state, check_state, hessian
from .errors import (DomainError, InvalidMatrix, NotConstantRatio,
                     PhaseOutOfRange, UnsupportedTopology)
# cholesky_psd is unused here; the benchmark's span tracer pins it as an alias.
from .linalg import (DEFAULT_PSD_TOL, cholesky_psd, sym_eigen,  # noqa: F401
                     symmetrize)
from .network import Network

# Largest count of rows that one call or command builds: region grid cells,
# kappa rows of a sweep, segment samples. A million grid cells, as
# RegionCell objects of about 170 bytes each, take 0.17 GB.
MAX_ROWS = 1_000_000


@dataclass(frozen=True)
class ConvexityCertificate:
    """in_domain_C's verdict on a state. For a stack of states every field
    is an array with one entry per state; for one state, a bool or float."""

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


def _pq_ends(n: Network) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """pq_line_ends' arrays; for n.derived."""
    pq = n.pq_ends.ravel(order="F")
    end = np.flatnonzero(pq >= 0)
    line = end % len(n.b)
    return line, np.searchsorted(n.active, line), np.where(end < len(n.b), 1.0, -1.0), pq[end]


def pq_line_ends(n: Network) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Line, active column, sign (+1 from, -1 to) and PQ position of each PQ
    line end, where line_factors' U is nonzero: from-ends, then to-ends."""
    return n.derived(_pq_ends)


def line_factors(n: Network, d: np.ndarray) -> np.ndarray:
    """PQ-bus-by-active-line factor U of the domain matrix, from ratio
    exponents d_k = rho_to - rho_from given per active line (n.active).

    Column k holds e^{d_k/2} at its line's from-bus and e^{-d_k/2} at its
    to-bus (PQ ends only). Each line's block (b/cos theta) [[e^d, 1], [1,
    e^-d]] is then w_k u_k u_k^T. A leading stack axis of d gives one U per
    row.
    """
    _, col, sign, pq = pq_line_ends(n)
    u = np.zeros(d.shape[:-1] + (len(n.pq), len(n.active)))
    u[..., pq, col] = np.exp(0.5 * sign * d.take(col, -1))
    return u


def _diag_2b(n: Network) -> np.ndarray:
    """diag(2B) over the PQ buses; for n.derived."""
    return np.diag(2.0 * n.b_total[n.pq])


def domain_matrix(n: Network, d: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """The PQ-by-PQ domain matrix diag(2B) - U diag(w) U^T, w = b/cos tau,
    from ratio exponents d (rho_to - rho_from) and phase differences tau
    (theta_from - theta_to) given per active line, over an optional leading
    stack axis of d and tau. Every caller gets w rounded the one way."""
    u, w = line_factors(n, d), n.b[n.active] / np.cos(tau)
    return n.derived(_diag_2b) - (u * w[..., None, :]) @ u.swapaxes(-1, -2)


def convexity_matrix(n: Network, s: PFState) -> np.ndarray:
    """The domain matrix at a state, symmetrized. Requires every line phase
    strictly inside (-pi/2, pi/2)."""
    check_one_state(n, s)
    f, t = n.edges[:, 0], n.edges[:, 1]
    te = s.theta[f] - s.theta[t]
    if np.any(np.abs(te) >= HALF_PI):
        raise PhaseOutOfRange("a line phase difference reached 90 degrees")
    if len(n.pq) == 0:
        raise UnsupportedTopology("network has no PQ buses; the matrix is empty")
    a = n.active
    return symmetrize(domain_matrix(n, s.rho[t[a]] - s.rho[f[a]], te[a]))


def in_domain_C(n: Network, s: PFState) -> ConvexityCertificate:
    """Certificate of membership in the convexity domain, for one state or
    for each of a stack of states.

    Out-of-range phases yield in_c=False rather than an error; a state with
    an active line at or past 90 degrees forms no matrix and gets
    lmi_min_eig=-inf, tol_abs=0. The matrix test uses the closed-set
    convention: smallest eigenvalue down to -DEFAULT_PSD_TOL*(1 + max
    diagonal) still passes. Without PQ buses the matrix is empty and
    lmi_min_eig is +inf.
    """
    check_state(n, s)
    lead = s.theta.shape[:-1]
    theta, rho = s.theta.reshape(-1, n.n_bus), s.rho.reshape(-1, n.n_bus)
    f, t = n.edges[:, 0], n.edges[:, 1]
    te = theta.take(f, 1) - theta.take(t, 1)
    count, ta = len(te), te.take(n.active, 1)
    inside = abs(ta) < HALF_PI
    if not len(n.pq):
        lmi_min, tol_abs, scale = np.full(count, math.inf), np.zeros(count), np.ones(count)
    elif inside.all():
        # Every state of a solve or a region grid: no row to leave out.
        lmi_min, tol_abs, scale = _min_eig(n, ta, rho)
    else:
        live = inside.all(axis=1)
        lmi_min, tol_abs, scale = np.full(count, -math.inf), np.zeros(count), np.ones(count)
        lmi_min[live], tol_abs[live], scale[live] = _min_eig(n, ta[live], rho[live])
    phase_ok = (abs(te) <= HALF_PI).all(axis=1)
    cert = (phase_ok & (lmi_min >= -tol_abs), phase_ok, lmi_min, tol_abs, scale)
    if lead:
        return ConvexityCertificate(*(x.reshape(lead) for x in cert))
    return ConvexityCertificate(*(x.item() for x in cert))


def _min_eig(n: Network, ta: np.ndarray, rho: np.ndarray):
    """Smallest eigenvalue of the domain matrix of each row of active-line
    phase differences ta and bus log-voltages rho, the PSD tolerance
    DEFAULT_PSD_TOL * scale it is judged against, and scale = 1 + max |diag|.
    Every phase difference must lie inside 90 degrees."""
    f, t = n.edges[n.active, 0], n.edges[n.active, 1]
    lm = domain_matrix(n, rho.take(t, 1) - rho.take(f, 1), ta)
    scale = 1.0 + abs(lm.diagonal(axis1=1, axis2=2)).max(axis=1)
    return sym_eigen(lm)[0][:, 0], DEFAULT_PSD_TOL * scale, scale


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

    The samples are evaluated in stacks, with the result of testing them one
    at a time: InvalidMatrix only for a non-finite Hessian before the first
    failure, and only the warnings that sample prints.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    if samples > MAX_ROWS:
        raise ValueError(f"samples {samples} is above the cap of {MAX_ROWS}")
    check_one_state(n, s)
    order = len(n.pq) + len(n.ns)
    if order == 0:
        raise InvalidMatrix("expected a square matrix, got shape (0, 0)")
    alphas = np.arange(samples + 1) / samples
    step = max(1, _CHUNK_ENTRIES // order ** 2)
    for lo in range(0, samples + 1, step):
        a = alphas[lo:lo + step, None]
        # Samples past the first failure would warn where the one-at-a-time
        # test never looked: each chunk runs silent, and the first
        # non-finite sample is redone alone below, warnings and all.
        with np.errstate(all="ignore"):
            h = hessian(n, PFState(a * s.rho, a * s.theta))
        finite = np.isfinite(h).all(axis=(-2, -1))
        good = len(h) if finite.all() else int(np.argmin(finite))
        # sym_eigen's eigh on rows that hessian has symmetrized and that are
        # finite; eigvalsh's last bits would differ.
        w, _ = np.linalg.eigh(h[:good])
        scale = 1.0 + np.abs(h[:good].diagonal(axis1=-2, axis2=-1)).max(axis=-1)
        failed = np.flatnonzero(w[:, 0] < -DEFAULT_PSD_TOL * scale)
        if len(failed):
            return DomainDSample(in_d=False, samples=samples,
                                 alphas=alphas[:lo + failed[0] + 1])
        if good < len(h):
            # Bit for bit its stacked row, so sym_eigen raises.
            sym_eigen(hessian(n, PFState(a[good] * s.rho, a[good] * s.theta)))
    return DomainDSample(in_d=True, samples=samples, alphas=alphas)


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


# Entries the sampled probes (lines per probe), the D-sampling and the vertex
# stack (matrix entries) take per numpy call: enough to amortize its cost,
# temporaries near 128 kB.
_CHUNK_ENTRIES = 1 << 14
_MAX_BUDGET = HALF_PI - 1e-9  # the largest budget: every phase below 90 degrees
_BOUND_RESOLUTION = math.radians(0.1)  # the sampled bisection's width


def _box_chunks(n: Network, log_ratio: float,
                samples: int, seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Probe points of the operating box for the sampled estimate, a chunk
    of rows at a time.

    A probe (d, phi) holds per-line ratio exponents d_e = rho_to - rho_from
    and per-line phase fractions phi_e in [-1, 1] of the phase budget under
    test. The deterministic battery worst-cases one line at a time (both
    ratio directions, that line's phase at the budget, the rest nominal);
    the random points draw bus profiles and rescale them onto the box
    boundary, max(samples, battery) probes in all. Row k of a chunk's two
    arrays is one probe at the PQ ends of pq_line_ends: the load term
    b_e e^{+-d_e} and the phase fraction phi_e.
    """
    f, t = n.edges[:, 0], n.edges[:, 1]
    active = n.active
    line, _, sign, _ = pq_line_ends(n)
    step = max(1, _CHUNK_ENTRIES // len(n.b))
    hot = np.repeat(active, 2)
    corner = np.tile([log_ratio, -log_ratio], len(active))
    for lo in range(0, len(hot), step):
        hit = line == hot[lo:lo + step, None]
        d = np.where(hit, corner[lo:lo + step, None], 0.0)
        yield n.b[line] * np.exp(d * sign), hit.astype(float)
    rng = np.random.default_rng(seed)
    npq = len(n.pq)
    # Per-column draw bounds: the PQ rho, then the non-slack theta, the
    # layout one rng.uniform pair per probe would consume; a draw is
    # rng.uniform's low + (high - low) u, without its per-element broadcast.
    high = np.concatenate((np.full(npq, log_ratio), np.ones(len(n.ns))))
    for lo in range(len(hot), samples, step):
        draw = -high + (high - -high) * rng.random((min(step, samples - lo), len(high)))
        rho = np.zeros((len(draw), n.n_bus))
        rho[:, n.pq] = draw[:, :npq]
        # Lines without a PQ end have d = 0 and so leave the worst |d| alone.
        d = rho[:, t[line]] - rho[:, f[line]]
        if log_ratio > 0:
            # Rows within the ratio bound scale by log_ratio / log_ratio = 1.
            d *= (log_ratio / np.max(np.abs(d), axis=1, initial=log_ratio))[:, None]
        th = np.zeros_like(rho)
        th[:, n.ns] = draw[:, npq:]
        pk = th[:, f] - th[:, t]
        top = np.max(np.abs(pk), axis=1, initial=0.0)
        yield (n.b[line] * np.exp(d * sign),
               pk[:, line] / np.where(top > 0, top, 1.0)[:, None])


def _probes_pass(n: Network, terms: np.ndarray, phi: np.ndarray,
                 b_theta: float) -> bool:
    """Fixed-neighbor diagonal test at every probe of a _box_chunks chunk.

    For every PQ bus: 2 B_i >= sum over its lines of B_e e^{u}/cos(theta).
    This is the domain condition when no two PQ buses are adjacent; on
    meshed networks it is the per-line operational criterion behind the
    sampled (non-certifying) phase budgets. True when every probe passes.
    """
    npq = len(n.pq)
    # Positions in the chunk's flattened (rows, PQ bus) loads: per row the
    # from-ends, then the to-ends, in line order, the order np.add.at would
    # sum them in.
    bins = pq_line_ends(n)[3] + npq * np.arange(len(terms))[:, None]
    flow = terms * (1.0 / np.cos(phi * b_theta))
    load = np.bincount(bins.ravel(), flow.ravel(), len(terms) * npq)
    return bool(np.all(load.reshape(len(terms), npq) <= 2.0 * n.b_total[n.pq]))


def _vertex_budget(n: Network, log_ratio: float) -> float:
    """Closed-form certified budget. With all phases at theta, pattern p's
    vertex matrix D - sec(theta) M_p, D = diag(2B), M_p = U_p diag(b) U_p^T,
    is PSD exactly when cos(theta) >= lambda_max(D^-1/2 M_p D^-1/2). Bit k
    of p puts line active[k] at +log_ratio, else -log_ratio. Scaled first,
    entries stay below b_rho / 2; without PQ buses the stack is empty."""
    active = n.active
    scale = np.sqrt(n.b[active] / (2.0 * n.b_total[n.pq])[:, None])
    v_lo, v_hi = (scale * line_factors(n, np.full(len(active), d))
                  for d in (-log_ratio, log_ratio))
    bits = (np.arange(1 << len(active))[:, None] >> np.arange(len(active))) & 1
    step, top = _CHUNK_ENTRIES // (len(n.pq) ** 2 or 1), 0.0
    for lo in range(0, len(bits), step):
        v = np.where(bits[lo:lo + step, None] == 1, v_hi, v_lo)
        top = max(top, np.linalg.eigvalsh(v @ v.transpose(0, 2, 1)).max(initial=0.0))
    return min(math.acos(min(top, 1.0)), _MAX_BUDGET)


def max_phase_bound(n: Network, b_rho: float, samples: int = 10000,
                    seed: int = 0) -> PhaseBound:
    """Phase budget b_theta for the per-line operating box at ratio b_rho.

    Up to 12 matrix-relevant lines the budget is a certificate: the domain
    matrix is Loewner-concave in the box variables and monotone in each
    per-line 1/cos(theta), so positive semidefiniteness at every ratio sign
    pattern with all phases at the budget covers the whole box (conservative
    on meshes, exact on trees); _vertex_budget solves that in closed form.

    Past that it is a non-certifying estimate (certified=False), bisected
    to _BOUND_RESOLUTION over probes that push one line at a time to its
    ratio/phase corner, plus random box profiles, judged by the
    fixed-neighbor diagonal criterion: full box certification is hopeless at
    practical ratios, as one bus sagged b_rho below all its neighbors leaves
    the domain at zero phase difference on realistic networks. The probes
    stream through in chunks, so memory does not grow with samples. A
    probe's loads are non-decreasing in b_theta (b e^{+-d} > 0, and
    1/cos(phi b_theta) rises for |phi| <= 1), and the bisection points form
    one fixed tree from (0, _MAX_BUDGET), so the budget over all probes is
    the least of the chunks' budgets: a chunk that passes at the running
    least cannot lower it, and one that fails there is bisected with every
    point at or above it failed untested.
    """
    _check_b_rho(b_rho)
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    log_ratio = math.log(b_rho)
    if len(n.active) <= 12:
        return PhaseBound(b_rho=b_rho, certified=True, b_theta=_vertex_budget(n, log_ratio))

    best = _MAX_BUDGET
    for terms, phi in _box_chunks(n, log_ratio, samples, seed):
        if _probes_pass(n, terms, phi, best):
            continue
        if not _probes_pass(n, terms, phi, 0.0):
            return PhaseBound(b_rho=b_rho, b_theta=0.0, certified=False)
        lo, hi = 0.0, _MAX_BUDGET
        while hi - lo > _BOUND_RESOLUTION:
            mid = 0.5 * (lo + hi)
            if mid < best and _probes_pass(n, terms, phi, mid):
                lo = mid
            else:
                hi = mid
        best = lo
    return PhaseBound(b_rho=b_rho, b_theta=best, certified=False)
