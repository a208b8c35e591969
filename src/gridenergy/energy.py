"""Energy function for power flow on networks with a uniform g/b ratio,
with gradient, Hessian and the edge-coordinate block decomposition.

The state lives in log-voltage coordinates rho = log V. With every fixed
voltage normalized to 1 (see network.absorb_setpoints), the lossless energy
is

    E(rho, theta) = - sum_ns P_i theta_i - sum_pq Q_i rho_i
                    + sum_lines b * ((e^{2 rho_i} + e^{2 rho_j}) / 2
                                     - e^{rho_i + rho_j} cos(theta_i - theta_j))

and its stationary points are exactly the power-flow solutions: the theta
derivatives recover the active balances and the rho derivatives the
reactive ones. A line with conductance g = kappa b has series admittance
y = g - jb = (kappa - j) b, so its injections are (1 - j kappa) times the
lossless ones. The same energy with susceptances (1 + kappa^2) b and the
combined targets of lossy_targets therefore covers the lossy network; the
lossless network is its kappa = 0 case.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NotConstantRatio, SingularReduction, UnsupportedTopology
from .linalg import SymMatrix
from .network import Network

HALF_PI = 0.5 * np.pi


@dataclass
class PFState:
    """Per-bus log-voltage and phase, with slack/PV entries pinned to zero."""

    rho: np.ndarray
    theta: np.ndarray

    @staticmethod
    def flat(n: Network) -> "PFState":
        return PFState(np.zeros(n.n_bus), np.zeros(n.n_bus))

    def copy(self) -> "PFState":
        return PFState(self.rho.copy(), self.theta.copy())

    def voltages(self) -> np.ndarray:
        return np.exp(self.rho)


def check_state(n: Network, s: PFState) -> None:
    if s.rho.shape != (n.n_bus,) or s.theta.shape != (n.n_bus,):
        raise ValueError("state arrays do not match network size")
    if not (np.all(np.isfinite(s.rho)) and np.all(np.isfinite(s.theta))):
        raise ValueError("state has non-finite entries")
    slack = n.slack_index
    if np.any(s.rho[n.pv] != 0.0) or s.rho[slack] != 0.0 or s.theta[slack] != 0.0:
        raise ValueError("pinned state entries must be exactly zero")


def pack(n: Network, s: PFState) -> np.ndarray:
    """Free variables in solver order: rho at PQ buses, then theta at
    non-slack buses (both in bus order)."""
    return np.concatenate((s.rho[n.pq], s.theta[n.ns]))


def unpack(n: Network, x: np.ndarray) -> PFState:
    s = PFState(np.zeros(n.n_bus), np.zeros(n.n_bus))
    npq = len(n.pq)
    s.rho[n.pq] = x[:npq]
    s.theta[n.ns] = x[npq:]
    return s


@dataclass
class EnergyEval:
    value: float
    grad_theta: np.ndarray  # dE/dtheta at non-slack buses
    grad_rho: np.ndarray  # dE/drho at PQ buses

    def as_vector(self) -> np.ndarray:
        return np.concatenate((self.grad_rho, self.grad_theta))


def _model(n: Network):
    """Susceptances (1 + kappa^2) b and the lossy_targets of network n.

    At kappa = 0 these are n's own arrays, so the lossless path allocates
    nothing per call.
    """
    kappa = n.lossy_ratio
    if kappa is None:
        raise NotConstantRatio("line g/b ratios are not uniform")
    if kappa == 0.0:
        return n.b, n.p_inj, n.q_inj
    # The combined active target mixes in Q, which a PV bus does not fix.
    if len(n.pv) > 0:
        raise UnsupportedTopology(
            "constant-ratio lossy model requires all non-slack buses to be PQ")
    tp, tq = lossy_targets(n, kappa)
    return (kappa * kappa + 1.0) * n.b, tp, tq


def lossy_targets(n: Network, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-bus combined injections: (P - kappa Q, Q + kappa P).

    A line's series admittance is y = g - jb with g = kappa b >= 0, so
    (1 + kappa^2) times the lossless injections equals (1 + j kappa) S;
    kappa = 0 reproduces the lossless targets exactly.
    """
    return n.p_inj - kappa * n.q_inj, n.q_inj + kappa * n.p_inj


def _edge_terms(n: Network, s: PFState):
    f, t = n.edges[:, 0], n.edges[:, 1]
    te = s.theta[f] - s.theta[t]
    exy = np.exp(s.rho[f] + s.rho[t])
    return f, t, te, exy


def _value(n: Network, s: PFState, beff, tp, tq, f, t, exy, e2, cos_t) -> float:
    """Energy from edge terms, with susceptances beff and targets (tp, tq)."""
    quad = 0.5 * (e2[f] + e2[t]) - exy * cos_t
    return float(np.dot(beff, quad)
                 - np.dot(tp[n.ns], s.theta[n.ns])
                 - np.dot(tq[n.pq], s.rho[n.pq]))


def energy_value(n: Network, s: PFState) -> float:
    """Evaluate the energy function; exactly 0 at the flat start."""
    check_state(n, s)
    beff, tp, tq = _model(n)
    f, t, te, exy = _edge_terms(n, s)
    return _value(n, s, beff, tp, tq, f, t, exy, np.exp(2.0 * s.rho), np.cos(te))


def energy_gradient(n: Network, s: PFState) -> EnergyEval:
    """Analytic gradient of the energy (equal to minus the PF residuals),
    with the value taken from the same edge terms."""
    check_state(n, s)
    beff, tp, tq = _model(n)
    f, t, te, exy = _edge_terms(n, s)
    sin_t = np.sin(te)
    cos_t = np.cos(te)
    e2 = np.exp(2.0 * s.rho)
    g_theta = np.zeros(n.n_bus)
    g_rho = np.zeros(n.n_bus)
    flow = beff * exy * sin_t
    np.add.at(g_theta, f, flow)
    np.add.at(g_theta, t, -flow)
    np.add.at(g_rho, f, beff * (e2[f] - exy * cos_t))
    np.add.at(g_rho, t, beff * (e2[t] - exy * cos_t))
    g_theta -= tp
    g_rho -= tq
    value = _value(n, s, beff, tp, tq, f, t, exy, e2, cos_t)
    return EnergyEval(value, g_theta[n.ns], g_rho[n.pq])


def pf_residuals(n: Network, s: PFState) -> tuple[np.ndarray, np.ndarray]:
    """Power-flow residuals (P at non-slack buses, Q at PQ buses).

    Deliberately computed through complex phasor arithmetic on each line's
    series admittance g - jb, from the bus injections as given, rather than
    by differentiating the energy, so the gradient identity can be checked
    between independent code paths. On a lossy network the mismatch is
    returned in the energy's combination (1 + j kappa)(S - S_calc).
    """
    check_state(n, s)
    _model(n)
    v = np.exp(s.rho + 1j * s.theta)
    f, t = n.edges[:, 0], n.edges[:, 1]
    # Current from bus i into line k is y (V_i - V_j).
    cur = np.zeros(n.n_bus, dtype=complex)
    np.add.at(cur, f, n.y * (v[f] - v[t]))
    np.add.at(cur, t, n.y * (v[t] - v[f]))
    inj = v * np.conj(cur)
    rp = n.p_inj[n.ns] - inj.real[n.ns]
    rq = n.q_inj[n.pq] - inj.imag[n.pq]
    kappa = n.lossy_ratio
    if kappa:
        # _model admits kappa != 0 only when every non-slack bus is PQ, so
        # rp and rq cover the same buses.
        rp, rq = rp - kappa * rq, rq + kappa * rp
    return rp, rq


def _pq_incidence(n: Network) -> np.ndarray:
    """inc[p, k] = 1 when line k ends at the p-th PQ bus."""
    inc = np.zeros((len(n.pq), len(n.lines)))
    for ends in n.edges.T:
        p = n.pq_index_of[ends]
        inc[p[p >= 0], np.flatnonzero(p >= 0)] = 1.0
    return inc


class FixedPhase:
    """The energy's rho-derivatives at PQ buses with the phases held fixed.

    Built once per phase vector, which fixes each line's weight
    c = b_eff cos(theta_e). With u = e^rho at the PQ buses (fixed buses sit
    at rho = 0, u = 1),

        -dE/drho = tq + v,   d2E/drho2 = -diag(v) - U g U,
        v = u (d + g u),     U = diag(u),

    where g holds the weights of PQ-PQ lines off the diagonal and minus
    each PQ bus's susceptance sum on it, and d sums the weights of the
    lines from each PQ bus to fixed buses. The gradient identity makes
    `residual` the reactive mismatch that pf_residuals computes by phasors.
    """

    def __init__(self, n: Network, theta):
        beff, _, tq = _model(n)
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (n.n_bus,):
            raise ValueError("theta must give one phase per bus")
        f, t = n.edges[:, 0], n.edges[:, 1]
        c = beff * np.cos(theta[f] - theta[t])
        inc = _pq_incidence(n)
        weighted = inc * c
        self.g = weighted @ inc.T
        self.g.flat[::len(n.pq) + 1] = -(inc @ beff)
        to_fixed = (n.pq_index_of[f] < 0) | (n.pq_index_of[t] < 0)
        self.d = weighted @ to_fixed
        self.tq = tq[n.pq]

    def residual(self, rho_pq: np.ndarray) -> np.ndarray:
        """-dE/drho at the PQ buses."""
        u = np.exp(rho_pq)
        return self.tq + u * (self.d + u @ self.g)


@functools.lru_cache(maxsize=16)
def _hessian_index(n: Network) -> tuple[np.ndarray, int]:
    """Flat positions of hessian's 16 per-line entry groups, in its value
    order, in a (k+1) x (k+1) scratch matrix over the k free variables in
    pack's order; pinned ends go to the dropped last row and column.
    Cached for the most recent networks; callers must not modify it."""
    k = len(n.pq) + len(n.ns)
    pos = np.full((2, n.n_bus), k)  # rho and theta position of each bus
    pos[0, n.pq] = np.arange(len(n.pq))
    pos[1, n.ns] = len(n.pq) + np.arange(len(n.ns))
    (rf, rt), (hf, ht) = pos[:, n.edges.T]
    rows = np.concatenate((rf, rt, rf, rt, rf, hf, rt, hf,
                           rf, ht, rt, ht, hf, ht, hf, ht))
    cols = np.concatenate((rf, rt, rt, rf, hf, rf, hf, rt,
                           ht, rf, ht, rt, hf, ht, ht, hf))
    return rows * (k + 1) + cols, k


def hessian(n: Network, s: PFState) -> SymMatrix:
    """Analytic Hessian over the free variables (rho_pq, theta_ns)."""
    check_state(n, s)
    beff, _, _ = _model(n)
    f, t, te, exy = _edge_terms(n, s)
    e2 = np.exp(2.0 * s.rho)
    w = beff * exy * np.cos(te)
    sv = beff * exy * np.sin(te)
    flat, k = _hessian_index(n)
    vals = np.concatenate((2.0 * beff * e2[f] - w, 2.0 * beff * e2[t] - w,
                           -w, -w, sv, sv, sv, sv, -sv, -sv, -sv, -sv,
                           w, w, -w, -w))
    h = np.bincount(flat, vals, (k + 1) ** 2).reshape(k + 1, k + 1)
    return SymMatrix(h[:k, :k])


@dataclass
class HessianBlocks:
    """Edge-coordinate Hessian blocks of the energy.

    m is the rho-rho block over PQ buses, n_block the rho/edge-phase cross
    block, r the diagonal edge block, theta_edges the per-edge phase
    differences. o (the Schur complement m - n r^-1 n^T) and l (o rescaled
    by e^{-rho} on both sides) exist only when every |theta_edge| < pi/2.
    All PQ-indexed blocks are None on networks without PQ buses.
    """

    m: SymMatrix | None
    n_block: np.ndarray
    r: np.ndarray
    theta_edges: np.ndarray
    o: SymMatrix | None
    l: SymMatrix | None

    def require_schur(self) -> tuple[SymMatrix, SymMatrix]:
        if self.o is None or self.l is None:
            raise SingularReduction(
                "an edge phase reached 90 degrees; o/l blocks unavailable")
        return self.o, self.l


def hessian_blocks(n: Network, s: PFState) -> HessianBlocks:
    check_state(n, s)
    beff, _, _ = _model(n)
    f, t, te, exy = _edge_terms(n, s)
    e2 = np.exp(2.0 * s.rho)
    w = beff * exy * np.cos(te)
    sv = beff * exy * np.sin(te)
    npq = len(n.pq)
    inc = _pq_incidence(n)
    # B_i scales with the susceptances, by exactly 1 when lossless.
    diag = 2.0 * (1.0 + n.lossy_ratio ** 2) * n.b_total * e2
    m_mat = np.diag(diag[n.pq]) - (inc * w) @ inc.T
    n_block = inc * sv

    blocks = HessianBlocks(m=SymMatrix(m_mat) if npq else None,
                           n_block=n_block, r=w.copy(), theta_edges=te.copy(),
                           o=None, l=None)
    if npq == 0:
        return blocks
    if np.all(np.abs(te) < HALF_PI):
        o_mat = m_mat - (n_block / w) @ n_block.T
        d = np.exp(-s.rho[n.pq])
        blocks.o = SymMatrix(o_mat)
        blocks.l = SymMatrix(d[:, None] * o_mat * d[None, :])
    return blocks
