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
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotConstantRatio, SingularReduction, UnsupportedTopology
from .linalg import symmetrize
from .network import Network

HALF_PI = 0.5 * np.pi


@dataclass
class PFState:
    """Per-bus log-voltage and phase, with slack/PV entries pinned to zero.

    check_state, pf_residuals, hessian and convexity.in_domain_C also take
    a stack of states: rho and theta of one shape, with the bus axis last.
    The functions that take one state refuse a stack (check_one_state).
    """

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
    """Raise ValueError unless s, or every state of a stack, fits n: one
    finite entry per bus, pinned entries exactly zero."""
    if s.rho.shape[-1:] != (n.n_bus,) or s.theta.shape != s.rho.shape:
        raise ValueError("state arrays do not match network size")
    # count_nonzero rather than .all() and .any(), whose Python wrappers
    # would double the cost of this check on a region grid's chunks.
    if (np.count_nonzero(np.isfinite(s.rho)) < s.rho.size
            or np.count_nonzero(np.isfinite(s.theta)) < s.theta.size):
        raise ValueError("state has non-finite entries")
    slack = n.slack_index
    if (np.count_nonzero(s.rho.take(n.pv, -1)) or np.count_nonzero(s.rho[..., slack])
            or np.count_nonzero(s.theta[..., slack])):
        raise ValueError("pinned state entries must be exactly zero")


def check_one_state(n: Network, s: PFState) -> None:
    """check_state for the functions that take a single state: a stack is
    refused as a size mismatch."""
    if s.rho.ndim != 1:
        raise ValueError("state arrays do not match network size")
    check_state(n, s)


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
    """Per-line ends, phase differences and e^{rho_f + rho_t}; s may hold a
    leading stack axis. take(., -1) gathers along the bus axis as fast as
    plain indexing does on one state."""
    f, t = n.edges[:, 0], n.edges[:, 1]
    te = s.theta.take(f, -1) - s.theta.take(t, -1)
    exy = np.exp(s.rho.take(f, -1) + s.rho.take(t, -1))
    return f, t, te, exy


def _value(n: Network, s: PFState, beff, tp, tq, f, t, exy, e2, cos_t) -> float:
    """Energy from edge terms, with susceptances beff and targets (tp, tq)."""
    quad = 0.5 * (e2[f] + e2[t]) - exy * cos_t
    return float(np.dot(beff, quad)
                 - np.dot(tp[n.ns], s.theta[n.ns])
                 - np.dot(tq[n.pq], s.rho[n.pq]))


def energy_value(n: Network, s: PFState) -> float:
    """Evaluate the energy function; exactly 0 at the flat start."""
    check_one_state(n, s)
    beff, tp, tq = _model(n)
    f, t, te, exy = _edge_terms(n, s)
    return _value(n, s, beff, tp, tq, f, t, exy, np.exp(2.0 * s.rho), np.cos(te))


def energy_gradient(n: Network, s: PFState) -> EnergyEval:
    """Analytic gradient of the energy (equal to minus the PF residuals),
    with the value taken from the same edge terms."""
    check_one_state(n, s)
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
    returned in the energy's combination (1 + j kappa)(S - S_calc). Over a
    stack of states, both carry its leading axes.
    """
    check_state(n, s)
    _model(n)
    v = np.exp(s.rho + 1j * s.theta)
    f, t = n.edges[:, 0], n.edges[:, 1]
    # Current from bus i into line k is y (V_i - V_j). With the bus axis
    # first, each bus sums its lines in line order whatever the stack.
    cur = np.zeros(v.shape, dtype=complex)
    vf, vt = v.take(f, -1), v.take(t, -1)
    np.add.at(cur.T, f, (n.y * (vf - vt)).T)
    np.add.at(cur.T, t, (n.y * (vt - vf)).T)
    inj = v * np.conj(cur)
    rp = n.p_inj[n.ns] - inj.real.take(n.ns, -1)
    rq = n.q_inj[n.pq] - inj.imag.take(n.pq, -1)
    kappa = n.lossy_ratio
    if kappa:
        # _model admits kappa != 0 only when every non-slack bus is PQ, so
        # rp and rq cover the same buses.
        rp, rq = rp - kappa * rq, rq + kappa * rp
    return rp, rq


@functools.lru_cache(maxsize=16)
def _pq_incidence(n: Network) -> np.ndarray:
    """inc[p, k] = 1 when line k ends at the p-th PQ bus. Cached for the
    most recent networks, since every region grid chunk asks for it;
    callers must not modify it."""
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

    theta may carry a leading stack axis of phase vectors; g, d and the
    argument and result of `residual` then carry it too.
    """

    def __init__(self, n: Network, theta):
        beff, _, tq = _model(n)
        theta = np.asarray(theta, dtype=float)
        if theta.shape[-1:] != (n.n_bus,):
            raise ValueError("theta must give one phase per bus")
        f, t = n.edges[:, 0], n.edges[:, 1]
        c = beff * np.cos(theta.take(f, -1) - theta.take(t, -1))
        inc = _pq_incidence(n)
        weighted = inc * c[..., None, :]
        self.g = weighted @ inc.T
        # Every (flattened) (npq + 1)-th entry of each matrix: its diagonal.
        self.g.reshape(*self.g.shape[:-2], -1)[..., ::len(n.pq) + 1] = -(inc @ beff)
        to_fixed = (n.pq_index_of[f] < 0) | (n.pq_index_of[t] < 0)
        self.d = weighted @ to_fixed
        self.tq = tq[n.pq]

    def residual(self, rho_pq: np.ndarray) -> np.ndarray:
        """-dE/drho at the PQ buses."""
        u = np.exp(rho_pq)
        return self.tq + u * (self.d + (u[..., None, :] @ self.g)[..., 0, :])


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


def hessian(n: Network, s: PFState) -> np.ndarray:
    """Analytic Hessian over the free variables (rho_pq, theta_ns),
    symmetrized; over a stack of states, one Hessian per state."""
    check_state(n, s)
    beff, _, _ = _model(n)
    f, t, te, exy = _edge_terms(n, s)
    e2 = np.exp(2.0 * s.rho)
    w = beff * exy * np.cos(te)
    sv = beff * exy * np.sin(te)
    flat, k = _hessian_index(n)
    vals = np.concatenate((2.0 * beff * e2.take(f, -1) - w,
                           2.0 * beff * e2.take(t, -1) - w,
                           -w, -w, sv, sv, sv, sv, -sv, -sv, -sv, -sv,
                           w, w, -w, -w), axis=-1)
    # One bincount over the whole stack: matrix i takes bins i*size up to
    # (i+1)*size, filled in hessian's value order.
    lead, size = vals.shape[:-1], (k + 1) ** 2
    count = math.prod(lead)
    if lead:
        flat = (flat + size * np.arange(count)[:, None]).ravel()
    # bincount gives integers for an empty stack; the dtype keeps it float.
    h = np.bincount(flat, vals.ravel(), size * count).astype(float, copy=False)
    return symmetrize(h.reshape(lead + (k + 1, k + 1))[..., :k, :k])


@dataclass
class HessianBlocks:
    """Edge-coordinate Hessian blocks of the energy.

    m is the rho-rho block over PQ buses, n_block the rho/edge-phase cross
    block, r the diagonal edge block, theta_edges the per-edge phase
    differences. o (the Schur complement m - n r^-1 n^T) and l (o rescaled
    by e^{-rho} on both sides) exist only when every |theta_edge| < pi/2.
    m, o and l are symmetrized. All PQ-indexed blocks are None on networks
    without PQ buses.
    """

    m: np.ndarray | None
    n_block: np.ndarray
    r: np.ndarray
    theta_edges: np.ndarray
    o: np.ndarray | None
    l: np.ndarray | None

    def require_schur(self) -> tuple[np.ndarray, np.ndarray]:
        if self.o is None or self.l is None:
            raise SingularReduction(
                "an edge phase reached 90 degrees; o/l blocks unavailable")
        return self.o, self.l


def hessian_blocks(n: Network, s: PFState) -> HessianBlocks:
    check_one_state(n, s)
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

    blocks = HessianBlocks(m=symmetrize(m_mat) if npq else None,
                           n_block=n_block, r=w.copy(), theta_edges=te.copy(),
                           o=None, l=None)
    if npq == 0:
        return blocks
    if np.all(np.abs(te) < HALF_PI):
        o_mat = m_mat - (n_block / w) @ n_block.T
        d = np.exp(-s.rho[n.pq])
        blocks.o = symmetrize(o_mat)
        blocks.l = symmetrize(d[:, None] * o_mat * d[None, :])
    return blocks
