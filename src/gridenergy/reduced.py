"""Reduced energy function and reactive solves in squared-voltage coordinates.

With phases held fixed, the reactive balances become tractable: in
zeta = V^2 coordinates the feasible set

    B_i zeta_i - sum_j B_ij sqrt(zeta_i zeta_j) cos(theta_ij) + q_i <= 0

(q_i the positive reactive consumption) is convex, and maximizing any
positive combination of the zeta lands on a reactive solution with every
constraint tight. The reduced energy is the full energy evaluated at the
reactive solution for the given phases.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import energy as en
from .convexity import in_domain_C
from .energy import HALF_PI, PFState
from .errors import NoReactiveSolution, PhaseOutOfRange, UnsupportedSign
from .linalg import fd_hessian
from .network import Network

_REACTIVE_TOL = 1e-10


@dataclass
class ReducedState:
    zeta: np.ndarray  # squared voltages at PQ buses
    theta: np.ndarray  # per-bus phases, slack pinned to zero
    constraint_slack: np.ndarray  # reactive constraint values at zeta (0 when tight)

    def voltages(self) -> np.ndarray:
        return np.sqrt(self.zeta)


@dataclass(frozen=True)
class NormalizedNetwork:
    """Susceptance-normalized quantities used by the convexity-budget check."""

    m_matrix: np.ndarray  # m[i, j] = B_ij / B_i  (rows sum to 1 over neighbors)
    m_pq: np.ndarray
    m_pv: np.ndarray
    q_tilde: np.ndarray  # reactive consumption / B_i at PQ buses


@dataclass(frozen=True)
class VoltageBound:
    v_bar: np.ndarray  # per-PQ-bus upper bound on the voltage magnitude


@dataclass(frozen=True)
class BetaCondition:
    beta_min: float | None  # None when no beta in (0,1) works
    angle_budget_deg: float


def normalized(n: Network) -> NormalizedNetwork:
    m = np.zeros((n.n_bus, n.n_bus))
    for k, (f, t) in enumerate(n.edges):
        m[f, t] += n.b[k]
        m[t, f] += n.b[k]
    m /= n.b_total[:, None]
    return NormalizedNetwork(m_matrix=m,
                             m_pq=m[np.ix_(n.pq, n.pq)],
                             m_pv=m[np.ix_(n.pq, n.pv)] if len(n.pv) else
                             np.zeros((len(n.pq), 0)),
                             q_tilde=-n.q_inj[n.pq] / n.b_total[n.pq])


def _check_theta(n: Network, theta, strict_cos: bool = True) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (n.n_bus,):
        raise ValueError("theta must give one phase per bus")
    if theta[n.slack_index] != 0.0:
        raise ValueError("slack phase must be zero")
    te = theta[n.edges[:, 0]] - theta[n.edges[:, 1]]
    if strict_cos and np.any(np.abs(te) >= HALF_PI):
        raise PhaseOutOfRange("phases must keep every line below 90 degrees")
    return theta


def solve_reactive_newton(n: Network, theta) -> np.ndarray:
    """Newton on the reactive balances in rho with phases fixed.

    From the flat start this lands on the dominant (high-voltage) solution
    branch. Returns rho at the PQ buses; residual infinity norm <= 1e-10.
    """
    theta = _check_theta(n, theta)
    return _reactive_newton(n, theta, np.zeros(len(n.pq)))


def _reactive_newton(n: Network, theta, rho0_pq) -> np.ndarray:
    npq = len(n.pq)
    rho = np.zeros(n.n_bus)
    rho[n.pq] = rho0_pq
    s = PFState(rho, theta.copy())
    _, rq = en.pf_residuals(n, s)
    for _ in range(60):
        if np.linalg.norm(rq, np.inf) <= _REACTIVE_TOL:
            return s.rho[n.pq].copy()
        blocks = en.hessian_blocks(n, s)
        m = blocks.m.entries
        try:
            step = np.linalg.solve(m, rq)
        except np.linalg.LinAlgError:
            raise NoReactiveSolution("reactive Jacobian is singular")
        merit = float(rq @ rq)
        alpha, ok = 1.0, False
        while alpha >= 1e-12:
            sn = PFState(s.rho.copy(), s.theta)
            sn.rho[n.pq] += alpha * step
            if np.max(np.abs(sn.rho)) > 20.0:  # e^20 p.u. is already absurd
                alpha *= 0.5
                continue
            _, rqn = en.pf_residuals(n, sn)
            if float(rqn @ rqn) <= (1.0 - 1e-4 * alpha) * merit:
                s, rq, ok = sn, rqn, True
                break
            alpha *= 0.5
        if not ok:
            break
    if np.linalg.norm(rq, np.inf) <= _REACTIVE_TOL:
        return s.rho[n.pq].copy()
    raise NoReactiveSolution("reactive Newton iteration did not converge")


def reduced_energy(n: Network, theta) -> float:
    """Energy evaluated at the dominant reactive solution for the phases."""
    theta = _check_theta(n, theta)
    rho_pq = solve_reactive_newton(n, theta)
    s = PFState(np.zeros(n.n_bus), theta.copy())
    s.rho[n.pq] = rho_pq
    return en.energy_value(n, s)


# ---------------------------------------------------------------------------
# zeta-space convex programs

class _ZetaProgram:
    """Constraint set B_i z_i - sum B_ij sqrt(z_i z_j) c_ij + q_i <= 0 over
    PQ-bus zetas, with fixed-voltage buses pinned at v^2."""

    def __init__(self, n: Network, cos_line: np.ndarray, q_cons: np.ndarray):
        self.n = n
        self.cos_line = cos_line
        self.q = q_cons
        self.npq = len(n.pq)
        self.zeta_full = np.square(n.v_set)
        self.pin_mask = np.ones(n.n_bus, dtype=bool)
        self.pin_mask[n.pq] = False

    def full(self, z):
        zf = self.zeta_full.copy()
        zf[self.n.pq] = z
        return zf

    def constraints(self, z) -> np.ndarray:
        n = self.n
        zf = self.full(z)
        root = np.sqrt(zf)
        g = n.b_total[n.pq] * z + self.q
        f, t = n.edges[:, 0], n.edges[:, 1]
        cross = n.b * self.cos_line * root[f] * root[t]
        acc = np.zeros(n.n_bus)
        np.add.at(acc, f, cross)
        np.add.at(acc, t, cross)
        return g - acc[n.pq]

    def jacobian(self, z) -> np.ndarray:
        n = self.n
        zf = self.full(z)
        root = np.sqrt(zf)
        pq_of = n.pq_index_of
        jac = np.zeros((self.npq, self.npq))
        jac[np.arange(self.npq), np.arange(self.npq)] = n.b_total[n.pq]
        for k, (f, t) in enumerate(n.edges):
            w = n.b[k] * self.cos_line[k]
            pf_, pt_ = pq_of[f], pq_of[t]
            if pf_ >= 0:
                jac[pf_, pf_] -= 0.5 * w * root[t] / root[f]
                if pt_ >= 0:
                    jac[pf_, pt_] -= 0.5 * w * root[f] / root[t]
            if pt_ >= 0:
                jac[pt_, pt_] -= 0.5 * w * root[f] / root[t]
                if pf_ >= 0:
                    jac[pt_, pf_] -= 0.5 * w * root[t] / root[f]
        return jac

    def constraint_hessian(self, z, i) -> np.ndarray:
        """Hessian of constraint i (only lines at bus i contribute)."""
        n = self.n
        zf = self.full(z)
        root = np.sqrt(zf)
        pq_of = n.pq_index_of
        pos_i = n.pq[i]
        h = np.zeros((self.npq, self.npq))
        for k, (f, t) in enumerate(n.edges):
            if f != pos_i and t != pos_i:
                continue
            other = t if f == pos_i else f
            w = n.b[k] * self.cos_line[k]
            pi, po = pq_of[pos_i], pq_of[other]
            h[pi, pi] += 0.25 * w * root[other] / (zf[pos_i] * root[pos_i])
            if po >= 0:
                h[po, po] += 0.25 * w * root[pos_i] / (zf[other] * root[other])
                cross = -0.25 * w / (root[pos_i] * root[other])
                h[pi, po] += cross
                h[po, pi] += cross
        return h

    # -- interior point hunting ------------------------------------------

    def interior_point(self, theta=None) -> np.ndarray | None:
        n = self.n
        # Dominant reactive solution, nudged inward through the Jacobian.
        if theta is not None:
            try:
                rho = _reactive_newton(n, theta, np.zeros(self.npq))
                z_star = np.exp(2.0 * rho)
                jac = self.jacobian(z_star)
                for eps in (1e-3, 1e-4, 1e-5):
                    margin = eps * (1.0 + float(np.max(self.q, initial=0.0)))
                    try:
                        dz = np.linalg.solve(jac, -margin * np.ones(self.npq))
                    except np.linalg.LinAlgError:
                        break
                    cand = z_star + dz
                    if np.all(cand > 0) and np.all(
                            self.constraints(cand) < -0.25 * margin):
                        return cand
            except NoReactiveSolution:
                pass
        # Uniformly sagged voltage profiles as a fallback.
        for y in np.linspace(0.999, 0.02, 400):
            cand = np.full(self.npq, y * y)
            g = self.constraints(cand)
            if np.max(g) < -1e-9 * (1.0 + float(np.max(np.abs(g)))):
                return cand
        return None

    # -- barrier maximization of c^T zeta --------------------------------

    def maximize(self, c: np.ndarray, z0: np.ndarray) -> np.ndarray:
        z = z0.copy()
        mu = 1.0 * float(np.max(c))
        scale = 1.0 + float(np.max(self.q, initial=0.0)) + float(np.max(c))
        while mu > 1e-9 * scale:
            z = self._center(c, z, mu)
            mu *= 0.2
        return self._polish(z)

    def _center(self, c, z, mu):
        for _ in range(60):
            g = self.constraints(z)
            slack = -g
            if np.any(slack <= 0):
                raise NoReactiveSolution("barrier iterate left the feasible set")
            jac = self.jacobian(z)
            grad = -c + mu * (jac.T @ (1.0 / slack))
            if np.linalg.norm(grad, np.inf) <= max(mu * 1e-3, 1e-12):
                break
            h = mu * (jac.T @ ((1.0 / slack**2)[:, None] * jac))
            for i in range(self.npq):
                h += (mu / slack[i]) * self.constraint_hessian(z, i)
            try:
                step = np.linalg.solve(h + 1e-12 * np.eye(self.npq), -grad)
            except np.linalg.LinAlgError:
                break
            f0 = -float(c @ z) - mu * float(np.sum(np.log(slack)))
            slope = float(grad @ step)
            alpha, ok = 1.0, False
            while alpha >= 1e-14:
                zn = z + alpha * step
                if np.all(zn > 0):
                    gn = self.constraints(zn)
                    if np.all(gn < 0):
                        fn = -float(c @ zn) - mu * float(np.sum(np.log(-gn)))
                        if fn <= f0 + 1e-4 * alpha * slope:
                            z, ok = zn, True
                            break
                alpha *= 0.5
            if not ok:
                break
        return z

    def _polish(self, z):
        """Newton on the all-tight system; the optimum satisfies every
        constraint with equality."""
        target = 1e-11 * (1.0 + float(np.max(self.n.b_total)))
        for _ in range(50):
            g = self.constraints(z)
            if np.linalg.norm(g, np.inf) <= target:
                return z
            try:
                step = np.linalg.solve(self.jacobian(z), -g)
            except np.linalg.LinAlgError:
                break
            merit = float(g @ g)
            alpha, ok = 1.0, False
            while alpha >= 1e-12:
                zn = z + alpha * step
                if np.all(zn > 0):
                    gn = self.constraints(zn)
                    if float(gn @ gn) <= (1.0 - 1e-4 * alpha) * merit:
                        z, ok = zn, True
                        break
                alpha *= 0.5
            if not ok:
                break
        if np.linalg.norm(self.constraints(z), np.inf) <= 1e-8:
            return z
        raise NoReactiveSolution("could not drive the constraints tight")


def _consumptions(n: Network) -> np.ndarray:
    q = -n.q_inj[n.pq]
    if np.any(q < 0):
        bad = [n.buses[p].id for p in n.pq[q < 0]]
        raise UnsupportedSign(f"PQ buses must consume reactive power; got "
                              f"injection at buses {bad}")
    return q


def convex_reactive_solve(n: Network, theta, c=None) -> ReducedState:
    """Reactive solution by maximizing a positive combination of squared
    voltages over the convex constraint set.

    Every constraint is tight at the optimum, so the result solves the
    reactive balances for the given phases; the voltages are sqrt(zeta).
    """
    theta = _check_theta(n, theta)
    q = _consumptions(n)
    npq = len(n.pq)
    if c is None:
        c = np.ones(npq)
    c = np.asarray(c, dtype=float)
    if c.shape != (npq,) or np.any(c <= 0):
        raise ValueError("weights must be positive, one per PQ bus")
    f, t = n.edges[:, 0], n.edges[:, 1]
    prog = _ZetaProgram(n, np.cos(theta[f] - theta[t]), q)
    z0 = prog.interior_point(theta)
    if z0 is None:
        raise NoReactiveSolution("no strictly feasible voltage profile found")
    z = prog.maximize(c, z0)
    return ReducedState(zeta=z, theta=theta.copy(),
                        constraint_slack=prog.constraints(z))


def voltage_upper_bound(n: Network) -> VoltageBound:
    """Per-bus voltage caps from the phase-free relaxation (cosines at 1).

    For each PQ bus the squared voltage is maximized subject to the relaxed
    constraint set; the caps dominate every reactive solution at any
    feasible phases.
    """
    q = _consumptions(n)
    npq = len(n.pq)
    prog = _ZetaProgram(n, np.ones(len(n.lines)), q)
    # The relaxed set coincides with the reactive system at zero phases.
    z0 = prog.interior_point(np.zeros(n.n_bus))
    if z0 is None:
        raise NoReactiveSolution("relaxed constraint set has no interior")
    v_bar = np.zeros(npq)
    for i in range(npq):
        c = np.full(npq, 1e-6)
        c[i] = 1.0
        z = prog.maximize(c, z0)
        v_bar[i] = math.sqrt(z[i])
    return VoltageBound(v_bar=v_bar)


def beta_condition(n: Network) -> BetaCondition:
    """Smallest curvature parameter whose phase budget keeps the reduced
    energy convex, and that budget in degrees.

    Per bus the requirement rearranges to beta >= (r - 1)/(r + 1) with
    r = v_bar^2 / q_tilde; the budget is arccos(sqrt(beta)).
    """
    norm = normalized(n)
    if np.any(norm.q_tilde <= 0):
        raise UnsupportedSign("normalized consumption must be positive")
    v_bar = voltage_upper_bound(n).v_bar
    r = np.square(v_bar) / norm.q_tilde
    beta_needed = (r - 1.0) / (r + 1.0)
    beta_min = max(0.0, float(np.max(beta_needed)))
    if beta_min >= 1.0:
        return BetaCondition(beta_min=None, angle_budget_deg=0.0)
    return BetaCondition(beta_min=beta_min,
                         angle_budget_deg=math.degrees(math.acos(math.sqrt(beta_min))))


# ---------------------------------------------------------------------------
# region-of-convexity grid

@dataclass(frozen=True)
class RegionCell:
    ia: int
    ib: int
    theta_a: float
    theta_b: float
    solvable: bool
    in_c: bool | None
    reduced_min_eig: float | None


def region_grid(n: Network, theta_min: float = -math.pi / 3.0,
                theta_max: float = math.pi / 3.0,
                step_deg: float = 2.0,
                fd_step: float = 1e-4) -> list[RegionCell]:
    """Scan a two-dimensional phase grid, solving the reactive equations at
    each point and recording domain membership next to the numerically
    differentiated reduced-energy Hessian.

    Needs exactly two non-slack buses so the grid covers all free phases.
    """
    if len(n.ns) != 2:
        raise ValueError("region grid needs exactly two non-slack buses")
    step = math.radians(step_deg)
    count = int(round((theta_max - theta_min) / step)) + 1
    axis = theta_min + step * np.arange(count)
    a_pos, b_pos = int(n.ns[0]), int(n.ns[1])
    npq = len(n.pq)

    def theta_for(ta, tb):
        th = np.zeros(n.n_bus)
        th[a_pos] = ta
        th[b_pos] = tb
        return th

    def solve_cell(th, warm):
        te = th[n.edges[:, 0]] - th[n.edges[:, 1]]
        if np.any(np.abs(te) >= HALF_PI):
            return None
        try:
            return _reactive_newton(n, th, warm)
        except NoReactiveSolution:
            return None

    cells = []
    warm_row = None
    for ia, ta in enumerate(axis):
        warm = warm_row
        warm_row = None
        for ib, tb in enumerate(axis):
            th = theta_for(ta, tb)
            rho_pq = solve_cell(th, warm if warm is not None else np.zeros(npq))
            if rho_pq is None:
                cells.append(RegionCell(ia, ib, ta, tb, False, None, None))
                warm = None
                continue
            warm = rho_pq
            if ib == 0:
                warm_row = rho_pq
            s = PFState(np.zeros(n.n_bus), th)
            s.rho[n.pq] = rho_pq
            cert = in_domain_C(n, s)

            def e_tilde(v, _warm=rho_pq):
                r = solve_cell(theta_for(v[0], v[1]), _warm)
                if r is None:
                    raise NoReactiveSolution("stencil point unsolvable")
                st = PFState(np.zeros(n.n_bus), theta_for(v[0], v[1]))
                st.rho[n.pq] = r
                return en.energy_value(n, st)

            try:
                hess = fd_hessian(e_tilde, np.array([ta, tb]), step=fd_step)
                tr, det = hess[0, 0] + hess[1, 1], np.linalg.det(hess)
                disc = max(0.25 * tr * tr - det, 0.0)
                min_eig = 0.5 * tr - math.sqrt(disc)
            except NoReactiveSolution:
                min_eig = None
            cells.append(RegionCell(ia, ib, ta, tb, True, cert.in_c,
                                    None if min_eig is None else float(min_eig)))
    return cells


def region_agreement(cells: list[RegionCell], eig_tol: float = 1e-6
                     ) -> tuple[int, int]:
    """Count (agreeing, comparable) solvable cells outside a one-step band
    around classification boundaries and unsolvable patches."""
    by_idx = {(c.ia, c.ib): c for c in cells}

    def status(c):
        if not c.solvable or c.reduced_min_eig is None or c.in_c is None:
            return None
        scale = 1.0 + abs(c.reduced_min_eig)
        return (c.in_c, c.reduced_min_eig >= -eig_tol * scale)

    agree = comparable = 0
    for c in cells:
        st = status(c)
        if st is None:
            continue
        on_band = False
        for da in (-1, 0, 1):
            for db in (-1, 0, 1):
                nb = by_idx.get((c.ia + da, c.ib + db))
                if nb is None:
                    continue
                st_nb = status(nb)
                if st_nb is None or st_nb[0] != st[0] or st_nb[1] != st[1]:
                    on_band = True
        if on_band:
            continue
        comparable += 1
        if st[0] == st[1]:
            agree += 1
    return agree, comparable
