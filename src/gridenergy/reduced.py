"""Reduced energy function and reactive solves in squared-voltage coordinates.

With phases held fixed, the reactive balances become tractable: in
zeta = V^2 coordinates the feasible set

    B_i zeta_i - sum_j B_ij sqrt(zeta_i zeta_j) cos(theta_ij) + q_i <= 0

(q_i the positive reactive consumption) is convex, and maximizing any
positive combination of the zeta lands on a reactive solution with every
constraint tight: the set's greatest element, which a monotone Newton
iteration also reaches directly. The reduced energy is the full energy
evaluated at that reactive solution for the given phases.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import energy as en
from .convexity import in_domain_C
from .energy import HALF_PI, PFState
from .errors import (NoReactiveSolution, PhaseOutOfRange, SingularReduction,
                     UnsupportedSign, UnsupportedTopology)
# Unused here; the benchmark's span tracer pins reduced.fd_hessian as an alias.
from .linalg import fd_hessian  # noqa: F401
from .network import Network
from .solver import barrier_path, damped_newton

_REACTIVE_TOL = 1e-10
# Relative size of a monotone Newton step that ends the iteration; a step
# that raises a voltage by more is an error.
_STEP_TOL = 1e-9
# Relative eigenvalue tolerance of region_agreement's reduced-Hessian test.
_EIG_TOL = 1e-6


@dataclass
class ReducedState:
    zeta: np.ndarray  # squared voltages at PQ buses
    theta: np.ndarray  # per-bus phases, slack pinned to zero
    constraint_slack: np.ndarray  # reactive constraint values at zeta (0 when tight)

    def voltages(self) -> np.ndarray:
        return np.sqrt(self.zeta)


@dataclass(frozen=True)
class VoltageBound:
    v_bar: np.ndarray  # per-PQ-bus upper bound on the voltage magnitude


@dataclass(frozen=True)
class BetaCondition:
    beta_min: float | None  # None when no beta in (0,1) works
    angle_budget_deg: float


def _check_theta(n: Network, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (n.n_bus,) or not np.all(np.isfinite(theta)):
        raise ValueError("theta must give one finite phase per bus")
    if theta[n.slack_index] != 0.0:
        raise ValueError("slack phase must be zero")
    te = theta[n.edges[:, 0]] - theta[n.edges[:, 1]]
    if np.any(np.abs(te) >= HALF_PI):
        raise PhaseOutOfRange("phases must keep every line below 90 degrees")
    return theta


def _greatest_u(n: Network, fp: en.FixedPhase, q: np.ndarray) -> np.ndarray:
    """Greatest u > 0 with B_i u_i^2 - r_i u_i + q_i = 0 at every PQ bus,
    r = d + C u, by monotone Newton from a cap.

    B = -diag(g) is each PQ bus's susceptance sum, C >= 0 the PQ-PQ line
    weights, d the weights to fixed buses and q the consumption. Row i's
    largest root is T_i(u) = (r_i + sqrt(r_i^2 - 4 B_i q_i)) / (2 B_i), and
    Newton runs on u - T(u) from u0 = (-g)^-1 (d + sqrt(B q-)), q- =
    max(-q, 0). As T_i(u) <= (r_i + sqrt(B_i q-_i)) / B_i and -g is a
    nonsingular M-matrix with a nonnegative inverse, u0 lies above every
    solution. When every q >= 0, T is concave and isotone, so the iterates
    decrease to the greatest solution (Ortega & Rheinboldt 1970, ch. 13);
    there a discriminant <= 0 proves that none exists, and a step that
    raises a voltage ends the search. With injecting buses T is not
    concave and the same iteration is a heuristic.
    """
    b = -np.diag(fp.g)
    c = fp.g + np.diag(b)
    half_inv_b, four_bq = 0.5 / b, 4.0 * b * q
    eye = np.eye(len(b))
    monotone = bool((q >= 0.0).all())
    try:
        u = np.linalg.solve(-fp.g, fp.d + np.sqrt(b * np.maximum(-q, 0.0)))
        for _ in range(60):
            r = fp.d + c @ u
            disc = r * r - four_bq
            if not (disc > 0.0).all():
                bad = n.buses[n.pq[np.argmin(disc)]].id
                raise NoReactiveSolution(
                    f"reactive balance at bus {bad} has no real root")
            root = np.sqrt(disc)
            jac = eye - ((1.0 + r / root) * half_inv_b)[:, None] * c
            step = np.linalg.solve(jac, u - (r + root) * half_inv_b)
            if monotone and (step < -_STEP_TOL * u).any():
                raise NoReactiveSolution("monotone reactive Newton step "
                                         "raised a voltage")
            u = u - step
            if (abs(step) <= _STEP_TOL * u).all():
                break
    except np.linalg.LinAlgError:
        raise NoReactiveSolution("reactive Jacobian is singular")
    if not (u > 0.0).all():
        raise NoReactiveSolution("reactive Newton reached a non-positive voltage")
    return u


def solve_reactive_newton(n: Network, theta) -> np.ndarray:
    """Dominant (greatest, high-voltage) solution of the reactive balances
    with phases fixed, by monotone Newton from the voltage cap.

    Returns rho at the PQ buses; its residual infinity norm is <= 1e-10
    both in FixedPhase and in the phasor residuals of pf_residuals.
    """
    theta = _check_theta(n, theta)
    fp = en.FixedPhase(n, theta)
    rho = np.log(_greatest_u(n, fp, -fp.tq))
    if np.abs(fp.residual(rho)).max(initial=0.0) <= _REACTIVE_TOL:
        s = PFState(np.zeros(n.n_bus), theta.copy())
        s.rho[n.pq] = rho
        _, rq = en.pf_residuals(n, s)
        if np.abs(rq).max(initial=0.0) <= _REACTIVE_TOL:
            return rho
    raise NoReactiveSolution("reactive Newton iteration did not converge")


def reduced_energy(n: Network, theta) -> float:
    """Energy evaluated at the dominant reactive solution for the phases."""
    theta = _check_theta(n, theta)
    s = PFState(np.zeros(n.n_bus), theta.copy())
    s.rho[n.pq] = solve_reactive_newton(n, theta)
    return en.energy_value(n, s)


# ---------------------------------------------------------------------------
# zeta-space convex programs

class _ZetaProgram:
    """The fixed-phase reactive set over the PQ buses' squared voltages.

    With u = sqrt(zeta), constraint i is minus FixedPhase's reactive
    residual, g(zeta) = -(tq + u (d + G u)) <= 0, that is

        B_i zeta_i - sum_j c_ij sqrt(zeta_i zeta_j) + q_i <= 0

    with line weights c_ij = b_eff cos(theta_ij), fixed buses at zeta = 1
    and q = -tq the consumption of the energy's constant-ratio model. As
    barrier_path's problem it maximizes self.c^T zeta over the set, for
    positive per-bus weights (all ones by default).
    """

    def __init__(self, n: Network, theta, c=None):
        if len(n.pq) == 0:
            raise UnsupportedTopology("the reactive program needs a PQ bus")
        if np.any(np.delete(n.v_set, n.pq) != 1.0):
            raise UnsupportedTopology("the reactive program needs slack/PV "
                                      "set-points of 1 (see absorb_setpoints)")
        self.n = n
        self.fp = en.FixedPhase(n, theta)
        self.q = -self.fp.tq
        if np.any(self.q < 0):
            bad = [n.buses[p].id for p in n.pq[self.q < 0]]
            raise UnsupportedSign(f"PQ buses must consume reactive power; got "
                                  f"injection at buses {bad}")
        self.c = np.ones(len(n.pq)) if c is None else np.asarray(c, dtype=float)
        if self.c.shape != (len(n.pq),) or np.any(self.c <= 0):
            raise ValueError("weights must be positive, one per PQ bus")

    def constraints(self, z) -> np.ndarray:
        return -self.fp.residual(0.5 * np.log(z))

    def jacobian(self, z) -> np.ndarray:
        """-(diag(d + G u) + diag(u) G) diag(1 / (2u)), the first factor
        being the u-Jacobian of the residual."""
        u = np.sqrt(z)
        a = u[:, None] * self.fp.g
        a.flat[::len(u) + 1] += self.fp.d + self.fp.g @ u
        return a / (-2.0 * u)

    def interior_point(self) -> np.ndarray:
        """The greatest element at consumption q + margin: every constraint
        holds there with slack margin."""
        for eps in (1e-3, 1e-4, 1e-5):
            margin = eps * (1.0 + float(np.max(self.q)))
            try:
                u = _greatest_u(self.n, self.fp, self.q + margin)
            except NoReactiveSolution:
                continue
            z = u * u
            if np.all(self.constraints(z) < -0.5 * margin):
                return z
        raise NoReactiveSolution("no strictly feasible voltage profile found")

    def trial(self, z):
        """(-c^T zeta, -sum log(-g)); the barrier is +inf outside the set."""
        g = self.constraints(z) if (z > 0.0).all() else None
        if g is None or not (g < 0.0).all():
            return math.inf, math.inf
        return -float(self.c @ z), -float(np.sum(np.log(-g)))

    def derivs(self, z):
        """-c^T zeta, -c, zero curvature, and the barrier's gradient J^T w
        and Hessian with w = 1 / slack.

        The Hessian is J^T diag(w^2) J plus sum_i w_i d2g_i/dzeta2. With A
        the u-Jacobian of g, the latter has the entries -(w_i + w_j) G_ij /
        (4 u_i u_j) and, on the diagonal, also -(w^T A)_j / (4 u_j^3) =
        -(w^T J)_j / (2 zeta_j).
        """
        w = -1.0 / self.constraints(z)
        jac = self.jacobian(z)
        grad = jac.T @ w
        u = np.sqrt(z)
        h = ((jac.T * (w * w)) @ jac
             - np.add.outer(w, w) * self.fp.g / (4.0 * np.outer(u, u)))
        h.flat[::len(z) + 1] -= grad / (2.0 * z)
        return -float(self.c @ z), -self.c, np.zeros_like(h), grad, h


def convex_reactive_solve(n: Network, theta, c=None) -> ReducedState:
    """Reactive solution by maximizing a positive combination of squared
    voltages over the convex constraint set.

    Every constraint is tight at the optimum, so the result solves the
    reactive balances for the given phases; the voltages are sqrt(zeta).
    """
    theta = _check_theta(n, theta)
    prog = _ZetaProgram(n, theta, c)
    cmax = float(np.max(prog.c))
    z, _, _ = barrier_path(prog, prog.interior_point(), cmax,
                           1e-9 * (1.0 + float(np.max(prog.q)) + cmax),
                           _REACTIVE_TOL)

    def direction(z, g):
        try:
            return np.linalg.solve(prog.jacobian(z), -g)
        except np.linalg.LinAlgError:
            return None

    # The target is working precision, not the barrier's last slack.
    z, g, _ = damped_newton(prog.constraints, direction, z,
                            1e-14 * (1.0 + float(np.max(n.b_total))),
                            lambda z: (z > 0.0).all())
    if not np.linalg.norm(g, np.inf) <= 1e-8:
        raise NoReactiveSolution("could not drive the constraints tight")
    return ReducedState(zeta=z, theta=theta.copy(), constraint_slack=g)


def voltage_upper_bound(n: Network) -> VoltageBound:
    """Per-bus voltage caps from the phase-free relaxation (cosines at 1).

    Below 90 degrees every line weight b cos(theta_ij) is at most b, so the
    relaxed set contains the reactive set at any feasible phases. All its
    weights c_ij are >= 0, and in u = sqrt(zeta) constraint i reads

        B_i u_i + q_i / u_i <= d_i + sum_j c_ij u_j,

    whose left side depends on u_i alone and whose right side does not
    decrease in any u_j. So the componentwise maximum of two feasible points
    is feasible, and the compact set has a greatest element: the join of
    the per-coordinate maximizers. Every constraint is tight there, so it
    is the greatest solution of the reactive balances, which the monotone
    Newton of solve_reactive_newton computes.
    """
    # The relaxed set is the reactive set at zero phases; the zeta
    # program's checks reject networks it does not model.
    theta = np.zeros(n.n_bus)
    _ZetaProgram(n, theta)
    return VoltageBound(v_bar=np.exp(solve_reactive_newton(n, theta)))


def beta_condition(n: Network) -> BetaCondition:
    """Smallest curvature parameter whose phase budget keeps the reduced
    energy convex, and that budget in degrees.

    Per bus the requirement rearranges to beta >= (r - 1)/(r + 1) with
    r = v_bar^2 / q_tilde, q_tilde = -q_i / B_i; the budget is
    arccos(sqrt(beta)). B and q are the energy's, (1 + kappa^2) b and
    Q + kappa P on lossy networks, as for the caps v_bar.
    """
    fp = en.FixedPhase(n, np.zeros(n.n_bus))
    q_tilde = fp.tq / np.diag(fp.g)  # diag(g) = -B at the PQ buses
    if np.any(q_tilde <= 0):
        raise UnsupportedSign("normalized consumption must be positive")
    v_bar = voltage_upper_bound(n).v_bar
    r = np.square(v_bar) / q_tilde
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


def reduced_hessian(n: Network, s: PFState) -> np.ndarray:
    """Hessian of the reduced energy over the non-slack phases at a
    reactive solution s.

    There dE/drho = 0, so by the envelope theorem the reduced Hessian is
    the Schur complement H_tt - H_tr H_rr^-1 H_rt of the full Hessian.
    Raises SingularReduction when H_rr is singular.
    """
    h = en.hessian(n, s).entries
    npq = len(n.pq)
    h_rt = h[:npq, npq:]
    try:
        return h[npq:, npq:] - h_rt.T @ np.linalg.solve(h[:npq, :npq], h_rt)
    except np.linalg.LinAlgError:
        raise SingularReduction("rho-rho Hessian block is singular")


def region_grid(n: Network, theta_min: float = -math.pi / 3.0,
                theta_max: float = math.pi / 3.0,
                step_deg: float = 2.0) -> list[RegionCell]:
    """Scan a two-dimensional phase grid, solving the reactive equations at
    each point and recording domain membership next to the smallest
    eigenvalue of the reduced-energy Hessian.

    Needs exactly two non-slack buses so the grid covers all free phases.
    """
    if len(n.ns) != 2:
        raise ValueError("region grid needs exactly two non-slack buses")
    if not (math.isfinite(step_deg) and step_deg > 0.0):
        raise ValueError(f"grid step must be positive and finite, got {step_deg}")
    step = math.radians(step_deg)
    count = int(round((theta_max - theta_min) / step)) + 1
    axis = theta_min + step * np.arange(count)
    a_pos, b_pos = int(n.ns[0]), int(n.ns[1])

    cells = []
    for ia, ta in enumerate(axis):
        for ib, tb in enumerate(axis):
            th = np.zeros(n.n_bus)
            th[a_pos] = ta
            th[b_pos] = tb
            try:
                rho_pq = solve_reactive_newton(n, th)
            except (PhaseOutOfRange, NoReactiveSolution):
                cells.append(RegionCell(ia, ib, ta, tb, False, None, None))
                continue
            s = PFState(np.zeros(n.n_bus), th)
            s.rho[n.pq] = rho_pq
            cert = in_domain_C(n, s)
            try:
                hess = reduced_hessian(n, s)
                tr, det = hess[0, 0] + hess[1, 1], np.linalg.det(hess)
                disc = max(0.25 * tr * tr - det, 0.0)
                min_eig = float(0.5 * tr - math.sqrt(disc))
            except SingularReduction:
                min_eig = None
            cells.append(RegionCell(ia, ib, ta, tb, True, cert.in_c, min_eig))
    return cells


def region_agreement(cells: list[RegionCell]) -> tuple[int, int]:
    """Count (agreeing, comparable) solvable cells outside a one-step band
    around classification boundaries and unsolvable patches. A cell's
    reduced Hessian counts as PSD down to -_EIG_TOL (1 + |min eig|)."""
    by_idx = {(c.ia, c.ib): c for c in cells}

    def status(c):
        if not c.solvable or c.reduced_min_eig is None or c.in_c is None:
            return None
        scale = 1.0 + abs(c.reduced_min_eig)
        return (c.in_c, c.reduced_min_eig >= -_EIG_TOL * scale)

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
