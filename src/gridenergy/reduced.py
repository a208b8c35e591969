"""Reduced energy function and reactive solves in squared-voltage coordinates.

With phases held fixed, the reactive balances become tractable: in
zeta = V^2 coordinates the feasible set

    B_i zeta_i - sum_j B_ij sqrt(zeta_i zeta_j) cos(theta_ij) + q_i <= 0

(q_i the positive reactive consumption) is convex, and maximizing any
positive combination of the zeta lands on a reactive solution with every
constraint tight: the set's greatest element. One monotone Newton iteration
computes it for every caller; the convex program keeps it only with a KKT
witness. The reduced energy is the full energy evaluated at that reactive
solution for the given phases.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import energy as en
from .convexity import MAX_ROWS, in_domain_C
from .energy import HALF_PI, PFState
from .errors import (NoReactiveSolution, NumericalFailure, PhaseOutOfRange,
                     SingularReduction, UnsupportedSign, UnsupportedTopology)
# fd_hessian is unused here; the benchmark's span tracer pins it as an alias.
from .linalg import fd_hessian  # noqa: F401
from .network import Network

_REACTIVE_TOL = 1e-10
# Largest constraint value at an accepted optimum of the zeta program.
_TIGHT_TOL = 1e-8
# Relative size of a monotone Newton step that ends the iteration; a step
# that raises a voltage by more is an error.
_STEP_TOL = 1e-9
_NEWTON_STEPS = 60
_RANGE_MESSAGE = "phases must keep every line below 90 degrees"
_SINGULAR = "reactive Jacobian is singular"
_NOT_CONVERGED = "reactive Newton iteration did not converge"
# Relative eigenvalue tolerance of region_agreement's reduced-Hessian test.
_EIG_TOL = 1e-6
# Phase rows per stacked solve of region_grid. Each chunk costs about 0.8 ms
# of numpy call overhead plus a few microseconds a row, so larger chunks run
# faster: a 6-degree threebus grid (441 cells) takes about 5 ms at 4096 and
# 13-18 ms at 32 on a 2-core host. But bench/clock.py fails when a
# region_grid run's three passes end inside its first 50 ms probe period.
# At 32 they take 62-83 ms at that clock's reference speed, so only a host
# about 1.25 times faster than the reference ends them that early. Raise it
# once the benchmark handles short runs (ROADMAP item 1).
_CHUNK_CELLS = 32


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
    if not _phases_in_range(n, theta):
        raise PhaseOutOfRange(_RANGE_MESSAGE)
    return theta


def _phases_in_range(n: Network, theta: np.ndarray) -> np.ndarray:
    """Whether every line's phase difference lies inside 90 degrees, over an
    optional leading stack axis of theta."""
    te = theta.take(n.edges[:, 0], -1) - theta.take(n.edges[:, 1], -1)
    return (abs(te) < HALF_PI).all(axis=-1)


def _solve_rows(a: np.ndarray, b: np.ndarray):
    """np.linalg.solve over the leading stack axes of a (..., m, m) and
    b (..., m, k), and a mask over those axes of the singular systems, whose
    solutions are NaN. When the stacked call fails on a singular matrix it is
    redone one system at a time, so that the others still get theirs."""
    lead = a.shape[:-2]
    try:
        return np.linalg.solve(a, b), np.zeros(lead, dtype=bool)
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan)
        singular = np.zeros(lead, dtype=bool)
        for i in np.ndindex(lead):
            try:
                x[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                singular[i] = True
        return x, singular


def _greatest_u(n: Network, fp: en.FixedPhase):
    """Greatest u > 0 with B_i u_i^2 - r_i u_i + q_i = 0 at every PQ bus,
    r = d + C u, by monotone Newton from a cap.

    B = -diag(g) is each PQ bus's susceptance sum, C >= 0 the PQ-PQ line
    weights, d the weights to fixed buses and q = -tq the consumption, all
    from fp. Row i's largest root is T_i(u) = (r_i + sqrt(r_i^2 - 4 B_i
    q_i)) / (2 B_i), and Newton runs on u - T(u) from u0 = (-g)^-1 (d +
    sqrt(B q-)), q- = max(-q, 0). As T_i(u) <= (r_i + sqrt(B_i q-_i)) /
    B_i and -g is a nonsingular M-matrix with a nonnegative inverse, u0 lies above every
    solution. When every q >= 0, T is concave and isotone, so the iterates
    decrease to the greatest solution (Ortega & Rheinboldt 1970, ch. 13);
    there a discriminant <= 0 proves that none exists, and a step that
    raises a voltage ends the search. With injecting buses T is not
    concave and the same iteration is a heuristic.

    fp may carry a leading stack axis of phase vectors. Every row iterates
    in one stack and stops at the step where it would alone: when it
    converges, fails, or after _NEWTON_STEPS. Returns u and a list with,
    per row (one entry when fp is unstacked), None or why the row has no
    solution.
    """
    m, lead, q = len(fp.tq), fp.d.shape[:-1], -fp.tq
    # An explicit row count: reshape cannot infer one when m is 0.
    count = math.prod(lead)
    g, d = fp.g.reshape(count, m, m), fp.d.reshape(count, m)
    b = -np.diagonal(g, axis1=1, axis2=2)
    eye = np.eye(m)
    c = g + b[:, :, None] * eye
    half_inv_b, four_bq = 0.5 / b, 4.0 * b * q
    monotone = bool((q >= 0.0).all())
    why = [None] * count
    u, singular = _solve_rows(-g, (d + np.sqrt(b * np.maximum(-q, 0.0)))[:, :, None])
    u = u[:, :, 0]
    # The rows still iterating and their slices of the per-row arrays; a
    # row's u goes back into u when it leaves.
    live, ul, cl, dl, fbq, hib = np.arange(count), u, c, d, four_bq, half_inv_b
    if singular.any():
        for row in np.flatnonzero(singular):
            why[row] = _SINGULAR
        live, ul, cl, dl, fbq, hib = (x[~singular] for x in (live, ul, cl, dl, fbq, hib))
    for _ in range(_NEWTON_STEPS):
        if not live.size:
            break
        r = dl + np.matvec(cl, ul)
        disc = r * r - fbq
        if not (disc > 0.0).all():
            real = (disc > 0.0).all(axis=1)
            for row, k in zip(live[~real], np.argmin(disc[~real], axis=1)):
                why[row] = (f"reactive balance at bus {n.ids[n.pq[k]]} "
                            "has no real root")
            live, r, disc, ul, cl, dl, fbq, hib = (
                x[real] for x in (live, r, disc, ul, cl, dl, fbq, hib))
        root = np.sqrt(disc)
        jac = eye - ((1.0 + r / root) * hib)[:, :, None] * cl
        step, singular = _solve_rows(jac, (ul - (r + root) * hib)[:, :, None])
        step = step[:, :, 0]
        # Whole-stack tests first, since most steps stop no row. A singular
        # row's step is NaN, so it neither raises a voltage nor converges.
        raised = monotone and (step < -_STEP_TOL * ul).any()
        prev, ul = ul, ul - step
        stop = (abs(step) <= _STEP_TOL * ul).all(axis=1)
        if raised or singular.any():
            raised = monotone & (step < -_STEP_TOL * prev).any(axis=1)
            for row in np.flatnonzero(singular | raised):
                why[live[row]] = _SINGULAR if singular[row] else (
                    "monotone reactive Newton step raised a voltage")
            stop |= singular | raised
        if stop.any():
            if stop.all():
                break
            u[live[stop]] = ul[stop]
            live, ul, cl, dl, fbq, hib = (x[~stop] for x in (live, ul, cl, dl, fbq, hib))
    u[live] = ul
    if not (u > 0.0).all():
        for row in np.flatnonzero(~(u > 0.0).all(axis=1)):
            if why[row] is None:
                why[row] = "reactive Newton reached a non-positive voltage"
    return u.reshape(lead + (m,)), why


def _reactive(n: Network, fp: en.FixedPhase, theta: np.ndarray):
    """The dominant reactive solution at fp's phases theta, over an
    optional leading stack axis of both; every row must keep its lines
    below 90 degrees. Returns _greatest_u's (u, why) as (u, rho, ok, why),
    rho = log u at the PQ buses and ok whether each row solves: it has no
    reason in why and both its residual checks are within _REACTIVE_TOL
    (rho is meaningful only there)."""
    u, why = _greatest_u(n, fp)
    ok = np.array([reason is None for reason in why]).reshape(theta.shape[:-1])
    rho = np.log(np.where(ok[..., None], u, 1.0))
    ok &= np.abs(fp.residual(rho)).max(axis=-1, initial=0.0) <= _REACTIVE_TOL
    s = PFState(np.zeros(theta.shape), theta)
    s.rho[..., n.pq] = rho
    _, rq = en.pf_residuals(n, s)
    ok &= np.abs(rq).max(axis=-1, initial=0.0) <= _REACTIVE_TOL
    return u, rho, ok, why


def _solved_rho(n: Network, fp: en.FixedPhase, theta: np.ndarray) -> np.ndarray:
    """_reactive's rho at one phase vector theta, or its NoReactiveSolution."""
    _, rho, ok, why = _reactive(n, fp, theta)
    if not ok:
        raise NoReactiveSolution(why[0] or _NOT_CONVERGED)
    return rho


def solve_reactive_newton(n: Network, theta) -> np.ndarray:
    """Dominant (greatest, high-voltage) solution of the reactive balances
    with phases fixed, by monotone Newton from the voltage cap.

    Returns rho at the PQ buses; its residual infinity norm is <= 1e-10
    both in FixedPhase and in the phasor residuals of pf_residuals.
    """
    theta = _check_theta(n, theta)
    return _solved_rho(n, en.FixedPhase(n, theta), theta)


def reduced_energy(n: Network, theta) -> float:
    """Energy evaluated at the dominant reactive solution for the phases."""
    theta = _check_theta(n, theta)
    s = PFState(np.zeros(n.n_bus), theta.copy())
    s.rho[n.pq] = solve_reactive_newton(n, theta)
    return en.energy_value(n, s)


# ---------------------------------------------------------------------------
# zeta-space convex programs

def _zeta_weights(n: Network, fp: en.FixedPhase, c=None) -> np.ndarray:
    """The zeta program's objective weights c, all ones by default, once it
    admits the network at fp's phases and the weights.

    The program maximizes c^T zeta over the fixed-phase reactive set of
    the PQ buses' squared voltages. With u = sqrt(zeta), constraint i is
    minus fp's reactive residual, g(zeta) = -(tq + u (d + G u)) <= 0, that is

        B_i zeta_i - sum_j c_ij sqrt(zeta_i zeta_j) + q_i <= 0

    with line weights c_ij = b_eff cos(theta_ij), fixed buses at zeta = 1
    and q = -tq the consumption of the energy's constant-ratio model.
    """
    if len(n.pq) == 0:
        raise UnsupportedTopology("the reactive program needs a PQ bus")
    if np.any(np.delete(n.v_set, n.pq) != 1.0):
        raise UnsupportedTopology("the reactive program needs slack/PV "
                                  "set-points of 1 (see absorb_setpoints)")
    if np.any(fp.tq > 0):
        bad = [n.ids[p] for p in n.pq[fp.tq > 0]]
        raise UnsupportedSign(f"PQ buses must consume reactive power; got "
                              f"injection at buses {bad}")
    c = np.ones(len(n.pq)) if c is None else np.asarray(c, dtype=float)
    if c.shape != (len(n.pq),) or not np.all(np.isfinite(c) & (c > 0)):
        raise ValueError("weights must be finite and positive, one per PQ bus")
    return c


def convex_reactive_solve(n: Network, theta, c=None) -> ReducedState:
    """Reactive solution by maximizing a positive combination of squared
    voltages over the convex constraint set (_zeta_weights).

    Every constraint is tight at the optimum, at the larger root, so the
    optimum is the set's greatest element: the greatest solution of the
    reactive balances, which _greatest_u's monotone Newton computes. It is
    kept only when _kkt_witness passes. Below 90 degrees every g_i is
    convex, so a feasible point with nonnegative multipliers that meets KKT
    is a global optimum (Boyd & Vandenberghe, Convex Optimization, sec.
    5.5.3). The program admits consumption only (q >= 0), where the Newton
    is monotone, so a refusal for a discriminant <= 0 proves that no
    solution exists. Every refusal raises NoReactiveSolution.
    """
    theta = _check_theta(n, theta)
    fp = en.FixedPhase(n, theta)
    c = _zeta_weights(n, fp, c)
    u, why = _greatest_u(n, fp)
    return _certified(fp, c, theta, u, why[0])


def _certified(fp: en.FixedPhase, c: np.ndarray, theta: np.ndarray,
               u: np.ndarray, why: str | None) -> ReducedState:
    """The state at the greatest solution u of the balances at fp's phases
    theta, whose monotone Newton gave the reason why (None when it
    solved), once _kkt_witness certifies it as the optimum for weights c."""
    if why is not None:
        raise NoReactiveSolution(why)
    z = u * u
    g = -fp.residual(0.5 * np.log(z))
    if not _kkt_witness(fp, c, z, g):
        raise NoReactiveSolution("could not certify a root of the tight "
                                 "constraints as the optimum")
    return ReducedState(zeta=z, theta=theta.copy(), constraint_slack=g)


def _kkt_witness(fp: en.FixedPhase, c: np.ndarray, z: np.ndarray,
                 g: np.ndarray) -> bool:
    """Whether z, with constraint values g, is the zeta program's optimum
    for weights c at fp's phases by KKT: every constraint tight to
    _TIGHT_TOL, and the multipliers that make the objective's gradient c
    equal J(z)^T lambda all finite and positive.

    J = -(diag(d + G u) + diag(u) G) diag(1 / (2u)), the first factor
    being the u-Jacobian of the residual. The multipliers are solved for
    c / max(c), which has the same signs and cannot overflow.
    """
    if not np.linalg.norm(g, np.inf) <= _TIGHT_TOL:
        return False
    u = np.sqrt(z)
    jac = u[:, None] * fp.g
    jac.flat[::len(u) + 1] += fp.d + fp.g @ u
    try:
        lam = np.linalg.solve((jac / (-2.0 * u)).T, c / np.max(c))
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(np.isfinite(lam) & (lam > 0.0)))


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
    return VoltageBound(v_bar=_caps(n, en.FixedPhase(n, np.zeros(n.n_bus))))


def _caps(n: Network, fp: en.FixedPhase) -> np.ndarray:
    """voltage_upper_bound's caps from fp, its FixedPhase at zero phases,
    where the zeta program's refusals reject the networks it does not model."""
    _zeta_weights(n, fp)
    return np.exp(_solved_rho(n, fp, np.zeros(n.n_bus)))


def reactive_with_bound(n: Network, theta) -> tuple[ReducedState, VoltageBound]:
    """convex_reactive_solve(n, theta) and voltage_upper_bound(n), from one
    monotone Newton on the phase stack (theta, 0).

    Row 0 is the solve, kept with its KKT witness; it refuses as
    convex_reactive_solve does. Row 1 is the relaxed set, which is the
    reactive set at zero phases; its caps pass solve_reactive_newton's
    residual checks. The solution of row 0 lies in the relaxed set, so caps
    that then fail raise NumericalFailure, not NoReactiveSolution.
    """
    theta = _check_theta(n, theta)
    rows = np.stack((theta, np.zeros(n.n_bus)))
    fp = en.FixedPhase(n, rows)
    c = _zeta_weights(n, fp)
    u, rho, ok, why = _reactive(n, fp, rows)
    # Row 0's FixedPhase: a view of fp's row 0 (tq has no stack axis).
    row = copy.copy(fp)
    row.g, row.d = fp.g[0], fp.d[0]
    state = _certified(row, c, theta, u[0], why[0])
    if not ok[1]:
        raise NumericalFailure(why[1] or _NOT_CONVERGED)
    return state, VoltageBound(v_bar=np.exp(rho[1]))


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
    r = np.square(_caps(n, fp)) / q_tilde
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
    en.check_one_state(n, s)
    hess, singular = _schur(en.hessian(n, s), len(n.pq))
    if singular:
        raise SingularReduction("rho-rho Hessian block is singular")
    return hess


def _schur(h: np.ndarray, npq: int):
    """H_tt - H_tr H_rr^-1 H_rt of symmetric h over an optional leading
    stack axis, with the rho block first, and a mask of the rows whose H_rr
    is singular (their complement is NaN)."""
    h_rt = h[..., :npq, npq:]
    x, singular = _solve_rows(h[..., :npq, :npq], h_rt)
    return h[..., npq:, npq:] - h_rt.swapaxes(-1, -2) @ x, singular


def region_grid(n: Network, theta_min: float = -math.pi / 3.0,
                theta_max: float = math.pi / 3.0,
                step_deg: float = 2.0) -> list[RegionCell]:
    """Scan a two-dimensional phase grid, solving the reactive equations at
    each point and recording domain membership next to the smallest
    eigenvalue of the reduced-energy Hessian.

    Needs exactly two non-slack buses so the grid covers all free phases,
    finite bounds with theta_min <= theta_max (equal bounds give one cell),
    and at most MAX_ROWS cells. The cells are solved as stacks of
    _CHUNK_CELLS phase rows, each cell with the verdicts that
    solve_reactive_newton, in_domain_C and reduced_hessian give it alone.
    """
    if len(n.ns) != 2:
        raise ValueError("region grid needs exactly two non-slack buses")
    if not (math.isfinite(step_deg) and step_deg > 0.0):
        raise ValueError(f"grid step must be positive and finite, got {step_deg}")
    for name, bound in (("theta_min", theta_min), ("theta_max", theta_max)):
        if not math.isfinite(bound):
            raise ValueError(f"{name} must be finite, got {bound}")
    if theta_min > theta_max:
        raise ValueError(f"theta_min {theta_min} exceeds theta_max {theta_max}")
    step = math.radians(step_deg)
    steps = (theta_max - theta_min) / step
    n_cells = (round(steps) + 1) ** 2 if math.isfinite(steps) else math.inf
    if n_cells > MAX_ROWS:
        raise ValueError(f"grid step {step_deg} deg gives {n_cells} cells, "
                         f"above the cap of {MAX_ROWS}")
    count = round(steps) + 1
    axis = theta_min + step * np.arange(count)
    # One numpy scalar per phase value, shared by the cells that carry it.
    values = list(axis)
    out: list[RegionCell] = []
    for lo in range(0, n_cells, _CHUNK_CELLS):
        ia, ib = np.divmod(np.arange(lo, min(lo + _CHUNK_CELLS, n_cells)), count)
        theta = np.zeros((len(ia), n.n_bus))
        theta[:, n.ns[0]] = axis[ia]
        theta[:, n.ns[1]] = axis[ib]
        solvable, in_c, min_eig = _region_rows(n, theta)
        out.extend(RegionCell(a, b, values[a], values[b], ok, c, e) for a, b, ok, c, e
                   in zip(ia.tolist(), ib.tolist(), solvable, in_c, min_eig))
    return out


def _region_rows(n: Network, theta: np.ndarray):
    """Per phase row of a region grid: solvable, in_c and the reduced
    Hessian's smallest eigenvalue, as lists with None where a value does
    not exist."""
    solvable = _phases_in_range(n, theta)
    live = np.flatnonzero(solvable)
    rho = np.zeros((len(theta), len(n.pq)))
    # A chunk with no row below 90 degrees has no stack to solve.
    if live.size:
        th = theta[live]
        _, rho[live], solvable[live], _ = _reactive(n, en.FixedPhase(n, th), th)
    rows = np.flatnonzero(solvable)
    s = PFState(np.zeros((len(rows), n.n_bus)), theta[rows])
    s.rho[:, n.pq] = rho[rows]
    cert = in_domain_C(n, s)
    hess, singular = _schur(en.hessian(n, s), len(n.pq))
    # The smaller root of the 2 x 2 characteristic polynomial.
    tr, det = hess[:, 0, 0] + hess[:, 1, 1], np.linalg.det(hess)
    disc = 0.25 * tr * tr - det
    min_eig = 0.5 * tr - np.sqrt(np.where(disc < 0.0, 0.0, disc))
    in_c = np.full(len(theta), None, dtype=object)
    in_c[rows] = cert.in_c.tolist()
    eig = np.full(len(theta), None, dtype=object)
    eig[rows[~singular]] = min_eig[~singular].tolist()
    return solvable.tolist(), in_c.tolist(), eig.tolist()


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
        # On the band: a neighbour with another status, or with none.
        on_band = False
        for da in (-1, 0, 1):
            for db in (-1, 0, 1):
                nb = by_idx.get((c.ia + da, c.ib + db))
                if nb is not None and status(nb) != st:
                    on_band = True
        if not on_band:
            comparable += 1
            agree += st[0] == st[1]
    return agree, comparable
