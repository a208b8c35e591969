"""Power-flow solving.

Two routes: a classic damped Newton-Raphson iteration on the balance
residuals, and the convex route that minimizes the energy function over the
convexity domain. Inside the domain the energy is strictly convex, so an
interior stationary point is the unique solution there. The convex route
first tries full Newton steps that stay inside; when they stall, a
log-barrier interior method either finds that point or shows that the
constrained minimum sits on the boundary with a nonzero gradient, i.e. that
no solution exists in the domain.
"""
from __future__ import annotations

import contextlib
import enum
import math
from dataclasses import dataclass

import numpy as np

from . import energy as en
from .convexity import (ConvexityCertificate, PhaseVoltageBox, domain_matrix,
                        in_domain_C, line_factors, pq_line_ends)
# lossy_in_domain is unused here; the benchmark's span tracer pins it as an alias.
from .convexity import lossy_in_domain  # noqa: F401
from .energy import HALF_PI, PFState, pack, unpack
from .errors import InfeasibleStart, NotPositiveDefinite
from .linalg import solve_spd, symmetrize
from .network import Network, incidence, scale_injections


class SolveStatus(enum.Enum):
    SOLUTION_FOUND = "SolutionFound"
    NO_SOLUTION_IN_C = "NoSolutionInC"
    MAX_ITERATIONS = "MaxIterations"


@dataclass
class SolveOutcome:
    status: SolveStatus
    state: PFState
    grad_norm: float
    boundary_active: bool
    iterations: int
    certificate: ConvexityCertificate
    trace: list | None = None


@dataclass
class SolveOptions:
    """grad_tol: largest gradient norm of a SolutionFound state. box:
    operating box added to the domain. collect_trace: keep (mu, E + mu phi)
    of each accepted barrier step as the outcome's trace, [] when Newton
    steps alone settle the solve."""
    grad_tol: float = 1e-8
    box: PhaseVoltageBox | None = None
    collect_trace: bool = False

    def __post_init__(self):
        _check_tol("grad_tol", self.grad_tol)


# The central path's schedule (_Barrier.path, which reads these at call
# time): mu falls by MU_DECAY a stage (a long step; Boyd & Vandenberghe,
# Convex Optimization, sec. 11.3.3) from MU0 to MU_MIN, with at most
# MAX_INNER Newton steps a stage, MAX_TOTAL a path, each winning ARMIJO
# times its predicted decrease. Stages before the last end at a Newton
# decrement lambda <= 1/4 (lambda^2 <= DECREMENT; Nesterov & Nemirovski
# 1994; Boyd & Vandenberghe sec. 11.5).
MU0 = 1.0
MU_DECAY = 0.02
MU_MIN = 1e-9
DECREMENT = 1.0 / 16.0
MAX_INNER = 80
MAX_TOTAL = 4000
ARMIJO = 1e-4
# damped_newton's step cap; each of its steps cuts r.r by ARMIJO alpha.
MAX_NEWTON = 50


def _check_tol(name: str, tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {tol}")


def _residual_vec(n: Network, s: PFState) -> np.ndarray:
    rp, rq = en.pf_residuals(n, s)
    return np.concatenate((rq, rp))


def _ridge_solve(h: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solve h dx = rhs by solve_spd, adding a ridge reg I when h is not
    positive definite: reg starts at 1e-10 (1 + max |diag h|) and grows
    100-fold a try. None after eight failed tries; InvalidMatrix when h is
    not finite. For a positive definite h it is solve_spd's own answer."""
    reg = 0.0
    for _ in range(8):
        try:
            return solve_spd(h + reg * np.eye(len(h)) if reg else h, rhs)
        except NotPositiveDefinite:
            scale = 1.0 + float(np.max(np.abs(np.diag(h))))
            reg = 1e-10 * scale if reg == 0.0 else reg * 100.0
    return None


def _newton_step(h: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """The convex route's Newton step: solve h dx = rhs, rhs (n,) or (n, k),
    with one LU factorization of the symmetrized h.

    Every Newton matrix of the convex route is positive definite: E'' on
    C's interior, where E is strictly convex, and E'' + mu phi'' on the
    barrier's domain (Boyd & Vandenberghe, Convex Optimization, secs. 9.5
    and 11.3). So a column of the LU answer is kept when h is finite and
    its rhs . dx is positive and finite, which every positive definite h
    gives; there it is the very solve that solve_spd makes after its
    Cholesky test. Any other column, and every column when LU meets an
    exactly singular h, is _ridge_solve's answer; None when that has none.
    """
    a = symmetrize(h)
    dx = np.full(rhs.shape, math.nan)
    if np.isfinite(a).all():
        with contextlib.suppress(np.linalg.LinAlgError):
            dx = np.linalg.solve(a, rhs)
    for j in np.ndindex(rhs.shape[1:]):
        col = (slice(None), *j)
        # A finite positive rhs . dx rules out every non-finite entry of dx.
        if not 0.0 < float(rhs[col] @ dx[col]) < math.inf:
            ridge = _ridge_solve(h, rhs[col])
            if ridge is None:
                return None
            dx[col] = ridge
    return dx


def damped_newton(residual, direction, x: np.ndarray, tol: float, valid):
    """Damped Newton on residual(x) = 0 from x until ||r||_inf <= tol.

    direction(x, r) returns the Newton step at x, or None when there is
    none. Each step starts at alpha = 1 and is halved down to 1e-12 until
    the trial passes valid and r.r falls by a factor of at least 1 - ARMIJO
    alpha; residual is never called at a trial that fails valid. Stops
    after MAX_NEWTON steps, or at the first step where no alpha passes or
    direction returns None. Returns (x, r, steps).
    """
    r = residual(x)
    steps = 0
    while steps < MAX_NEWTON and np.linalg.norm(r, np.inf) > tol:
        dx = direction(x, r)
        if dx is None:
            break
        merit = float(r @ r)
        alpha = 1.0
        while alpha >= 1e-12:
            xn = x + alpha * dx
            if valid(xn):
                rn = residual(xn)
                if float(rn @ rn) <= (1.0 - ARMIJO * alpha) * merit:
                    break
            alpha *= 0.5
        else:
            break
        x, r = xn, rn
        steps += 1
    return x, r, steps


def solve_newton(n: Network, s0: PFState | None = None,
                 tol: float = 1e-10) -> SolveOutcome:
    """Damped Newton-Raphson on the balance residuals.

    Works for lossless networks and for constant-ratio lossy ones (where
    the residuals are the ratio-combined balances). The residuals are
    -grad E, so the step solves E'' dx = r; a trial with a packed entry
    beyond 30 is a runaway and rejected. SolutionFound means the residual
    infinity norm reached tol; it does not imply membership in the
    convexity domain.
    """
    _check_tol("tol", tol)
    s = s0 if s0 is not None else PFState.flat(n)
    en.check_one_state(n, s)
    x, r, iterations = damped_newton(
        lambda x: _residual_vec(n, unpack(n, x)),
        lambda x, r: _ridge_solve(en.hessian(n, unpack(n, x)), r),
        pack(n, s), tol, lambda x: np.max(np.abs(x)) <= 30.0)
    s = unpack(n, x)
    grad_norm = float(np.linalg.norm(r, np.inf))
    status = (SolveStatus.SOLUTION_FOUND if grad_norm <= tol
              else SolveStatus.MAX_ITERATIONS)
    return SolveOutcome(status=status, state=s, grad_norm=grad_norm,
                        boundary_active=False, iterations=iterations,
                        certificate=in_domain_C(n, s))


# ---------------------------------------------------------------------------
# log-barrier machinery

class _Barrier:
    """The convex route on one network: the domain barrier's value,
    gradient and Hessian in packed coordinates, full Newton steps on the
    energy E (newton), and the central path of E + mu phi with its line
    search (path). trace, when a list, gets (mu, E + mu phi) of every
    accepted path step.

    Barrier = -sum_lines log cos(theta_ij) - log det(domain matrix), plus
    optional per-line operating-box terms, in the per-line edge variables
    d = rho_to - rho_from and tau = theta_from - theta_to. Constant
    Jacobians jd (d by PQ rho) and jt (tau by non-slack theta) chain the
    separable terms and every tau derivative into packed coordinates; the
    -log det terms in rho are formed in PQ-bus coordinates (grad_hess).
    Only the network's active lines, those with a PQ end, enter the domain
    matrix or move with rho; the others carry the separable phase terms
    alone. value returns the domain matrix's Cholesky factor with the
    value, and the path hands each accepted point's factor to grad_hess at
    that point, so every barrier point is factored once.
    """

    def __init__(self, n: Network, box: PhaseVoltageBox | None = None,
                 trace: list | None = None):
        self.n, self.box, self.trace = n, box, trace
        self.log_brho = math.log(box.b_rho) if box is not None else None
        self.f, self.t = n.edges[:, 0], n.edges[:, 1]

    def edge_vars(self, s: PFState):
        return s.rho[self.t] - s.rho[self.f], s.theta[self.f] - s.theta[self.t]

    def feasible(self, s: PFState) -> bool:
        return math.isfinite(self.value(s)[0])

    def value(self, s: PFState):
        """(barrier value, the domain matrix's Cholesky factor) at s;
        (inf, None) outside the strict interior of the domain."""
        outside = math.inf, None
        n, (d, tau) = self.n, self.edge_vars(s)
        if np.any(np.abs(tau) >= HALF_PI - 1e-12):
            return outside
        val = -float(np.sum(np.log(np.cos(tau))))
        dv = d[n.active]
        if self.box is not None:
            bt, br = self.box.b_theta, self.log_brho
            if np.any(np.abs(tau) >= bt) or np.any(np.abs(dv) >= br):
                return outside
            val -= float(np.sum(np.log(bt - tau) + np.log(bt + tau)))
            val -= float(np.sum(np.log(br - dv) + np.log(br + dv)))
        try:
            chol = np.linalg.cholesky(domain_matrix(n, dv, tau[n.active]))
        except np.linalg.LinAlgError:
            return outside
        return val - 2.0 * float(np.sum(np.log(np.diag(chol)))), chol

    def grad_hess(self, s: PFState, chol: np.ndarray):
        """Gradient and Hessian of the barrier in packed coordinates.

        chol is value's Cholesky factor at s of the domain matrix L =
        diag(2B) - U diag(w) U^T, U = line_factors over the active lines;
        K = L^-1 (Boyd & Vandenberghe, Convex Optimization, App. A.4, for
        the -log det derivatives). Only diag(L) moves with rho: diag(L)_i =
        2B_i - sum_{k from i} a_k - sum_{k to i} c_k with a = w e^d and c =
        w e^-d, read off U's entries at the PQ ends (pq_line_ends). So M =
        d diag(L) / d rho = N jd, N holding -a_k at line k's from-bus and
        +c_k at its to-bus, and with g = a K_ii - c K_jj (o the elementwise
        product):
            g_rho = jd^T (g + box')
            H_rho,rho = M^T (K o K) M + jd^T diag(a K_ii + c K_jj + box'') jd
            H_rho,tau = jd^T diag(tan tau o g)
                        - M^T ((K U) o (K U)) diag(w tan tau),
        the last chained into theta by jt. The tau gradient and the
        tau-tau block take the one Gram matrix Guu = U^T K U.
        """
        n = self.n
        var, fixed, jd, jt, jf = n.derived(_chain)
        _, col, sign, pq = pq_line_ends(n)
        d, tau = self.edge_vars(s)
        tn = np.tan(tau)
        w = n.b / np.cos(tau)

        # Phase cone (-log cos) and operating box: separable per line.
        g_t, h_t = tn.copy(), 1.0 + tn * tn
        dv = d[var]
        g_d, h_d = np.zeros((2, len(dv)))
        if self.box is not None:
            bt, br = self.box.b_theta, self.log_brho
            g_t += 1.0 / (bt - tau) - 1.0 / (bt + tau)
            h_t += 1.0 / (bt - tau) ** 2 + 1.0 / (bt + tau) ** 2
            g_d += 1.0 / (br - dv) - 1.0 / (br + dv)
            h_d += 1.0 / (br - dv) ** 2 + 1.0 / (br + dv) ** 2

        # -log det L over the active lines, per PQ end where U is nonzero.
        ci = np.linalg.inv(chol)
        k = ci.T @ ci
        w, tn = w[var], tn[var]
        wt = w * tn
        u = line_factors(n, dv)
        ku = k @ u
        guu = u.T @ ku
        ex = u[pq, col]
        ac = w[col] * ex * ex  # a at the from-ends, c at the to-ends
        akc = ac * k.diagonal()[pq]
        g_hat = np.bincount(col, sign * akc, len(w))
        h_d += np.bincount(col, akc, len(w))
        u[pq, col] = -sign * ac  # N, in U's place
        m = u @ jd
        duu = guu.diagonal()
        g_tv = g_t[var] + wt * duu
        h_tt = wt[:, None] * wt
        h_tt *= guu
        h_tt *= guu
        h_tt.flat[::len(w) + 1] += w * (1.0 + 2.0 * tn * tn) * duu + h_t[var]

        npq = jd.shape[1]
        hdt = (jd.T * (tn * g_hat) - (m.T @ (ku * ku)) * wt) @ jt
        hess = np.empty((npq + jt.shape[1],) * 2)
        hess[:npq, :npq] = m.T @ (k * k) @ m + (jd.T * h_d) @ jd
        hess[:npq, npq:] = hdt
        hess[npq:, :npq] = hdt.T
        hess[npq:, npq:] = jt.T @ h_tt @ jt + (jf.T * h_t[fixed]) @ jf
        grad = np.concatenate((jd.T @ (g_hat + g_d), jt.T @ g_tv + jf.T @ g_t[fixed]))
        return grad, hess

    def newton(self, s: PFState, target: float):
        """Full Newton steps on E from s until the gradient's infinity norm
        is at most target. A step is kept only when it stays strictly inside
        the domain and lowers that norm; the first that does not ends the
        loop. Returns (state, gradient norm, steps kept)."""
        n = self.n
        x = pack(n, s)
        g = en.energy_gradient(n, s).as_vector()
        best = float(np.linalg.norm(g, np.inf))
        steps = 0
        while best > target and steps < 40:
            dx = _newton_step(en.hessian(n, s), -g)
            if dx is None:
                break
            sn = unpack(n, x + dx)
            if not self.feasible(sn):
                break
            gn = en.energy_gradient(n, sn).as_vector()
            norm = float(np.linalg.norm(gn, np.inf))
            if norm >= best:
                break
            x, s, g, best = x + dx, sn, gn, norm
            steps += 1
        return s, best, steps

    def path(self, x: np.ndarray, tol: float):
        """Follow the central path of min E + mu phi from the packed
        interior point x, mu from MU0 down to MU_MIN.

        Each stage takes damped Newton steps on E + mu phi until the
        gradient is below max(mu / 100, tol / 2), the predicted decrease is
        below the objective's resolution or, before the last stage (mu <=
        MU_MIN), the squared Newton decrement of (E + mu phi) / mu is at
        most DECREMENT. Then mu falls by MU_DECAY to mu+ and x steps along
        the central path's tangent: there grad E + mu grad phi = 0, so
        dx/dmu = -H^-1 grad phi with H = E'' + mu phi'' (Fiacco & McCormick
        1968, sec. 5.2), solved by the stage's last LU. That step is halved
        until phi is finite and E + mu+ phi does not rise; when none passes
        x stays, with its own factor. Returns (x, Newton steps, ran_out),
        ran_out when a step failed or MAX_TOTAL steps were spent.
        """
        n, mu, steps = self.n, MU0, 0
        phi, chol = self.value(unpack(n, x))
        while True:
            last = mu <= MU_MIN
            stage_tol = max(mu * 1e-2, tol * 0.5)
            # The derivatives are taken once more after the last allowed step,
            # so the stage always ends with them fresh at x for the predictor.
            for k in range(MAX_INNER + 1):
                s = unpack(n, x)
                ev = en.energy_gradient(n, s)
                # grad_hess's line-sized temporaries peak before E'' is allocated.
                gphi, hphi = self.grad_hess(s, chol)
                f, gf, hf = ev.value, ev.as_vector(), en.hessian(n, s)
                g = gf + mu * gphi
                h = mu * hphi
                h += hf
                t = None
                if k == MAX_INNER or np.linalg.norm(g, np.inf) <= stage_tol:
                    break
                dx = _newton_step(h, -g if last else np.column_stack((-g, gphi)))
                if dx is None:
                    return x, steps, True
                if not last:
                    dx, t = dx.T
                f0 = f + mu * phi
                slope = float(g @ dx)
                # Predicted decrease below the objective's resolution: the stage
                # is converged to working precision. Before the last stage,
                # -slope / mu is the squared decrement of (E + mu phi) / mu.
                if (abs(slope) <= 64.0 * np.finfo(float).eps * (1.0 + abs(f0))
                        or not last and -slope <= mu * DECREMENT):
                    break
                step = self._backtrack(x, dx, mu, f0, ARMIJO * slope)
                if step is None:
                    return x, steps, True
                x, phi, chol = step
                steps += 1
                if steps >= MAX_TOTAL:
                    return x, steps, True
            if last:
                return x, steps, False
            mu_next = mu * MU_DECAY
            t = _newton_step(h, gphi) if t is None else t
            if t is not None:
                x, phi, chol = self._backtrack(
                    x, (mu - mu_next) * t, mu_next, f + mu_next * phi, 0.0) or (x, phi, chol)
            mu = mu_next

    def _backtrack(self, x: np.ndarray, dx: np.ndarray, mu: float, f0: float,
                   decrease: float):
        """First x + alpha dx, alpha = 1, 1/2, ... down to 1e-14, with a
        finite phi and E + mu phi <= f0 + alpha decrease, as (x, phi, the
        domain matrix's Cholesky factor there); None when there is none. E
        is not evaluated outside the domain. Records (mu, E + mu phi) of
        the accepted point in trace."""
        alpha = 1.0
        while alpha >= 1e-14:
            xn = x + alpha * dx
            s = unpack(self.n, xn)
            phi, chol = self.value(s)
            fnew = en.energy_value(self.n, s) + mu * phi if math.isfinite(phi) else math.inf
            if fnew <= f0 + alpha * decrease:
                if self.trace is not None:
                    self.trace.append((mu, fnew))
                return xn, phi, chol
            alpha *= 0.5
        return None


def _chain(n: Network):
    """(var, fixed, jd, jt, jf) for grad_hess, by n.derived: the active
    lines and the others; the edge Jacobians jd (d by PQ rho) and jt (tau by
    non-slack theta) over the active lines and jf (tau) over the others.
    Built at a network's first grad_hess: a solve that Newton steps settle
    never makes one."""
    var = n.active
    fixed = np.setdiff1d(np.arange(len(n.b)), var)
    # d = rho_to - rho_from and tau = theta_from - theta_to; 0.0 - keeps
    # jd's zeros +0.0.
    a = incidence(n)
    jd, jt = 0.0 - a[n.pq].T, a[n.ns].T
    return var, fixed, jd[var], jt[var], jt[fixed]


def _phase_slack(n: Network, s: PFState) -> float:
    f, t = n.edges[:, 0], n.edges[:, 1]
    te = s.theta[f] - s.theta[t]
    return float(HALF_PI - np.max(np.abs(te))) if len(te) else math.inf


def _classify(n: Network, s: PFState, grad_norm: float, opts: SolveOptions,
              iterations: int, ran_out: bool, trace) -> SolveOutcome:
    cert = in_domain_C(n, s)
    slack = _phase_slack(n, s)
    boundary = (cert.lmi_min_eig < 1e-6 * cert.scale) or (slack < 1e-5)
    interior = (cert.lmi_min_eig > cert.tol_abs) and (slack > 1e-6)
    if grad_norm <= opts.grad_tol and interior:
        status = SolveStatus.SOLUTION_FOUND
        boundary = False
    elif ran_out:
        status = SolveStatus.MAX_ITERATIONS
    else:
        status = SolveStatus.NO_SOLUTION_IN_C
    return SolveOutcome(status=status, state=s, grad_norm=grad_norm,
                        boundary_active=boundary, iterations=iterations,
                        certificate=cert, trace=trace)


def solve_convex(n: Network, s0: PFState | None = None,
                 opts: SolveOptions | None = None) -> SolveOutcome:
    """Minimize the energy over the convexity domain C, Newton first.

    E is strictly convex on C, so a stationary point strictly inside C is
    the unique solution there: full Newton steps on E that stay inside C and
    meet the gradient target return it before any barrier. Otherwise the
    log-barrier path runs from the start and the same steps polish its end;
    a minimizer pinned to the boundary with a nonzero gradient is
    NoSolutionInC. iterations counts the Newton steps to the returned state;
    trace gets (mu, E + mu phi) per barrier step, [] when Newton alone
    settled. Uniform-ratio lossy networks run on the same energy. Raises
    InfeasibleStart when the start is not strictly inside C.
    """
    opts = opts or SolveOptions()
    s = s0 if s0 is not None else PFState.flat(n)
    en.check_one_state(n, s)
    barrier = _Barrier(n, opts.box, [] if opts.collect_trace else None)
    if not barrier.feasible(s):
        raise InfeasibleStart("initial state is not strictly inside the domain")
    target = min(opts.grad_tol * 1e-3, 1e-11)
    sn, grad_norm, steps = barrier.newton(s, target)
    if grad_norm <= target:
        out = _classify(n, sn, grad_norm, opts, steps, False, barrier.trace)
        if out.status is SolveStatus.SOLUTION_FOUND:
            return out
    # The stages only track the central path; the polish meets grad_tol.
    x, iterations, ran_out = barrier.path(pack(n, s), opts.grad_tol)
    s, grad_norm, extra = barrier.newton(unpack(n, x), target)
    return _classify(n, s, grad_norm, opts, iterations + extra, ran_out,
                     barrier.trace)


def solve_convex_lossy(n: Network, s0: PFState | None = None,
                       opts: SolveOptions | None = None) -> SolveOutcome:
    """The same solve as solve_convex, under the lossy model's name."""
    return solve_convex(n, s0, opts)


# ---------------------------------------------------------------------------
# load-scaling sweeps

@dataclass(frozen=True)
class SweepRecord:
    kappa: float
    delta: float
    status: SolveStatus
    grad_norm: float
    lmi_min_eig: float
    boundary_active: bool
    iterations: int


def sweep_load(n: Network, delta: float, kappa_grid,
               opts: SolveOptions | None = None) -> list[SweepRecord]:
    """Convex solves along the loading path P -> kappa P (non-slack),
    Q -> delta kappa Q (PQ buses), in ascending kappa order.

    The barrier does not depend on the injections, so a SolutionFound
    state, which it admitted, stays strictly feasible and warm-starts the
    next solve's Newton steps.
    """
    opts = opts or SolveOptions()
    records = []
    prev: PFState | None = None
    for kappa in sorted(float(k) for k in kappa_grid):
        nk = scale_injections(n, kappa, delta)
        out = solve_convex(nk, prev, opts)
        records.append(SweepRecord(kappa=kappa, delta=delta, status=out.status,
                                   grad_norm=out.grad_norm,
                                   lmi_min_eig=out.certificate.lmi_min_eig,
                                   boundary_active=out.boundary_active,
                                   iterations=out.iterations))
        prev = out.state if out.status is SolveStatus.SOLUTION_FOUND else None
    return records
