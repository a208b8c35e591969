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

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import energy as en
from .convexity import (ConvexityCertificate, PhaseVoltageBox, domain_matrix,
                        in_domain_C, lossy_in_domain)
from .energy import HALF_PI, PFState, pack, unpack
from .errors import InfeasibleStart, NotPositiveDefinite
from .linalg import solve_spd, symmetrize
from .network import Network, scale_injections


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


# barrier_path's schedule: mu falls by MU_DECAY a stage (a long step; Boyd &
# Vandenberghe, Convex Optimization, sec. 11.3.3), with at most MAX_INNER
# Newton steps a stage, MAX_TOTAL a path, each winning ARMIJO times its
# predicted decrease. solve_convex's path runs from MU0 to MU_MIN.
MU0 = 1.0
MU_DECAY = 0.02
MU_MIN = 1e-9
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
    """The convex route's Newton step: solve h dx = rhs with one LU
    factorization of the symmetrized h.

    Every Newton matrix of the convex route is positive definite: E'' on
    C's interior, where E is strictly convex, and E'' + mu phi'' on the
    barrier's domain (Boyd & Vandenberghe, Convex Optimization, secs. 9.5
    and 11.3). So the LU answer is kept when h is finite and rhs . dx is
    positive and finite, which every positive definite h gives; there it is
    the very solve that solve_spd makes after its Cholesky test. Otherwise,
    and when LU meets an exactly singular h, the answer is _ridge_solve's.
    """
    a = symmetrize(h)
    if np.isfinite(a).all():
        try:
            dx = np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError:
            dx = None
        # A finite positive rhs . dx rules out every non-finite entry of dx.
        if dx is not None and 0.0 < float(rhs @ dx) < math.inf:
            return dx
    return _ridge_solve(h, rhs)


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
                        certificate=_certificate(n, s))


def _certificate(n: Network, s: PFState) -> ConvexityCertificate:
    return in_domain_C(n, s) if n.is_lossless else lossy_in_domain(n, s)


# ---------------------------------------------------------------------------
# log-barrier machinery

class _Barrier:
    """Value/gradient/Hessian of the domain barrier in packed coordinates,
    and barrier_path's problem of the energy over the domain.

    Barrier = -sum_lines log cos(theta_ij) - log det(domain matrix), plus
    optional per-line operating-box terms, in the per-line edge variables
    d = rho_to - rho_from and tau = theta_from - theta_to. Constant
    Jacobians jd (d by PQ rho) and jt (tau by non-slack theta) chain the
    separable terms and every tau derivative into packed coordinates; the
    -log det terms in rho are formed in PQ-bus coordinates (grad_hess).
    Only lines with a PQ end (var) enter the domain matrix or move with
    rho; the others carry the separable phase terms alone.
    """

    def __init__(self, n: Network, box: PhaseVoltageBox | None = None):
        self.n = n
        self.box = box
        self.log_brho = math.log(box.b_rho) if box is not None else None
        f, t = n.edges[:, 0], n.edges[:, 1]
        self.f, self.t = f, t
        self.var = (n.pq_index_of[f] >= 0) | (n.pq_index_of[t] >= 0)
        self.diag_2b = np.diag(2.0 * n.b_total[n.pq])
        # (rho, theta) bytes and Cholesky factor of the last point factored.
        self.key, self.chol = None, None

    def trial(self, x: np.ndarray):
        """(E, barrier) at packed x; E is not evaluated outside the domain."""
        s = unpack(self.n, x)
        phi = self.value(s)
        return (en.energy_value(self.n, s) if math.isfinite(phi) else math.inf), phi

    def derivs(self, x: np.ndarray):
        """E, its gradient and Hessian, and the barrier's gradient and
        Hessian at packed x."""
        s = unpack(self.n, x)
        ev = en.energy_gradient(self.n, s)
        # grad_hess's line-sized temporaries peak before E'' is allocated.
        bg, bh = self.grad_hess(s)
        return ev.value, ev.as_vector(), en.hessian(self.n, s), bg, bh

    def edge_vars(self, s: PFState):
        d = s.rho[self.t] - s.rho[self.f]
        tau = s.theta[self.f] - s.theta[self.t]
        return d, tau

    def feasible(self, s: PFState) -> bool:
        return math.isfinite(self.value(s))

    def value(self, s: PFState) -> float:
        """Barrier value; +inf outside the strict interior of the domain."""
        d, tau = self.edge_vars(s)
        if np.any(np.abs(tau) >= HALF_PI - 1e-12):
            return math.inf
        val = -float(np.sum(np.log(np.cos(tau))))
        if self.box is not None:
            if np.any(np.abs(tau) >= self.box.b_theta):
                return math.inf
            dv = d[self.var]
            if np.any(np.abs(dv) >= self.log_brho):
                return math.inf
            bt = self.box.b_theta
            val -= float(np.sum(np.log(bt - tau) + np.log(bt + tau)))
            br = self.log_brho
            val -= float(np.sum(np.log(br - dv) + np.log(br + dv)))
        try:
            chol = self._factor(s, d, self.n.b / np.cos(tau))
        except np.linalg.LinAlgError:
            return math.inf
        return val - 2.0 * float(np.sum(np.log(np.diag(chol))))

    def _factor(self, s: PFState, d: np.ndarray, w: np.ndarray):
        """The domain matrix's Cholesky factor at s, kept for the last s."""
        key = s.rho.tobytes() + s.theta.tobytes()
        if key != self.key:
            self.chol = np.linalg.cholesky(
                domain_matrix(self.n, d, w, diag_2b=self.diag_2b))
            self.key = key
        return self.chol

    @functools.cached_property
    def _chain(self):
        """(jd, jt, jt_fixed, ends, lines, side, mask): the edge Jacobians
        over the var lines and the fixed ones; the var lines' (from, to)
        PQ indices, -1 at a pinned end, with their arange, the per-end
        sign (-1, +1) and a 0/1 mask of the PQ ends. Built on grad_hess's
        first call: a solve that Newton steps settle never makes one."""
        n, f, t, var = self.n, self.f, self.t, self.var
        m = len(n.lines)
        th_col = np.full(n.n_bus, -1)
        th_col[n.ns] = np.arange(len(n.ns))
        # Edge Jacobian, block-diagonal: d depends on the PQ rho only and
        # tau on the non-slack theta only. Pinned ends land in the dropped
        # last column.
        rows = np.arange(m)
        jd = np.zeros((m, len(n.pq) + 1))
        jd[rows, n.pq_index_of[t]] += 1.0
        jd[rows, n.pq_index_of[f]] -= 1.0
        jt = np.zeros((m, len(n.ns) + 1))
        jt[rows, th_col[f]] += 1.0
        jt[rows, th_col[t]] -= 1.0
        ends = np.stack((n.pq_index_of[f[var]], n.pq_index_of[t[var]]))
        return (jd[var, :-1], jt[var, :-1], jt[~var, :-1], ends,
                np.arange(ends.shape[1]), np.array([[-1.0], [1.0]]),
                (ends >= 0).astype(float))

    def grad_hess(self, s: PFState):
        """Gradient and Hessian of the barrier in packed coordinates.

        Assumes value(s) is finite, so the domain matrix L = diag(2B) -
        U diag(w) U^T has a Cholesky factor, value's own if it saw s last;
        K = L^-1 (Boyd & Vandenberghe, Convex Optimization, App. A.4, for
        the -log det derivatives). Only diag(L) moves with rho: diag(L)_i =
        2B_i - sum_{k from i} a_k - sum_{k to i} c_k with a = w e^d and
        c = w e^-d at PQ ends only. So M = d diag(L) / d rho = N jd, N
        holding -a_k at line k's from-bus and +c_k at its to-bus, and with
        g = a K_ii - c K_jj (o the elementwise product):
            g_rho = jd^T (g + box')
            H_rho,rho = M^T (K o K) M + jd^T diag(a K_ii + c K_jj + box'') jd
            H_rho,tau = jd^T diag(tan tau o g)
                        - M^T ((K U) o (K U)) diag(w tan tau),
        the last chained into theta by jt. The tau gradient and the
        tau-tau block take the one Gram matrix Guu = U^T K U.
        """
        n, var = self.n, self.var
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

        # -log det L over the var lines.
        jd, jt, jf, ends, lines, side, mask = self._chain
        ci = np.linalg.inv(self._factor(s, d, w))
        k = ci.T @ ci
        w, tn = w[var], tn[var]
        wt = w * tn
        # U's entries (e^{d/2}, e^{-d/2}) at the (from, to) ends, 0 at
        # pinned ones; the scatters put those in the dropped last row.
        ex = np.exp(side * (-0.5 * dv)) * mask
        u = np.zeros((len(k) + 1, len(dv)))
        u[ends, lines] = ex
        ku = k @ u[:-1]
        guu = u[:-1].T @ ku
        ac = w * ex * ex  # (a, c)
        akc = ac * k.diagonal()[ends]  # (a K_ii, c K_jj)
        g_hat = akc[0] - akc[1]
        h_d += akc[0] + akc[1]
        u[ends, lines] = ac * side  # N, in U's place
        m = u[:-1] @ jd
        duu = guu.diagonal()
        g_tv = g_t[var] + wt * duu
        h_tt = wt[:, None] * wt
        h_tt *= guu
        h_tt *= guu
        h_tt.flat[::len(w) + 1] += w * (1.0 + 2.0 * tn * tn) * duu + h_t[var]

        fixed = ~var
        npq = jd.shape[1]
        hdt = (jd.T * (tn * g_hat) - (m.T @ (ku * ku)) * wt) @ jt
        hess = np.empty((npq + jt.shape[1],) * 2)
        hess[:npq, :npq] = m.T @ (k * k) @ m + (jd.T * h_d) @ jd
        hess[:npq, npq:] = hdt
        hess[npq:, :npq] = hdt.T
        hess[npq:, npq:] = jt.T @ h_tt @ jt + (jf.T * h_t[fixed]) @ jf
        grad = np.concatenate((jd.T @ (g_hat + g_d), jt.T @ g_tv + jf.T @ g_t[fixed]))
        return grad, hess


def _phase_slack(n: Network, s: PFState) -> float:
    f, t = n.edges[:, 0], n.edges[:, 1]
    te = s.theta[f] - s.theta[t]
    return float(HALF_PI - np.max(np.abs(te))) if len(te) else math.inf


def _classify(n: Network, s: PFState, grad_norm: float, opts: SolveOptions,
              iterations: int, ran_out: bool, trace) -> SolveOutcome:
    cert = _certificate(n, s)
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
    barrier = _Barrier(n, opts.box)
    if not barrier.feasible(s):
        raise InfeasibleStart("initial state is not strictly inside the domain")
    trace: list | None = [] if opts.collect_trace else None
    target = min(opts.grad_tol * 1e-3, 1e-11)
    sn, grad_norm, steps = _newton(n, s, barrier, target)
    if grad_norm <= target:
        out = _classify(n, sn, grad_norm, opts, steps, False, trace)
        if out.status is SolveStatus.SOLUTION_FOUND:
            return out
    # The stages only track the central path; _newton meets grad_tol.
    x, iterations, ran_out = barrier_path(barrier, pack(n, s), MU0, MU_MIN,
                                          opts.grad_tol, trace)
    s, grad_norm, extra = _newton(n, unpack(n, x), barrier, target)
    return _classify(n, s, grad_norm, opts, iterations + extra, ran_out, trace)


def solve_convex_lossy(n: Network, s0: PFState | None = None,
                       opts: SolveOptions | None = None) -> SolveOutcome:
    """The same solve as solve_convex, under the lossy model's name."""
    return solve_convex(n, s0, opts)


def barrier_path(problem, x: np.ndarray, mu: float, mu_min: float,
                 tol: float, trace: list | None = None):
    """Follow the central path of min f + mu phi from x down to mu_min.

    problem.trial(x) returns (f, phi), phi = +inf outside the strict
    interior; problem.derivs(x) returns f, grad f, f'', grad phi and phi''
    at an interior x. Each stage takes damped Newton steps on f + mu phi
    until the gradient is below max(mu / 100, tol / 2) or the predicted
    decrease is below the objective's resolution; then mu falls by
    MU_DECAY and a tangent predictor moves x toward the next stage.
    Appends (mu, f + mu phi) of every accepted step to trace. Returns
    (x, Newton steps, ran_out), ran_out when a step failed or MAX_TOTAL
    steps were spent. Raises InfeasibleStart when phi(x) is not finite.
    """
    _, phi = problem.trial(x)
    if not math.isfinite(phi):
        raise InfeasibleStart("initial state is not strictly inside the domain")
    steps = 0
    while True:
        stage_tol = max(mu * 1e-2, tol * 0.5)
        # The derivatives are taken once more after the last allowed step,
        # so the stage always ends with them fresh at x for the predictor.
        for k in range(MAX_INNER + 1):
            f, gf, hf, gphi, hphi = problem.derivs(x)
            g = gf + mu * gphi
            h = mu * hphi
            h += hf
            if k == MAX_INNER or np.linalg.norm(g, np.inf) <= stage_tol:
                break
            dx = _newton_step(h, -g)
            if dx is None:
                return x, steps, True
            f0 = f + mu * phi
            slope = float(g @ dx)
            if abs(slope) <= 64.0 * np.finfo(float).eps * (1.0 + abs(f0)):
                # Predicted decrease is below the resolution of the
                # objective; the stage is converged to working precision.
                break
            step = _backtrack(problem, x, dx, mu, f0, ARMIJO * slope, trace)
            if step is None:
                return x, steps, True
            x, phi = step
            steps += 1
            if steps >= MAX_TOTAL:
                return x, steps, True
        if mu <= mu_min:
            return x, steps, False
        mu_next = mu * MU_DECAY
        x, phi = _predict(problem, x, f, phi, gphi, h, mu, mu_next, trace)
        mu = mu_next


def _predict(problem, x: np.ndarray, f: float, phi: float, gphi: np.ndarray,
             h: np.ndarray, mu: float, mu_next: float, trace):
    """Step from x(mu) along the central-path tangent toward x(mu_next).

    On the path grad f + mu grad phi = 0, so dx/dmu = -H^-1 grad phi with
    H = f'' + mu phi'' (Fiacco & McCormick 1968, sec. 5.2); f, phi, gphi
    and h are f, phi, grad phi and H at x. The step is halved until phi is
    finite and f + mu_next phi does not rise; when no step passes, x
    stays. Returns (x, phi).
    """
    t = _newton_step(h, gphi)
    step = None if t is None else _backtrack(
        problem, x, (mu - mu_next) * t, mu_next, f + mu_next * phi, 0.0, trace)
    return step or (x, phi)


def _backtrack(problem, x: np.ndarray, dx: np.ndarray, mu: float, f0: float,
               decrease: float, trace):
    """First x + alpha dx, alpha = 1, 1/2, ... down to 1e-14, with a finite
    phi and f + mu phi <= f0 + alpha decrease, as (x, phi); None when there
    is none. Records (mu, f + mu phi) of the accepted point in trace."""
    alpha = 1.0
    while alpha >= 1e-14:
        xn = x + alpha * dx
        f, phi = problem.trial(xn)
        fnew = f + mu * phi
        if fnew <= f0 + alpha * decrease:
            if trace is not None:
                trace.append((mu, fnew))
            return xn, phi
        alpha *= 0.5
    return None


def _newton(n: Network, s: PFState, barrier: _Barrier, target: float):
    """Full Newton steps on E from s until the gradient's infinity norm is
    at most target. A step is kept only when it stays strictly inside the
    barrier's domain and lowers that norm; the first that does not ends the
    loop. Returns (state, gradient norm, steps kept)."""
    x = pack(n, s)
    g = en.energy_gradient(n, s).as_vector()
    best = float(np.linalg.norm(g, np.inf))
    steps = 0
    while best > target and steps < 40:
        dx = _newton_step(en.hessian(n, s), -g)
        if dx is None:
            break
        sn = unpack(n, x + dx)
        if not barrier.feasible(sn):
            break
        gn = en.energy_gradient(n, sn).as_vector()
        norm = float(np.linalg.norm(gn, np.inf))
        if norm >= best:
            break
        x, s, g, best = x + dx, sn, gn, norm
        steps += 1
    return s, best, steps


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
