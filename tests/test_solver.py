import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_twobus, random_network, random_state, same_bits
from gridenergy import energy as en
from gridenergy import solver
from gridenergy.convexity import PhaseVoltageBox, in_domain_C
from gridenergy.energy import HALF_PI, PFState
from gridenergy.errors import InfeasibleStart, NotConstantRatio, UnsupportedTopology
from gridenergy.network import (Bus, BusKind, Line, Network, incidence,
                                scale_injections)
from gridenergy.solver import (SolveOptions, SolveStatus, solve_convex,
                               solve_convex_lossy, solve_newton, sweep_load)

CRITICAL_LOAD = (math.sqrt(2.0) - 1.0) / 2.0  # collapse load of the B=1 two-bus


def strictly_interior(n, s, phase_margin=1e-6):
    """Interior test: matrix eigenvalue clearly positive and every phase
    clearly below 90 degrees."""
    cert = in_domain_C(n, s)
    te = s.theta[n.edges[:, 0]] - s.theta[n.edges[:, 1]]
    if np.any(np.abs(te) >= HALF_PI - phase_margin):
        return False
    return cert.lmi_min_eig > cert.tol_abs


def with_ratio(n, kappa):
    """n with every line's conductance set to kappa b, as solve --lossy-kappa does."""
    return Network(n.buses, [Line(ln.i, ln.j, ln.b, kappa * ln.b) for ln in n.lines])


def twobus_root(s):
    """High-voltage root of u^2 + (2s-1)u + 2s^2 = 0, u = V^2."""
    disc = (2.0 * s - 1.0) ** 2 - 8.0 * s * s
    u = 0.5 * ((1.0 - 2.0 * s) + math.sqrt(disc))
    v = math.sqrt(u)
    return v, math.asin(-s / v)


def grad_hess_at(barrier, s):
    """The barrier's gradient and Hessian at s, from value's factor there."""
    return barrier.grad_hess(s, barrier.value(s)[1])


class TestNewton:
    def test_two_bus_light_load(self):
        out = solve_newton(make_twobus())
        assert out.status is SolveStatus.SOLUTION_FOUND
        assert out.iterations <= 6
        v, th = twobus_root(0.1)
        assert math.exp(out.state.rho[1]) == pytest.approx(v, abs=1e-6)
        assert out.state.theta[1] == pytest.approx(th, abs=1e-6)

    def test_zero_injections_converges_immediately(self):
        out = solve_newton(make_twobus(p=0.0, q=0.0))
        assert out.status is SolveStatus.SOLUTION_FOUND
        assert out.iterations == 0

    def test_infeasible_load(self):
        # discriminant negative at s = 0.25: no real solution
        out = solve_newton(make_twobus(p=-0.25, q=-0.25))
        assert out.status is SolveStatus.MAX_ITERATIONS

    def test_bundled_cases(self, bundled_models):
        for name, n in bundled_models.items():
            out = solve_newton(n)
            assert out.status is SolveStatus.SOLUTION_FOUND, name
            rp, rq = en.pf_residuals(n, out.state)
            assert max(np.max(np.abs(rp)), np.max(np.abs(rq))) <= 1e-10

    @pytest.mark.parametrize("case, delta, solved, unsolved", [
        ("ieee14", 1.0, 4.418, 4.42), ("ieee14", 0.1, 4.855, 4.86),
        ("ieee118", 1.0, 3.6367, 3.637), ("threebus", 1.0, 4.0172, 4.0173)])
    def test_loadability_brackets(self, case, delta, solved, unsolved, bundled_models):
        # From flat, the last load solve_newton solves and the first it
        # does not, on each of the loading paths the bracket table lists.
        n = bundled_models[case]
        for kappa, status in ((solved, SolveStatus.SOLUTION_FOUND),
                              (unsolved, SolveStatus.MAX_ITERATIONS)):
            assert solve_newton(scale_injections(n, kappa, delta)).status is status, kappa

    @pytest.mark.parametrize("case", ["ieee14", "ieee118"])
    def test_no_cholesky_of_newton_size(self, case, bundled_models, monkeypatch):
        # Each step is one LU, with no Cholesky test before it.
        n = bundled_models[case]
        order = len(n.pq) + len(n.ns)
        cholesky, shapes = np.linalg.cholesky, []

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a)[-2:])
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        out = solve_newton(n)
        assert out.status is SolveStatus.SOLUTION_FOUND and out.iterations > 0
        assert (order, order) not in shapes


class TestDampedNewton:
    """solve_newton's damped loop; all but the step count replace its
    step solver or step cap."""

    def test_converges_and_counts_steps(self):
        for load, steps in ((0.1, 4), (0.2, 7)):
            out = solve_newton(make_twobus(p=-load, q=-load))
            assert out.status is SolveStatus.SOLUTION_FOUND
            assert out.iterations == steps

    def test_residual_only_at_valid_trials(self, twobus, monkeypatch):
        # Steps 400 times Newton's: each alpha = 1 trial has a packed entry
        # beyond 30, so the residuals must wait for a halved alpha.
        step, pf_residuals = solver._newton_step, en.pf_residuals
        seen, runaway = [], []

        def scaled(h, rhs):
            dx = 400.0 * step(h, rhs)
            runaway.append(np.max(np.abs(dx)) > 30.0)
            return dx

        def spied(n, s):
            seen.append(np.max(np.abs(en.pack(n, s))))
            return pf_residuals(n, s)

        monkeypatch.setattr(solver, "_newton_step", scaled)
        monkeypatch.setattr(en, "pf_residuals", spied)
        start = float(np.max(np.abs(np.concatenate(pf_residuals(twobus, PFState.flat(twobus))))))
        out = solve_newton(twobus)
        # From flat, x + dx is dx itself.
        assert runaway[0] and out.iterations > 0 and out.grad_norm < start
        assert max(seen) <= 30.0

    def test_no_direction_leaves_x(self, twobus, monkeypatch):
        monkeypatch.setattr(solver, "_newton_step", lambda h, rhs: None)
        out = solve_newton(twobus)
        assert out.iterations == 0 and out.status is SolveStatus.MAX_ITERATIONS
        assert same_bits(en.pack(twobus, out.state), en.pack(twobus, PFState.flat(twobus)))
        rp, rq = en.pf_residuals(twobus, PFState.flat(twobus))
        assert out.grad_norm == max(np.max(np.abs(rp)), np.max(np.abs(rq)))

    def test_uphill_direction_accepts_no_step(self, twobus, monkeypatch):
        step = solver._newton_step
        monkeypatch.setattr(solver, "_newton_step", lambda h, rhs: -step(h, rhs))
        out = solve_newton(twobus)
        assert out.iterations == 0 and out.status is SolveStatus.MAX_ITERATIONS
        assert same_bits(en.pack(twobus, out.state), en.pack(twobus, PFState.flat(twobus)))

    def test_step_cap(self, monkeypatch):
        # Seven steps solve this load; the cap is read at call time.
        monkeypatch.setattr(solver, "MAX_NEWTON", 2)
        out = solve_newton(make_twobus(p=-0.2, q=-0.2))
        assert out.iterations == 2 and out.status is SolveStatus.MAX_ITERATIONS
        assert out.grad_norm > 1e-10


class TestConvex:
    def test_two_bus_figure_sequence(self):
        for s in (0.01, 0.1, 0.2):
            out = solve_convex(make_twobus(p=-s, q=-s))
            assert out.status is SolveStatus.SOLUTION_FOUND
            v, th = twobus_root(s)
            assert math.exp(out.state.rho[1]) == pytest.approx(v, abs=1e-6)
            assert out.state.theta[1] == pytest.approx(th, abs=1e-6)

    def test_two_bus_collapse(self):
        out = solve_convex(make_twobus(p=-0.25, q=-0.25))
        assert out.status is SolveStatus.NO_SOLUTION_IN_C
        assert out.boundary_active or out.grad_norm > 1e-8

    @pytest.mark.parametrize("name, value", [("MAX_TOTAL", 1), ("ARMIJO", 1e6),
                                             ("_newton_step", lambda h, rhs: None)],
                             ids=["step-cap", "no-armijo-step", "no-direction"])
    def test_path_that_runs_out_is_max_iterations(self, monkeypatch, name, value):
        # Beyond collapse, so Newton steps alone never settle it and the
        # path runs: out of steps, out of Armijo steps (_backtrack gives
        # None) or out of Newton directions.
        n = make_twobus(p=-0.3, q=-0.3)
        assert solve_convex(n).status is SolveStatus.NO_SOLUTION_IN_C
        monkeypatch.setattr(solver, name, value)
        out = solve_convex(n)
        assert out.status is SolveStatus.MAX_ITERATIONS

    def test_zero_injections(self):
        n = make_twobus(p=0.0, q=0.0)
        out = solve_convex(n)
        assert out.status is SolveStatus.SOLUTION_FOUND
        assert np.max(np.abs(out.state.rho)) < 1e-9
        assert en.energy_value(n, out.state) == pytest.approx(0.0, abs=1e-15)

    def test_agreement_with_newton(self, bundled_models):
        for name, n in bundled_models.items():
            cv = solve_convex(n)
            nt = solve_newton(n)
            assert cv.status is SolveStatus.SOLUTION_FOUND, name
            diff = max(np.max(np.abs(cv.state.rho - nt.state.rho)),
                       np.max(np.abs(cv.state.theta - nt.state.theta)))
            assert diff <= 1e-6, name

    def test_descent_within_stages(self):
        # Newton steps alone settle this row, so solve_convex leaves the
        # trace empty; the barrier path from the flat start is checked
        # directly.
        n = make_twobus(p=-0.15, q=-0.15)
        out = solve_convex(n, opts=SolveOptions(collect_trace=True))
        assert out.status is SolveStatus.SOLUTION_FOUND and out.trace == []
        trace = []
        solver._Barrier(n, trace=trace).path(en.pack(n, PFState.flat(n)), 1e-8)
        assert trace
        by_mu = {}
        for mu, f in trace:
            by_mu.setdefault(mu, []).append(f)
        for mu, seq in by_mu.items():
            assert all(b <= a + 1e-12 for a, b in zip(seq, seq[1:])), mu

    def test_warm_start_on_the_boundary(self, ieee14_model, monkeypatch):
        # Each warm row's barrier starts at mu = 6.4e-11. At kappa = 4.5 an
        # accepted iterate sits numerically on the boundary of C, where a
        # general inverse of the domain matrix failed; the Cholesky factor
        # that admitted the point gives a verdict instead. The path reads
        # MU0 when it starts, so the warm row's first step is at 6.4e-11.
        prev, statuses = None, []
        opts = SolveOptions(collect_trace=True)
        for kappa in np.arange(1.0, 4.51, 0.5):
            out = solve_convex(scale_injections(ieee14_model, kappa, 1.0), prev, opts)
            monkeypatch.setattr(solver, "MU0", 6.4e-11)
            prev = out.state
            statuses.append(out.status)
        assert statuses == ([SolveStatus.SOLUTION_FOUND] * 7
                            + [SolveStatus.NO_SOLUTION_IN_C])
        assert out.trace[0][0] == 6.4e-11

    def test_predictor_lowers_next_objective(self, threebus, monkeypatch):
        # Every tangent predictor step ends at or below E + mu_next phi at
        # its start, as the path itself computes both, for the energy over
        # a threebus sweep.
        checked = []

        def check(barrier, dx, mu, f0, x):
            s = en.unpack(barrier.n, x)
            checked.append(en.energy_value(barrier.n, s) + mu * barrier.value(s)[0] <= f0)

        spy_predictor(monkeypatch, check)
        # Newton steps settle the solvable rows of a sweep before any
        # barrier, so the energy's path runs from the flat start on each row.
        for kappa in np.arange(0.5, 6.01, 0.25):
            nk = scale_injections(threebus, kappa, 1.0)
            solver._Barrier(nk).path(en.pack(nk, PFState.flat(nk)), 1e-8)
        assert len(checked) > 100 and all(checked)

    def test_stage_ending_on_the_decrement_reuses_its_solve(self, threebus,
                                                            monkeypatch):
        # A stage that ends on lambda^2 = -g.dx / mu <= DECREMENT hands its
        # predictor the tangent column of the LU that measured lambda, and
        # no further np.linalg.solve runs before the predictor.
        events = record_barrier(monkeypatch)
        for kappa in np.arange(0.5, 6.01, 0.5):
            nk = scale_injections(threebus, kappa, 1.0)
            solver._Barrier(nk).path(en.pack(nk, PFState.flat(nk)), 1e-8)
        on_decrement = 0
        for solves, step, mu, mu_next in stage_ends(events):
            rhs, dx = solves[-1]
            if rhs.ndim == 2 and float(rhs[:, 0] @ dx[:, 0]) <= mu * solver.DECREMENT:
                on_decrement += 1
                assert len(solves) == 1
                assert np.array_equal(step, (mu - mu_next) * dx[:, 1])
        assert on_decrement > 20

    @pytest.mark.parametrize("tol, max_inner", [(1e3, solver.MAX_INNER), (1e-8, 1)])
    def test_stage_ending_on_its_checks_solves_its_tangent(self, threebus, tol,
                                                           max_inner, monkeypatch):
        # With tol = 1e3 every stage ends on its first gradient check, before
        # any Newton system; with MAX_INNER = 1 a stage that takes its one
        # step ends on the cap with fresh derivatives. Either way the stage
        # solves H t = grad phi at its end point for the predictor.
        monkeypatch.setattr(solver, "MAX_INNER", max_inner)
        events = record_barrier(monkeypatch)
        for kappa in np.arange(0.5, 6.01, 0.5):
            nk = scale_injections(threebus, kappa, 1.0)
            solver._Barrier(nk).path(en.pack(nk, PFState.flat(nk)), tol)
        own = 0
        for solves, step, mu, mu_next in stage_ends(events):
            rhs, dx = solves[-1]
            assert len(solves) == 1
            assert np.array_equal(step, (mu - mu_next) * (dx if rhs.ndim == 1 else dx[:, 1]))
            own += rhs.ndim == 1
        assert own > 20

    def test_solution_strictly_interior(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            n = random_network(rng, n_max=6, inj_scale=0.1)
            out = solve_convex(n)
            if out.status is SolveStatus.SOLUTION_FOUND:
                assert strictly_interior(n, out.state)
                rp, rq = en.pf_residuals(n, out.state)
                assert np.max(np.abs(np.concatenate((rp, rq)))) <= 1e-8

    def test_infeasible_start_rejected(self):
        n = make_twobus()
        s0 = PFState.flat(n)
        s0.rho[1] = math.log(0.4)  # outside the domain matrix condition
        with pytest.raises(InfeasibleStart):
            solve_convex(n, s0)

    def test_certificate_attached(self):
        out = solve_convex(make_twobus())
        assert out.certificate.in_c

    def test_operational_box_restricts_solution(self):
        # modest load solves inside a generous box, reports no solution in
        # the restricted set when the box excludes it
        n = make_twobus(p=-0.2, q=-0.2)
        wide = solve_convex(n, opts=SolveOptions(
            box=PhaseVoltageBox(b_rho=2.5, b_theta=1.0)))
        assert wide.status is SolveStatus.SOLUTION_FOUND
        v, _ = twobus_root(0.2)
        assert math.exp(wide.state.rho[1]) == pytest.approx(v, abs=1e-6)
        tight = solve_convex(n, opts=SolveOptions(
            box=PhaseVoltageBox(b_rho=1.2, b_theta=0.1)))
        assert tight.status is not SolveStatus.SOLUTION_FOUND

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_malformed_tolerance_rejected(self, tol):
        # No gradient norm meets such a tolerance, so a solve would end in
        # a false NoSolutionInC (or MaxIterations) instead of an error.
        with pytest.raises(ValueError, match="grad_tol must be finite and positive"):
            SolveOptions(grad_tol=tol)
        with pytest.raises(ValueError, match="^tol must be finite and positive"):
            solve_newton(make_twobus(), tol=tol)


def spy_predictor(monkeypatch, seen):
    """Call seen(barrier, dx, mu+, f0, x_end) after each tangent predictor
    step of later paths: the one line search that may not lower E + mu phi
    (decrease 0; a Newton step's is ARMIJO times its negative slope). x_end
    is where the search left x."""
    backtrack = solver._Barrier._backtrack

    def spy(self, x, dx, mu, f0, decrease):
        out = backtrack(self, x, dx, mu, f0, decrease)
        if decrease == 0.0:
            seen(self, dx, mu, f0, x if out is None else out[0])
        return out

    monkeypatch.setattr(solver._Barrier, "_backtrack", spy)


def record_barrier(monkeypatch):
    """The events of later paths, in order: ("derivs",) at each barrier
    derivative, ("solve", rhs, answer) at each np.linalg.solve and
    ("predict", dx, mu+) at each predictor step dx = (mu - mu+) t."""
    events = []
    grad_hess, solve = solver._Barrier.grad_hess, np.linalg.solve

    def counted_grad_hess(self, s, chol):
        events.append(("derivs",))
        return grad_hess(self, s, chol)

    def counted_solve(a, b):
        out = solve(a, b)
        events.append(("solve", b, out))
        return out

    monkeypatch.setattr(solver._Barrier, "grad_hess", counted_grad_hess)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    spy_predictor(monkeypatch, lambda barrier, dx, mu, f0, x: events.append(
        ("predict", dx, mu)))
    return events


def stage_ends(events):
    """(solves since the stage's last derivatives as (rhs, answer), the
    predictor's step dx, mu, mu+) for each predictor step of
    record_barrier's events, mu found from mu+ on the path's schedule."""
    mu, before = solver.MU0, {}
    while mu > solver.MU_MIN:
        before[mu * solver.MU_DECAY] = mu
        mu *= solver.MU_DECAY
    ends, solves = [], []
    for event in events:
        if event[0] == "derivs":
            solves = []
        elif event[0] == "solve":
            solves.append(event[1:])
        else:
            ends.append((solves, event[1], before[event[2]], event[2]))
    return ends


class TestEdgeTopologies:
    def test_pv_only_network(self):
        # no PQ buses: the matrix condition is empty and the domain is just
        # the phase cone
        from gridenergy.network import Bus, BusKind, Line, Network
        n = Network([Bus(1, BusKind.SLACK), Bus(2, BusKind.PV, p_inj=0.5),
                     Bus(3, BusKind.PV, p_inj=-0.4)],
                    [Line(1, 2, 1.2), Line(2, 3, 0.8), Line(1, 3, 2.0)])
        out = solve_convex(n)
        nt = solve_newton(n)
        assert out.status is SolveStatus.SOLUTION_FOUND
        assert out.certificate.in_c
        assert np.max(np.abs(out.state.theta - nt.state.theta)) < 1e-8

    def test_load_chain(self):
        from gridenergy.network import Bus, BusKind, Line, Network
        buses = [Bus(1, BusKind.SLACK)] + [
            Bus(i, BusKind.PQ, p_inj=-0.05, q_inj=-0.03) for i in range(2, 6)]
        lines = [Line(i, i + 1, 2.0) for i in range(1, 5)]
        n = Network(buses, lines)
        cv = solve_convex(n)
        nt = solve_newton(n)
        assert cv.status is SolveStatus.SOLUTION_FOUND
        diff = max(np.max(np.abs(cv.state.rho - nt.state.rho)),
                   np.max(np.abs(cv.state.theta - nt.state.theta)))
        assert diff < 1e-6
        heavy = Network([Bus(1, BusKind.SLACK)] + [
            Bus(i, BusKind.PQ, p_inj=-0.3, q_inj=-0.3) for i in range(2, 6)],
            lines)
        assert solve_convex(heavy).status is SolveStatus.NO_SOLUTION_IN_C

    def test_large_susceptance_scale(self):
        # tolerances are relative to matrix scale, so stiff lines still solve
        n = make_twobus(p=-30.0, q=-20.0, b=500.0)
        cv = solve_convex(n)
        nt = solve_newton(n)
        assert cv.status is SolveStatus.SOLUTION_FOUND
        assert np.max(np.abs(cv.state.rho - nt.state.rho)) < 1e-8


def barrier_only(n, s0=None, opts=None):
    """solve_convex with its first Newton try taking no step, so that the
    barrier path settles every row; the final polish still runs."""
    real, calls = solver._Barrier.newton, []

    def first_try_idle(self, s, target):
        calls.append(None)
        return (s, math.inf, 0) if len(calls) == 1 else real(self, s, target)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver._Barrier, "newton", first_try_idle)
        return solve_convex(n, s0, opts)


def assert_agrees_with_barrier_only(n, s0=None):
    first, barrier = solve_convex(n, s0), barrier_only(n, s0)
    assert first.status is barrier.status
    if first.status is SolveStatus.SOLUTION_FOUND:
        diff = max(np.max(np.abs(first.state.rho - barrier.state.rho)),
                   np.max(np.abs(first.state.theta - barrier.state.theta)))
        assert diff <= 1e-9


@given(st.integers(0, 2 ** 32 - 1), st.floats(0.05, 1.5))
@settings(max_examples=100, deadline=None)
def test_newton_first_agrees_with_barrier_only(seed, inj_scale):
    # E is strictly convex on C, so the interior stationary point that full
    # Newton steps reach is the one the barrier path reaches, from a flat
    # or any feasible start.
    rng = np.random.default_rng(seed)
    n = random_network(rng, n_max=7, inj_scale=inj_scale)
    assert_agrees_with_barrier_only(n)
    s0 = random_state(rng, n)
    if solver._Barrier(n).feasible(s0):
        assert_agrees_with_barrier_only(n, s0)


def reference_ridge(h, rhs):
    """The ridge solve as a helper of its own: solve_spd on h + reg I, reg
    = 0 first, then 1e-10 (1 + max |diag h|) growing 100-fold a try; None
    after eight failed tries."""
    from gridenergy.errors import NotPositiveDefinite
    from gridenergy.linalg import solve_spd

    reg = 0.0
    for _ in range(8):
        try:
            return solve_spd(h + reg * np.eye(len(h)) if reg else h, rhs)
        except NotPositiveDefinite:
            scale = 1.0 + float(np.max(np.abs(np.diag(h))))
            reg = 1e-10 * scale if reg == 0.0 else reg * 100.0
    return None


def spy_solve_spd(monkeypatch):
    """(m, rhs) of every solver.solve_spd call. A column took the ridge
    exactly when a call receives h itself: the ridge's reg = 0 try."""
    solve_spd, calls = solver.solve_spd, []
    monkeypatch.setattr(solver, "solve_spd",
                        lambda m, rhs: calls.append((m, rhs)) or solve_spd(m, rhs))
    return calls


class TestNewtonStep:
    """_newton_step: one LU solve where h is positive definite, and the
    ridge's answer wherever that solve is not a descent direction."""

    @pytest.mark.parametrize("order", [1, 9, 64, 181])
    def test_spd_bit_equal_to_solve_spd(self, order):
        from gridenergy.linalg import solve_spd, symmetrize

        rng = np.random.default_rng(order)
        for _ in range(5):
            # Slightly asymmetric, as products of rounded terms are; the
            # caller symmetrizes, as _Barrier.path does, and _newton_step
            # factors what it is given.
            a = rng.standard_normal((order, order))
            h = a @ a.T + order * np.eye(order)
            h += 1e-13 * rng.standard_normal((order, order))
            rhs = rng.standard_normal(order)
            dx = solver._newton_step(symmetrize(h), rhs)
            assert dx.tobytes() == solve_spd(h, rhs).tobytes()

    def test_indefinite_ascent_takes_the_ridge(self):
        # The LU direction (0.5, -1) of this indefinite h points uphill:
        # rhs . dx = 0.25 - 1 < 0.
        h, rhs = np.diag([1.0, -1.0]), np.array([0.5, 1.0])
        assert float(rhs @ np.linalg.solve(h, rhs)) < 0.0
        dx = solver._newton_step(h, rhs)
        assert dx.tobytes() == reference_ridge(h, rhs).tobytes()
        assert float(rhs @ dx) > 0.0

    def test_singular_takes_the_ridge(self, monkeypatch):
        h, rhs = np.ones((3, 3)), np.array([1.0, 2.0, 3.0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(h, rhs)
        calls = spy_solve_spd(monkeypatch)
        dx = solver._newton_step(h, rhs)
        assert [m is h for m, _ in calls].count(True) == 1
        assert dx.tobytes() == reference_ridge(h, rhs).tobytes()

    @pytest.mark.parametrize("case", ["twobus", "threebus", "ieee14", "ieee118"])
    def test_two_columns_match_two_calls(self, case, bundled_models):
        # The barrier's stages solve for the Newton step and the predictor's
        # tangent with one LU; each column is the one-column answer.
        n = scale_injections(bundled_models[case], 1.5, 1.0)
        barrier = solver._Barrier(n)
        for s in (PFState.flat(n), solve_convex(n).state):
            gf, hf = en.energy_gradient(n, s).as_vector(), en.hessian(n, s)
            gphi, hphi = grad_hess_at(barrier, s)
            for mu in (1.0, 1e-4, 1e-9):
                g, h = gf + mu * gphi, hf + mu * hphi
                both = solver._newton_step(h, np.column_stack((-g, gphi)))
                for col, rhs in zip(both.T, (-g, gphi)):
                    one = solver._newton_step(h, rhs)
                    assert np.linalg.norm(col - one) <= 1e-13 * np.linalg.norm(one)

    def test_columns_take_the_ridge_alone(self, monkeypatch):
        calls = spy_solve_spd(monkeypatch)
        # Indefinite: the first column's LU direction (0.5, -1) points uphill,
        # the second's (1, 0) does not.
        h, rhs = np.diag([1.0, -1.0]), np.array([[0.5, 1.0], [1.0, 0.0]])
        dx = solver._newton_step(h, rhs)
        ridged = [b for m, b in calls if m is h]
        assert len(ridged) == 1 and ridged[0].tobytes() == rhs[:, 0].tobytes()
        assert dx[:, 0].tobytes() == reference_ridge(h, rhs[:, 0]).tobytes()
        assert dx[:, 1].tobytes() == np.linalg.solve(h, rhs[:, 1]).tobytes()
        # Singular: LU fails, so every column takes the ridge.
        calls.clear()
        h, rhs = np.ones((3, 3)), np.array([[1.0, 0.5], [2.0, 0.0], [3.0, -1.0]])
        dx = solver._newton_step(h, rhs)
        assert [m is h for m, _ in calls].count(True) == 2
        for j in range(2):
            assert dx[:, j].tobytes() == reference_ridge(h, rhs[:, j]).tobytes()

    def test_singular_laplacians_never_raise(self):
        # Cholesky passes these through rounding where LU meets an exact
        # zero pivot; the ridge still answers, with a finite step or None.
        from test_linalg import CHOLESKY_PASSES_LU_FAILS, singular_laplacian

        dx = solver._newton_step(CHOLESKY_PASSES_LU_FAILS, np.array([1.0, -1.0, 0.0]))
        assert np.isfinite(dx).all()
        rng = np.random.default_rng(51)
        for _ in range(300):
            h = singular_laplacian(rng, (3, 9))
            dx = solver._newton_step(h, rng.standard_normal(len(h)))
            assert dx is None or np.isfinite(dx).all()

    def test_no_ridge_answer_gives_none(self):
        # Indefinite far beyond the largest ridge, 1e-10 (1 + max |diag|)
        # 100^6 = 100; rhs . dx = 0 for the LU answer (0, 1e-6).
        h = np.array([[0.0, 1e6], [1e6, 0.0]])
        assert solver._newton_step(h, np.array([1.0, 0.0])) is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_raises(self, bad):
        from gridenergy.errors import InvalidMatrix

        # With h[0, 0] = inf, LU alone returns the finite descent step (0, 1).
        h, rhs = np.eye(2), np.array([0.0, 1.0])
        h[0, 0] = bad
        with pytest.raises(InvalidMatrix):
            solver._newton_step(h, rhs)

    def test_no_cholesky_of_newton_size_on_a_no_solution_row(self, ieee14_model,
                                                            monkeypatch):
        # The barrier still factors its PQ x PQ domain matrix; the packed
        # Newton systems are solved by LU alone.
        n = scale_injections(ieee14_model, 5.5, 1.0)
        order = len(n.pq) + len(n.ns)
        cholesky, shapes = np.linalg.cholesky, []

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        out = solve_convex(n)
        assert out.status is SolveStatus.NO_SOLUTION_IN_C
        assert shapes and (order, order) not in shapes

    @pytest.mark.parametrize("case", ["twobus", "threebus", "ieee14"])
    def test_sweeps_never_fall_back(self, case, bundled_models, monkeypatch):
        step, steps = solver._newton_step, [0]

        def counted_step(h, rhs):
            steps[0] += 1
            return step(h, rhs)

        monkeypatch.setattr(solver, "_newton_step", counted_step)
        ridges = spy_solve_spd(monkeypatch)
        records = sweep_load(bundled_models[case], 1.0, np.arange(0.5, 6.01, 0.25))
        assert {r.status for r in records} == {SolveStatus.SOLUTION_FOUND,
                                               SolveStatus.NO_SOLUTION_IN_C}
        # The ridge's first try is a solve_spd call; none means no ridge.
        assert steps[0] > 0 and not ridges


class TestSymmetricNewtonMatrices:
    """Every matrix _newton_step factors is exactly symmetric where it is
    formed: E'' as energy.hessian scatters it, with no symmetrize, and
    E'' + mu phi'' as _Barrier.path symmetrizes it once."""

    @staticmethod
    def spy(monkeypatch):
        """Whether each matrix _newton_step receives equals its transpose
        bit for bit, and the shape of each symmetrize call in energy and
        solver."""
        symmetric, symmetrized = [], []
        step, symmetrize = solver._newton_step, solver.symmetrize

        def spy_step(h, rhs):
            symmetric.append(same_bits(h, h.T))
            return step(h, rhs)

        def spy_symmetrize(a, out=None):
            symmetrized.append(a.shape)
            return symmetrize(a, out=out)

        monkeypatch.setattr(solver, "_newton_step", spy_step)
        for module in (en, solver):
            monkeypatch.setattr(module, "symmetrize", spy_symmetrize)
        return symmetric, symmetrized

    def test_solve_newton_symmetrizes_nothing(self, ieee118_model, monkeypatch):
        symmetric, symmetrized = self.spy(monkeypatch)
        out = solve_newton(ieee118_model)
        assert out.status is SolveStatus.SOLUTION_FOUND and out.iterations > 0
        assert len(symmetric) >= out.iterations and all(symmetric)
        assert symmetrized == []

    def test_sweep_through_no_solution(self, ieee14_model, monkeypatch):
        symmetric, symmetrized = self.spy(monkeypatch)
        records = sweep_load(ieee14_model, 1.0, np.arange(1.0, 5.76, 0.5))
        assert {r.status for r in records} == {SolveStatus.SOLUTION_FOUND,
                                               SolveStatus.NO_SOLUTION_IN_C}
        # The barrier ran, and only it symmetrized: once a Newton matrix.
        order = len(ieee14_model.pq) + len(ieee14_model.ns)
        assert symmetrized and set(symmetrized) == {(order, order)}
        assert len(symmetric) > len(symmetrized) and all(symmetric)


class TestNewtonFirst:
    def test_bundled_cases_agree_with_barrier_only(self, bundled_models):
        for name, n in bundled_models.items():
            for kappa in (1.0, 2.5, 4.0, 5.5):
                assert_agrees_with_barrier_only(scale_injections(n, kappa, 1.0))

    @pytest.mark.parametrize("case, kappas", [
        ("ieee14", np.arange(1.0, 5.76, 0.5)), ("ieee118", np.arange(1.0, 4.51, 0.5))])
    def test_solved_sweep_rows_skip_the_barrier(self, case, kappas, request,
                                                monkeypatch):
        # Criterion 8's delta = 1 sweeps: Newton steps settle every solvable
        # row, so only the NoSolutionInC rows differentiate the barrier.
        n = request.getfixturevalue(case + "_model")
        rows, calls = [], [0]
        grad_hess, solve = solver._Barrier.grad_hess, solver.solve_convex

        def counted(self, s, chol):
            calls[0] += 1
            return grad_hess(self, s, chol)

        def per_row(*args):
            calls[0] = 0
            out = solve(*args)
            rows.append((out.status, calls[0]))
            return out

        monkeypatch.setattr(solver._Barrier, "grad_hess", counted)
        monkeypatch.setattr(solver, "solve_convex", per_row)
        sweep_load(n, 1.0, kappas)
        found = [c for status, c in rows if status is SolveStatus.SOLUTION_FOUND]
        assert len(found) >= 6 and not any(found)
        assert all(c for status, c in rows if status is not SolveStatus.SOLUTION_FOUND)

    def test_infeasible_starts_still_rejected(self):
        # From a start outside C full Newton steps often land inside it and
        # converge to the solution there; the start is still rejected.
        rng = np.random.default_rng(7)
        outside = into_c = 0
        for _ in range(200):
            n = random_network(rng, n_max=7, inj_scale=0.3)
            s0 = random_state(rng, n)
            barrier = solver._Barrier(n)
            if barrier.feasible(s0):
                continue
            outside += 1
            with pytest.raises(InfeasibleStart):
                solve_convex(n, s0)
            s, grad_norm, _ = barrier.newton(s0, 1e-11)
            into_c += grad_norm <= 1e-11 and strictly_interior(n, s)
        assert outside > 20 and into_c > 0

    def test_threebus_solutions_outside_c(self, threebus):
        # At kappa = 1 threebus has 4 real solutions with every line below
        # 90 degrees and only one in C. Starts at the other three, refined
        # by undamped Newton on the energy's gradient, are rejected.
        n = threebus
        found = solve_convex(n)
        assert found.status is SolveStatus.SOLUTION_FOUND
        for v, theta in (((0.0771, 0.0931), (-0.9594, -0.9289)),
                         ((0.0571, 0.5746), (-1.0004, -0.1566)),
                         ((0.5873, 0.0673), (-0.1394, -0.9849))):
            s0 = PFState.flat(n)
            s0.rho[n.pq], s0.theta[n.ns] = np.log(v), theta
            x = en.pack(n, s0)
            for _ in range(8):
                s0 = en.unpack(n, x)
                x = x - np.linalg.solve(en.hessian(n, s0),
                                        en.energy_gradient(n, s0).as_vector())
            s0 = en.unpack(n, x)
            assert np.max(np.abs(en.energy_gradient(n, s0).as_vector())) <= 1e-10
            te = s0.theta[n.edges[:, 0]] - s0.theta[n.edges[:, 1]]
            assert np.all(np.abs(te) < HALF_PI)
            assert not in_domain_C(n, s0).in_c
            assert np.max(np.abs(s0.rho - found.state.rho)) > 0.5
            with pytest.raises(InfeasibleStart):
                solve_convex(n, s0)

    def test_outcomes_stay_inside_the_domain(self, threebus):
        # Newton steps are kept only strictly inside C and the box, so every
        # outcome's state is a point of both: a solution outside the box is
        # not returned, and a NoSolutionInC state stays inside.
        for box in (None, PhaseVoltageBox(b_rho=1.1, b_theta=0.1)):
            opts = SolveOptions(box=box)
            for kappa in np.arange(1.0, 6.01, 0.5):
                for delta in (1.0, 0.1):
                    nk = scale_injections(threebus, kappa, delta)
                    out = solve_convex(nk, opts=opts)
                    assert solver._Barrier(nk, box).feasible(out.state), (kappa, delta)
            for p in (-0.2, -0.25, -0.4):
                n = make_twobus(p=p, q=p)
                out = solve_convex(n, opts=opts)
                assert solver._Barrier(n, box).feasible(out.state), p


class TestBarrierDerivatives:
    def test_matches_finite_differences(self, ieee14_model):
        from gridenergy.energy import pack, unpack
        from conftest import fd_gradient
        from gridenergy.linalg import fd_hessian
        from gridenergy.solver import _Barrier

        rng = np.random.default_rng(52)
        for box in (None, PhaseVoltageBox(b_rho=1.4, b_theta=0.6)):
            barrier = _Barrier(ieee14_model, box)
            s = PFState.flat(ieee14_model)
            s.rho[ieee14_model.pq] = 0.05 * rng.standard_normal(
                len(ieee14_model.pq))
            s.theta[ieee14_model.ns] = 0.08 * rng.standard_normal(
                len(ieee14_model.ns))
            assert barrier.feasible(s)
            x0 = pack(ieee14_model, s)
            f = lambda x: barrier.value(unpack(ieee14_model, x))[0]
            g, h = grad_hess_at(barrier, s)
            gfd = fd_gradient(f, x0)
            assert np.max(np.abs(g - gfd)) / (1 + np.max(np.abs(gfd))) < 1e-7
            hfd = fd_hessian(f, x0)
            assert np.max(np.abs(h - hfd)) / (1 + np.max(np.abs(hfd))) < 1e-4

    def test_hessian_is_derivative_of_gradient_ieee118(self, ieee118_model):
        # The Hessian is chained block by block (rho-rho, rho-theta,
        # theta-theta); a central difference of the analytic gradient checks
        # every block, including the off-diagonal one's orientation.
        from gridenergy.energy import pack, unpack
        from gridenergy.solver import _Barrier

        n = ieee118_model
        rng = np.random.default_rng(53)
        for box in (None, PhaseVoltageBox(b_rho=1.4, b_theta=0.6)):
            barrier = _Barrier(n, box)
            s = PFState.flat(n)
            s.rho[n.pq] = 0.02 * rng.standard_normal(len(n.pq))
            s.theta[n.ns] = 0.04 * rng.standard_normal(len(n.ns))
            assert barrier.feasible(s)
            x0 = pack(n, s)
            _, h = grad_hess_at(barrier, s)
            eps = 1e-6
            hfd = np.empty_like(h)
            for j in range(len(x0)):
                e = np.zeros_like(x0)
                e[j] = eps
                gp, _ = grad_hess_at(barrier, unpack(n, x0 + e))
                gm, _ = grad_hess_at(barrier, unpack(n, x0 - e))
                hfd[:, j] = (gp - gm) / (2.0 * eps)
            assert np.max(np.abs(h - hfd)) / np.max(np.abs(hfd)) < 1e-6


def all_lines_domain(n, d, w):
    """U over every line, read off the incidence (e^{+-d/2} at PQ ends, a
    zero column on a line without one), and L = diag(2B) - U diag(w) U^T,
    from per-line d and w: the barrier's factor, built independently."""
    a = incidence(n)[n.pq]
    u = np.where(a != 0.0, np.exp(0.5 * a * d), 0.0)
    return u, np.diag(2.0 * n.b_total[n.pq]) - (u * w) @ u.T


def all_lines_grad_hess(n, box, s):
    """Reference barrier gradient and Hessian: the -log det products over
    every line, with K = L^-1 from a general inverse and dense Jacobians."""
    f, t = n.edges[:, 0], n.edges[:, 1]
    d, tau = s.rho[t] - s.rho[f], s.theta[f] - s.theta[t]
    tn, w = np.tan(tau), n.b / np.cos(tau)
    wt = w * tn
    m, npq, nns = len(n.lines), len(n.pq), len(n.ns)
    th_col = np.full(n.n_bus, -1)
    th_col[n.ns] = np.arange(nns)
    jd, jt = np.zeros((m, npq + 1)), np.zeros((m, nns + 1))
    jd[np.arange(m), n.pq_index_of[t]] += 1.0
    jd[np.arange(m), n.pq_index_of[f]] -= 1.0
    jt[np.arange(m), th_col[f]] += 1.0
    jt[np.arange(m), th_col[t]] -= 1.0
    jd, jt = jd[:, :-1], jt[:, :-1]
    g_d, h_d = np.zeros(m), np.zeros(m)
    g_t, h_t = tn.copy(), 1.0 + tn * tn
    if box is not None:
        bt, br = box.b_theta, math.log(box.b_rho)
        g_t += 1.0 / (bt - tau) - 1.0 / (bt + tau)
        h_t += 1.0 / (bt - tau) ** 2 + 1.0 / (bt + tau) ** 2
        g_d += 1.0 / (br - d) - 1.0 / (br + d)
        h_d += 1.0 / (br - d) ** 2 + 1.0 / (br + d) ** 2
    u, lm = all_lines_domain(n, d, w)
    v = u * (-0.5 * jd.T)
    k_inv = np.linalg.inv(lm)
    guu, gvu, gvv = u.T @ k_inv @ u, v.T @ k_inv @ u, v.T @ k_inv @ v
    duu, dvu, dvv = np.diag(guu), np.diag(gvu), np.diag(gvv)
    g_d += 2.0 * w * dvu
    g_t += wt * duu
    h_dd = np.outer(w, w) * 2.0 * (gvu * gvu.T + guu * gvv)
    h_dt = 2.0 * np.outer(w, wt) * gvu * guu
    h_tt = np.outer(wt, wt) * guu * guu
    h_dd += np.diag(w * (2.0 * dvv + 0.5 * duu) + h_d)
    h_dt += np.diag(2.0 * wt * dvu)
    h_tt += np.diag(w * (1.0 + 2.0 * tn * tn) * duu + h_t)
    j = np.block([[jd, np.zeros((m, nns))], [np.zeros((m, npq)), jt]])
    h = j.T @ np.block([[h_dd, h_dt], [h_dt.T, h_tt]]) @ j
    return j.T @ np.concatenate((g_d, g_t)), h


class TestBarrierLines:
    @pytest.mark.parametrize("case", ["ieee14", "ieee118"])
    def test_var_lines_match_all_lines_chain(self, case, request):
        # grad_hess forms the -log det products on lines with a PQ end only;
        # the other lines contribute zero columns of U.
        from gridenergy.solver import _Barrier

        n = request.getfixturevalue(case + "_model")
        rng = np.random.default_rng(54)
        for box in (None, PhaseVoltageBox(b_rho=1.4, b_theta=0.6)):
            barrier = _Barrier(n, box)
            assert len(n.active) < len(n.lines)
            s = PFState.flat(n)
            s.rho[n.pq] = 0.02 * rng.standard_normal(len(n.pq))
            s.theta[n.ns] = 0.04 * rng.standard_normal(len(n.ns))
            assert barrier.feasible(s)
            g, h = grad_hess_at(barrier, s)
            g_ref, h_ref = all_lines_grad_hess(n, box, s)
            assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))
            assert np.max(np.abs(h - h_ref)) <= 1e-12 * np.max(np.abs(h_ref))


def reference_grad_hess(n, box, s):
    """The barrier's gradient and Hessian from edge-space blocks: every
    -log det term is an elementwise product of Guu = U^T K U, Gvu = V^T K U
    and Gvv = V^T K V over the lines with a PQ end, V = dU/dd, chained into
    packed coordinates through the edge Jacobians."""
    f, t = n.edges[:, 0], n.edges[:, 1]
    var = (n.pq_index_of[f] >= 0) | (n.pq_index_of[t] >= 0)
    m = len(n.lines)
    th_col = np.full(n.n_bus, -1)
    th_col[n.ns] = np.arange(len(n.ns))
    rows = np.arange(m)
    jd, jt = np.zeros((m, len(n.pq) + 1)), np.zeros((m, len(n.ns) + 1))
    jd[rows, n.pq_index_of[t]] += 1.0
    jd[rows, n.pq_index_of[f]] -= 1.0
    jt[rows, th_col[f]] += 1.0
    jt[rows, th_col[t]] -= 1.0
    jd, jf, jt = jd[var, :-1], jt[~var, :-1], jt[var, :-1]
    sign = -0.5 * jd.T

    d, tau = s.rho[t] - s.rho[f], s.theta[f] - s.theta[t]
    tn, w = np.tan(tau), n.b / np.cos(tau)
    g_t, h_t = tn.copy(), 1.0 + tn * tn
    dv = d[var]
    g_d, h_d = np.zeros((2, len(dv)))
    if box is not None:
        bt, br = box.b_theta, math.log(box.b_rho)
        g_t += 1.0 / (bt - tau) - 1.0 / (bt + tau)
        h_t += 1.0 / (bt - tau) ** 2 + 1.0 / (bt + tau) ** 2
        g_d += 1.0 / (br - dv) - 1.0 / (br + dv)
        h_d += 1.0 / (br - dv) ** 2 + 1.0 / (br + dv) ** 2
    u, lm = all_lines_domain(n, d, w)
    ci = np.linalg.inv(np.linalg.cholesky(lm))
    u = u[:, var]
    cu, cv = ci @ u, ci @ (u * sign)
    guu, gvu, gvv = cu.T @ cu, cv.T @ cu, cv.T @ cv
    duu, dvu, dvv = np.diag(guu), np.diag(gvu), np.diag(gvv)
    w, tn = w[var], tn[var]
    wt = w * tn
    g_d += 2.0 * w * dvu
    g_tv = g_t[var] + wt * duu
    h_dd = 2.0 * np.outer(w, w) * (gvu * gvu.T + guu * gvv)
    h_dt = 2.0 * np.outer(w, wt) * gvu * guu
    h_tt = np.outer(wt, wt) * guu * guu
    h_dd += np.diag(w * (2.0 * dvv + 0.5 * duu) + h_d)
    h_dt += np.diag(2.0 * wt * dvu)
    h_tt += np.diag(w * (1.0 + 2.0 * tn * tn) * duu + h_t[var])
    h_rt = jd.T @ h_dt @ jt
    hess = np.block([[jd.T @ h_dd @ jd, h_rt],
                     [h_rt.T, jt.T @ h_tt @ jt + (jf.T * h_t[~var]) @ jf]])
    grad = np.concatenate((jd.T @ g_d, jt.T @ g_tv + jf.T @ g_t[~var]))
    return grad, hess


def feasible_states(n, box, rng, count):
    """count random states strictly inside the barrier's domain, each drawn
    at rho/theta spreads 0.1/0.2 and halved until it is."""
    barrier, states = solver._Barrier(n, box), []
    while len(states) < count:
        for scale in 0.5 ** np.arange(12):
            s = random_state(rng, n, 0.1 * scale, 0.2 * scale)
            if barrier.feasible(s):
                states.append(s)
                break
        else:
            raise AssertionError("no feasible state drawn")
    return states


def assert_matches_reference(n, box, states):
    for s in states:
        g, h = grad_hess_at(solver._Barrier(n, box), s)
        g_ref, h_ref = reference_grad_hess(n, box, s)
        assert g.shape == g_ref.shape and h.shape == h_ref.shape
        for x, ref in ((g, g_ref), (h, h_ref)):
            top = np.max(np.abs(ref), initial=0.0)
            assert np.max(np.abs(x - ref), initial=0.0) <= 1e-12 * (1.0 + top)


class TestBusCoordinateBarrier:
    # grad_hess forms the rho blocks from K o K and M = d diag(L) / d rho;
    # the edge-space chain gives the same derivatives.
    @pytest.mark.parametrize("case", ["twobus", "threebus", "threebus-tree",
                                      "ieee14", "ieee118"])
    @pytest.mark.parametrize("box", [None, PhaseVoltageBox(b_rho=1.4, b_theta=0.6)])
    def test_bundled_cases(self, case, box, bundled_models):
        n = bundled_models[case]
        assert_matches_reference(n, box, feasible_states(
            n, box, np.random.default_rng(57), 3))

    def test_lossy_threebus(self, threebus):
        n = with_ratio(threebus, 0.2)
        assert_matches_reference(n, None, feasible_states(
            n, None, np.random.default_rng(58), 5))

    def test_random_networks(self):
        rng = np.random.default_rng(59)
        for _ in range(30):
            n = random_network(rng)
            assert_matches_reference(n, None, feasible_states(n, None, rng, 2))


class TestBarrierChainJacobians:
    def test_built_at_the_first_grad_hess(self, ieee118_model):
        # A fresh network: the session's models may hold a chain already.
        n = Network(ieee118_model.buses, ieee118_model.lines)
        barrier = solver._Barrier(n)
        s = PFState.flat(n)
        assert barrier.feasible(s) and solver._chain not in n._derived
        h = grad_hess_at(barrier, s)[1]
        chain = n._derived[solver._chain]
        assert grad_hess_at(barrier, s)[1].tobytes() == h.tobytes()
        assert n._derived[solver._chain] is chain
        # Every barrier on the network's line set takes the same chain.
        grad_hess_at(solver._Barrier(n), s)
        assert n._derived[solver._chain] is chain


class TestBarrierFactorReuse:
    @pytest.mark.parametrize("case", ["twobus", "threebus", "threebus-tree",
                                      "ieee14", "ieee118"])
    def test_grad_hess_follows_its_point(self, case, bundled_models):
        # value hands out its point's Cholesky factor of the domain matrix,
        # and the barrier keeps no state between points: grad_hess at s2
        # with value's factor at s2 is bit-equal to a fresh barrier's, after
        # value has factored other points.
        from gridenergy.convexity import domain_matrix

        n = bundled_models[case]
        for box in (None, PhaseVoltageBox(b_rho=1.4, b_theta=0.6)):
            s1, s2 = feasible_states(n, box, np.random.default_rng(56), 2)
            g_ref, h_ref = grad_hess_at(solver._Barrier(n, box), s2)
            barrier = solver._Barrier(n, box)
            assert math.isfinite(barrier.value(s1)[0])
            phi, chol = barrier.value(s2)
            d, tau = en.edge_vars(n, s2)
            a = n.active
            assert np.array_equal(chol, np.linalg.cholesky(
                domain_matrix(n, d[a], tau[a])))
            assert math.isfinite(barrier.value(s1)[0])
            g, h = barrier.grad_hess(s2, chol)
            assert np.array_equal(g, g_ref) and np.array_equal(h, h_ref)

    def test_certificate_judges_the_factored_matrix(self, bundled_models, monkeypatch):
        # in_domain_C and the barrier form one domain matrix, w = b/cos tau
        # rounded alike: the matrix a certificate judges is, bit for bit,
        # the one whose Cholesky factor the barrier takes.
        from gridenergy import convexity

        formed, made = convexity.domain_matrix, []

        def recorded(*args):
            made.append(formed(*args))
            return made[-1]

        monkeypatch.setattr(convexity, "domain_matrix", recorded)
        monkeypatch.setattr(solver, "domain_matrix", recorded)
        rng = np.random.default_rng(57)
        for n in bundled_models.values():
            for s in feasible_states(n, None, rng, 4):
                made.clear()
                in_domain_C(n, s)
                solver._Barrier(n).value(s)
                judged, factored = made
                assert judged.shape == (1,) + factored.shape
                assert judged[0].tobytes() == factored.tobytes()

    def test_outside_has_no_factor(self, threebus):
        s = PFState.flat(threebus)
        s.theta[threebus.ns] = HALF_PI
        assert solver._Barrier(threebus).value(s) == (math.inf, None)

    def test_no_cholesky_in_grad_hess(self, ieee14_model, monkeypatch):
        # On the ieee14 kappa = 4.5 NoSolutionInC row every Cholesky
        # factorization belongs to a value call (or a ridge solve, which
        # the row does not need); grad_hess takes value's factor.
        cholesky, within, owners, entered = np.linalg.cholesky, [], [], []

        def counted(a, *args, **kwargs):
            owners.append(within[-1] if within else None)
            return cholesky(a, *args, **kwargs)

        def inside(name, fn):
            def wrapped(*args):
                entered.append(name)
                within.append(name)
                try:
                    return fn(*args)
                finally:
                    within.pop()
            return wrapped

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        for name in ("value", "grad_hess"):
            monkeypatch.setattr(solver._Barrier, name,
                                inside(name, getattr(solver._Barrier, name)))
        monkeypatch.setattr(solver, "solve_spd", inside("solve_spd", solver.solve_spd))
        out = solve_convex(scale_injections(ieee14_model, 4.5, 1.0))
        assert out.status is SolveStatus.NO_SOLUTION_IN_C
        assert entered.count("grad_hess") > 10 and owners.count("value") > 10
        assert set(owners) <= {"value", "solve_spd"}

    def test_failed_predictor_keeps_the_factor_of_x(self, threebus, monkeypatch):
        # Every predictor's line search is forced to fail after its trials
        # have factored other points; x stays, and the next derivatives at
        # x take x's own factor, bit-equal to a fresh one.
        backtrack, failed, checked = solver._Barrier._backtrack, [], []
        grad_hess = solver._Barrier.grad_hess

        def failing(self, x, dx, mu, f0, decrease):
            out = backtrack(self, x, dx, mu, f0, decrease)
            if decrease != 0.0:
                return out
            failed.append(x)
            return None

        def checked_grad_hess(self, s, chol):
            out = grad_hess(self, s, chol)
            if failed and np.array_equal(en.pack(self.n, s), failed[-1]):
                fresh = solver._Barrier(self.n)
                ref = grad_hess(fresh, s, fresh.value(s)[1])
                checked.append(all(np.array_equal(a, b) for a, b in zip(out, ref)))
            return out

        monkeypatch.setattr(solver._Barrier, "_backtrack", failing)
        monkeypatch.setattr(solver._Barrier, "grad_hess", checked_grad_hess)
        for kappa in (1.0, 3.0, 5.0):
            nk = scale_injections(threebus, kappa, 1.0)
            solver._Barrier(nk).path(en.pack(nk, PFState.flat(nk)), 1e-8)
        assert len(checked) > 10 and all(checked)


class TestLossySolve:
    def test_kappa_zero_matches_lossless(self, bundled_models):
        # all-PQ bundled cases run through the lossy pipeline directly
        for name in ("twobus", "threebus", "threebus-tree"):
            n = bundled_models[name]
            a = solve_convex(n)
            b = solve_convex_lossy(n)
            diff = max(np.max(np.abs(a.state.rho - b.state.rho)),
                       np.max(np.abs(a.state.theta - b.state.theta)))
            assert diff <= 1e-10, name

    def test_kappa_point_two_moderate(self):
        n = make_twobus(g=0.2)
        out = solve_convex_lossy(n)
        assert out.status is SolveStatus.SOLUTION_FOUND
        rp, rq = en.pf_residuals(n, out.state)
        assert max(np.max(np.abs(rp)), np.max(np.abs(rq))) <= 1e-8
        # closed-form oracle: effective loads under the combination
        kap, s = 0.2, 0.1
        a = s * (1 - kap) / (kap * kap + 1)
        b = s * (1 + kap) / (kap * kap + 1)
        u = 0.5 * ((1 - 2 * b) + math.sqrt((2 * b - 1) ** 2 - 4 * (a * a + b * b)))
        assert math.exp(out.state.rho[1]) == pytest.approx(math.sqrt(u), abs=1e-8)

    def test_kappa_point_two_extreme(self):
        out = solve_convex_lossy(make_twobus(p=-0.3, q=-0.3, g=0.2))
        assert out.status is SolveStatus.NO_SOLUTION_IN_C

    def test_real_line_flows_meet_injections(self, threebus):
        # Checks solutions against each line's series admittance g - jb
        # directly, without the energy or its residual oracle.
        rng = np.random.default_rng(62)
        nets = [make_twobus(g=0.2), with_ratio(threebus, 0.2)]
        while len(nets) < 12:
            n = random_network(rng, n_max=6, pq_prob=1.0, inj_scale=0.1)
            nets.append(with_ratio(n, float(rng.uniform(0.05, 0.4))))
        for n in nets:
            out = solve_convex(n)
            assert out.status is SolveStatus.SOLUTION_FOUND
            v = np.exp(out.state.rho + 1j * out.state.theta)
            flow = np.zeros(n.n_bus, dtype=complex)
            for (f, t), g, b in zip(n.edges, n.g, n.b):
                flow[f] += v[f] * np.conj((g - 1j * b) * (v[f] - v[t]))
                flow[t] += v[t] * np.conj((g - 1j * b) * (v[t] - v[f]))
            assert np.max(np.abs(flow.real - n.p_inj)[n.ns]) <= 1e-8
            assert np.max(np.abs(flow.imag - n.q_inj)[n.ns]) <= 1e-8


    @pytest.mark.parametrize("solve", [solve_convex, solve_newton])
    def test_unmodelled_lossy_networks_raise(self, threebus, solve):
        # The energy model refuses a lossy network with a PV bus, and one
        # whose g/b ratio varies by line, before either solve certifies.
        pv = Network([Bus(1, BusKind.SLACK), Bus(2, BusKind.PV, p_inj=0.2),
                      *threebus.buses[2:]], with_ratio(threebus, 0.2).lines)
        mixed = Network(threebus.buses, [Line(ln.i, ln.j, ln.b, k * ln.b) for k, ln
                                         in zip((0.1, 0.2, 0.3), threebus.lines)])
        with pytest.raises(UnsupportedTopology, match="^constant-ratio lossy model "
                           "requires all non-slack buses to be PQ$"):
            solve(pv)
        with pytest.raises(NotConstantRatio, match="^line g/b ratios are not uniform$"):
            solve(mixed)


class TestSweep:
    def test_two_bus_bracket(self):
        n = make_twobus()  # base load 0.1
        kappas = np.arange(2.0, 2.16, 0.01)
        records = sweep_load(n, 1.0, kappas)
        statuses = [r.status is SolveStatus.SOLUTION_FOUND for r in records]
        flips = sum(1 for a, b in zip(statuses, statuses[1:]) if a != b)
        assert flips == 1
        last_ok = max(i for i, ok in enumerate(statuses) if ok)
        k_lo, k_hi = records[last_ok].kappa, records[last_ok + 1].kappa
        assert k_lo * 0.1 <= CRITICAL_LOAD + 1e-9 <= k_hi * 0.1

    def test_base_row_solvable(self, bundled_models):
        for name in ("twobus", "threebus", "ieee14"):
            rec = sweep_load(bundled_models[name], 1.0, [1.0])[0]
            assert rec.status is SolveStatus.SOLUTION_FOUND, name

    def test_ieee14_step_budget(self, ieee14_model):
        # Newton-first solves keep every verdict of the collapse sweep in at
        # most 90 Newton steps (66 measured); the barrier-only long-step
        # schedule took 108, the 5x schedule 340.
        records = sweep_load(ieee14_model, 1.0, np.arange(1.0, 5.51, 0.5))
        assert [r.status for r in records] == (
            [SolveStatus.SOLUTION_FOUND] * 7 + [SolveStatus.NO_SOLUTION_IN_C] * 3)
        assert sum(r.iterations for r in records) <= 90

    def test_ieee118_step_budget(self, ieee118_model):
        # Newton-first solves keep every verdict of the collapse path in at
        # most 72 Newton steps (53 measured); the barrier with the tangent
        # predictor took 80, without it 139.
        records = sweep_load(ieee118_model, 1.0, np.arange(1.0, 4.51, 0.5))
        assert [r.status for r in records] == (
            [SolveStatus.SOLUTION_FOUND] * 6 + [SolveStatus.NO_SOLUTION_IN_C] * 2)
        assert sum(r.iterations for r in records) <= 72

    def test_ieee14_no_solution_row_work(self, ieee14_model, monkeypatch):
        # Stages before the last end on the Newton decrement, and their
        # predictor shares the stage's last LU: 16 barrier derivatives and
        # 21 Newton systems on this row, where ending every stage at a
        # gradient of mu / 100 took 22 and 30.
        calls = [0, 0]
        grad_hess, step = solver._Barrier.grad_hess, solver._newton_step

        def counted_grad_hess(self, s, chol):
            calls[0] += 1
            return grad_hess(self, s, chol)

        def counted_step(h, rhs):
            calls[1] += 1
            return step(h, rhs)

        monkeypatch.setattr(solver._Barrier, "grad_hess", counted_grad_hess)
        monkeypatch.setattr(solver, "_newton_step", counted_step)
        out = solve_convex(scale_injections(ieee14_model, 4.5, 1.0))
        assert out.status is SolveStatus.NO_SOLUTION_IN_C and out.boundary_active
        assert calls[0] <= 16 and calls[1] <= 21

    def test_twobus_sweep_step_budget(self, twobus):
        # The CLI's default sweep: 132 Newton steps, where ending every
        # barrier stage at a gradient of mu / 100 took 193.
        records = sweep_load(twobus, 1.0, np.arange(1.0, 3.05, 0.1))
        assert [r.status for r in records] == (
            [SolveStatus.SOLUTION_FOUND] * 11 + [SolveStatus.NO_SOLUTION_IN_C] * 10)
        assert sum(r.iterations for r in records) <= 132

    def test_ieee118_phase_budget_work(self, ieee118_model, monkeypatch):
        # The sampled phase budget judges each chunk of probes once at the
        # running least budget and bisects only the chunks that fail there:
        # 1.19 probe rows a probe measured, where testing every probe at all
        # 12 points takes 12.
        from gridenergy import convexity

        rows = []
        test = convexity._probes_pass

        def counted(n, terms, phi, b_theta):
            rows.append(len(terms))
            return test(n, terms, phi, b_theta)

        monkeypatch.setattr(convexity, "_probes_pass", counted)
        bound = convexity.max_phase_bound(ieee118_model, 1.5, samples=10000)
        assert bound.b_theta.hex() == "0x1.71ec2b3c5800cp-1"
        assert sum(rows) <= 2 * 10000

    def test_ieee14_one_factorization_per_barrier_point(self, ieee14_model,
                                                        monkeypatch):
        # grad_hess reuses the Cholesky factor of the domain matrix that
        # value computed to accept the point, so the sweep factors PQ x PQ
        # matrices at most once per value call.
        from gridenergy import solver

        npq = len(ieee14_model.pq)
        calls = {"cholesky": 0, "value": 0}
        cholesky, value = np.linalg.cholesky, solver._Barrier.value

        def counted_cholesky(a, *args, **kwargs):
            calls["cholesky"] += np.shape(a) == (npq, npq)
            return cholesky(a, *args, **kwargs)

        def counted_value(self, s):
            calls["value"] += 1
            return value(self, s)

        monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
        monkeypatch.setattr(solver._Barrier, "value", counted_value)
        sweep_load(ieee14_model, 1.0, np.arange(1.0, 5.51, 0.5))
        assert calls["value"] > 0
        assert calls["cholesky"] <= calls["value"]

    def test_rows_in_ascending_order(self):
        records = sweep_load(make_twobus(), 1.0, [1.5, 1.0, 2.0])
        assert [r.kappa for r in records] == [1.0, 1.5, 2.0]

    def test_no_reentrant_success(self):
        records = sweep_load(make_twobus(), 1.0, np.arange(1.0, 3.01, 0.25))
        seen_failure = False
        for r in records:
            if r.status is not SolveStatus.SOLUTION_FOUND:
                seen_failure = True
            else:
                assert not seen_failure
