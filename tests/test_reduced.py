import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_twobus, random_network, random_state
from test_energy import fixed_phase_hessian
from gridenergy import energy as en
from gridenergy.energy import PFState
from gridenergy.errors import (NoReactiveSolution, PhaseOutOfRange,
                               UnsupportedSign, UnsupportedTopology)
from gridenergy.linalg import fd_gradient, fd_hessian
from gridenergy.network import (BusKind, Network, absorb_setpoints,
                                scale_injections)
from gridenergy.reduced import (BetaCondition, beta_condition,
                                convex_reactive_solve, reduced_energy,
                                reduced_hessian, region_agreement,
                                region_grid, solve_reactive_newton,
                                voltage_upper_bound)
from gridenergy.solver import solve_newton


def phasor_reactive_mismatch(n, st):
    """Reactive residuals of pf_residuals at rho = log(zeta) / 2."""
    s = PFState(np.zeros(n.n_bus), st.theta.copy())
    s.rho[n.pq] = 0.5 * np.log(st.zeta)
    return en.pf_residuals(n, s)[1]


def twobus_reactive_root(theta, q_cons, b=1.0):
    """High root of b(V^2 - V cos(theta)) + q_cons = 0."""
    disc = math.cos(theta) ** 2 - 4.0 * q_cons / b
    return 0.5 * (math.cos(theta) + math.sqrt(disc))


class TestReactiveNewton:
    def test_zero_q_flat(self):
        n = make_twobus(p=0.0, q=0.0)
        rho = solve_reactive_newton(n, np.zeros(2))
        assert np.max(np.abs(rho)) < 1e-12

    def test_two_bus_closed_form(self):
        n = make_twobus()
        rng = np.random.default_rng(61)
        for _ in range(20):
            theta = np.zeros(2)
            # keep cos^2(theta) > 4q so the quadratic has real roots
            theta[1] = rng.uniform(-0.75, 0.75)
            rho = solve_reactive_newton(n, theta)
            v = twobus_reactive_root(theta[1], 0.1)
            assert math.exp(rho[0]) == pytest.approx(v, abs=1e-10)

    def test_three_bus_matches_zeta_program(self, threebus):
        theta = np.zeros(3)
        rho = solve_reactive_newton(threebus, theta)
        st = convex_reactive_solve(threebus, theta)
        assert np.max(np.abs(st.voltages() - np.exp(rho))) < 1e-6

    def test_unsolvable_raises(self):
        n = make_twobus(q=-0.3)  # past the q = cos^2/4 reactive limit
        with pytest.raises(NoReactiveSolution):
            solve_reactive_newton(n, np.zeros(2))


def sequential_newton(n, theta):
    """Reference for the monotone Newton: damped Newton on FixedPhase from
    the flat start, trying the step lengths one at a time, run to the
    residual floor. None when it fails."""
    fp = en.FixedPhase(n, theta)
    rho = np.zeros(len(n.pq))
    rq = fp.residual(rho)
    for _ in range(60):
        if np.max(np.abs(rq)) <= 1e-13:
            return rho
        step = np.linalg.solve(fixed_phase_hessian(fp, rho), rq)
        alpha = 1.0
        while alpha >= 1e-12:
            trial = rho + alpha * step
            if np.max(np.abs(trial)) <= 20.0:
                rqn = fp.residual(trial)
                if rqn @ rqn <= (1.0 - 1e-4 * alpha) * (rq @ rq):
                    break
            alpha *= 0.5
        else:
            return None
        rho, rq = trial, rqn
    return rho if np.max(np.abs(rq)) <= 1e-13 else None


class TestSequentialReference:
    @pytest.mark.parametrize("case,scale", [("threebus", 1.0), ("threebus", 6.0),
                                            ("threebus-tree", 1.0)])
    def test_matches_sequential_reference(self, case, scale, request):
        n = scale_injections(request.getfixturevalue(case.replace("-", "_")),
                             scale, 1.0)
        axis = np.radians(np.arange(-84.0, 85.0, 12.0))
        solved = 0
        for ta in axis:
            for tb in axis:
                theta = np.array([0.0, ta, tb])
                try:
                    got = solve_reactive_newton(n, theta)
                except PhaseOutOfRange:
                    continue
                except NoReactiveSolution:
                    got = None
                ref = sequential_newton(n, theta)
                assert (got is None) == (ref is None), (ta, tb)
                if got is not None:
                    solved += 1
                    assert np.max(np.abs(got - ref)) <= 1e-12, (ta, tb)
        assert solved > 100 if scale == 1.0 else solved == 0

    def test_mixed_signs(self):
        # PQ buses that inject reactive power make the iteration a
        # heuristic: its verdicts and rho must still be the reference's.
        rng = np.random.default_rng(66)
        solved = failed = 0
        while solved + failed < 60:
            n = random_network(rng, n_max=8)
            q = -n.q_inj[n.pq]
            if not (np.any(q > 0) and np.any(q < 0)):
                continue
            theta = np.zeros(n.n_bus)
            theta[n.ns] = rng.uniform(-0.4, 0.4, len(n.ns))
            try:
                got = solve_reactive_newton(n, theta)
            except PhaseOutOfRange:
                continue
            except NoReactiveSolution:
                got = None
            ref = sequential_newton(n, theta)
            assert (got is None) == (ref is None)
            if got is None:
                failed += 1
            else:
                solved += 1
                assert np.max(np.abs(got - ref)) <= 1e-11
        assert solved >= 40 and failed >= 1


def zeta_or_none(solve):
    try:
        return solve()
    except NoReactiveSolution:
        return None


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_greatest_element_agrees_with_convex_program(seed):
    # On consuming networks the monotone Newton, the damped Newton from the
    # flat start, the barrier maximization of the zeta program and the caps
    # are routes to one point.
    rng = np.random.default_rng(seed)
    n = random_network(rng, n_max=6)
    n = Network([replace(b, q_inj=-abs(b.q_inj)) for b in n.buses], n.lines)
    assume(len(n.pq))
    theta = np.zeros(n.n_bus)
    theta[n.ns] = rng.uniform(-0.4, 0.4, len(n.ns))
    z_newton = zeta_or_none(
        lambda: np.exp(2.0 * solve_reactive_newton(n, theta)))
    z_convex = zeta_or_none(lambda: convex_reactive_solve(n, theta).zeta)
    rho_ref = sequential_newton(n, theta)
    assert (z_newton is None) == (z_convex is None) == (rho_ref is None)
    zero = np.zeros(n.n_bus)
    caps = zeta_or_none(lambda: voltage_upper_bound(n).v_bar ** 2)
    z_relaxed = zeta_or_none(lambda: convex_reactive_solve(n, zero).zeta)
    assert (caps is None) == (z_relaxed is None)
    if caps is not None:
        assert np.max(np.abs(caps - z_relaxed)) <= 1e-12 * (1.0 + np.max(caps))
    if z_newton is not None:
        assert np.max(np.abs(z_newton - z_convex)) <= 1e-12 * (1.0 + np.max(z_convex))
        assert np.max(np.abs(z_newton - np.exp(2.0 * rho_ref))) <= 1e-12 * (1.0 + np.max(z_convex))
        assert np.all(z_newton <= caps * (1.0 + 1e-12))


class TestReducedEnergy:
    def test_zero_injections(self):
        n = make_twobus(p=0.0, q=0.0)
        assert reduced_energy(n, np.zeros(2)) == pytest.approx(0.0, abs=1e-14)

    def test_minimum_at_solution(self, threebus):
        sol = solve_newton(threebus).state
        e_sol = reduced_energy(threebus, sol.theta)
        rng = np.random.default_rng(62)
        for _ in range(25):
            th = sol.theta.copy()
            th[threebus.ns] += rng.uniform(-0.3, 0.3, 2)
            try:
                assert reduced_energy(threebus, th) >= e_sol - 1e-12
            except NoReactiveSolution:
                pass

    def test_envelope_gradient_vanishes_at_solution(self, threebus):
        sol = solve_newton(threebus).state

        def e_tilde(v):
            th = np.zeros(3)
            th[threebus.ns] = v
            return reduced_energy(threebus, th)

        g = fd_gradient(e_tilde, sol.theta[threebus.ns])
        assert np.max(np.abs(g)) < 1e-6

    def test_envelope_matches_full_gradient(self, threebus):
        # d/dtheta of the reduced energy equals the full theta-gradient at
        # the reactive solution (the rho-gradient vanishes there)
        theta = np.array([0.0, 0.12, -0.08])
        rho = solve_reactive_newton(threebus, theta)
        s = PFState(np.zeros(3), theta.copy())
        s.rho[threebus.pq] = rho

        def e_tilde(v):
            th = np.zeros(3)
            th[threebus.ns] = v
            return reduced_energy(threebus, th)

        g_red = fd_gradient(e_tilde, theta[threebus.ns])
        g_full = en.energy_gradient(threebus, s).grad_theta
        assert np.max(np.abs(g_red - g_full)) < 1e-5


class TestReducedHessian:
    # Phase pairs (theta_2, theta_3) well inside the solvable region.
    CELLS = [(0.0, 0.0), (0.2, -0.1), (-0.3, 0.25), (0.4, 0.35),
             (-0.5, -0.3), (0.15, 0.55)]

    @pytest.mark.parametrize("case", ["threebus", "threebus-tree"])
    def test_schur_matches_fd_of_reduced_energy(self, case, request):
        n = request.getfixturevalue(case.replace("-", "_"))
        for cell in self.CELLS:
            theta = np.zeros(3)
            theta[n.ns] = cell
            s = PFState(np.zeros(3), theta)
            s.rho[n.pq] = solve_reactive_newton(n, theta)

            def e_tilde(v):
                th = np.zeros(3)
                th[n.ns] = v
                return reduced_energy(n, th)

            hfd = fd_hessian(e_tilde, theta[n.ns], step=1e-4)
            h = reduced_hessian(n, s)
            assert np.max(np.abs(h - hfd)) <= 1e-4 * (1.0 + np.max(np.abs(hfd))), cell


class TestConvexReactive:
    def test_zero_q_gives_flat(self):
        n = make_twobus(p=0.0, q=0.0)
        st = convex_reactive_solve(n, np.zeros(2))
        assert st.zeta[0] == pytest.approx(1.0, abs=1e-9)

    def test_two_bus_high_root(self):
        n = make_twobus()
        theta = np.zeros(2)
        theta[1] = 0.2
        st = convex_reactive_solve(n, theta)
        v = twobus_reactive_root(0.2, 0.1)
        assert st.voltages()[0] == pytest.approx(v, abs=1e-9)

    def test_constraints_tight(self, threebus):
        theta = np.array([0.0, 0.1, -0.05])
        st = convex_reactive_solve(threebus, theta)
        assert np.max(np.abs(phasor_reactive_mismatch(threebus, st))) <= 1e-8

    def test_pareto_nondominated(self, threebus):
        theta = np.zeros(3)
        sols = [convex_reactive_solve(threebus, theta, c).zeta
                for c in ([1.0, 1.0], [10.0, 0.1], [0.1, 10.0])]
        for a in sols:
            for b in sols:
                if np.array_equal(a, b):
                    continue
                assert not (np.all(b >= a - 1e-10) and np.any(b > a + 1e-8))
        # With every cos(theta_ij) >= 0 the set has a greatest element,
        # which every positive weighting selects.
        for b in sols[1:]:
            assert np.max(np.abs(b - sols[0])) <= 1e-12 * (1.0 + np.max(sols[0]))

    def test_work_budget(self, threebus, monkeypatch):
        # The cli_oneshot benchmark's 24 Latin-hypercube phase pairs over
        # +-0.35 rad: one jacobian per barrier Newton step or polish step.
        from gridenergy import reduced

        inner, calls = reduced._ZetaProgram.jacobian, []

        def spy(prog, z):
            calls.append(z)
            return inner(prog, z)

        monkeypatch.setattr(reduced._ZetaProgram, "jacobian", spy)
        rng = np.random.default_rng(0)
        strata = [rng.permutation(24) for _ in range(2)]
        for i in range(24):
            theta = np.array([0.0] + [-0.35 + 0.7 * (s[i] + rng.uniform()) / 24
                                      for s in strata])
            convex_reactive_solve(threebus, theta)
        assert len(calls) <= 1000

    def test_lossy_uses_constant_ratio_model(self, threebus):
        # g = 0.2 b: the program's targets are the combined Q + 0.2 P, the
        # same model as the reactive Newton and the phasor residuals.
        lossy = Network(threebus.buses, [replace(ln, g=0.2 * ln.b)
                                         for ln in threebus.lines])
        theta = np.array([0.0, -0.04, -0.06])
        st = convex_reactive_solve(lossy, theta)
        assert np.max(np.abs(phasor_reactive_mismatch(lossy, st))) <= 1e-8
        rho = solve_reactive_newton(lossy, theta)
        assert np.max(np.abs(st.voltages() - np.exp(rho))) <= 1e-8

    def test_dominated_by_upper_bound(self, threebus):
        v_bar = voltage_upper_bound(threebus).v_bar
        rng = np.random.default_rng(63)
        for _ in range(10):
            theta = np.zeros(3)
            theta[threebus.ns] = rng.uniform(-0.3, 0.3, 2)
            st = convex_reactive_solve(threebus, theta)
            assert np.all(st.voltages() <= v_bar + 1e-8)

    def test_reactive_injection_rejected(self):
        n = make_twobus(q=0.05)  # PQ bus injecting reactive power
        with pytest.raises(UnsupportedSign):
            convex_reactive_solve(n, np.zeros(2))

    def test_infeasible_raises(self):
        n = make_twobus(q=-0.4)
        with pytest.raises(NoReactiveSolution):
            convex_reactive_solve(n, np.zeros(2))

    def test_no_pq_bus_rejected(self):
        n = make_twobus(pq_kind=BusKind.PV)
        with pytest.raises(UnsupportedTopology):
            convex_reactive_solve(n, np.zeros(2))
        with pytest.raises(UnsupportedTopology):
            voltage_upper_bound(n)

    def test_setpoints_must_be_absorbed(self, threebus):
        buses = [replace(b, v_set=1.05) if b.kind is BusKind.SLACK else b
                 for b in threebus.buses]
        n = Network(buses, threebus.lines)
        for call in (lambda: convex_reactive_solve(n, np.zeros(3)),
                     lambda: voltage_upper_bound(n)):
            with pytest.raises(UnsupportedTopology, match="absorb_setpoints"):
                call()
        assert np.all(voltage_upper_bound(absorb_setpoints(n)).v_bar > 0)


class TestVoltageUpperBound:
    def test_single_maximization_equals_per_bus_caps(self, threebus,
                                                     threebus_tree):
        # Each cap must equal the largest zeta_i alone: weight 1 on bus i,
        # 1e-6 on the others, at zero phases (where the sets coincide).
        rng = np.random.default_rng(64)
        nets = [threebus, threebus_tree]
        while len(nets) < 8:
            n = random_network(rng, n_max=6)
            n = Network([replace(b, q_inj=-abs(b.q_inj)) for b in n.buses],
                        n.lines)
            if len(n.pq):
                nets.append(n)
        checked = 0
        for n in nets:
            try:
                v_bar = voltage_upper_bound(n).v_bar
            except NoReactiveSolution:
                continue
            checked += 1
            for i in range(len(n.pq)):
                c = np.full(len(n.pq), 1e-6)
                c[i] = 1.0
                z = convex_reactive_solve(n, np.zeros(n.n_bus), c).zeta
                assert v_bar[i] == pytest.approx(math.sqrt(z[i]), rel=1e-12,
                                                 abs=1e-12)
        assert checked >= 6

    def test_ieee118_caps_dominate(self, ieee118_model):
        n = ieee118_model
        v_bar = voltage_upper_bound(n).v_bar
        rng = np.random.default_rng(65)
        for _ in range(3):
            theta = np.zeros(n.n_bus)
            theta[n.ns] = rng.uniform(-0.05, 0.05, len(n.ns))
            st = convex_reactive_solve(n, theta)
            assert np.max(np.abs(phasor_reactive_mismatch(n, st))) <= 1e-8
            assert np.all(st.voltages() <= v_bar + 1e-8)

    def test_two_bus_closed_form(self):
        n = make_twobus(q=-0.1875)
        vb = voltage_upper_bound(n).v_bar
        assert vb[0] == pytest.approx(0.75, abs=1e-9)

    def test_small_q_limit(self):
        for q in (1e-3, 1e-5):
            n = make_twobus(q=-q)
            vb = voltage_upper_bound(n).v_bar
            assert vb[0] == pytest.approx(0.5 * (1 + math.sqrt(1 - 4 * q)),
                                          abs=1e-9)
            assert vb[0] > 0.99

    def test_three_bus_against_grid_oracle(self, threebus):
        vb = voltage_upper_bound(threebus).v_bar
        b12 = b13 = 26.88
        b23 = 16.67
        q2, q3 = 1.05, 1.24

        def scan(lo2, hi2, lo3, hi3, points):
            v2, v3 = np.meshgrid(np.linspace(lo2, hi2, points),
                                 np.linspace(lo3, hi3, points),
                                 indexing="ij")
            g2 = (b12 + b23) * v2 ** 2 - b12 * v2 - b23 * v2 * v3 + q2
            g3 = (b13 + b23) * v3 ** 2 - b13 * v3 - b23 * v2 * v3 + q3
            feas = (g2 <= 0) & (g3 <= 0)
            assert feas.any()
            return v2[feas], v3[feas]

        # coarse global pass, then refine around each coordinate maximum
        v2f, v3f = scan(0.05, 1.2, 0.05, 1.2, 1200)
        for idx, (vals, other) in enumerate(((v2f, v3f), (v3f, v2f))):
            k = int(np.argmax(vals))
            c, o = vals[k], other[k]
            w = 0.01
            if idx == 0:
                f2, f3 = scan(c - w, c + w, o - w, o + w, 900)
                best = f2.max()
            else:
                f2, f3 = scan(o - w, o + w, c - w, c + w, 900)
                best = f3.max()
            assert vb[idx] == pytest.approx(best, abs=1e-4)


class TestBetaCondition:
    def test_near_boundary_budget(self):
        # consumption tuned so v_bar^2 is close to the normalized demand:
        # the budget formula approaches its 90-degree end
        n = make_twobus(q=-0.2499)
        bc = beta_condition(n)
        assert bc.beta_min == pytest.approx(0.02, abs=2e-3)
        assert bc.angle_budget_deg > 80.0

    def test_ratio_two_closed_form(self):
        # q = 2/9 makes v_bar^2 / q_tilde exactly 2
        n = make_twobus(q=-2.0 / 9.0)
        bc = beta_condition(n)
        assert bc.beta_min == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert bc.angle_budget_deg == pytest.approx(
            math.degrees(math.acos(math.sqrt(1.0 / 3.0))), abs=1e-6)

    def test_three_bus_budget_band(self, threebus):
        bc = beta_condition(threebus)
        assert 10.0 <= bc.angle_budget_deg <= 20.0

    def test_lossy_equals_lossless_twin(self, threebus):
        # A constant-ratio network has the energy of its lossless twin with
        # susceptances (1 + kappa^2) b and the lossy_targets as injections;
        # the budget, caps and normalized demand included, must match.
        kappa = 0.2
        lossy = Network(threebus.buses, [replace(ln, g=kappa * ln.b)
                                         for ln in threebus.lines])
        tp, tq = en.lossy_targets(lossy, kappa)
        twin = Network(
            [replace(b, p_inj=float(tp[k]), q_inj=float(tq[k]))
             for k, b in enumerate(threebus.buses)],
            [replace(ln, b=(1.0 + kappa * kappa) * ln.b)
             for ln in threebus.lines])
        a, b = beta_condition(lossy), beta_condition(twin)
        assert a.beta_min == pytest.approx(b.beta_min, rel=1e-12, abs=1e-12)
        assert a.angle_budget_deg == pytest.approx(b.angle_budget_deg,
                                                   rel=1e-12, abs=1e-12)


class TestRegionGrid:
    def test_origin_cell(self, threebus):
        cells = region_grid(threebus, theta_min=-0.05, theta_max=0.05,
                            step_deg=2.0)
        center = min(cells, key=lambda c: abs(c.theta_a) + abs(c.theta_b))
        assert center.solvable and center.in_c
        assert center.reduced_min_eig > 0

    def test_coarse_agreement(self, threebus):
        cells = region_grid(threebus, step_deg=6.0)
        agree, comparable = region_agreement(cells)
        assert comparable > 50
        assert agree / comparable >= 0.97
        assert len(cells) == 21 * 21
        assert sum(1 for c in cells if c.solvable) == 397
        assert sum(1 for c in cells if c.in_c) == 157
        assert all(c.reduced_min_eig is not None for c in cells if c.solvable)

    def test_tree_region_larger_than_mesh(self, threebus, threebus_tree):
        mesh = region_grid(threebus, step_deg=6.0)
        tree = region_grid(threebus_tree, step_deg=6.0)
        in_c_mesh = sum(1 for c in mesh if c.in_c)
        in_c_tree = sum(1 for c in tree if c.in_c)
        assert in_c_tree > in_c_mesh

    def test_overload_has_no_convex_cells(self, threebus):
        n6 = scale_injections(threebus, 6.0, 1.0)
        cells = region_grid(n6, theta_min=-0.3, theta_max=0.3, step_deg=6.0)
        assert sum(1 for c in cells if c.in_c) == 0
        # Over the whole 6-degree grid no cell is even solvable.
        assert not any(c.solvable for c in region_grid(n6, step_deg=6.0))

    @pytest.mark.parametrize("step", [0.0, -2.0, math.inf])
    def test_non_positive_step_rejected(self, threebus, step):
        with pytest.raises(ValueError):
            region_grid(threebus, step_deg=step)

    def test_wrong_dimension_rejected(self, ieee14_model):
        with pytest.raises(ValueError):
            region_grid(ieee14_model)
