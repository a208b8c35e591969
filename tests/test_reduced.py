import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_twobus, random_network, random_state
from test_energy import fixed_phase_hessian
from gridenergy import energy as en
from gridenergy.convexity import in_domain_C
from gridenergy.energy import PFState
from gridenergy.errors import (NoReactiveSolution, PhaseOutOfRange,
                               UnsupportedSign, UnsupportedTopology)
from gridenergy.linalg import fd_gradient, fd_hessian
from gridenergy.network import (Bus, BusKind, Line, Network, absorb_setpoints,
                                scale_injections)
from gridenergy.reduced import (_EIG_TOL, _MAX_CELLS, BetaCondition,
                                _greatest_u, _reactive_rows, _schur,
                                beta_condition, convex_reactive_solve,
                                reduced_energy, reduced_hessian,
                                region_agreement, region_grid,
                                solve_reactive_newton, voltage_upper_bound)
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


class TestNonFinitePhases:
    @pytest.mark.parametrize("solve", [solve_reactive_newton, reduced_energy,
                                       convex_reactive_solve])
    @pytest.mark.parametrize("theta", [[0.0, math.nan, 0.1],
                                       [0.0, 0.1, math.inf],
                                       [0.0, -math.inf, 0.0],
                                       [math.nan, 0.0, 0.0]])
    def test_rejected(self, threebus, solve, theta):
        # A NaN phase compared False with the 90-degree test and then read
        # as a certified NoReactiveSolution.
        with pytest.raises(ValueError, match="finite phase"):
            solve(threebus, np.array(theta))


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
    # On consuming networks the monotone Newton, the sequential reference
    # Newton, the zeta program's KKT-certified optimum and the caps all
    # reach one point.
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
        # +-0.35 rad: one monotone Newton solve and one jacobian, for the
        # witness, per phase pair.
        from gridenergy import reduced

        inner, calls = reduced._ZetaProgram.jacobian, []
        greatest, solves = reduced._greatest_u, []

        def spy(prog, z):
            calls.append(z)
            return inner(prog, z)

        def solve_spy(*args):
            solves.append(args)
            return greatest(*args)

        monkeypatch.setattr(reduced._ZetaProgram, "jacobian", spy)
        monkeypatch.setattr(reduced, "_greatest_u", solve_spy)
        rng = np.random.default_rng(0)
        strata = [rng.permutation(24) for _ in range(2)]
        for i in range(24):
            theta = np.array([0.0] + [-0.35 + 0.7 * (s[i] + rng.uniform()) / 24
                                      for s in strata])
            convex_reactive_solve(threebus, theta)
        assert len(calls) <= 1000
        assert len(calls) <= 100
        assert len(calls) <= 24
        assert len(solves) == 24

    def test_solves_up_to_the_nose(self):
        # Consumption q on twobus has its nose at q = 1/4, where the two
        # roots of u^2 - u + q merge. Just below it the greatest solution is
        # still certified, and it is the closed-form high root.
        for q in (0.24999, 0.249999, 0.2499999):
            n = make_twobus(q=-q)
            z = convex_reactive_solve(n, np.zeros(2)).zeta[0]
            for ref in (twobus_reactive_root(0.0, q) ** 2,
                        voltage_upper_bound(n).v_bar[0] ** 2):
                assert abs(z / ref - 1.0) <= 1e-12
        for q in (0.25, 0.2500001):
            with pytest.raises(NoReactiveSolution):
                convex_reactive_solve(make_twobus(q=-q), np.zeros(2))

    @pytest.mark.parametrize("c", [[math.nan, 1.0], [math.inf, 1.0],
                                   [1.0, -math.inf], [0.0, 1.0]])
    def test_weights_must_be_finite_and_positive(self, threebus, c):
        with pytest.raises(ValueError, match="finite and positive"):
            convex_reactive_solve(threebus, np.array([0.0, 0.1, -0.05]), c)

    def test_huge_weight_same_optimum(self, threebus):
        # The optimum is the set's greatest element whatever the positive
        # weights, and a weight of 1e300 must not overflow the witness.
        theta = np.array([0.0, 0.1, -0.05])
        st = convex_reactive_solve(threebus, theta, [1e300, 1.0])
        assert np.array_equal(st.zeta, convex_reactive_solve(threebus, theta).zeta)

    def test_matches_monotone_newton(self, threebus, threebus_tree,
                                     ieee118_model):
        # Against the independent monotone Newton, zeta = exp(2 rho).
        rng = np.random.default_rng(66)
        draws = []
        while len(draws) < 30:
            n = random_network(rng, n_max=8)
            n = Network([replace(b, q_inj=-abs(b.q_inj)) for b in n.buses],
                        n.lines)
            if len(n.pq):
                theta = np.zeros(n.n_bus)
                theta[n.ns] = rng.uniform(-0.35, 0.35, len(n.ns))
                draws.append((n, theta))
        for n, amp, k in ((threebus, 0.35, 20), (threebus_tree, 0.35, 20),
                          (ieee118_model, 0.05, 3)):
            for _ in range(k):
                theta = np.zeros(n.n_bus)
                theta[n.ns] = rng.uniform(-amp, amp, len(n.ns))
                draws.append((n, theta))
        checked = 0
        for n, theta in draws:
            try:
                rho = solve_reactive_newton(n, theta)
            except (NoReactiveSolution, PhaseOutOfRange):
                continue
            z = convex_reactive_solve(n, theta).zeta
            assert np.max(np.abs(z / np.exp(2.0 * rho) - 1.0)) <= 1e-12
            checked += 1
        assert checked >= 60

    def test_witness_rejects_low_root(self):
        # u^2 - u + 0.1 = 0 has two roots; only the high one maximizes zeta.
        # At the low one g' < 0, so the multiplier c / g' is negative.
        from gridenergy import reduced

        prog = reduced._ZetaProgram(make_twobus(), np.zeros(2))
        for u, optimal in ((0.5 * (1.0 + math.sqrt(0.6)), True),
                           (0.5 * (1.0 - math.sqrt(0.6)), False)):
            z = np.array([u * u])
            g = prog.constraints(z)
            assert np.max(np.abs(g)) <= 1e-15
            assert reduced._kkt_witness(prog, z, g) is optimal

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

    @pytest.mark.parametrize("bounds, message", [
        ((0.5, -0.5), "theta_min 0.5 exceeds theta_max -0.5"),
        ((math.nan, 0.5), "theta_min must be finite, got nan"),
        ((-0.5, math.nan), "theta_max must be finite, got nan"),
        ((-0.5, math.inf), "theta_max must be finite, got inf"),
        ((-math.inf, 0.5), "theta_min must be finite, got -inf"),
    ])
    def test_bad_bounds_rejected(self, threebus, bounds, message):
        with pytest.raises(ValueError, match=message):
            region_grid(threebus, *bounds)

    def test_equal_bounds_give_one_cell(self, threebus):
        cells = region_grid(threebus, 0.0, 0.0)
        assert [(c.ia, c.ib, c.theta_a, c.theta_b) for c in cells] == [(0, 0, 0.0, 0.0)]
        assert cells[0].solvable and cells[0].in_c

    @pytest.mark.parametrize("step", [1e-9, 1e-4, 0.1])
    def test_grid_above_cap_refused(self, threebus, step):
        count = round(math.radians(120.0) / math.radians(step)) + 1
        assert count * count > _MAX_CELLS
        with pytest.raises(ValueError, match=f"grid step {step} deg gives "
                                             f"{count * count} cells"):
            region_grid(threebus, step_deg=step)


def _psd(cell) -> bool:
    """region_agreement's PSD test of a cell's reduced Hessian."""
    return cell.reduced_min_eig >= -_EIG_TOL * (1.0 + abs(cell.reduced_min_eig))


@pytest.mark.parametrize("scale", [1.0, 3.0])
def test_paper_region_claims(threebus, threebus_tree, scale):
    """C is an inner approximation of where the reduced energy is convex,
    and exact on trees: on every solvable cell of a 1-degree grid, in_c
    implies a PSD reduced Hessian on the mesh, and matches it on the tree."""
    mesh, tree = ([c for c in region_grid(scale_injections(n, scale, 1.0), step_deg=1.0)
                   if c.solvable] for n in (threebus, threebus_tree))
    assert len(mesh) > 5000 and len(tree) > 5000
    assert all(c.reduced_min_eig is not None for c in mesh + tree)
    assert [c for c in mesh if c.in_c and not _psd(c)] == []
    assert [c for c in tree if c.in_c != _psd(c)] == []
    # The mesh's inner-approximation gap: PSD cells outside C.
    assert any(_psd(c) and not c.in_c for c in mesh)


def reference_greatest_u(n, fp, q):
    """Reference for the stacked Newton: the monotone Newton on one phase
    vector, raising NoReactiveSolution where a stacked row reports why."""
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
            if monotone and (step < -1e-9 * u).any():
                raise NoReactiveSolution("monotone reactive Newton step "
                                         "raised a voltage")
            u = u - step
            if (abs(step) <= 1e-9 * u).all():
                break
    except np.linalg.LinAlgError:
        raise NoReactiveSolution("reactive Jacobian is singular")
    if not (u > 0.0).all():
        raise NoReactiveSolution("reactive Newton reached a non-positive voltage")
    return u


class ReferenceFixedPhase:
    """Reference for en.FixedPhase on one phase vector."""

    def __init__(self, n, theta):
        beff, _, tq = en._model(n)
        f, t = n.edges[:, 0], n.edges[:, 1]
        c = beff * np.cos(theta[f] - theta[t])
        inc = en._pq_incidence(n)
        weighted = inc * c
        self.g = weighted @ inc.T
        self.g.flat[::len(n.pq) + 1] = -(inc @ beff)
        to_fixed = (n.pq_index_of[f] < 0) | (n.pq_index_of[t] < 0)
        self.d = weighted @ to_fixed
        self.tq = tq[n.pq]

    def residual(self, rho_pq):
        u = np.exp(rho_pq)
        return self.tq + u * (self.d + u @ self.g)


def reference_reactive(n, theta):
    """Reference for solve_reactive_newton on one finite phase vector with
    the slack phase at zero, checks included: the range check, the Newton,
    then the FixedPhase and the phasor reactive residuals (lossless only)."""
    assert not n.lossy_ratio
    f, t = n.edges[:, 0], n.edges[:, 1]
    if np.any(np.abs(theta[f] - theta[t]) >= math.pi / 2):
        raise PhaseOutOfRange("phases must keep every line below 90 degrees")
    fp = ReferenceFixedPhase(n, theta)
    rho = np.log(reference_greatest_u(n, fp, -fp.tq))
    if np.abs(fp.residual(rho)).max(initial=0.0) <= 1e-10:
        r = np.zeros(n.n_bus)
        r[n.pq] = rho
        v = np.exp(r + 1j * theta)
        cur = np.zeros(n.n_bus, dtype=complex)
        np.add.at(cur, f, n.y * (v[f] - v[t]))
        np.add.at(cur, t, n.y * (v[t] - v[f]))
        rq = n.q_inj[n.pq] - (v * np.conj(cur)).imag[n.pq]
        if np.abs(rq).max(initial=0.0) <= 1e-10:
            return rho
    raise NoReactiveSolution("reactive Newton iteration did not converge")


def reference_region_grid(n, theta_min=-math.pi / 3.0, theta_max=math.pi / 3.0,
                          step_deg=2.0):
    """Reference for region_grid: one cell at a time, each through
    reference_reactive and the per-state in_domain_C and hessian."""
    step = math.radians(step_deg)
    axis = theta_min + step * np.arange(int(round((theta_max - theta_min) / step)) + 1)
    cells = []
    for ia, ta in enumerate(axis):
        for ib, tb in enumerate(axis):
            th = np.zeros(n.n_bus)
            th[n.ns] = ta, tb
            try:
                rho_pq = reference_reactive(n, th)
            except (PhaseOutOfRange, NoReactiveSolution):
                cells.append((ia, ib, ta, tb, False, None, None))
                continue
            s = PFState(np.zeros(n.n_bus), th)
            s.rho[n.pq] = rho_pq
            h, npq = en.hessian(n, s).entries, len(n.pq)
            h_rt = h[:npq, npq:]
            try:
                hess = h[npq:, npq:] - h_rt.T @ np.linalg.solve(h[:npq, :npq], h_rt)
                tr, det = hess[0, 0] + hess[1, 1], np.linalg.det(hess)
                min_eig = float(0.5 * tr - math.sqrt(max(0.25 * tr * tr - det, 0.0)))
            except np.linalg.LinAlgError:
                min_eig = None
            cells.append((ia, ib, ta, tb, True, in_domain_C(n, s).in_c, min_eig))
    return cells


def pv_only_network():
    """Three buses and no PQ bus: the reactive equations are empty."""
    return Network([Bus(1, BusKind.SLACK), Bus(2, BusKind.PV, p_inj=0.5),
                    Bus(3, BusKind.PV, p_inj=-0.4)],
                   [Line(1, 2, 1.2), Line(2, 3, 0.8), Line(1, 3, 2.0)])


def _outcome(solve, n, theta):
    """solve(n, theta)'s rho or raised error."""
    try:
        return solve(n, theta), None
    except (PhaseOutOfRange, NoReactiveSolution) as exc:
        return None, exc


class TestStackedRows:
    """The stacked reactive solve and region grid against the one-state
    references above."""

    def test_rows_match_reference(self):
        rng = np.random.default_rng(2024)
        nets = [random_network(rng, n_max=7, inj_scale=[0.2, 0.8, 2.0][draw % 3],
                               pq_prob=0.4 if draw % 5 == 4 else 0.75)
                for draw in range(40)]
        assert sum(len(n.pq) == 0 for n in nets) >= 2
        outcomes = set()
        mixed = 0
        for n in nets + [pv_only_network()]:
            mixed += bool(np.any(n.q_inj[n.pq] > 0) and np.any(n.q_inj[n.pq] < 0))
            theta = np.zeros((25, n.n_bus))
            # Up to 70 degrees per bus: some lines pass 90 degrees.
            theta[:, n.ns] = rng.uniform(-1.2, 1.2, (25, len(n.ns)))
            rho, errors = _reactive_rows(n, theta)
            for row in range(len(theta)):
                want, exc = _outcome(reference_reactive, n, theta[row])
                for got_rho, got in ((rho[row], errors[row]),
                                     _outcome(solve_reactive_newton, n, theta[row])):
                    if exc is None:
                        assert got is None
                        assert got_rho.tobytes() == want.tobytes()
                        outcomes.add("solved")
                    else:
                        assert type(got) is type(exc) and str(got) == str(exc)
                        outcomes.add(str(exc).split(" at bus")[0])
        assert mixed > 0
        assert {"solved", "phases must keep every line below 90 degrees",
                "reactive balance"} <= outcomes

    @pytest.mark.parametrize("scale", [1.0, 3.0, 6.0])
    def test_grid_matches_reference(self, threebus, threebus_tree, scale):
        for base in (threebus, threebus_tree):
            n = scale_injections(base, scale, 1.0)
            got = [(c.ia, c.ib, c.theta_a, c.theta_b, c.solvable, c.in_c,
                    c.reduced_min_eig) for c in region_grid(n, step_deg=8.0)]
            assert got == reference_region_grid(n, step_deg=8.0)

    def test_pv_only_network(self):
        n = pv_only_network()
        theta = np.array([0.0, 0.3, -0.2])
        assert solve_reactive_newton(n, theta).shape == (0,)
        s = PFState(np.zeros(3), theta)
        assert reduced_energy(n, theta) == en.energy_value(n, s)
        cells = region_grid(n, step_deg=20.0)
        got = [(c.ia, c.ib, c.theta_a, c.theta_b, c.solvable, c.in_c,
                c.reduced_min_eig) for c in cells]
        assert got == reference_region_grid(n, step_deg=20.0)
        assert sum(c.solvable for c in cells) == 43
        assert all(c.in_c for c in cells if c.solvable)

    def test_singular_row_leaves_others(self, threebus):
        theta = np.zeros((30, 3))
        theta[:, 1:] = np.random.default_rng(7).uniform(-0.6, 0.6, (30, 2))
        fp = en.FixedPhase(threebus, theta)
        u0, why0 = _greatest_u(threebus, fp, -fp.tq)
        # -g = [[1, 1], [1, 1]] is singular: the starting solve fails there.
        fp.g[7] = -1.0
        u1, why1 = _greatest_u(threebus, fp, -fp.tq)
        assert why1[7] == "reactive Jacobian is singular"
        others = np.arange(30) != 7
        assert u1[others].tobytes() == u0[others].tobytes()
        assert why1[:7] + why1[8:] == why0[:7] + why0[8:] == [None] * 29

    def test_singular_schur_row_leaves_others(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 4, 4))
        h = a @ np.swapaxes(a, -1, -2)
        h[2, :2, :2] = [[1.0, 2.0], [2.0, 4.0]]
        hess, singular = _schur(h, 2)
        assert singular.tolist() == [False, False, True, False, False, False]
        assert np.isnan(hess[2]).all()
        for row in (0, 1, 3, 4, 5):
            alone, alone_singular = _schur(h[row], 2)
            assert not alone_singular
            assert hess[row].tobytes() == alone.tobytes()
        assert _schur(h[2], 2)[1]
