"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line with its runtime (run with pytest -s to see them all)."""
import math
import time

import numpy as np
import pytest

from conftest import (fd_gradient, make_twobus, matrix_convexity_gap,
                      random_network, random_state)
from gridenergy import energy as en
from gridenergy.convexity import in_domain_C, max_phase_bound
from gridenergy.energy import PFState
from gridenergy.linalg import fd_hessian, sym_eigen
from gridenergy.network import (Bus, BusKind, Network, impose_ratio, load_case,
                                scale_injections)
from gridenergy.reduced import (convex_reactive_solve, region_agreement,
                                region_grid, solve_reactive_newton,
                                voltage_upper_bound)
from gridenergy.solver import (SolveStatus, solve_convex, solve_convex_lossy,
                               solve_newton, sweep_load)

CRITICAL_LOAD = (math.sqrt(2.0) - 1.0) / 2.0


class _Stopwatch:
    def __init__(self, label, budget_s):
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.perf_counter() - self.t0
        status = "FAIL" if exc_type else "PASS"
        print(f"[acceptance] {self.label}: {status} ({elapsed:.1f}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"{self.label} exceeded runtime budget: {elapsed:.1f}s")


def test_criterion_01_flat_start_identities(bundled_models):
    with _Stopwatch("1 flat-start identities", 1.0):
        for name, n in bundled_models.items():
            s = PFState.flat(n)
            assert abs(en.energy_value(n, s)) <= 1e-12, name
            ev = en.energy_gradient(n, s)
            assert np.max(np.abs(ev.grad_theta + n.p_inj[n.ns])) <= 1e-12
            assert np.max(np.abs(ev.grad_rho + n.q_inj[n.pq])) <= 1e-12
            assert in_domain_C(n, s).in_c, name


def test_criterion_02_derivative_correctness():
    with _Stopwatch("2 gradient/Hessian vs finite differences", 30.0):
        from gridenergy.energy import pack, unpack
        rng = np.random.default_rng(101)
        for _ in range(200):
            n = random_network(rng, n_max=10, b_hi=8.0)
            s = random_state(rng, n, rho_amp=0.3, theta_amp=0.5)
            x0 = pack(n, s)
            f = lambda x: en.energy_value(n, unpack(n, x))
            gfd = fd_gradient(f, x0)
            ga = en.energy_gradient(n, s).as_vector()
            gscale = 1.0 + np.max(np.abs(gfd))
            assert np.max(np.abs(ga - gfd)) / gscale < 1e-5
            hfd = fd_hessian(f, x0)
            ha = en.hessian(n, s)
            hscale = 1.0 + np.max(np.abs(hfd))
            assert np.max(np.abs(ha - hfd)) / hscale < 1e-5


def test_criterion_03_domain_sufficiency():
    with _Stopwatch("3 in-domain states have PSD Hessians", 120.0):
        rng = np.random.default_rng(102)
        nets = [random_network(rng, n_max=8, tree=False) for _ in range(40)]
        nets = [n for n in nets if len(n.lines) > n.n_bus - 1] or nets
        done = violations = 0
        while done < 10000:
            n = nets[int(rng.integers(0, len(nets)))]
            s = random_state(rng, n, rho_amp=0.35, theta_amp=0.7)
            if not in_domain_C(n, s).in_c:
                continue
            h = en.hessian(n, s)
            w, _ = sym_eigen(h)
            scale = 1.0 + np.max(np.abs(np.diag(h)))
            if w[0] < -1e-8 * scale:
                violations += 1
            done += 1
        assert violations == 0


def test_criterion_04_tree_exactness():
    with _Stopwatch("4 tree networks: domain test is exact", 120.0):
        rng = np.random.default_rng(103)
        disagreements = 0
        for _ in range(25):
            n = random_network(rng, n_max=8, tree=True)
            checked = 0
            while checked < 200:
                s = random_state(rng, n, rho_amp=0.4, theta_amp=0.8)
                f, t = n.edges[:, 0], n.edges[:, 1]
                if np.max(np.abs(s.theta[f] - s.theta[t])) > math.pi / 2 - 0.05:
                    continue
                checked += 1
                cert = in_domain_C(n, s)
                h = en.hessian(n, s)
                w, _ = sym_eigen(h)
                hscale = 1.0 + np.max(np.abs(np.diag(h)))
                if abs(cert.lmi_min_eig) < 1e-7 * cert.scale or \
                        abs(w[0]) < 1e-7 * hscale:
                    continue  # boundary band
                if cert.in_c != (w[0] > 0):
                    disagreements += 1
        assert disagreements == 0


def test_criterion_05_loewner_convexity_gap():
    with _Stopwatch("5 convexity-gap matrices are PSD", 60.0):
        rng = np.random.default_rng(104)
        lim = math.pi / 2 - 1e-3
        for _ in range(10000):
            x1, x2 = rng.uniform(-2.0, 2.0, 2)
            y1, y2 = rng.uniform(-lim, lim, 2)
            lam = float(rng.uniform(0.0, 1.0))
            gap = matrix_convexity_gap(x1, y1, x2, y2, lam)
            w, _ = sym_eigen(gap)
            assert w[0] >= -1e-9


def test_criterion_06_two_bus_collapse():
    with _Stopwatch("6 two-bus collapse sequence", 5.0):
        for s in (0.01, 0.1, 0.2):
            out = solve_convex(make_twobus(p=-s, q=-s))
            assert out.status is SolveStatus.SOLUTION_FOUND
            disc = (2 * s - 1.0) ** 2 - 8.0 * s * s
            v = math.sqrt(0.5 * ((1 - 2 * s) + math.sqrt(disc)))
            assert math.exp(out.state.rho[1]) == pytest.approx(v, abs=1e-6)
            assert out.state.theta[1] == pytest.approx(math.asin(-s / v),
                                                       abs=1e-6)
        out = solve_convex(make_twobus(p=-0.25, q=-0.25))
        assert out.status is SolveStatus.NO_SOLUTION_IN_C
        records = sweep_load(load_case("twobus"), 1.0,
                             np.arange(2.0, 2.151, 0.01))
        found = [r.status is SolveStatus.SOLUTION_FOUND for r in records]
        assert sum(1 for a, b in zip(found, found[1:]) if a != b) == 1
        last_ok = max(i for i, ok in enumerate(found) if ok)
        lo = records[last_ok].kappa * 0.1
        hi = records[last_ok + 1].kappa * 0.1
        assert lo <= CRITICAL_LOAD <= hi
        assert hi - lo <= 0.001 + 1e-12


def test_criterion_07_three_bus_region(threebus):
    with _Stopwatch("7 three-bus region grid", 300.0):
        cells = region_grid(threebus, step_deg=2.0)
        agree, comparable = region_agreement(cells)
        assert comparable > 1000
        assert agree / comparable >= 0.97
        over = scale_injections(threebus, 6.0, 1.0)
        cells6 = region_grid(over, step_deg=2.0)
        assert sum(1 for c in cells6 if c.in_c) == 0


def _sweep_criterion(n, kappas):
    for delta in (1.0, 0.5, 0.1):
        records = sweep_load(n, delta, kappas)
        found = [r.status is SolveStatus.SOLUTION_FOUND for r in records]
        # exactly one transition, strictly after the base case
        assert found[0] and not found[-1]
        assert sum(1 for a, b in zip(found, found[1:]) if a != b) == 1
        for rec in records:
            if rec.status is not SolveStatus.SOLUTION_FOUND:
                assert rec.status is SolveStatus.NO_SOLUTION_IN_C
        kappa_star = records[[i for i, ok in enumerate(found) if ok][-1]].kappa
        assert kappa_star > 1.0
        # below the transition the convex solution matches Newton-Raphson
        for rec in records:
            if rec.status is not SolveStatus.SOLUTION_FOUND:
                continue
            nk = scale_injections(n, rec.kappa, delta)
            cv = solve_convex(nk)
            nt = solve_newton(nk)
            assert nt.status is SolveStatus.SOLUTION_FOUND
            diff = max(np.max(np.abs(cv.state.rho - nt.state.rho)),
                       np.max(np.abs(cv.state.theta - nt.state.theta)))
            assert diff <= 1e-6


def test_criterion_08_ieee_sweeps(ieee14_model, ieee118_model):
    with _Stopwatch("8 IEEE-14/118 loadability sweeps", 600.0):
        _sweep_criterion(ieee14_model, np.arange(1.0, 5.76, 0.5))
        _sweep_criterion(ieee118_model, np.arange(1.0, 4.51, 0.5))


def test_criterion_09_operational_bounds(ieee14_model, ieee118_model):
    with _Stopwatch("9 operating-box phase budgets", 300.0):
        b14 = max_phase_bound(ieee14_model, 1.5, seed=0)
        assert 40.0 <= b14.b_theta_deg <= 60.0
        b118 = max_phase_bound(ieee118_model, 1.5, seed=0)
        assert 35.0 <= b118.b_theta_deg <= 55.0


def test_criterion_10_reduced_program(threebus):
    with _Stopwatch("10 reduced convex reactive program", 60.0):
        v_bar = voltage_upper_bound(threebus).v_bar
        rng = np.random.default_rng(105)
        for trial in range(10):
            theta = np.zeros(3)
            if trial:
                theta[threebus.ns] = rng.uniform(-0.35, 0.35, 2)
            st = convex_reactive_solve(threebus, theta)
            # Every constraint tight, checked by the phasor residuals.
            s = PFState(np.zeros(3), theta)
            s.rho[threebus.pq] = 0.5 * np.log(st.zeta)
            assert np.max(np.abs(en.pf_residuals(threebus, s)[1])) <= 1e-8
            assert np.all(st.voltages() <= v_bar + 1e-8)
        rho = solve_reactive_newton(threebus, np.zeros(3))
        st0 = convex_reactive_solve(threebus, np.zeros(3))
        assert np.max(np.abs(st0.voltages() - np.exp(rho))) <= 1e-6


def _all_pq_equivalent(n):
    """Replace PV buses by PQ buses carrying the reactive injection of the
    solved lossless base case (the solution is preserved)."""
    sol = solve_newton(n)
    assert sol.status is SolveStatus.SOLUTION_FOUND
    v = np.exp(sol.state.rho + 1j * sol.state.theta)
    inj = np.zeros(n.n_bus, dtype=complex)
    for k, (f, t) in enumerate(n.edges):
        y = -1j * n.b[k]
        inj[f] += v[f] * np.conj(y * (v[f] - v[t]))
        inj[t] += v[t] * np.conj(y * (v[t] - v[f]))
    buses = []
    for pos, b in enumerate(n.buses):
        if b.kind is BusKind.PV:
            buses.append(Bus(b.id, BusKind.PQ, p_inj=b.p_inj,
                             q_inj=float(inj[pos].imag)))
        else:
            buses.append(b)
    return Network(buses, n.lines)


def test_criterion_11_lossy_consistency(bundled_models):
    with _Stopwatch("11 lossy pipeline consistency", 300.0):
        # The convex solve runs on the energy's lossy targets, Newton on the
        # phasor residuals: on each all-PQ twin at a uniform ratio, a solution
        # the convex route finds must be the one Newton finds.
        found = set()
        for name, n in bundled_models.items():
            m = impose_ratio(n if len(n.pv) == 0 else _all_pq_equivalent(n), 0.1)
            a = solve_convex(m)
            if a.status is not SolveStatus.SOLUTION_FOUND:
                continue
            b = solve_newton(m)
            assert b.status is SolveStatus.SOLUTION_FOUND, name
            diff = max(np.max(np.abs(a.state.rho - b.state.rho)),
                       np.max(np.abs(a.state.theta - b.state.theta)))
            assert diff <= 1e-8, name
            found.add(name)
        assert {"twobus", "threebus", "threebus-tree", "ieee14"} <= found
        nk = make_twobus(g=0.2)
        out = solve_convex_lossy(nk)
        assert out.status is SolveStatus.SOLUTION_FOUND
        rp, rq = en.pf_residuals(nk, out.state)
        assert max(np.max(np.abs(rp)), np.max(np.abs(rq))) <= 1e-8
