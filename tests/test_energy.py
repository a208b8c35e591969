import math

import numpy as np
import pytest

from conftest import make_twobus, random_network, random_state
from gridenergy import energy as en
from gridenergy.energy import PFState, pack, unpack
from gridenergy.errors import (NotConstantRatio, SingularReduction,
                               UnsupportedTopology)
from gridenergy.linalg import fd_gradient, fd_hessian, sym_eigen
from gridenergy.network import Bus, BusKind, Line, Network
from gridenergy.reduced import reduced_energy
from gridenergy.solver import solve_newton


class TestEnergyValue:
    def test_flat_start_is_zero(self, bundled_models):
        for n in bundled_models.values():
            assert en.energy_value(n, PFState.flat(n)) == 0.0

    def test_two_bus_pv_hand_value(self):
        n = make_twobus(p=0.5, q=0.0, pq_kind=BusKind.PV)
        s = PFState.flat(n)
        s.theta[1] = math.pi / 6
        expect = 1.0 - math.cos(math.pi / 6) - 0.5 * (math.pi / 6)
        assert en.energy_value(n, s) == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(-0.1278248, abs=5e-7)

    def test_matches_reduced_energy_at_solution(self, threebus):
        sol = solve_newton(threebus).state
        e_full = en.energy_value(threebus, sol)
        e_red = reduced_energy(threebus, sol.theta)
        assert abs(e_full - e_red) < 1e-10


class TestResiduals:
    def test_flat_start(self, threebus):
        rp, rq = en.pf_residuals(threebus, PFState.flat(threebus))
        assert np.allclose(rp, threebus.p_inj[threebus.ns], atol=1e-15)
        assert np.allclose(rq, threebus.q_inj[threebus.pq], atol=1e-15)

    def test_two_bus_near_root(self):
        # quadratic-reduction root for load 0.1: u^2 + (2s-1)u + 2s^2 = 0
        n = make_twobus()
        s = PFState.flat(n)
        s.rho[1] = math.log(0.8799)
        s.theta[1] = math.radians(-6.54)
        rp, rq = en.pf_residuals(n, s)
        assert max(abs(rp[0]), abs(rq[0])) < 1e-3

    def test_lightest_figure_load(self):
        n = make_twobus(p=-0.01, q=-0.01)
        sol = solve_newton(n)
        rp, rq = en.pf_residuals(n, sol.state)
        assert max(np.max(np.abs(rp)), np.max(np.abs(rq))) < 1e-10


class TestGradient:
    def test_flat_start(self, bundled_models):
        for n in bundled_models.values():
            ev = en.energy_gradient(n, PFState.flat(n))
            assert np.allclose(ev.grad_theta, -n.p_inj[n.ns], atol=1e-15)
            assert np.allclose(ev.grad_rho, -n.q_inj[n.pq], atol=1e-15)

    def test_gradient_equals_negated_residuals(self):
        # independent code paths: edge-accumulated derivatives vs phasors
        rng = np.random.default_rng(21)
        for _ in range(1000):
            n = random_network(rng)
            s = random_state(rng, n)
            ev = en.energy_gradient(n, s)
            rp, rq = en.pf_residuals(n, s)
            assert np.max(np.abs(ev.grad_theta + rp), initial=0.0) < 1e-12
            assert np.max(np.abs(ev.grad_rho + rq), initial=0.0) < 1e-12

    def test_against_finite_differences(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = random_network(rng, n_max=6, b_hi=5.0)
            s = random_state(rng, n)
            x0 = pack(n, s)
            f = lambda x: en.energy_value(n, unpack(n, x))
            gfd = fd_gradient(f, x0)
            ga = en.energy_gradient(n, s).as_vector()
            assert np.max(np.abs(ga - gfd)) < 1e-6

    def test_zero_at_newton_solution(self, ieee14_model):
        sol = solve_newton(ieee14_model).state
        ev = en.energy_gradient(ieee14_model, sol)
        assert np.max(np.abs(ev.as_vector())) < 1e-8


class TestHessian:
    def test_two_bus_flat(self):
        n = make_twobus()
        h = en.hessian(n, PFState.flat(n)).entries
        assert np.allclose(h, np.eye(2), atol=1e-15)

    def test_against_finite_differences(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = random_network(rng, n_max=6, b_hi=5.0)
            s = random_state(rng, n)
            x0 = pack(n, s)
            f = lambda x: en.energy_value(n, unpack(n, x))
            hfd = fd_hessian(f, x0)
            ha = en.hessian(n, s).entries
            scale = 1.0 + np.max(np.abs(hfd))
            assert np.max(np.abs(ha - hfd)) / scale < 1e-5

    def test_flat_start_psd(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            n = random_network(rng)
            w, _ = sym_eigen(en.hessian(n, PFState.flat(n)))
            assert w[0] >= -1e-9 * (1 + w[-1])


class TestHessianBlocks:
    def test_flat_m_formulas(self, threebus):
        bl = en.hessian_blocks(threebus, PFState.flat(threebus))
        m = bl.m.entries
        # diagonal: sum of incident susceptances; off-diagonal: -B_ij
        assert m[0, 0] == pytest.approx(43.55)
        assert m[1, 1] == pytest.approx(43.55)
        assert m[0, 1] == pytest.approx(-16.67)

    def test_flat_o_equals_domain_matrix(self, threebus):
        from gridenergy.convexity import convexity_matrix
        s = PFState.flat(threebus)
        bl = en.hessian_blocks(threebus, s)
        o, l = bl.require_schur()
        cm = convexity_matrix(threebus, s)
        assert np.max(np.abs(o.entries - cm.entries)) < 1e-12
        assert np.max(np.abs(l.entries - cm.entries)) < 1e-12
        # Away from the flat start the Schur-complement route stays an
        # independent oracle for the line-factor assembly.
        rng = np.random.default_rng(26)
        checked = 0
        for _ in range(300):
            n = random_network(rng)
            s = random_state(rng, n, rho_amp=0.4, theta_amp=0.8)
            f, t = n.edges[:, 0], n.edges[:, 1]
            if len(n.pq) == 0 or np.max(np.abs(s.theta[f] - s.theta[t])) >= math.pi / 2:
                continue
            cm = convexity_matrix(n, s).entries
            _, l = en.hessian_blocks(n, s).require_schur()
            assert np.max(np.abs(l.entries - cm)) < 1e-12 * (1 + np.max(np.abs(cm)))
            checked += 1
        assert checked > 200

    def test_rescaling_identity(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            n = random_network(rng)
            s = random_state(rng, n, theta_amp=0.4)
            bl = en.hessian_blocks(n, s)
            if bl.m is None or bl.o is None:
                continue
            d = np.exp(-s.rho[n.pq])
            expect = d[:, None] * bl.o.entries * d[None, :]
            assert np.max(np.abs(bl.l.entries - expect)) < 1e-12 * (
                1 + np.max(np.abs(expect)))

    def test_schur_verdict_matches_full_on_trees(self):
        from gridenergy.linalg import DEFAULT_PSD_TOL
        rng = np.random.default_rng(26)
        checked = 0
        for _ in range(100):
            n = random_network(rng, n_max=7, tree=True)
            s = random_state(rng, n, rho_amp=0.4, theta_amp=0.9)
            bl = en.hessian_blocks(n, s)
            if bl.m is None or np.any(np.abs(bl.theta_edges) >= np.pi / 2):
                continue
            o, _ = bl.require_schur()
            w_full, _ = sym_eigen(en.hessian(n, s))
            w_o, _ = sym_eigen(o)
            scale_f = 1 + abs(w_full[-1])
            scale_o = 1 + abs(w_o[-1])
            full_psd = w_full[0] >= -DEFAULT_PSD_TOL * scale_f
            schur_psd = w_o[0] >= -DEFAULT_PSD_TOL * scale_o
            if min(abs(w_full[0]) / scale_f, abs(w_o[0]) / scale_o) < 1e-7:
                continue  # boundary band
            assert full_psd == schur_psd
            checked += 1
        assert checked > 30

    def test_singular_reduction(self, threebus):
        s = PFState.flat(threebus)
        s.theta[1] = 1.6  # past 90 degrees on line 1-2
        bl = en.hessian_blocks(threebus, s)
        assert bl.o is None
        with pytest.raises(SingularReduction):
            bl.require_schur()

    def test_theta_edges(self, threebus):
        s = PFState.flat(threebus)
        s.theta[1] = 0.3
        s.theta[2] = -0.2
        bl = en.hessian_blocks(threebus, s)
        assert np.allclose(bl.theta_edges, [-0.3, 0.2, 0.5])


def _close(a, b, rtol):
    return np.max(np.abs(a - b), initial=0.0) <= rtol * (1.0 + np.max(np.abs(b), initial=0.0))


class TestFixedPhase:
    def check(self, n, s):
        fp = en.FixedPhase(n, s.theta)
        rho = s.rho[n.pq]
        assert _close(fp.residual(rho), -en.energy_gradient(n, s).grad_rho, 1e-12)
        if len(n.pq):
            assert _close(fp.hessian(rho), en.hessian_blocks(n, s).m.entries, 1e-12)
            # A batch gives one residual per row.
            batch = fp.residual(np.stack((rho, 0.5 * rho)))
            assert _close(batch[0], fp.residual(rho), 1e-14)
            assert _close(batch[1], fp.residual(0.5 * rho), 1e-14)

    def test_random_networks(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = random_network(rng)
            self.check(n, random_state(rng, n))

    def test_lossy_threebus(self, threebus):
        lines = [Line(ln.i, ln.j, ln.b, 0.2 * ln.b) for ln in threebus.lines]
        n = Network(threebus.buses, lines)
        assert n.lossy_ratio == pytest.approx(0.2)
        rng = np.random.default_rng(32)
        for _ in range(10):
            self.check(n, random_state(rng, n))


class TestLossy:
    def make_lossy(self, s_load, kappa):
        return make_twobus(p=-s_load, q=-s_load, g=kappa)

    def test_kappa_zero_equals_lossless(self):
        # kappa = 0 hands the energy the network's own arrays, uncopied.
        n = self.make_lossy(0.1, 0.0)
        beff, tp, tq = en._model(n)
        assert beff is n.b and tp is n.p_inj and tq is n.q_inj
        tp, tq = en.lossy_targets(n, 0.0)
        assert np.array_equal(tp, n.p_inj) and np.array_equal(tq, n.q_inj)

    def test_flat_combined_gradients(self):
        n = self.make_lossy(0.1, 0.2)
        ev = en.energy_gradient(n, PFState.flat(n))
        p, q = n.p_inj[1], n.q_inj[1]
        assert ev.grad_theta[0] == pytest.approx(-(p - 0.2 * q), abs=1e-15)
        assert ev.grad_rho[0] == pytest.approx(-(q + 0.2 * p), abs=1e-15)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            n_bus = int(rng.integers(2, 6))
            buses = [Bus(1, BusKind.SLACK)]
            buses += [Bus(i, BusKind.PQ, p_inj=rng.normal(scale=0.2),
                          q_inj=rng.normal(scale=0.2))
                      for i in range(2, n_bus + 1)]
            kappa = float(rng.uniform(0.05, 0.4))
            lines = [Line(i, int(rng.integers(1, i)), b=float(rng.uniform(1, 5)))
                     for i in range(2, n_bus + 1)]
            lines = [Line(ln.i, ln.j, ln.b, kappa * ln.b) for ln in lines]
            n = Network(buses, lines)
            s = random_state(rng, n)
            x0 = pack(n, s)
            f = lambda x: en.energy_value(n, unpack(n, x))
            ga = en.energy_gradient(n, s).as_vector()
            assert np.max(np.abs(ga - fd_gradient(f, x0))) < 1e-6
            rp, rq = en.pf_residuals(n, s)
            assert np.max(np.abs(ga + np.concatenate((rq, rp)))) < 1e-12

    def test_pv_bus_rejected(self):
        n = Network([Bus(1, BusKind.SLACK), Bus(2, BusKind.PV), Bus(3, BusKind.PQ)],
                    [Line(1, 2, 1.0, 0.2), Line(2, 3, 1.0, 0.2)])
        with pytest.raises(UnsupportedTopology):
            en.energy_value(n, PFState.flat(n))

    def test_nonuniform_ratio_rejected(self):
        n = Network([Bus(1, BusKind.SLACK), Bus(2, BusKind.PQ), Bus(3, BusKind.PQ)],
                    [Line(1, 2, 1.0, 0.2), Line(2, 3, 1.0, 0.1)])
        assert n.lossy_ratio is None
        with pytest.raises(NotConstantRatio):
            en.pf_residuals(n, PFState.flat(n))
