import math

import numpy as np
import pytest

from conftest import (fd_gradient, make_twobus, random_network, random_state,
                      same_bits, stacked)
from gridenergy import energy as en
from gridenergy.convexity import convexity_matrix, in_domain_D_sampled
from gridenergy.energy import PFState, pack, unpack
from gridenergy.errors import (NotConstantRatio, SingularReduction,
                               UnsupportedTopology)
from gridenergy.linalg import fd_hessian, sym_eigen
from gridenergy.network import Bus, BusKind, Line, Network
from gridenergy.reduced import reduced_energy, reduced_hessian
from gridenergy.solver import solve_convex, solve_newton


class TestCheckState:
    # Slack bus 1, PV bus 2, PQ bus 3.
    NET = Network([Bus(1, BusKind.SLACK), Bus(2, BusKind.PV), Bus(3, BusKind.PQ)],
                  [Line(1, 2, b=1.0), Line(2, 3, b=1.0)])

    @pytest.mark.parametrize("field, bus", [("rho", 0), ("rho", 1), ("theta", 0)],
                             ids=["slack-rho", "pv-rho", "slack-theta"])
    def test_pinned_entry_rejected(self, field, bus):
        s = PFState.flat(self.NET)
        getattr(s, field)[bus] = 1e-300
        with pytest.raises(ValueError, match="pinned state entries"):
            en.check_state(self.NET, s)

    def test_wrong_shape_rejected(self):
        s = PFState(np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError, match="do not match network size"):
            en.check_state(self.NET, s)

    def test_nan_rejected(self):
        s = PFState.flat(self.NET)
        s.theta[2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            en.check_state(self.NET, s)


def stack_networks(rng, bundled_models):
    """The bundled models, a lossy threebus and random networks."""
    threebus = bundled_models["threebus"]
    lossy = Network(threebus.buses, [Line(ln.i, ln.j, ln.b, 0.2 * ln.b)
                                     for ln in threebus.lines])
    return [*bundled_models.values(), lossy, *(random_network(rng) for _ in range(20))]


class TestStackedStates:
    """check_state, hessian and pf_residuals over a stack of states: each
    row bit for bit its own single-state call, and a malformed row the
    single-state error."""

    @pytest.mark.parametrize("lead", [(6,), (2, 3)])
    def test_rows_match_single_calls(self, bundled_models, lead):
        rng = np.random.default_rng(28)
        for n in stack_networks(rng, bundled_models):
            states = [random_state(rng, n) for _ in range(6)]
            s = stacked(states)
            s = PFState(s.rho.reshape(lead + (-1,)), s.theta.reshape(lead + (-1,)))
            h = en.hessian(n, s).reshape((6,) + (len(n.pq) + len(n.ns),) * 2)
            rp, rq = (r.reshape(6, -1) for r in en.pf_residuals(n, s))
            for k, one in enumerate(states):
                assert same_bits(h[k], en.hessian(n, one))
                rp1, rq1 = en.pf_residuals(n, one)
                assert same_bits(rp[k], rp1) and same_bits(rq[k], rq1)

    @pytest.mark.parametrize("kernel", [en.check_state, en.hessian, en.pf_residuals])
    @pytest.mark.parametrize("field, bus, value, message", [
        ("theta", 2, np.nan, "non-finite"), ("rho", 2, np.inf, "non-finite"),
        ("rho", 0, 1e-300, "pinned state entries"),
        ("rho", 1, -1e-300, "pinned state entries"),
        ("theta", 0, 0.1, "pinned state entries")])
    def test_malformed_row_raises_single_error(self, kernel, field, bus, value,
                                               message):
        n = TestCheckState.NET
        states = [PFState.flat(n) for _ in range(4)]
        getattr(states[2], field)[bus] = value
        with pytest.raises(ValueError, match=message):
            kernel(n, states[2])
        with pytest.raises(ValueError, match=message):
            kernel(n, stacked(states))

    @pytest.mark.parametrize("fn", [en.check_one_state, en.energy_value,
                                    en.energy_gradient, en.hessian_blocks,
                                    convexity_matrix, in_domain_D_sampled,
                                    solve_newton, solve_convex, reduced_hessian])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_single_state_functions_refuse_a_stack(self, threebus, fn, rows):
        s = PFState(np.zeros((rows, 3)), np.zeros((rows, 3)))
        with pytest.raises(ValueError, match="do not match network size"):
            fn(threebus, s)

    @pytest.mark.parametrize("kernel", [en.check_state, en.hessian, en.pf_residuals])
    @pytest.mark.parametrize("rho_shape, theta_shape", [
        ((4, 2), (4, 2)), ((4, 4), (4, 4)), ((4, 3), (3, 3)), ((4, 3), (4, 1, 3)),
        ((), ())])
    def test_wrong_shape_rejected(self, kernel, rho_shape, theta_shape):
        s = PFState(np.zeros(rho_shape), np.zeros(theta_shape))
        with pytest.raises(ValueError, match="do not match network size"):
            kernel(TestCheckState.NET, s)


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
        h = en.hessian(n, PFState.flat(n))
        assert np.allclose(h, np.eye(2), atol=1e-15)

    def test_against_finite_differences(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = random_network(rng, n_max=6, b_hi=5.0)
            s = random_state(rng, n)
            x0 = pack(n, s)
            f = lambda x: en.energy_value(n, unpack(n, x))
            hfd = fd_hessian(f, x0)
            ha = en.hessian(n, s)
            scale = 1.0 + np.max(np.abs(hfd))
            assert np.max(np.abs(ha - hfd)) / scale < 1e-5

    def test_matches_scatter_reference(self, bundled_models):
        # hessian scatters into the free variables with one bincount; the
        # same sums in the same order as this 2n x 2n np.add.at assembly,
        # so the two agree bit for bit.
        def reference(n, s):
            f, t = n.edges[:, 0], n.edges[:, 1]
            e2, exy = np.exp(2.0 * s.rho), np.exp(s.rho[f] + s.rho[t])
            w = n.b * exy * np.cos(s.theta[f] - s.theta[t])
            sv = n.b * exy * np.sin(s.theta[f] - s.theta[t])
            nb = n.n_bus
            h = np.zeros((2 * nb, 2 * nb))
            for ii, jj, val in ((f, f, 2.0 * n.b * e2[f] - w),
                                (t, t, 2.0 * n.b * e2[t] - w), (f, t, -w),
                                (f, nb + f, sv), (t, nb + f, sv),
                                (f, nb + t, -sv), (t, nb + t, -sv),
                                (nb + f, nb + f, w), (nb + t, nb + t, w),
                                (nb + f, nb + t, -w)):
                np.add.at(h, (ii, jj), val)
                if not np.array_equal(ii, jj):
                    np.add.at(h, (jj, ii), val)
            keep = np.concatenate((n.pq, nb + n.ns))
            return 0.5 * (h + h.T)[np.ix_(keep, keep)]

        rng = np.random.default_rng(27)
        nets = list(bundled_models.values())
        nets += [random_network(rng, pq_prob=0.5) for _ in range(20)]
        for n in nets:
            s = random_state(rng, n)
            assert np.array_equal(en.hessian(n, s), reference(n, s))

    def test_flat_start_psd(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            n = random_network(rng)
            w, _ = sym_eigen(en.hessian(n, PFState.flat(n)))
            assert w[0] >= -1e-9 * (1 + w[-1])


class TestHessianBlocks:
    def test_flat_m_formulas(self, threebus):
        bl = en.hessian_blocks(threebus, PFState.flat(threebus))
        m = bl.m
        # diagonal: sum of incident susceptances; off-diagonal: -B_ij
        assert m[0, 0] == pytest.approx(43.55)
        assert m[1, 1] == pytest.approx(43.55)
        assert m[0, 1] == pytest.approx(-16.67)

    def test_flat_o_equals_domain_matrix(self, threebus):
        s = PFState.flat(threebus)
        bl = en.hessian_blocks(threebus, s)
        o, l = bl.require_schur()
        cm = convexity_matrix(threebus, s)
        assert np.max(np.abs(o - cm)) < 1e-12
        assert np.max(np.abs(l - cm)) < 1e-12
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
            cm = convexity_matrix(n, s)
            _, l = en.hessian_blocks(n, s).require_schur()
            assert np.max(np.abs(l - cm)) < 1e-12 * (1 + np.max(np.abs(cm)))
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
            expect = d[:, None] * bl.o * d[None, :]
            assert np.max(np.abs(bl.l - expect)) < 1e-12 * (
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


def fixed_phase_hessian(fp, rho_pq):
    """d2E/drho2 over the PQ buses (the m block of hessian_blocks), from
    FixedPhase's -diag(v) - U g U."""
    u = np.exp(rho_pq)
    h = -np.outer(u, u) * fp.g
    h.flat[::len(u) + 1] -= u * (fp.d + u @ fp.g)
    return h


def fixed_phase_residuals(fp, rho_rows):
    """FixedPhase's residual for each row of a 2-D rho_rows."""
    u = np.exp(rho_rows)
    return fp.tq + u * (fp.d + u @ fp.g)


class TestFixedPhase:
    def check(self, n, s):
        fp = en.FixedPhase(n, s.theta)
        rho = s.rho[n.pq]
        assert _close(fp.residual(rho), -en.energy_gradient(n, s).grad_rho, 1e-12)
        if len(n.pq):
            assert _close(fixed_phase_hessian(fp, rho),
                          en.hessian_blocks(n, s).m, 1e-12)
            # A batch gives one residual per row.
            batch = fixed_phase_residuals(fp, np.stack((rho, 0.5 * rho)))
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
