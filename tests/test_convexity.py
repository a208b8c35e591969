import itertools
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (make_twobus, matrix_convexity_gap, random_network,
                      random_state, same_bits, stacked)
from test_energy import stack_networks
from test_solver import all_lines_domain, strictly_interior
from gridenergy import energy as en
from gridenergy import convexity
from gridenergy.convexity import (_BOUND_RESOLUTION, ConvexityCertificate,
                                  PhaseVoltageBox,
                                  _box_chunks,
                                  _probes_pass,
                                  convexity_matrix, domain_matrix, in_domain_C,
                                  in_domain_D_sampled, lossy_in_domain,
                                  line_factors, max_phase_bound, pq_line_ends)
from gridenergy.energy import HALF_PI, PFState
from gridenergy.errors import (DomainError, GridEnergyError, PhaseOutOfRange,
                               UnsupportedTopology)
from gridenergy.linalg import DEFAULT_PSD_TOL, cholesky_psd, sym_eigen
from gridenergy.network import Bus, BusKind, Line, Network, load_case
from gridenergy.solver import SolveOptions, SolveStatus, solve_convex


class TestLineFactors:
    def test_active_columns_of_the_incidence_factor(self, bundled_models):
        # U has a column per active line: the every-line factor read off the
        # incidence, whose other columns are all zero.
        rng = np.random.default_rng(33)
        for n in list(bundled_models.values()) + [random_network(rng) for _ in range(10)]:
            d, active = rng.uniform(-0.3, 0.3, len(n.b)), n.active
            full = all_lines_domain(n, d, n.b)[0]
            assert not np.delete(full, active, axis=1).any()
            assert np.array_equal(line_factors(n, d[active]), full[:, active])
            line, col, sign, pq = pq_line_ends(n)
            assert np.array_equal(active[col], line)
            assert np.array_equal(full[pq, line], np.exp(0.5 * sign * d[line]))


class TestConvexityMatrix:
    def test_flat_equals_weighted_laplacian(self, threebus):
        cm = convexity_matrix(threebus, PFState.flat(threebus))
        expect = np.array([[43.55, -16.67], [-16.67, 43.55]])
        assert np.allclose(cm, expect, atol=1e-12)
        w, _ = sym_eigen(convexity_matrix(threebus, PFState.flat(threebus)))
        assert w[0] == pytest.approx(26.88)
        assert w[0] > 0

    def test_two_bus_closed_form(self):
        n = make_twobus()
        s = PFState.flat(n)
        s.rho[1] = -math.log(2.0)
        cm = convexity_matrix(n, s)
        assert cm.shape == (1, 1)
        assert cm[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_phase_out_of_range(self, threebus):
        s = PFState.flat(threebus)
        s.theta[1] = math.radians(100.0)
        with pytest.raises(PhaseOutOfRange):
            convexity_matrix(threebus, s)


class TestInDomainC:
    def test_flat_start_in_c(self, bundled_models):
        for n in bundled_models.values():
            cert = in_domain_C(n, PFState.flat(n))
            assert cert.in_c and cert.phase_ok

    def test_wide_phase_not_in_c(self, threebus):
        s = PFState.flat(threebus)
        s.theta[1] = math.radians(100.0)
        cert = in_domain_C(threebus, s)
        assert not cert.in_c and not cert.phase_ok

    def test_boundary_state(self):
        n = make_twobus()
        s = PFState.flat(n)
        s.rho[1] = math.log(0.5)
        cert = in_domain_C(n, s)
        assert cert.lmi_min_eig == pytest.approx(0.0, abs=1e-12)
        assert cert.in_c  # closed-set convention

    def test_certificate_invariant(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = random_network(rng)
            s = random_state(rng, n, rho_amp=0.5, theta_amp=1.0)
            cert = in_domain_C(n, s)
            assert cert.in_c == (cert.phase_ok
                                 and cert.lmi_min_eig >= -cert.tol_abs)


CERT_FIELDS = ("in_c", "phase_ok", "lmi_min_eig", "tol_abs", "scale")


def assert_rows_are_single_certificates(n, states, cert):
    for k, s in enumerate(states):
        one = in_domain_C(n, s)
        assert type(one.in_c) is bool and type(one.lmi_min_eig) is float
        for field in CERT_FIELDS:
            assert same_bits(getattr(cert, field)[k], getattr(one, field)), field


class TestStackedInDomainC:
    """in_domain_C over a stack of states: one array entry per state, bit for
    bit that state's own certificate."""

    def test_rows_match_single_calls(self, bundled_models):
        rng = np.random.default_rng(33)
        blocked = 0
        for n in stack_networks(rng, bundled_models):
            # Phases up to 1.2 rad put some lines past 90 degrees.
            states = [random_state(rng, n, rho_amp=0.5, theta_amp=1.2)
                      for _ in range(8)]
            cert = in_domain_C(n, stacked(states))
            for field in CERT_FIELDS:
                assert getattr(cert, field).shape == (8,)
            assert_rows_are_single_certificates(n, states, cert)
            blocked += int(np.isneginf(cert.lmi_min_eig).sum())
        assert blocked > 0

    def test_leading_axes(self, ieee14_model):
        rng = np.random.default_rng(34)
        states = [random_state(rng, ieee14_model) for _ in range(6)]
        s = stacked(states)
        cert = in_domain_C(ieee14_model, PFState(s.rho.reshape(2, 3, -1),
                                                 s.theta.reshape(2, 3, -1)))
        assert cert.lmi_min_eig.shape == (2, 3)
        flat = ConvexityCertificate(*(getattr(cert, f).ravel() for f in CERT_FIELDS))
        assert_rows_are_single_certificates(ieee14_model, states, flat)

    @pytest.mark.parametrize("row", [0, 2, 4])
    def test_row_at_90_degrees_blocked(self, threebus, row):
        rng = np.random.default_rng(row)
        states = [random_state(rng, threebus) for _ in range(5)]
        # Every line at bus ns[0] at exactly 90 degrees.
        states[row].theta[:] = 0.0
        states[row].theta[threebus.ns[0]] = HALF_PI
        cert = in_domain_C(threebus, stacked(states))
        assert (cert.in_c[row], cert.phase_ok[row], cert.lmi_min_eig[row],
                cert.tol_abs[row], cert.scale[row]) == (False, True, -math.inf, 0.0, 1.0)
        assert_rows_are_single_certificates(threebus, states, cert)
        rest = in_domain_C(threebus, stacked(states[:row] + states[row + 1:]))
        for field in CERT_FIELDS:
            assert same_bits(np.delete(getattr(cert, field), row), getattr(rest, field))

    def test_malformed_row_raises_single_error(self):
        # Slack bus 1, PV bus 2, PQ bus 3.
        n = Network([Bus(1, BusKind.SLACK), Bus(2, BusKind.PV), Bus(3, BusKind.PQ)],
                    [Line(1, 2, b=1.0), Line(2, 3, b=1.0)])
        states = [PFState.flat(n) for _ in range(3)]
        states[1].rho[1] = 0.5
        with pytest.raises(ValueError, match="pinned state entries"):
            in_domain_C(n, stacked(states))
        with pytest.raises(ValueError, match="do not match network size"):
            in_domain_C(n, PFState(np.zeros((3, 4)), np.zeros((3, 4))))

    def test_without_pq_buses(self):
        n = make_twobus(pq_kind=BusKind.PV)
        states = [PFState.flat(n) for _ in range(3)]
        states[1].theta[1] = 2.0
        cert = in_domain_C(n, stacked(states))
        assert cert.in_c.tolist() == [True, False, True]
        assert np.all(cert.lmi_min_eig == math.inf)
        assert_rows_are_single_certificates(n, states, cert)


class TestInDomainDSampled:
    def test_flat_start(self, threebus):
        rep = in_domain_D_sampled(threebus, PFState.flat(threebus), samples=8)
        assert rep.in_d

    def test_tree_in_c_implies_in_d(self):
        rng = np.random.default_rng(32)
        done = 0
        while done < 25:
            n = random_network(rng, n_max=6, tree=True)
            s = random_state(rng, n, rho_amp=0.3, theta_amp=0.6)
            if not in_domain_C(n, s).in_c:
                continue
            assert in_domain_D_sampled(n, s, samples=16).in_d
            done += 1

    def test_just_outside_c_fails_at_endpoint(self):
        # two-bus boundary at e^{-rho}/cos(theta) = 2; push just past it
        n = make_twobus()
        s = PFState.flat(n)
        s.theta[1] = math.acos(0.5) + 0.02
        assert not in_domain_C(n, s).in_c
        rep = in_domain_D_sampled(n, s, samples=32)
        assert not rep.in_d
        assert rep.alphas[-1] == pytest.approx(1.0)  # failed only at the end


def reference_d_sampled(n, s, samples):
    """in_domain_D_sampled one sample at a time, as it was before the
    samples were stacked: (in_d, alphas, each sample's smallest eigenvalue)."""
    alphas, mins = [], []
    for k in range(samples + 1):
        alpha = k / samples
        h = en.hessian(n, PFState(alpha * s.rho, alpha * s.theta))
        w, _ = sym_eigen(h)
        scale = 1.0 + float(np.max(np.abs(np.diag(h))))
        alphas.append(alpha)
        mins.append(w[0])
        if w[0] < -DEFAULT_PSD_TOL * scale:
            return False, np.array(alphas), mins
    return True, np.array(alphas), mins


def d_outcome(fn, n, s, samples):
    """(in_d, alphas bytes) or the error raised, and every warning message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(n, s, samples)
            result = (out[0], out[1].tobytes()) if isinstance(out, tuple) else (
                out.in_d, out.alphas.tobytes())
        except GridEnergyError as exc:
            result = (type(exc).__name__, str(exc))
    return result, [str(w.message) for w in caught]


def stacked_min_eigs(n, s, alphas):
    """Smallest eigenvalue of the Hessian at every alpha * s, from one stacked
    Hessian and one batched eigh."""
    a = alphas[:, None]
    h = en.hessian(n, PFState(a * s.rho, a * s.theta))
    return np.linalg.eigh(h)[0][:, 0]


class TestStackedDSamples:
    """The stacked test must give the one-at-a-time test's verdict, samples,
    errors and warnings exactly."""

    def assert_as_before(self, n, s, samples):
        new = d_outcome(in_domain_D_sampled, n, s, samples)
        assert new == d_outcome(reference_d_sampled, n, s, samples)
        return new[0]

    @pytest.mark.parametrize("case", ["twobus", "threebus", "threebus-tree", "ieee14"])
    @pytest.mark.parametrize("small_chunks", [False, True])
    def test_random_states(self, case, small_chunks, bundled_models, monkeypatch):
        n = bundled_models[case]
        order = len(n.pq) + len(n.ns)
        if small_chunks:  # three samples a chunk: failures land mid-stack
            monkeypatch.setattr(convexity, "_CHUNK_ENTRIES", 3 * order ** 2)
        rng = np.random.default_rng([ord(c) for c in case] + [small_chunks])
        verdicts = set()
        for k in range(50 if small_chunks else 25):
            amp = (0.2, 0.8, 3.0, 400.0, 0.1)[k % 5]
            s = random_state(rng, n, rho_amp=amp, theta_amp=amp)
            if k % 5 == 4:  # PQ voltages near e^350: overflow can come first
                s.rho[n.pq] += rng.uniform(300.0, 400.0)
            samples = (64, 7, 1, 33)[k % 4]
            result = self.assert_as_before(n, s, samples)
            verdicts.add(result[0])
            if isinstance(result[0], bool):
                _, alphas, mins = reference_d_sampled(n, s, samples)
                assert stacked_min_eigs(n, s, alphas).tobytes() == np.array(mins).tobytes()
        assert {True, False, "InvalidMatrix"} <= verdicts

    @pytest.mark.parametrize("samples", [10 ** 11, 2 ** 62])
    def test_samples_above_cap_refused(self, threebus, samples):
        # Refused before alphas is allocated: numpy alone cannot hold them.
        with pytest.raises(ValueError, match=f"samples {samples} is above the "
                                             f"cap of {convexity.MAX_ROWS}"):
            in_domain_D_sampled(threebus, PFState.flat(threebus), samples)

    def test_fails_at_first_sample(self, threebus):
        s = PFState.flat(threebus)
        s.theta[1:] = (64 * 2.0, -64 * 2.0)
        assert reference_d_sampled(threebus, s, 64)[1].tolist() == [0.0, 1 / 64]
        self.assert_as_before(threebus, s, 64)

    def test_fails_at_last_sample(self, threebus):
        base = PFState.flat(threebus)
        base.theta[1:] = (1.0, -1.0)
        lo, hi = 0.0, 1.0  # in_d holds at lo, fails at hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            s = PFState(mid * base.rho, mid * base.theta)
            if reference_d_sampled(threebus, s, 64)[0]:
                lo = mid
            else:
                hi = mid
        s = PFState(hi * base.rho, hi * base.theta)
        assert len(reference_d_sampled(threebus, s, 64)[1]) == 65
        assert self.assert_as_before(threebus, s, 64)[0] is False

    def test_overflow_after_failure_is_silent(self, threebus):
        # The exponentials overflow only past the first failing sample.
        s = PFState.flat(threebus)
        s.rho[1] = 400.0
        result, caught = d_outcome(in_domain_D_sampled, threebus, s, 64)
        assert result[0] is False and caught == []
        self.assert_as_before(threebus, s, 64)

    def test_overflow_before_failure_raises(self, threebus):
        s = PFState.flat(threebus)
        s.rho[1:] = 360.0
        result, caught = d_outcome(in_domain_D_sampled, threebus, s, 64)
        assert result == ("InvalidMatrix", "matrix has non-finite entries")
        assert caught
        self.assert_as_before(threebus, s, 64)

    def test_no_free_variable(self):
        n = Network([Bus(1, BusKind.SLACK)], [])
        assert d_outcome(in_domain_D_sampled, n, PFState.flat(n), 4)[0] == (
            "InvalidMatrix", "expected a square matrix, got shape (0, 0)")
        self.assert_as_before(n, PFState.flat(n), 4)


class TestLossyDomain:
    def test_kappa_zero_identical(self):
        n = make_twobus()
        rng = np.random.default_rng(33)
        for _ in range(10):
            s = random_state(rng, n)
            a = in_domain_C(n, s)
            b = lossy_in_domain(n, s)
            assert a == b

    def test_flat_in_c(self):
        n = make_twobus(g=0.3)
        assert lossy_in_domain(n, PFState.flat(n)).in_c

    def test_boundary_matches_closed_form(self):
        # domain is kappa-invariant: crossing at e^{-rho} = 2 cos(theta)
        n = make_twobus(g=0.3)
        rng = np.random.default_rng(34)
        for _ in range(20):
            theta = float(rng.uniform(-0.8, 0.8))
            rho_crit = -math.log(2.0 * math.cos(theta))
            for eps, expect in ((1e-4, True), (-1e-4, False)):
                s = PFState.flat(n)
                s.theta[1] = theta
                s.rho[1] = rho_crit + eps
                assert lossy_in_domain(n, s).in_c is expect

    def test_pv_rejected(self):
        n = Network([Bus(1, BusKind.SLACK), Bus(2, BusKind.PV), Bus(3, BusKind.PQ)],
                    [Line(1, 2, 1.0, 0.2), Line(2, 3, 1.0, 0.2)])
        with pytest.raises(UnsupportedTopology):
            lossy_in_domain(n, PFState.flat(n))


class TestMatrixConvexityGap:
    def test_endpoint_lambda(self):
        g = matrix_convexity_gap(0.5, 0.3, -0.7, -0.2, 0.0)
        assert np.allclose(g, 0.0, atol=1e-14)

    def test_equal_points(self):
        g = matrix_convexity_gap(0.4, 0.8, 0.4, 0.8, 0.61)
        assert np.allclose(g, 0.0, atol=1e-12)

    def test_gap_always_psd(self):
        rng = np.random.default_rng(35)
        lim = math.pi / 2 - 1e-3
        for _ in range(10000):
            x1, x2 = rng.uniform(-2, 2, 2)
            y1, y2 = rng.uniform(-lim, lim, 2)
            lam = float(rng.uniform(0, 1))
            w, _ = sym_eigen(matrix_convexity_gap(x1, y1, x2, y2, lam))
            assert w[0] >= -1e-9


class TestDomainProperties:
    def test_sufficiency_on_meshes(self):
        # in_C at a state implies the full Hessian is PSD there
        rng = np.random.default_rng(36)
        done = 0
        while done < 300:
            n = random_network(rng, n_max=8, tree=False)
            s = random_state(rng, n, rho_amp=0.4, theta_amp=0.8)
            if not in_domain_C(n, s).in_c:
                continue
            h = en.hessian(n, s)
            w, _ = sym_eigen(h)
            scale = 1.0 + np.max(np.abs(np.diag(h)))
            assert w[0] >= -1e-8 * scale
            done += 1

    def test_tree_exactness(self):
        rng = np.random.default_rng(37)
        done = 0
        while done < 200:
            n = random_network(rng, n_max=8, tree=True)
            s = random_state(rng, n, rho_amp=0.4, theta_amp=0.8)
            f, t = n.edges[:, 0], n.edges[:, 1]
            te = s.theta[f] - s.theta[t]
            if np.max(np.abs(te)) > math.pi / 2 - 0.05:
                continue
            cert = in_domain_C(n, s)
            h = en.hessian(n, s)
            w, _ = sym_eigen(h)
            scale = 1.0 + np.max(np.abs(np.diag(h)))
            if abs(cert.lmi_min_eig) < 1e-7 * (1 + abs(cert.lmi_min_eig)) or \
                    abs(w[0]) < 1e-7 * scale:
                continue
            assert cert.in_c == (w[0] > 0)
            done += 1

    def test_star_shaped(self):
        rng = np.random.default_rng(38)
        done = 0
        while done < 50:
            n = random_network(rng)
            s = random_state(rng, n, rho_amp=0.4, theta_amp=0.8)
            if not in_domain_C(n, s).in_c:
                continue
            for alpha in (0.25, 0.5, 0.75):
                sa = PFState(alpha * s.rho, alpha * s.theta)
                assert in_domain_C(n, sa).in_c
            done += 1

    def test_quadratic_form_concave_over_box(self):
        # u^T M(.) u evaluated at a segment midpoint dominates the average
        # of the endpoint values
        rng = np.random.default_rng(39)
        for _ in range(200):
            n = random_network(rng, n_max=6)
            if len(n.pq) == 0:
                continue
            s1 = random_state(rng, n, rho_amp=0.3, theta_amp=0.5)
            s2 = random_state(rng, n, rho_amp=0.3, theta_amp=0.5)
            mid = PFState(0.5 * (s1.rho + s2.rho), 0.5 * (s1.theta + s2.theta))
            u = rng.normal(size=len(n.pq))
            vals = [u @ convexity_matrix(n, s) @ u
                    for s in (s1, s2, mid)]
            assert vals[2] >= 0.5 * (vals[0] + vals[1]) - 1e-9 * (
                1 + max(abs(v) for v in vals))


def _box_samples(n, log_ratio, samples, seed):
    """Every probe of the sampled phase budget: the chunk stream, joined."""
    terms, phi = zip(*_box_chunks(n, log_ratio, samples, seed))
    return np.concatenate(terms), np.concatenate(phi)


def bisected_vertex_bound(n, b_rho):
    """Reference for the certified budget: bisection on b_theta to
    _BOUND_RESOLUTION, each point tested by pivoted LDL on the domain matrix
    at every ratio sign pattern with all phases at that point."""
    active = n.active
    log_ratio = math.log(b_rho)
    bits = (np.arange(1 << len(active))[:, None] >> np.arange(len(active))) & 1
    patterns = np.where(bits, log_ratio, -log_ratio)

    def box_ok(b_theta):
        tau = np.full(len(active), b_theta)
        return all(cholesky_psd(domain_matrix(n, d, tau)).psd
                   for d in patterns)

    lo, hi = 0.0, math.pi / 2 - 1e-9
    if not box_ok(lo):
        return lo
    if box_ok(hi):
        lo = hi
    while hi - lo > _BOUND_RESOLUTION:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if box_ok(mid) else (lo, mid)
    return lo


class TestMaxPhaseBound:
    def test_two_bus_closed_form(self):
        n = make_twobus()
        for b_rho in (1.1, 1.2, 1.5, 1.9):
            res = max_phase_bound(n, b_rho)
            assert res.mode == "exact-vertices" and res.certified
            assert res.b_theta == pytest.approx(math.acos(b_rho / 2.0),
                                                abs=1e-12)

    def test_closed_form_matches_bisection(self, bundled_models):
        # The closed form is the threshold the bisection brackets: never
        # below the bisected budget, and at most one bisection width above.
        rng = np.random.default_rng(45)
        nets = [bundled_models[c] for c in ("twobus", "threebus", "threebus-tree")]
        while len(nets) < 40:
            n = random_network(rng, n_max=8, tree=bool(rng.random() < 0.4))
            if len(n.pq) and len(n.active) <= 8:
                nets.append(n)
        for k, n in enumerate(nets):
            for b_rho in (1.0, 1.05, 1.2, 1.5, 2.0):
                got = max_phase_bound(n, b_rho)
                want = bisected_vertex_bound(n, b_rho)
                assert got.certified
                assert want - 1e-12 <= got.b_theta <= want + _BOUND_RESOLUTION, (
                    k, b_rho)

    def test_budget_is_tight_on_trees(self):
        # On a tree whose non-slack buses are all PQ every per-line ratio
        # and phase is realizable, so the certified budget is exact: each
        # vertex state at the budget is in C, and one just past it is not.
        rng = np.random.default_rng(46)
        checked = 0
        while checked < 20:
            n = random_network(rng, n_max=6, tree=True, pq_prob=1.0)
            b_rho = float(rng.uniform(1.0, 1.6))
            budget = max_phase_bound(n, b_rho).b_theta
            if budget < math.radians(1.0):
                continue
            # Row k of a maps bus values x to line k's x_from - x_to.
            a = np.zeros((len(n.lines), n.n_bus))
            rows = np.arange(len(n.lines))
            a[rows, n.edges[:, 0]], a[rows, n.edges[:, 1]] = 1.0, -1.0

            def vertices_in_c(b_theta):
                for signs in itertools.product((-1.0, 1.0), repeat=len(n.lines)):
                    s = PFState.flat(n)
                    # d = rho_to - rho_from = -(a rho)
                    s.rho[n.ns] = np.linalg.solve(
                        a[:, n.ns], -math.log(b_rho) * np.array(signs))
                    s.theta[n.ns] = np.linalg.solve(
                        a[:, n.ns], np.full(len(n.lines), b_theta))
                    yield in_domain_C(n, s).in_c

            assert all(vertices_in_c(budget)), checked
            assert not all(vertices_in_c(budget + 1e-5)), checked
            checked += 1

    def test_no_pq_bus_has_no_matrix_condition(self):
        res = max_phase_bound(make_twobus(pq_kind=BusKind.PV), 1.5)
        assert res.certified and res.b_theta == math.pi / 2 - 1e-9

    @pytest.mark.parametrize("case", ["twobus", "threebus"])
    def test_huge_ratio_gives_zero_quietly(self, bundled_models, case):
        # Scaled before the product, the vertex stack's entries stay below
        # b_rho / 2: no overflow even at the largest finite ratio.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for b_rho in (2.5, 1e10, 1e308, sys.float_info.max):
                res = max_phase_bound(bundled_models[case], b_rho)
                assert res.certified and res.b_theta == 0.0, b_rho

    def test_budget_is_a_box(self, bundled_models):
        for name, n in bundled_models.items():
            res = max_phase_bound(n, 1.5, samples=300)
            assert isinstance(res, PhaseVoltageBox), name
            assert res.b_rho == 1.5
            assert res.mode == ("exact-vertices" if res.certified else "sampled"), name
            assert res.certified == (name not in ("ieee14", "ieee118")), name

    def test_ratio_past_two_gives_zero(self):
        res = max_phase_bound(make_twobus(), 2.5)
        assert res.b_theta == 0.0

    def test_monotone_in_b_rho(self, ieee14_model):
        vals = [max_phase_bound(ieee14_model, r, samples=500, seed=7).b_theta
                for r in (1.0, 1.2, 1.5, 1.8)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_bad_ratio_rejected(self, twobus):
        with pytest.raises(DomainError):
            max_phase_bound(twobus, 0.9)

    @pytest.mark.parametrize("b_rho", [math.inf, math.nan])
    def test_non_finite_ratio_rejected(self, ieee14_model, b_rho):
        with pytest.raises(DomainError):
            max_phase_bound(ieee14_model, b_rho)

    def test_sampled_flagged(self, ieee14_model):
        res = max_phase_bound(ieee14_model, 1.5, samples=500)
        assert res.mode == "sampled" and not res.certified

    def test_deterministic_given_seed(self, ieee14_model):
        a = max_phase_bound(ieee14_model, 1.5, samples=400, seed=3)
        b = max_phase_bound(ieee14_model, 1.5, samples=400, seed=3)
        assert a.b_theta == b.b_theta

    def test_sampled_test_matches_one_sample_at_a_time(self, ieee118_model):
        # The sampled test scatters a chunk's PQ-end loads in one bincount;
        # each probe's verdict must be the one-probe scatter's, and a
        # failing probe must fail the whole chunk in whichever row.
        n = ieee118_model
        terms, phi = _box_samples(n, math.log(1.5), 300, seed=5)
        line, _, sign, _ = pq_line_ends(n)
        bus = np.where(sign > 0, n.edges[line, 0], n.edges[line, 1])

        def one(k, b_theta):
            load = np.zeros(n.n_bus)
            np.add.at(load, bus, terms[k] * (1.0 / np.cos(phi[k] * b_theta)))
            return bool(np.all(load[n.pq] <= 2.0 * n.b_total[n.pq]))

        def passes(rows, b_theta):
            return _probes_pass(n, terms[rows], phi[rows], b_theta)

        b_hat = max_phase_bound(n, 1.5, samples=300, seed=5).b_theta
        every = np.arange(len(terms))
        for b_theta in (0.5 * b_hat, b_hat, b_hat + math.radians(0.1)):
            ok = np.array([one(k, b_theta) for k in every])
            assert [passes([k], b_theta) for k in every] == ok.tolist()
            assert passes(every, b_theta) == ok.all() == (b_theta <= b_hat)
            for k in np.flatnonzero(~ok)[:3]:
                keep = np.flatnonzero(ok)
                for at in (0, len(keep) // 2, len(keep)):
                    assert not passes(np.insert(keep, at, k), b_theta), (k, at)
            assert ok.any() and passes(np.flatnonzero(ok), b_theta)

    def test_box_samples_match_one_draw_per_probe(self, bundled_models):
        # The probes are drawn one chunk of rows at a time and kept only at
        # the PQ line ends; the joined chunk stream must be the one a
        # per-probe rng.uniform pair gives, bit for bit.
        def per_probe(n, log_ratio, samples, seed):
            f, t = n.edges[:, 0], n.edges[:, 1]
            active = np.flatnonzero((n.pq_index_of[f] >= 0)
                                    | (n.pq_index_of[t] >= 0))
            battery = 2 * len(active)
            d = np.zeros((max(samples, battery), len(n.lines)))
            phi = np.zeros_like(d)
            rows = np.arange(battery)
            d[rows, np.repeat(active, 2)] = np.tile([log_ratio, -log_ratio],
                                                    len(active))
            phi[rows, np.repeat(active, 2)] = 1.0
            rng = np.random.default_rng(seed)
            rho, th = np.zeros(n.n_bus), np.zeros(n.n_bus)
            for k in range(battery, len(d)):
                rho[n.pq] = rng.uniform(-log_ratio, log_ratio, len(n.pq))
                d[k] = rho[t] - rho[f]
                worst = float(np.max(np.abs(d[k])))
                if worst > log_ratio > 0:
                    d[k] *= log_ratio / worst
                th[n.ns] = rng.uniform(-1.0, 1.0, len(n.ns))
                phi[k] = th[f] - th[t]
                top = float(np.max(np.abs(phi[k])))
                if top > 0:
                    phi[k] /= top
            kf = np.flatnonzero(n.pq_index_of[f] >= 0)
            kt = np.flatnonzero(n.pq_index_of[t] >= 0)
            terms = np.concatenate((n.b[kf] * np.exp(d[:, kf]),
                                    n.b[kt] * np.exp(-d[:, kt])), axis=1)
            return terms, np.concatenate((phi[:, kf], phi[:, kt]), axis=1)

        for name, n in bundled_models.items():
            # At 400 samples the battery of ieee118 spans three chunks and
            # its random rows two.
            for seed, ratio in ((0, 1.5), (7, 1.2), (7, 1.0)):
                got = _box_samples(n, math.log(ratio), 400, seed)
                want = per_probe(n, math.log(ratio), 400, seed)
                assert np.array_equal(got[0], want[0]), (name, seed, ratio)
                assert np.array_equal(got[1], want[1]), (name, seed, ratio)

    @staticmethod
    def _unpruned_bound(n, b_rho, samples=10000, seed=0):
        # Plain bisection that scatters every probe's loads at every step.
        terms, phi = _box_samples(n, math.log(b_rho), samples, seed)
        line, _, sign, _ = pq_line_ends(n)
        bus = np.where(sign > 0, n.edges[line, 0], n.edges[line, 1])
        at = (bus + n.n_bus * np.arange(len(terms))[:, None]).ravel()

        def box_ok(b_theta):
            load = np.zeros(len(terms) * n.n_bus)
            np.add.at(load, at, (terms * (1.0 / np.cos(phi * b_theta))).ravel())
            load = load.reshape(len(terms), n.n_bus)
            return bool(np.all(load[:, n.pq] <= 2.0 * n.b_total[n.pq]))

        lo, hi = 0.0, math.pi / 2 - 1e-9
        if not box_ok(lo):
            return lo
        if box_ok(hi):
            lo = hi
        while hi - lo > _BOUND_RESOLUTION:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if box_ok(mid) else (lo, mid)
        return lo

    @pytest.mark.parametrize("case", ["ieee14", "ieee118"])
    def test_pruned_bisection_matches_unpruned(self, bundled_models, case):
        # The bisection judges one chunk of probes at a time against the
        # running least budget; every probe's load is monotone in b_theta,
        # so the budget must be the one that retests every probe, bit for
        # bit.
        n = bundled_models[case]
        for b_rho in (1.0, 1.2, 1.5, 2.0):
            for seed in (0, 1):
                got = max_phase_bound(n, b_rho, seed=seed)
                assert not got.certified
                assert got.b_theta == self._unpruned_bound(n, b_rho, seed=seed), (
                    b_rho, seed)

    def test_pruned_bisection_matches_unpruned_on_random_meshes(self):
        rng = np.random.default_rng(44)
        checked = 0
        while checked < 20:
            n = random_network(rng, n_max=30)
            if len(n.pq) == 0 or len(n.active) <= 12:
                continue
            samples = int(rng.choice([1, 50, 700, 3000]))
            b_rho = float(rng.uniform(1.0, 2.0))
            got = max_phase_bound(n, b_rho, samples=samples, seed=checked)
            want = self._unpruned_bound(n, b_rho, samples, seed=checked)
            assert got.b_theta == want, (checked, samples, b_rho)
            checked += 1

    @pytest.mark.parametrize("entries", [1, 60, 1000])
    def test_streamed_bisection_matches_unpruned_at_any_chunk(
            self, ieee14_model, monkeypatch, entries):
        # One, three and fifty probes a chunk on ieee14's 20 lines: the
        # budget is the least chunk budget however the probes are cut.
        monkeypatch.setattr(convexity, "_CHUNK_ENTRIES", entries)
        for b_rho in (1.0, 1.5, 2.0):
            for seed in (0, 3):
                got = max_phase_bound(ieee14_model, b_rho, samples=700, seed=seed)
                want = self._unpruned_bound(ieee14_model, b_rho, 700, seed)
                assert got.b_theta == want, (b_rho, seed)

    def test_sampled_memory_does_not_grow_with_samples(self, ieee118_model):
        # The probes stream through in chunks; holding every probe at once
        # traced 28 MB at 10 000 probes and 107 MB at 40 000.
        for samples in (10000, 40000):
            tracemalloc.start()
            try:
                max_phase_bound(ieee118_model, 1.5, samples=samples)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4e6, (samples, peak)

    @pytest.mark.parametrize("case, b_rho, seed, b_theta", [
        ("ieee14", 1.2, 0, "0x1.e49735eb95862p-1"),
        ("ieee14", 1.2, 1, "0x1.e49735eb95862p-1"),
        ("ieee14", 1.5, 0, "0x1.7e7d28e657bb4p-1"),
        ("ieee14", 1.5, 1, "0x1.800f489b97b28p-1"),
        ("ieee118", 1.2, 0, "0x1.da6167d175beap-1"),
        ("ieee118", 1.2, 1, "0x1.da6167d175beap-1"),
        ("ieee118", 1.5, 0, "0x1.71ec2b3c5800cp-1"),
        ("ieee118", 1.5, 1, "0x1.71ec2b3c5800cp-1"),
    ])
    def test_sampled_golden_budgets(self, bundled_models, case, b_rho, seed,
                                    b_theta):
        # The budgets of the design that tested every probe at every
        # bisection point over per-line arrays.
        got = max_phase_bound(bundled_models[case], b_rho, seed=seed)
        assert got.b_theta.hex() == b_theta

    @pytest.mark.parametrize("case", ["threebus", "ieee14"])
    def test_negative_seed_rejected(self, bundled_models, case):
        # Both modes, though only the sampled one draws.
        with pytest.raises(DomainError, match="seed"):
            max_phase_bound(bundled_models[case], 1.5, seed=-1)

    def test_box_is_certified_inside_c_on_trees(self):
        # exact mode really certifies: random states inside the reported
        # box must pass in_domain_C
        rng = np.random.default_rng(40)
        checked = 0
        while checked < 10:
            n = random_network(rng, n_max=5, tree=True)
            res = max_phase_bound(n, 1.3)
            assert res.certified
            if res.b_theta == 0.0:
                continue
            for _ in range(100):
                # half-amplitude bus values keep every line difference in
                # the box for sure
                s = random_state(rng, n, rho_amp=0.5 * math.log(1.3),
                                 theta_amp=0.5 * res.b_theta)
                f, t = n.edges[:, 0], n.edges[:, 1]
                assert np.max(np.abs(s.rho[f] - s.rho[t])) <= math.log(1.3)
                assert np.max(np.abs(s.theta[f] - s.theta[t])) <= res.b_theta
                assert in_domain_C(n, s).in_c
            checked += 1


class TestPhaseVoltageBox:
    def test_validation(self):
        with pytest.raises(DomainError):
            PhaseVoltageBox(b_rho=0.8, b_theta=0.1)
        with pytest.raises(DomainError):
            PhaseVoltageBox(b_rho=1.2, b_theta=2.0)

    @pytest.mark.parametrize("b_rho", [math.inf, math.nan])
    def test_non_finite_ratio_rejected(self, b_rho):
        # An infinite ratio made the barrier -inf at the flat start.
        with pytest.raises(DomainError):
            PhaseVoltageBox(b_rho=b_rho, b_theta=0.1)

    @pytest.mark.parametrize("case", ["twobus", "threebus", "threebus-tree"])
    def test_phase_budget_bounds_the_solve(self, case):
        # The certified budget is a box the convex solve takes: it returns
        # the unboxed solution when that lies strictly inside the box, and
        # no solution in C otherwise.
        n = load_case(case)
        free = solve_convex(n)
        assert free.status is SolveStatus.SOLUTION_FOUND
        f, t = n.edges[:, 0], n.edges[:, 1]
        d = np.abs(free.state.rho[t] - free.state.rho[f])
        tau = np.abs(free.state.theta[f] - free.state.theta[t])
        inside = []
        for b_rho in (1.05, 1.2, 1.5):
            box = max_phase_bound(n, b_rho)
            out = solve_convex(n, opts=SolveOptions(box=box))
            if np.all(d < math.log(b_rho)) and np.all(tau < box.b_theta):
                inside.append(b_rho)
                assert out.status is SolveStatus.SOLUTION_FOUND, b_rho
                assert np.allclose(out.state.rho, free.state.rho, atol=1e-9)
                assert np.allclose(out.state.theta, free.state.theta, atol=1e-9)
            else:
                assert out.status is SolveStatus.NO_SOLUTION_IN_C, b_rho
        assert inside == [1.2, 1.5]

    def test_strict_interior_helper(self, threebus):
        assert strictly_interior(threebus, PFState.flat(threebus))
        s = PFState.flat(threebus)
        s.rho[1] = math.log(0.5) - 0.2
        s.rho[2] = math.log(0.5) - 0.2
        assert not strictly_interior(threebus, s)
