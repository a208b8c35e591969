import json

import numpy as np
import pytest

from conftest import make_twobus, random_network, random_state
from gridenergy import energy as en
from gridenergy.errors import ParseError
from gridenergy.network import (Bus, BusKind, Line, Network, absorb_setpoints,
                                incidence, is_tree, losslessify, parse_matpower,
                                parse_native, scale_injections, serialize_native)

TWOBUS_DOC = json.dumps({
    "buses": [{"id": 1, "kind": "slack", "p": 0, "q": 0, "v": 1},
              {"id": 2, "kind": "pq", "p": -0.1, "q": -0.1}],
    "lines": [{"from": 1, "to": 2, "b": 1.0}],
})

MINI_MATPOWER = """
function mpc = mini
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
\t1\t3\t0\t0\t0\t0\t1\t1\t0\t0\t1\t1.1\t0.9;
\t2\t1\t10\t5\t0\t0\t1\t1\t0\t0\t1\t1.1\t0.9;
];
mpc.gen = [
\t1\t20\t0\t99\t-99\t1.0\t100\t1\t100\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0;
];
mpc.branch = [
\t1\t2\t0\t1\t0\t0\t0\t0\t0\t0\t1\t-360\t360;
];
"""


class TestParseNative:
    def test_twobus(self):
        n = parse_native(TWOBUS_DOC)
        assert n.n_bus == 2
        assert n.b_total[n.index[1]] == pytest.approx(1.0)

    def test_threebus_susceptance_sums(self, threebus):
        assert threebus.b_total[threebus.index[2]] == pytest.approx(43.55)

    def test_negative_susceptance_rejected(self):
        doc = json.loads(TWOBUS_DOC)
        doc["lines"][0]["b"] = -1.0
        with pytest.raises(ParseError):
            parse_native(json.dumps(doc))

    def test_missing_slack_rejected(self):
        doc = json.loads(TWOBUS_DOC)
        doc["buses"][0]["kind"] = "pq"
        with pytest.raises(ParseError):
            parse_native(json.dumps(doc))

    def test_disconnected_rejected(self):
        doc = json.loads(TWOBUS_DOC)
        doc["buses"].append({"id": 3, "kind": "pq", "p": 0, "q": 0})
        with pytest.raises(ParseError):
            parse_native(json.dumps(doc))

    @pytest.mark.parametrize("doc", [{"buses": 5, "lines": []},
                                     {"buses": [], "lines": {"from": 1}},
                                     {"buses": "slack", "lines": []}])
    def test_non_list_sections_rejected(self, doc):
        with pytest.raises(ParseError, match="must be a list"):
            parse_native(json.dumps(doc))

    @pytest.mark.parametrize("kind", ["slack", "pv"])
    def test_infinite_setpoint_rejected(self, kind):
        doc = json.loads(TWOBUS_DOC)
        doc["buses"].append({"id": 3, "kind": "pv"})
        doc["lines"].append({"from": 2, "to": 3, "b": 1.0})
        doc["buses"][0 if kind == "slack" else 2]["v"] = float("inf")
        with pytest.raises(ParseError, match="set-point must be positive and finite"):
            parse_native(json.dumps(doc))

    def test_parallel_lines_merged(self):
        doc = json.loads(TWOBUS_DOC)
        doc["lines"].append({"from": 2, "to": 1, "b": 2.5})
        n = parse_native(json.dumps(doc))
        assert len(n.lines) == 1
        assert n.b[0] == pytest.approx(3.5)

    def test_roundtrip_identity(self, threebus):
        again = parse_native(serialize_native(threebus))
        assert [b for b in again.buses] == [b for b in threebus.buses]
        assert [ln for ln in again.lines] == [ln for ln in threebus.lines]


class TestParseMatpower:
    def test_minimal_case(self):
        n = parse_matpower(MINI_MATPOWER)
        assert n.b[0] == pytest.approx(1.0)
        assert n.g[0] == pytest.approx(0.0)
        # injections: (PG - PD)/base
        assert n.p_inj[n.index[2]] == pytest.approx(-0.10)
        assert n.q_inj[n.index[2]] == pytest.approx(-0.05)

    def test_zero_impedance_rejected(self):
        with pytest.raises(ParseError):
            parse_matpower(MINI_MATPOWER.replace("\t1\t2\t0\t1\t0",
                                                 "\t1\t2\t0\t0\t0"))

    def test_ieee14_shape(self, ieee14):
        assert ieee14.n_bus == 14
        assert len(ieee14.lines) == 20
        assert ieee14.slack == 1
        assert len(ieee14.pv) == 4

    def test_ieee118_shape(self, ieee118):
        assert ieee118.n_bus == 118
        assert len(ieee118.lines) == 179  # 186 branches, 7 parallel pairs
        assert ieee118.slack == 69
        assert len(ieee118.pv) == 53

    def test_tap_warning(self):
        tapped = MINI_MATPOWER.replace("\t1\t2\t0\t1\t0\t0\t0\t0\t0\t0",
                                       "\t1\t2\t0\t1\t0\t0\t0\t0\t0.95\t0")
        with pytest.warns(UserWarning):
            parse_matpower(tapped)

    def test_branch_conductance(self):
        lossy = MINI_MATPOWER.replace("\t1\t2\t0\t1\t0", "\t1\t2\t1\t2\t0")
        n = parse_matpower(lossy)
        assert n.b[0] == pytest.approx(2.0 / 5.0)
        assert n.g[0] == pytest.approx(1.0 / 5.0)

    def test_multiple_generators_summed(self):
        extra = MINI_MATPOWER.replace(
            "mpc.gen = [\n\t1\t20\t0",
            "mpc.gen = [\n\t1\t5\t2\t99\t-99\t1.0\t100\t1\t100\t0\t0\t0\t0\t0"
            "\t0\t0\t0\t0\t0\t0\t0;\n\t1\t20\t0")
        n = parse_matpower(extra)
        assert n.p_inj[n.index[1]] == pytest.approx(0.25)
        assert n.q_inj[n.index[1]] == pytest.approx(0.02)

    def test_out_of_service_generator_skipped(self):
        off = MINI_MATPOWER.replace(
            "mpc.gen = [\n\t1\t20\t0",
            "mpc.gen = [\n\t1\t5\t0\t99\t-99\t1.3\t100\t0\t100\t0\t0\t0\t0\t0"
            "\t0\t0\t0\t0\t0\t0\t0;\n\t1\t20\t0")
        n = parse_matpower(off)
        assert n.p_inj[n.index[1]] == pytest.approx(0.20)
        assert n.v_set[n.index[1]] == pytest.approx(1.0)

    def test_conflicting_setpoints_rejected(self):
        clash = MINI_MATPOWER.replace(
            "mpc.gen = [\n\t1\t20\t0",
            "mpc.gen = [\n\t1\t5\t0\t99\t-99\t1.02\t100\t1\t100\t0\t0\t0\t0\t0"
            "\t0\t0\t0\t0\t0\t0\t0;\n\t1\t20\t0")
        with pytest.raises(ParseError):
            parse_matpower(clash)


class TestLosslessify:
    def test_idempotent(self, twobus):
        out = losslessify(twobus)
        assert np.array_equal(out.b, twobus.b)
        assert np.all(out.g == 0)

    def test_ieee14(self, ieee14):
        out = losslessify(ieee14)
        assert np.all(out.g == 0)
        assert np.array_equal(out.b, ieee14.b)
        assert out.lossy_ratio == 0.0

    def test_solutions_differ_from_lossy(self):
        from gridenergy.solver import solve_newton
        lossy = make_twobus(g=0.2)
        lossless = losslessify(lossy)
        sol = solve_newton(lossy).state
        rp, rq = en.pf_residuals(lossless, sol)
        assert max(np.max(np.abs(rp)), np.max(np.abs(rq))) > 1e-3


class TestAbsorbSetpoints:
    def test_identity_when_flat(self, threebus):
        out = absorb_setpoints(threebus)
        assert np.array_equal(out.b, threebus.b)

    def test_twobus_formula(self):
        n = Network([Bus(1, BusKind.SLACK, v_set=1.05), Bus(2, BusKind.PQ)],
                    [Line(1, 2, b=1.0)])
        out = absorb_setpoints(n)
        assert out.b[0] == pytest.approx(1.05)
        assert out.v_set[0] == 1.0

    def test_active_residuals_preserved(self, ieee14):
        # The rescaling is exact for the active balances: the physical
        # network with set-points and the absorbed network agree on every
        # active residual when PV/slack voltages carry the set-point.
        n = losslessify(ieee14)
        na = absorb_setpoints(n)
        rng = np.random.default_rng(11)
        for _ in range(5):
            s = random_state(rng, na, rho_amp=0.2, theta_amp=0.4)
            rp_abs, _ = en.pf_residuals(na, s)
            v_phys = np.exp(s.rho) * np.where(
                [b.kind is not BusKind.PQ for b in n.buses], n.v_set, 1.0)
            rp_phys = n.p_inj.copy()
            for k, (f, t) in enumerate(n.edges):
                te = s.theta[f] - s.theta[t]
                flow = n.b[k] * v_phys[f] * v_phys[t] * np.sin(te)
                rp_phys[f] -= flow
                rp_phys[t] += flow
            assert np.max(np.abs(rp_abs - rp_phys[n.ns])) < 1e-10


class TestGraphOps:
    def test_single_edge_column(self, twobus):
        a = incidence(twobus)
        assert a.shape == (2, 1)
        assert list(a[:, 0]) == [1.0, -1.0]

    def test_tree_rank(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = random_network(rng, n_max=8, tree=True)
            assert np.linalg.matrix_rank(incidence(n)) == n.n_bus - 1

    def test_cycle_rank(self):
        n = Network([Bus(1, BusKind.SLACK), Bus(2, BusKind.PQ), Bus(3, BusKind.PQ)],
                    [Line(1, 2, b=1), Line(2, 3, b=1), Line(3, 1, b=1)])
        assert np.linalg.matrix_rank(incidence(n)) == 2

    def test_is_tree(self, twobus, threebus, threebus_tree):
        assert is_tree(twobus)
        assert is_tree(threebus_tree)
        assert not is_tree(threebus)


class TestScaleInjections:
    def test_scaling_rule(self, ieee14_model):
        out = scale_injections(ieee14_model, 2.0, 0.5)
        n = ieee14_model
        assert np.allclose(out.p_inj[n.ns], 2.0 * n.p_inj[n.ns])
        assert np.allclose(out.q_inj[n.pq], n.q_inj[n.pq])  # 0.5 * 2.0
        assert out.p_inj[n.slack_index] == n.p_inj[n.slack_index]
