import json
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import make_twobus, random_network, random_state
from gridenergy import cli, network
from gridenergy import energy as en
from gridenergy.errors import ParseError
from gridenergy.network import (BUNDLED_CASES, MAX_MAGNITUDE, Bus, BusKind, Line,
                                Network, absorb_setpoints, impose_ratio, incidence, is_tree,
                                load_case, losslessify, parse_matpower, parse_native,
                                scale_injections, serialize_native)

TWOBUS_DOC = json.dumps({
    "buses": [{"id": 1, "kind": "slack", "p": 0, "q": 0, "v": 1},
              {"id": 2, "kind": "pq", "p": -0.1, "q": -0.1}],
    "lines": [{"from": 1, "to": 2, "b": 1.0}],
})

# Bus 2 as 1e30, a whole number that JSON reads as a float and that no
# int64 holds.
BIG_ID_DOC = TWOBUS_DOC.replace('"id": 2', '"id": 1e30').replace('"to": 2', '"to": 1e30')

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

    @pytest.mark.parametrize("where, key", [("lines", "b"), ("lines", "g"),
                                            ("buses", "p"), ("buses", "q")])
    def test_magnitude_beyond_limit_rejected(self, where, key):
        doc = json.loads(TWOBUS_DOC)
        doc[where][-1][key] = 2.0 * MAX_MAGNITUDE
        with pytest.raises(ParseError, match="1e\\+06 per unit"):
            parse_native(json.dumps(doc))
        doc[where][-1][key] = MAX_MAGNITUDE
        parse_native(json.dumps(doc))  # the limit itself is accepted

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

    @pytest.mark.parametrize("where, at", [("buses", 1), ("lines", 0)])
    @pytest.mark.parametrize("record", [5, "pq", [1, 2], None])
    def test_record_not_an_object_rejected(self, where, at, record):
        doc = json.loads(TWOBUS_DOC)
        doc[where][at] = record
        with pytest.raises(ParseError, match=re.escape(f"{where}[{at}]: ")):
            parse_native(json.dumps(doc))

    def test_missing_section_rejected(self):
        with pytest.raises(ParseError, match="must contain 'buses' and 'lines'"):
            parse_native(json.dumps({"buses": []}))

    @pytest.mark.parametrize("kind", ["slack", "pv"])
    def test_infinite_setpoint_rejected(self, kind):
        doc = json.loads(TWOBUS_DOC)
        doc["buses"].append({"id": 3, "kind": "pv"})
        doc["lines"].append({"from": 2, "to": 3, "b": 1.0})
        doc["buses"][0 if kind == "slack" else 2]["v"] = float("inf")
        with pytest.raises(ParseError, match="set-point must be positive and finite"):
            parse_native(json.dumps(doc))

    @pytest.mark.parametrize("where, key, raw", [
        ("buses", "id", "1e400"), ("lines", "from", "1e400"),
        ("lines", "to", "-1e400"), ("buses", "id", "2.5"),
        ("lines", "to", "NaN"), ("buses", "id", '"2"'), ("buses", "id", "true")])
    def test_non_integer_id_rejected(self, where, key, raw):
        # JSON reads 1e400 as inf, which int() turns into a raw
        # OverflowError; 2.5 must not pass as bus 2.
        doc = json.loads(TWOBUS_DOC)
        doc[where][-1][key] = "@"
        text = json.dumps(doc).replace('"@"', raw)
        k = len(doc[where]) - 1
        message = rf"{where}\[{k}\]\.{key}: expected an integer"
        with pytest.raises(ParseError, match=message):
            parse_native(text)

    @pytest.mark.parametrize("where, key", [("buses", "p"), ("buses", "q"),
                                            ("buses", "v"), ("lines", "b"),
                                            ("lines", "g")])
    def test_boolean_number_rejected(self, where, key):
        # float() would read true as 1.0.
        doc = json.loads(TWOBUS_DOC)
        doc[where][-1][key] = True
        k = len(doc[where]) - 1
        with pytest.raises(ParseError, match=rf"{where}\[{k}\]\.{key}: expected a number"):
            parse_native(json.dumps(doc))

    @pytest.mark.parametrize("where, key", [("buses", "p"), ("buses", "q"),
                                            ("buses", "v"), ("lines", "b"),
                                            ("lines", "g")])
    @pytest.mark.parametrize("raw", ["-0.1", " -1e-1 ", "1"])
    def test_numeric_string_rejected(self, where, key, raw):
        # float() would parse the string.
        doc = json.loads(TWOBUS_DOC)
        doc[where][-1][key] = raw
        k = len(doc[where]) - 1
        with pytest.raises(ParseError, match=rf"{where}\[{k}\]\.{key}: expected a number, "
                                             rf"got '{raw}'"):
            parse_native(json.dumps(doc))

    @pytest.mark.parametrize("where, key", [("buses", "p"), ("lines", "b")])
    def test_integer_beyond_float_range_rejected(self, where, key):
        # float() of a 401-digit JSON integer raises OverflowError.
        doc = json.loads(TWOBUS_DOC)
        doc[where][-1][key] = "@"
        text = json.dumps(doc).replace('"@"', "1" + "0" * 400)
        k = len(doc[where]) - 1
        with pytest.raises(ParseError, match=rf"{where}\[{k}\]\.{key}: int too large"):
            parse_native(text)

    @pytest.mark.parametrize("where, key", [("buses", "kind"), ("buses", "id"),
                                            ("lines", "from"), ("lines", "to"),
                                            ("lines", "b")])
    def test_missing_key_named(self, where, key):
        doc = json.loads(TWOBUS_DOC)
        del doc[where][-1][key]
        k = len(doc[where]) - 1
        with pytest.raises(ParseError) as info:
            parse_native(json.dumps(doc))
        assert str(info.value) == f"{where}[{k}]: missing key '{key}'"

    def test_unknown_kind_named(self):
        # Kinds are the lower-case names only; an unhashable kind used to
        # escape the lookup as "unhashable type".
        for kind in ("load", "PQ", "", 1, None, True, ["pq"], {"pq": 1}):
            doc = json.loads(TWOBUS_DOC)
            doc["buses"][1]["kind"] = kind
            with pytest.raises(ParseError) as info:
                parse_native(json.dumps(doc))
            assert str(info.value) == ("buses[1].kind: expected one of 'slack', "
                                       f"'pv', 'pq', got {kind!r}")

    def test_whole_float_id_accepted(self):
        doc = json.loads(TWOBUS_DOC)
        doc["buses"][1]["id"] = doc["lines"][0]["to"] = 2.0
        assert parse_native(json.dumps(doc)).buses[1].id == 2

    def test_parallel_lines_merged(self):
        doc = json.loads(TWOBUS_DOC)
        doc["lines"].append({"from": 2, "to": 1, "b": 2.5})
        n = parse_native(json.dumps(doc))
        assert len(n.lines) == 1
        assert n.b[0] == pytest.approx(3.5)

    def test_roundtrip_identity(self, threebus, tmp_path, capsys):
        big = parse_native(BIG_ID_DOC)
        for n in (threebus, big):
            again = parse_native(serialize_native(n))
            assert [b for b in again.buses] == [b for b in n.buses]
            assert [ln for ln in again.lines] == [ln for ln in n.lines]
            assert again.ids == n.ids and all(type(i) is int for i in again.ids)
        # The ids stay Python ints through to the CLI's payload.
        assert big.ids == (1, int(1e30)) and big.lines[0].j == int(1e30)
        path = tmp_path / "big_id.json"
        path.write_text(BIG_ID_DOC)
        assert cli.main(["solve", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["state"]["bus"] == [1, int(1e30)]


# MATPOWER faults: (text replaced in MINI_MATPOWER, its replacement, the
# ParseError's message).
MATPOWER_FAULTS = {
    "no baseMVA": ("mpc.baseMVA = 100;", "", "mpc.baseMVA not found"),
    "no gen matrix": ("mpc.gen = [", "mpc.gens = [", "mpc.gen matrix not found"),
    "bad number": ("\t2\t1\t10\t5", "\t2\t1\t10x\t5",
                   "mpc.bus row 2: could not convert string to float: '10x'"),
    "short gen row": ("\t1\t20\t0\t99\t-99\t1.0\t100\t1\t", "\t1\t20\t0\t99\t-99\t1.0\t100;",
                      "gen row 1: too few columns"),
    "short bus row": ("\t2\t1\t10\t5\t", "\t2\t1\t10;", "bus row 2: too few columns"),
    "short branch row": ("\t1\t2\t0\t1\t0\t", "\t1\t2\t0;", "branch row 1: too few columns"),
    "unsupported bus type": ("\t2\t1\t10\t5", "\t2\t4\t10\t5", "bus 2: unsupported type 4"),
    "two slacks": ("\t2\t1\t10\t5", "\t2\t3\t10\t5",
                   "expected exactly one slack bus, found 2"),
}


class TestParseMatpower:
    @pytest.mark.parametrize("name", sorted(MATPOWER_FAULTS))
    def test_fault_rejected(self, name):
        old, new, message = MATPOWER_FAULTS[name]
        assert old in MINI_MATPOWER
        with pytest.raises(ParseError) as info:
            parse_matpower(MINI_MATPOWER.replace(old, new, 1))
        assert str(info.value) == message

    def test_out_of_service_branch_dropped(self):
        # A second 1-2 branch, out of service (status 0): not merged in.
        row = "\t1\t2\t0\t1\t0\t0\t0\t0\t0\t0\t1\t-360\t360;"
        text = MINI_MATPOWER.replace(row, row + "\n" + row.replace("\t1\t-360", "\t0\t-360"))
        assert text.count("\t1\t2\t0\t1\t0") == 2
        n = parse_matpower(text)
        assert n.b.tolist() == [1.0] and n.g.tolist() == [0.0]

    def test_minimal_case(self):
        n = parse_matpower(MINI_MATPOWER)
        assert n.b[0] == pytest.approx(1.0)
        assert n.g[0] == pytest.approx(0.0)
        # injections: (PG - PD)/base
        assert n.p_inj[n.index[2]] == pytest.approx(-0.10)
        assert n.q_inj[n.index[2]] == pytest.approx(-0.05)

    @pytest.mark.parametrize("old, new", [
        ("\t1\t2\t0\t1\t0", "\t1\t2\t0\t1e-150\t0"),  # b = 1e150
        ("\t1\t2\t0\t1\t0", "\t1\t2\t1e-9\t1e-12\t0"),  # g = 1e9
        ("\t2\t1\t10\t5", "\t2\t1\t1e9\t5"),  # p = -1e7
        ("\t2\t1\t10\t5", "\t2\t1\t10\t-1e300")])  # q = 1e298
    def test_magnitude_beyond_limit_rejected(self, old, new):
        assert old in MINI_MATPOWER
        with pytest.raises(ParseError, match="per unit"):
            parse_matpower(MINI_MATPOWER.replace(old, new))

    @pytest.mark.parametrize("old, new, where", [
        ("\t2\t1\t10\t5", "\tInf\t1\t10\t5", "bus row 2"),
        ("\t2\t1\t10\t5", "\t2.5\t1\t10\t5", "bus row 2"),
        ("\t2\t1\t10\t5", "\t2\t1.5\t10\t5", "bus row 2"),
        ("\t1\t2\t0\t1\t0", "\t1\t1e400\t0\t1\t0", "branch row 1"),
        ("\t1\t20\t0\t99", "\tNaN\t20\t0\t99", "gen row 1")])
    def test_non_integer_id_rejected(self, old, new, where):
        assert old in MINI_MATPOWER
        with pytest.raises(ParseError, match=f"{where}: expected an integer"):
            parse_matpower(MINI_MATPOWER.replace(old, new))

    def test_underflowing_impedance_rejected(self):
        # r^2 + x^2 underflows to zero; b = x / 0 must not escape as a
        # ZeroDivisionError
        with pytest.raises(ParseError, match="impedance too small"):
            parse_matpower(MINI_MATPOWER.replace("\t1\t2\t0\t1\t0",
                                                 "\t1\t2\t0\t1e-300\t0"))

    def test_zero_impedance_rejected(self):
        with pytest.raises(ParseError):
            parse_matpower(MINI_MATPOWER.replace("\t1\t2\t0\t1\t0",
                                                 "\t1\t2\t0\t0\t0"))

    @pytest.mark.parametrize("value", ["(100)", "1e400", "-100", "0", "1-2"])
    def test_bad_base_rejected(self, value):
        # float("(100)") raised a raw ValueError, and 1e400 read as inf,
        # which turned every injection into 0.
        text = MINI_MATPOWER.replace("mpc.baseMVA = 100;", f"mpc.baseMVA = {value};")
        message = f"mpc.baseMVA must be positive and finite, got '{value}'"
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_matpower(text)

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

    def test_keeps_a_uniform_ratio(self, ieee14, threebus):
        # The whole admittance y = g - jb scales, so absorbing set-points
        # and imposing a ratio commute.
        n = losslessify(ieee14)
        assert absorb_setpoints(impose_ratio(n, 0.2)).lossy_ratio == pytest.approx(0.2, rel=1e-15)
        # The lossy model needs every non-slack bus PQ: threebus, with a
        # slack set-point of 1.05.
        from gridenergy.solver import SolveStatus, solve_convex

        n = Network([replace(b, v_set=1.05) if b.kind is BusKind.SLACK else b
                     for b in threebus.buses], threebus.lines)
        a = solve_convex(absorb_setpoints(impose_ratio(n, 0.2)))
        b = solve_convex(impose_ratio(absorb_setpoints(n), 0.2))
        assert a.status is b.status is SolveStatus.SOLUTION_FOUND
        assert np.max(np.abs(en.pack(n, a.state) - en.pack(n, b.state))) <= 1e-10

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


def reference_fault(buses, lines):
    """The first ParseError message of Network(buses, lines), or None, from
    the one-item-at-a-time checks that the array form replaced."""
    buses, lines = tuple(buses), tuple(lines)
    if not buses:
        return "network has no buses"
    ids = [b.id for b in buses]
    if len(set(ids)) != len(ids):
        return "duplicate bus ids"
    for b in buses:
        if not isinstance(b.kind, BusKind):
            return f"bus {b.id}: kind must be a BusKind, got {b.kind!r}"
    slack = [b for b in buses if b.kind is BusKind.SLACK]
    if len(slack) != 1:
        return f"expected exactly one slack bus, found {len(slack)}"
    for b in buses:
        if not (np.isfinite(b.p_inj) and np.isfinite(b.q_inj)):
            return f"bus {b.id}: non-finite injection"
        if max(abs(b.p_inj), abs(b.q_inj)) > MAX_MAGNITUDE:
            return f"bus {b.id}: injection beyond {MAX_MAGNITUDE:g} per unit"
        if b.kind is not BusKind.PQ and not (np.isfinite(b.v_set) and b.v_set > 0):
            return f"bus {b.id}: voltage set-point must be positive and finite"
    index = {bid: k for k, bid in enumerate(ids)}
    seen_pairs = set()
    for ln in lines:
        if ln.i not in index or ln.j not in index:
            return f"line {ln.i}-{ln.j}: unknown bus id"
        if ln.i == ln.j:
            return f"line {ln.i}-{ln.j}: self loop"
        if not ln.b > 0:
            return f"line {ln.i}-{ln.j}: b must be positive, got {ln.b}"
        if not np.isfinite(ln.b):
            return f"line {ln.i}-{ln.j}: b must be positive and finite, got {ln.b}"
        if not (np.isfinite(ln.g) and ln.g >= 0):
            return f"line {ln.i}-{ln.j}: g must be finite and nonnegative"
        if max(ln.b, ln.g) > MAX_MAGNITUDE:
            return f"line {ln.i}-{ln.j}: b and g must be at most {MAX_MAGNITUDE:g} per unit"
        pair = frozenset((ln.i, ln.j))
        if pair in seen_pairs:
            return f"line {ln.i}-{ln.j}: duplicate pair (merge parallel lines first)"
        seen_pairs.add(pair)
    adj = {bid: [] for bid in ids}
    for ln in lines:
        adj[ln.i].append(ln.j)
        adj[ln.j].append(ln.i)
    seen, stack = {slack[0].id}, [slack[0].id]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if len(seen) != len(ids):
        return f"network is disconnected; unreachable buses {[i for i in ids if i not in seen]}"
    # absorb_setpoints: the line's end whose set-point lies farther from 1.
    v = {b.id: 1.0 if b.kind is BusKind.PQ else b.v_set for b in buses}
    for ln in lines:
        b, g = (x * v[ln.i] * v[ln.j] for x in (ln.b, ln.g))
        if not (0.0 < b and max(b, g) <= MAX_MAGNITUDE):
            far = max((ln.i, ln.j), key=lambda i: abs(math.log(v[i])))
            how = "to zero" if b == 0.0 else f"beyond {MAX_MAGNITUDE:g} per unit"
            return f"bus {far}: voltage set-point {v[far]:g} scales line {ln.i}-{ln.j} {how}"
    return None


S, PV, PQ = BusKind.SLACK, BusKind.PV, BusKind.PQ
NAN, INF = float("nan"), float("inf")
OK_BUSES = [Bus(1, S), Bus(2, PQ, -0.1, -0.1), Bus(3, PV, 0.2, v_set=1.02), Bus(4, PQ)]
OK_LINES = [Line(1, 2, 1.0), Line(2, 3, 2.0), Line(3, 4, 1.5)]


def with_bus(k, **change):
    return [replace(b, **change) if i == k else b for i, b in enumerate(OK_BUSES)]


def with_line(k, **change):
    return [replace(ln, **change) if i == k else ln for i, ln in enumerate(OK_LINES)]


# Each malformed network holds two or more faults; the first in the old
# order must be the one reported.
MALFORMED = {
    "no buses, lines unknown": ([], OK_LINES),
    "duplicate ids and two slacks": (OK_BUSES + [Bus(2, S)], OK_LINES),
    "two slacks and a bad bus": (with_bus(1, kind=S, p_inj=NAN), OK_LINES),
    "no slack and a bad line": (with_bus(0, kind=PQ), with_line(0, b=-1.0)),
    "two bad buses": ([Bus(1, S), Bus(2, PQ, INF), Bus(3, PV, v_set=0.0), Bus(4, PQ)],
                      OK_LINES),
    "one bus, two faults": (with_bus(2, p_inj=2e6, v_set=NAN), OK_LINES),
    "bad set-point, then a bad injection": (
        [Bus(1, S, v_set=-1.0), Bus(2, PQ, q_inj=NAN), Bus(3, PV), Bus(4, PQ)], OK_LINES),
    "PQ set-point ignored, bad lines": (with_bus(1, v_set=NAN),
                                        with_line(1, g=-1.0) + [Line(1, 4, 0.0)]),
    "bad bus before bad lines": (with_bus(3, q_inj=-INF), with_line(0, i=9)),
    "unknown end and self loop": (OK_BUSES, [Line(1, 7, 1.0), Line(2, 2, 1.0)] + OK_LINES),
    "self loop with bad b": (OK_BUSES, OK_LINES + [Line(4, 4, -1.0)]),
    "b before g": (OK_BUSES, with_line(1, b=NAN, g=NAN)),
    "g before magnitude": (OK_BUSES, with_line(2, b=2e6, g=-INF)),
    "magnitude before duplicate": (OK_BUSES, OK_LINES + [Line(2, 1, 3e6)]),
    "duplicate before disconnection": (OK_BUSES + [Bus(5, PQ)], OK_LINES + [Line(4, 3, 1.0)]),
    "reversed duplicate, then bad b": (OK_BUSES, OK_LINES + [Line(3, 2, 1.0), Line(1, 4, 0.0)]),
    "first of two bad lines": (OK_BUSES, with_line(2, b=0.0) + [Line(1, 3, INF)]),
    "two islands": (OK_BUSES + [Bus(5, PQ), Bus(6, PQ)], OK_LINES + [Line(5, 6, 1.0)]),
    "unknown ends on both sides": (OK_BUSES, OK_LINES + [Line(8, 9, NAN)]),
    "kind not a BusKind": (with_bus(1, kind="pq"), OK_LINES),
    "duplicate ids before a bad kind": (with_bus(2, kind=None) + [Bus(1, S)], OK_LINES),
    "bad kind before two slacks": (with_bus(3, kind=2) + [Bus(5, S)], OK_LINES),
    "infinite b": (OK_BUSES, with_line(1, b=INF, g=INF)),
    "infinite g": (OK_BUSES, with_line(0, g=INF)),
    # Faults that only absorb_setpoints meets, in the scaled line b or g.
    "two set-points past the cap": (
        [Bus(1, S, v_set=1e200), Bus(2, PQ), Bus(3, PV, v_set=1e7), Bus(4, PQ)], OK_LINES),
    "set-points that scale a line to zero": (
        [Bus(1, S, v_set=1e-200), Bus(2, PQ), Bus(3, PV, v_set=1e-300), Bus(4, PQ)],
        OK_LINES + [Line(1, 3, 1.0)]),
    "a set-point that scales g past the cap": (
        [Bus(1, S, v_set=7e5), Bus(2, PQ)], [Line(1, 2, b=1.0, g=2.0)]),
}


def quiet_case(case):
    """A bundled case, without the IEEE files' ignored-column warnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return load_case(case)


class TestArrayValidation:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_first_fault_as_before(self, name):
        buses, lines = MALFORMED[name]
        expected = reference_fault(buses, lines)
        assert expected is not None
        with pytest.raises(ParseError) as info:
            absorb_setpoints(Network(buses, lines))
        assert str(info.value) == expected

    def test_messages(self):
        # A kind outside BusKind and an infinite line parameter name the
        # fault; a negative b keeps its message; a set-point that scales a
        # line's g past the cap is blamed, not the line.
        for buses, lines, message in (
                (with_bus(1, kind="pq"), OK_LINES, "bus 2: kind must be a BusKind, got 'pq'"),
                (OK_BUSES, with_line(1, b=INF), "line 2-3: b must be positive and finite, got inf"),
                (OK_BUSES, with_line(1, g=INF), "line 2-3: g must be finite and nonnegative"),
                (OK_BUSES, with_line(1, b=-1.0), "line 2-3: b must be positive, got -1.0"),
                (*MALFORMED["a set-point that scales g past the cap"],
                 "bus 1: voltage set-point 700000 scales line 1-2 beyond 1e+06 per unit")):
            with pytest.raises(ParseError) as info:
                absorb_setpoints(Network(buses, lines))
            assert str(info.value) == message

    def test_random_faults_as_before(self):
        rng = np.random.default_rng(20)
        bad_bus = [dict(p_inj=NAN), dict(q_inj=INF), dict(p_inj=-2e6),
                   dict(v_set=0.0), dict(v_set=NAN), dict(kind=S), dict(id=1)]
        bad_line = [dict(i=99), dict(j=-5), dict(b=0.0), dict(b=NAN), dict(g=-1.0),
                    dict(g=INF), dict(b=5e6), dict(g=2e6)]
        seen = set()
        for _ in range(300):
            n = random_network(rng, n_max=8)
            buses, lines = list(n.buses), list(n.lines)
            for _ in range(int(rng.integers(2, 5))):
                if rng.random() < 0.4:
                    k = int(rng.integers(len(buses)))
                    buses[k] = replace(buses[k], **bad_bus[rng.integers(len(bad_bus))])
                elif rng.random() < 0.8:
                    k = int(rng.integers(len(lines)))
                    lines[k] = replace(lines[k], **bad_line[rng.integers(len(bad_line))])
                else:
                    ln = lines[int(rng.integers(len(lines)))]
                    lines.insert(int(rng.integers(len(lines) + 1)), Line(ln.j, ln.i, 1.0))
            expected = reference_fault(buses, lines)
            if expected is None:
                Network(buses, lines)
                continue
            with pytest.raises(ParseError) as info:
                Network(buses, lines)
            assert str(info.value) == expected
            seen.add(expected.split(":")[-1].split(",")[0].strip())
        assert len(seen) >= 8

    @pytest.mark.parametrize("case", sorted(BUNDLED_CASES))
    def test_bundled_cases_accepted(self, case):
        n = quiet_case(case)
        assert reference_fault(n.buses, n.lines) is None
        assert n.edges.flags.f_contiguous and n.edges.shape == (len(n.lines), 2)
        assert n.edges.tolist() == [[n.index[ln.i], n.index[ln.j]] for ln in n.lines]
        for name, kinds in (("pq", {PQ}), ("pv", {PV}), ("ns", {PQ, PV})):
            assert getattr(n, name).tolist() == [
                k for k, b in enumerate(n.buses) if b.kind in kinds]


def reference_scale(n, kappa, delta):
    buses = []
    for b in n.buses:
        if b.kind is BusKind.SLACK:
            buses.append(b)
        elif b.kind is BusKind.PV:
            buses.append(replace(b, p_inj=kappa * b.p_inj))
        else:
            buses.append(replace(b, p_inj=kappa * b.p_inj, q_inj=delta * kappa * b.q_inj))
    return Network(buses, n.lines)


def reference_losslessify(n):
    return Network(n.buses, [replace(ln, g=0.0) for ln in n.lines])


def reference_impose(n, kappa):
    return Network(n.buses, [replace(ln, g=kappa * ln.b) for ln in n.lines])


def reference_absorb(n):
    v_eff = {b.id: (b.v_set if b.kind is not BusKind.PQ else 1.0) for b in n.buses}
    buses = [replace(b, v_set=1.0) if b.kind is not BusKind.PQ else b for b in n.buses]
    return Network(buses, [replace(ln, b=ln.b * v_eff[ln.i] * v_eff[ln.j],
                                   g=ln.g * v_eff[ln.i] * v_eff[ln.j]) for ln in n.lines])


ARRAYS = ("p_inj", "q_inj", "v_set", "b", "g", "y", "b_total", "edges", "pq", "pv",
          "ns", "pq_index_of", "pq_ends", "active")


class TestTransformsAsBefore:
    @pytest.mark.parametrize("case", sorted(BUNDLED_CASES))
    def test_bit_equal_arrays(self, case):
        n = quiet_case(case)
        for new, old in ((losslessify(n), reference_losslessify(n)),
                         (absorb_setpoints(n), reference_absorb(n)),
                         (impose_ratio(n, 0.2), reference_impose(n, 0.2)),
                         (scale_injections(n, 1.7, 0.3), reference_scale(n, 1.7, 0.3)),
                         (scale_injections(n, 3.9), reference_scale(n, 3.9, 1.0))):
            assert new.buses == old.buses and new.lines == old.lines
            for name in ARRAYS:
                a, b = getattr(new, name), getattr(old, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
            assert new.lossy_ratio == old.lossy_ratio

    def test_no_op_returns_the_network(self, threebus, ieee14):
        # threebus has no conductance and unit set-points; ieee14 has both.
        assert losslessify(threebus) is threebus
        assert absorb_setpoints(threebus) is threebus
        assert losslessify(ieee14) is not ieee14
        assert absorb_setpoints(ieee14) is not ieee14
        # A -0.0 conductance comes back as +0.0, as a rebuilt line has it.
        n = make_twobus(g=-0.0)
        assert np.signbit(n.g[0]) and not np.signbit(losslessify(n).g[0])

    def test_bus_total_as_before(self, bundled_models):
        # np.add.at over the from-ends, then the to-ends, in line order.
        for n in bundled_models.values():
            total = np.zeros(n.n_bus)
            np.add.at(total, n.edges[:, 0], n.b)
            np.add.at(total, n.edges[:, 1], n.b)
            assert total.tobytes() == n.b_total.tobytes()


def builders():
    """Every function the package keeps in a network's derived memo."""
    from gridenergy import convexity, solver
    return (en._pq_incidence, en._to_fixed, en._hessian_index, convexity._diag_2b,
            convexity._pq_ends, solver._chain)


def same_entry(a, b) -> bool:
    """Bit equality of a memo entry: an array, or a tuple of arrays and ints."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same_entry, a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return type(a) is type(b) and a == b


class TestSharedLineSet:
    @pytest.mark.parametrize("case", sorted(BUNDLED_CASES))
    def test_scaled_rows_share_the_memo(self, case):
        n = quiet_case(case)
        for build in builders():
            n.derived(build)
        row = scale_injections(n, 1.3, 0.7)
        assert row._derived is n._derived
        assert scale_injections(row, 2.0)._derived is n._derived
        # The records are views built on access: equal, not shared.
        assert row.lines == n.lines and row.buses != n.buses
        for name in ("b", "g", "edges", "pq", "pv", "ns", "pq_index_of", "pq_ends",
                     "active", "b_total"):
            assert getattr(row, name) is getattr(n, name), name
        fresh = Network(row.buses, row.lines)
        assert fresh._derived == {}
        for build in builders():
            assert same_entry(row.derived(build), build(fresh)), build.__name__
            assert row.derived(build) is n.derived(build)

    def test_entries_as_built_on_a_fresh_network(self, bundled_models):
        rng = np.random.default_rng(26)
        nets = list(bundled_models.values()) + [random_network(rng) for _ in range(20)]
        for n in nets:
            row = scale_injections(n, float(rng.uniform(0.5, 3.0)), float(rng.uniform(0, 1)))
            fresh = Network(row.buses, row.lines)
            for build in builders():
                assert same_entry(row.derived(build), fresh.derived(build)), build.__name__

    def test_transforms_get_a_fresh_memo(self, ieee14):
        for build in builders():
            ieee14.derived(build)
        for new in (losslessify(ieee14), absorb_setpoints(ieee14)):
            assert new is not ieee14 and new._derived == {}
            assert new._derived is not ieee14._derived

    def test_cli_lossy_network_gets_a_fresh_memo(self):
        from gridenergy.cli import _prepare

        base, _ = _prepare("threebus", None)
        for build in builders():
            base.derived(build)
        n, _ = _prepare("threebus", 0.2)
        assert n._derived == {} and n.lossy_ratio == pytest.approx(0.2)
        fresh = Network(n.buses, n.lines)
        for build in builders():
            assert same_entry(n.derived(build), fresh.derived(build)), build.__name__

    @pytest.mark.parametrize("kappa", [np.nan, np.inf, 1e308, 1e7, -2e7])
    def test_bad_scale_as_before(self, threebus, kappa):
        # The records scale in Python floats, which overflow without a
        # warning; the arrays must not warn either.
        before = threebus.p_inj.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError) as want:
                reference_scale(threebus, kappa, 1.0)
            with pytest.raises(ParseError) as got:
                scale_injections(threebus, kappa)
        assert str(got.value) == str(want.value)
        # A refused row leaves its network as it was.
        assert threebus.p_inj.tobytes() == before.tobytes()


class TestCaseText:
    @pytest.mark.parametrize("case", sorted(BUNDLED_CASES))
    def test_bundled_text_is_the_package_file(self, case):
        path = Path(network.__file__).parent / "cases" / BUNDLED_CASES[case]
        assert network.case_text(case) == path.read_text()

    def test_cases_directory_resolved_once(self, monkeypatch):
        files, calls = network.resources.files, []
        monkeypatch.setattr(network.resources, "files",
                            lambda package: calls.append(package) or files(package))
        network._cases_dir.cache_clear()
        try:
            texts = [network.case_text(case) for case in sorted(BUNDLED_CASES) * 2]
        finally:
            network._cases_dir.cache_clear()
        assert calls == ["gridenergy.cases"]
        assert texts[:len(BUNDLED_CASES)] == texts[len(BUNDLED_CASES):]
