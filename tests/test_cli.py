import hashlib
import json
import math

import numpy as np
import pytest

from gridenergy.cli import EXIT_ERROR, EXIT_NO_SOLUTION, EXIT_OK, main
from gridenergy.network import load_case, serialize_native


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def assert_error(capsys, message, *argv):
    """argv exits 1 with one 'error:' line naming message and no output;
    every other stderr line is a 'warning:' line."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == EXIT_ERROR and captured.out == ""
    lines = captured.err.splitlines()
    errors = [ln for ln in lines if ln.startswith("error: ")]
    assert len(errors) == 1 and message in errors[0]
    assert all(ln.startswith("warning: ") for ln in lines if ln not in errors)


@pytest.fixture
def heavy_twobus(tmp_path):
    n = load_case("twobus")
    doc = json.loads(serialize_native(n))
    for rec in doc["buses"]:
        if rec["kind"] == "pq":
            rec["p"] = rec["q"] = -0.25
    path = tmp_path / "twobus_heavy.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestSolve:
    def test_twobus_solved(self, capsys):
        code, out = run(capsys, "solve", "twobus")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["status"] == "SolutionFound"
        v2 = doc["state"]["v"][doc["state"]["bus"].index(2)]
        assert v2 == pytest.approx(0.87986689, abs=1e-6)

    def test_no_solution_exit_code(self, capsys, heavy_twobus):
        code, out = run(capsys, "solve", heavy_twobus)
        assert code == EXIT_NO_SOLUTION
        assert json.loads(out)["status"] == "NoSolutionInC"

    def test_newton_method(self, capsys):
        code, out = run(capsys, "solve", "twobus", "--method", "newton")
        assert code == EXIT_OK
        assert json.loads(out)["method"] == "newton"

    def test_lossy_kappa(self, capsys):
        code, out = run(capsys, "solve", "twobus", "--lossy-kappa", "0.2")
        assert code == EXIT_OK

    def test_garbage_file(self, capsys, tmp_path):
        bad = tmp_path / "junk.json"
        bad.write_text("not a case {")
        code, _ = run(capsys, "solve", str(bad))
        assert code == EXIT_ERROR

    def test_non_list_buses(self, capsys, tmp_path):
        bad = tmp_path / "scalar.json"
        bad.write_text(json.dumps({"buses": 5, "lines": []}))
        code = main(["solve", str(bad)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("error: ")

    def test_missing_file(self, capsys):
        code, _ = run(capsys, "solve", "/does/not/exist.json")
        assert code == EXIT_ERROR

    def test_overflowing_bus_id(self, capsys, tmp_path):
        # 1e400 reads as an infinite float; it used to escape int() as a raw
        # OverflowError with a traceback.
        text = serialize_native(load_case("twobus"))
        assert text.count('"from": 1,') == 1
        path = tmp_path / "overflow.json"
        path.write_text(text.replace('"from": 1,', '"from": 1e400,'))
        assert_error(capsys, "lines[0].from: expected an integer, got inf",
                     "solve", str(path))

    @pytest.mark.parametrize("tol", ["nan", "0", "-1"])
    @pytest.mark.parametrize("argv", [["solve", "twobus"],
                                      ["solve", "twobus", "--method", "newton"],
                                      ["sweep", "twobus"]])
    def test_malformed_tol(self, capsys, argv, tol):
        # A tolerance no gradient norm can meet used to end in a false
        # NoSolutionInC verdict (or MaxIterations for Newton).
        assert_error(capsys, "must be finite and positive", *argv, f"--tol={tol}")

    def test_warnings_are_one_line_each(self, capsys):
        code = main(["solve", "ieee14"])
        lines = capsys.readouterr().err.splitlines()
        assert code == EXIT_OK and lines
        assert all(ln.startswith("warning: ") and ".py" not in ln for ln in lines)

    @pytest.mark.parametrize("command", ["check", "bounds", "reactive", "solve"])
    def test_huge_susceptance(self, capsys, tmp_path, command):
        doc = json.loads(serialize_native(load_case("threebus")))
        doc["lines"][-1]["b"] = 1e300
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "per unit" in captured.err


class TestCheck:
    def test_flat_state(self, capsys):
        code, out = run(capsys, "check", "ieee14")
        assert code == EXIT_OK
        assert json.loads(out)["certificate"]["in_c"] is True

    def test_wide_phase_state(self, capsys, tmp_path):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"theta": {"2": math.radians(100.0)}}))
        code, out = run(capsys, "check", "twobus", "--state", str(state))
        assert code == EXIT_OK
        assert json.loads(out)["certificate"]["in_c"] is False

    def test_boundary_state_margin(self, capsys, tmp_path):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"rho": {"2": math.log(0.5)}}))
        code, out = run(capsys, "check", "twobus", "--state", str(state))
        assert code == EXIT_OK
        cert = json.loads(out)["certificate"]
        assert abs(cert["lmi_min_eig"]) < 1e-10

    def test_dimension_mismatch(self, capsys, tmp_path):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"rho": [0.0, 0.0, 0.0]}))
        code, _ = run(capsys, "check", "twobus", "--state", str(state))
        assert code == EXIT_ERROR

    @pytest.mark.parametrize("doc, message", [
        ({"rho": {"99": 0.1}}, "unknown bus id '99'"),
        ({"rho": 3}, "must be a list or an object"),
        ([0.0, 0.0], "state must be an object"),
        ({"theta": {"2": None}}, "non-numeric"),
        ({"rho": {"2": "-0.1"}}, "state 'rho': bus 2 has non-numeric '-0.1'"),
        ({"theta": [0.0, " 1e-1 "]}, "state 'theta': bus 2 has non-numeric ' 1e-1 '"),
        ({"rho": {"2": 10 ** 400}}, "state 'rho': bus 2: int too large to convert to float"),
    ])
    def test_malformed_state(self, capsys, tmp_path, doc, message):
        state = tmp_path / "state.json"
        state.write_text(json.dumps(doc))
        assert_error(capsys, message, "check", "twobus", "--state", str(state))

    def test_d_samples(self, capsys):
        code, out = run(capsys, "check", "twobus", "--d-samples", "8")
        cert = json.loads(out)["certificate"]
        assert cert["in_d_sampled"] is True
        assert cert["d_samples"] == 8
        code, out = run(capsys, "check", "twobus", "--d-samples", "0")
        assert code == EXIT_OK
        cert = json.loads(out)["certificate"]
        assert cert["in_d_sampled"] is None and "d_samples" not in cert

    def test_negative_d_samples(self, capsys):
        assert_error(capsys, "--d-samples must be non-negative",
                     "check", "twobus", "--d-samples", "-3")

    @pytest.mark.parametrize("tol", [[], ["--tol", "1e-3"]])
    def test_psd_tolerance_is_the_certificate_own(self, capsys, tol):
        # --tol is the solver's gradient tolerance; check judges the matrix
        # with in_domain_C's own PSD tolerance, as solve's certificate does.
        from gridenergy.cli import _prepare
        from gridenergy.convexity import in_domain_C
        from gridenergy.energy import PFState

        code, out = run(capsys, "check", "twobus", *tol)
        n, _ = _prepare("twobus", None)
        assert code == EXIT_OK
        assert (json.loads(out)["certificate"]["tol_abs"]
                == in_domain_C(n, PFState.flat(n)).tol_abs)


class TestSweep:
    def test_two_bus_transition(self, capsys):
        code, out = run(capsys, "sweep", "twobus", "--kappa-min", "1.9",
                        "--kappa-max", "2.2", "--kappa-step", "0.05")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("#")
        header = json.loads(lines[0][1:])
        assert header["seed"] == 0 and "case_sha256" in header
        assert lines[1].split(",")[0] == "kappa"
        statuses = [ln.split(",")[2] for ln in lines[2:]]
        flips = sum(1 for a, b in zip(statuses, statuses[1:]) if a != b)
        assert flips == 1

    def test_grid_below_transition(self, capsys):
        code, out = run(capsys, "sweep", "twobus", "--kappa-min", "1.0",
                        "--kappa-max", "1.4", "--kappa-step", "0.2")
        statuses = [ln.split(",")[2] for ln in out.strip().splitlines()[2:]]
        assert all(s == "SolutionFound" for s in statuses)

    def test_deterministic_bytes(self, capsys):
        _, out1 = run(capsys, "sweep", "twobus", "--kappa-min", "1.0",
                      "--kappa-max", "1.2", "--kappa-step", "0.1")
        _, out2 = run(capsys, "sweep", "twobus", "--kappa-min", "1.0",
                      "--kappa-max", "1.2", "--kappa-step", "0.1")
        assert out1 == out2
        for argv in (("solve", "threebus"), ("check", "ieee14")):
            _, out1 = run(capsys, *argv)
            _, out2 = run(capsys, *argv)
            assert out1 == out2, argv


class TestRegion:
    def test_threebus_small_grid(self, capsys):
        code, out = run(capsys, "region", "threebus", "--grid-step", "20")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[1] == "theta2,theta3,solvable,in_c,reduced_min_eig"
        assert len(lines) == 2 + 7 * 7

    def test_csv_fields_parse(self, capsys):
        _, out = run(capsys, "region", "threebus", "--grid-step", "20")
        rows = [r.split(",") for r in out.strip().splitlines()[2:]]
        assert any(r[2] == "False" for r in rows)
        for theta2, theta3, solvable, in_c, min_eig in rows:
            float(theta2), float(theta3)
            assert solvable in ("True", "False")
            if solvable == "True":
                assert in_c in ("True", "False")
                float(min_eig)
            else:
                assert in_c == min_eig == ""

    def test_wrong_dimension(self, capsys):
        code, _ = run(capsys, "region", "ieee14")
        assert code == EXIT_ERROR

    def test_pv_only_case(self, capsys, tmp_path):
        # No PQ bus: every solvable cell's reactive solve is empty.
        path = tmp_path / "pv_only.json"
        path.write_text(json.dumps({
            "buses": [{"id": 1, "kind": "slack"},
                      {"id": 2, "kind": "pv", "p": 0.5},
                      {"id": 3, "kind": "pv", "p": -0.4}],
            "lines": [{"from": 1, "to": 2, "b": 1.2}, {"from": 2, "to": 3, "b": 0.8},
                      {"from": 1, "to": 3, "b": 2.0}]}))
        code, out = run(capsys, "region", str(path), "--grid-step", "20")
        assert code == EXIT_OK
        rows = [r.split(",") for r in out.strip().splitlines()[2:]]
        assert len(rows) == 7 * 7
        assert sum(r[2] == "True" for r in rows) == 43
        assert all(r[3] == "True" for r in rows if r[2] == "True")

    def test_overload_scale(self, capsys):
        code, out = run(capsys, "region", "threebus", "--grid-step", "30",
                        "--scale", "6")
        rows = out.strip().splitlines()[2:]
        assert all(r.split(",")[3] in ("", "False") for r in rows)


class TestBounds:
    def test_twobus_closed_form(self, capsys):
        code, out = run(capsys, "bounds", "twobus", "--b-rho", "1.2")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["certified"] is True
        assert doc["b_theta_deg"] == pytest.approx(
            math.degrees(math.acos(0.6)), abs=0.2)

    @pytest.mark.parametrize("case", ["twobus", "threebus"])
    def test_huge_ratio_gives_zero(self, capsys, case):
        # Past b_rho = 2 a PQ bus fails at zero phase; at 1e308 that is a
        # zero budget, not an overflow warning and an error.
        code = main(["bounds", case, "--b-rho", "1e308"])
        captured = capsys.readouterr()
        assert code == EXIT_OK and captured.err == ""
        doc = json.loads(captured.out)
        assert doc["b_theta_deg"] == 0.0 and doc["certified"] is True

    def test_ieee14_estimate(self, capsys):
        code, out = run(capsys, "bounds", "ieee14", "--b-rho", "1.5")
        doc = json.loads(out)
        assert doc["mode"] == "sampled" and doc["certified"] is False
        assert 40.0 <= doc["b_theta_deg"] <= 60.0


class TestReactive:
    def test_zero_q_case(self, capsys, tmp_path):
        n = load_case("twobus")
        doc = json.loads(serialize_native(n))
        for rec in doc["buses"]:
            rec["q"] = 0.0
        path = tmp_path / "zeroq.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "reactive", str(path))
        assert code == EXIT_OK
        assert json.loads(out)["v"][0] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("theta, solves", [(None, 1), ("golden/theta_threebus.json", 2)])
    def test_one_monotone_newton_at_zero_phases(self, capsys, monkeypatch, theta,
                                                solves):
        # At zero phases the voltage caps reuse the solve's greatest solution;
        # other phases need a second solve at zero phases for the caps.
        from pathlib import Path

        from gridenergy import reduced

        greatest, calls = reduced._greatest_u, []

        def counted(*args):
            calls.append(args)
            return greatest(*args)

        monkeypatch.setattr(reduced, "_greatest_u", counted)
        argv = ["reactive", "threebus"]
        if theta is not None:
            argv += ["--theta", str(Path(__file__).parent / theta)]
        code, out = run(capsys, *argv)
        assert code == EXIT_OK and json.loads(out)["status"] == "Solved"
        assert len(calls) == solves

    @pytest.mark.parametrize("theta", [[], ["--theta", "golden/theta_threebus.json"]])
    def test_failed_caps_are_an_error(self, capsys, monkeypatch, theta):
        # A solved program whose caps then miss the residual checks is an
        # error (exit 1), not a certified no-solution verdict (3).
        from pathlib import Path

        from gridenergy import reduced

        monkeypatch.setattr(reduced, "_REACTIVE_TOL", -1.0)
        if theta:
            theta = [theta[0], str(Path(__file__).parent / theta[1])]
        assert_error(capsys, "error: reactive Newton iteration did not converge",
                     "reactive", "threebus", *theta)

    def test_threebus_matches_newton(self, capsys):
        from gridenergy.reduced import solve_reactive_newton
        code, out = run(capsys, "reactive", "threebus")
        assert code == EXIT_OK
        doc = json.loads(out)
        n = load_case("threebus")
        rho = solve_reactive_newton(n, np.zeros(3))
        assert np.max(np.abs(np.array(doc["v"]) - np.exp(rho))) < 1e-6
        assert max(abs(s) for s in doc["constraint_slack"]) <= 1e-8

    def test_infeasible_exit_code(self, capsys, tmp_path):
        n = load_case("twobus")
        doc = json.loads(serialize_native(n))
        for rec in doc["buses"]:
            if rec["kind"] == "pq":
                rec["q"] = -0.4
        path = tmp_path / "over.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "reactive", str(path))
        assert code == EXIT_NO_SOLUTION

    def test_solves_near_the_nose(self, capsys, tmp_path):
        # The twobus nose is at q = -0.25; just short of it the greatest
        # solution exists and is certified.
        n = load_case("twobus")
        doc = json.loads(serialize_native(n))
        for rec in doc["buses"]:
            if rec["kind"] == "pq":
                rec["q"] = -0.24999
        path = tmp_path / "near_nose.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "reactive", str(path))
        assert code == EXIT_OK
        assert json.loads(out)["status"] == "Solved"

    def test_no_pq_bus_is_an_error(self, capsys, tmp_path):
        n = load_case("twobus")
        doc = json.loads(serialize_native(n))
        for rec in doc["buses"]:
            if rec["kind"] == "pq":
                rec["kind"] = "pv"
        path = tmp_path / "nopq.json"
        path.write_text(json.dumps(doc))
        code = main(["reactive", str(path)])
        assert code == EXIT_ERROR
        assert "needs a PQ bus" in capsys.readouterr().err

    def test_non_finite_theta(self, capsys, tmp_path):
        # An input error (exit 1), not a certified no-solution verdict (3).
        path = tmp_path / "theta.json"
        path.write_text("[0, NaN, 0.1]")
        assert_error(capsys, "finite phase", "reactive", "threebus",
                     "--theta", str(path))

    @pytest.mark.parametrize("doc, message", [
        ({"7": 0.1}, "unknown bus id '7'"),
        (5, "must be a list or an object"),
        ([0.0, 0.1], "has 2 entries for 3 buses"),
        ({"2": True, "3": False}, "bus 2 has non-numeric True"),
        ({"2": "0.5"}, "theta: bus 2 has non-numeric '0.5'"),
    ])
    def test_malformed_theta(self, capsys, tmp_path, doc, message):
        path = tmp_path / "theta.json"
        path.write_text(json.dumps(doc))
        assert_error(capsys, message, "reactive", "threebus", "--theta", str(path))

    @pytest.mark.parametrize("command, flag", [("check", "--state"),
                                               ("reactive", "--theta")])
    def test_invalid_json_names_flag_and_path(self, capsys, tmp_path, command, flag):
        path = tmp_path / "cut.json"
        path.write_text('{"2": 0.1,\n')
        assert_error(capsys, f"{flag} {path}: invalid JSON: Expecting property name",
                     command, "threebus", flag, str(path))

    @pytest.mark.parametrize("command, flag", [("check", "--state"),
                                               ("reactive", "--theta")])
    @pytest.mark.parametrize("name, reason", [
        ("absent.json", "No such file or directory"), (".", "Is a directory")])
    def test_unreadable_file_names_flag_and_path(self, capsys, tmp_path, command,
                                                 flag, name, reason):
        path = tmp_path / name
        assert_error(capsys, f"error: {flag} {path}: cannot read file: {reason}",
                     command, "twobus", flag, str(path))


class TestBadRanges:
    def test_zero_kappa_step(self, capsys):
        assert_error(capsys, "--kappa-step must be positive",
                     "sweep", "twobus", "--kappa-step", "0")

    @pytest.mark.parametrize("flag, kappa", [("--kappa-min", "nan"),
                                             ("--kappa-max", "inf")])
    def test_non_finite_kappa_bound(self, capsys, flag, kappa):
        assert_error(capsys, f"{flag} must be finite", "sweep", "twobus",
                     flag, kappa)

    @pytest.mark.parametrize("kappa_max, step", [("1e12", "1e-3"), ("3", "1e-300"),
                                                 ("1e300", "1e-300")])
    def test_kappa_rows_above_cap(self, capsys, kappa_max, step):
        # Far past the cap, where np.arange fails or cannot allocate.
        assert_error(capsys, f"--kappa-max {float(kappa_max)} and --kappa-step "
                     f"{float(step)} give more than the cap of 1000000 rows",
                     "sweep", "twobus", "--kappa-min", "1", "--kappa-max",
                     kappa_max, "--kappa-step", step)

    def test_non_finite_kappa_step(self, capsys):
        assert_error(capsys, "--kappa-step must be finite", "sweep", "twobus",
                     "--kappa-step", "inf")

    def test_d_samples_above_cap(self, capsys):
        assert_error(capsys, "samples 100000000000 is above the cap of 1000000",
                     "check", "twobus", "--d-samples", "100000000000")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_delta(self, capsys, value):
        assert_error(capsys, "--delta must be finite", "sweep", "twobus",
                     f"--delta={value}")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_scale(self, capsys, value):
        assert_error(capsys, "--scale must be finite", "region", "threebus",
                     f"--scale={value}")

    @pytest.mark.parametrize("kappa", ["inf", "-inf", "nan"])
    def test_non_finite_lossy_kappa(self, capsys, kappa):
        assert_error(capsys, "--lossy-kappa must be finite",
                     "solve", "twobus", f"--lossy-kappa={kappa}")

    @pytest.mark.parametrize("kappa", ["-1", "-1e-300"])
    def test_negative_lossy_kappa(self, capsys, kappa):
        assert_error(capsys,
                     f"error: --lossy-kappa must be non-negative, got {float(kappa)}",
                     "solve", "threebus", f"--lossy-kappa={kappa}")

    @pytest.mark.parametrize("case", ["threebus", "ieee14"])
    def test_negative_seed(self, capsys, case):
        assert_error(capsys, "seed must be nonnegative",
                     "bounds", case, "--seed", "-1")

    def test_zero_grid_step(self, capsys):
        assert_error(capsys, "grid step must be positive",
                     "region", "threebus", "--grid-step", "0")

    @pytest.mark.parametrize("step, cells", [("1e-9", 120000000001 ** 2),
                                             ("1e-4", 1200001 ** 2)])
    def test_grid_too_fine(self, capsys, step, cells):
        # The +-60 degree grid would need `cells` cells.
        assert_error(capsys, f"grid step {float(step)} deg gives {cells} cells",
                     "region", "threebus", "--grid-step", step)

    @pytest.mark.parametrize("b_rho", ["inf", "nan"])
    def test_non_finite_ratio(self, capsys, b_rho):
        assert_error(capsys, "b_rho must be finite",
                     "bounds", "ieee14", "--b-rho", b_rho)


class TestOutputPlumbing:
    def test_format_json_for_tables(self, capsys):
        _, out = run(capsys, "--format", "json", "sweep", "twobus",
                     "--kappa-min", "1.0", "--kappa-max", "1.1",
                     "--kappa-step", "0.1")
        doc = json.loads(out)
        assert doc["rows"][0]["status"] == "SolutionFound"

    def test_format_csv_rejected_for_json_commands(self, capsys):
        code, _ = run(capsys, "--format", "csv", "solve", "twobus")
        assert code == EXIT_ERROR

    def test_module_entry_point(self, tmp_path):
        import subprocess
        import sys
        res = subprocess.run(
            [sys.executable, "-m", "gridenergy.cli", "solve", "twobus"],
            capture_output=True, text=True)
        assert res.returncode == EXIT_OK
        assert json.loads(res.stdout)["status"] == "SolutionFound"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        code = main(["--out", str(target), "solve", "twobus"])
        capsys.readouterr()
        assert code == EXIT_OK
        assert json.loads(target.read_text())["status"] == "SolutionFound"

    def test_header_fields(self, capsys):
        _, out = run(capsys, "--seed", "5", "--tol", "1e-9", "solve", "twobus")
        header = json.loads(out)["header"]
        assert header["seed"] == 5
        assert header["tol"] == 1e-9
        assert header["tool"].startswith("gridenergy ")
        assert len(header["case_sha256"]) == 16

    @pytest.mark.parametrize("argv", [
        ["solve", "twobus"], ["check", "threebus"], ["bounds", "threebus"],
        ["reactive", "threebus"], ["region", "threebus", "--grid-step", "30"],
        ["sweep", "twobus", "--kappa-min", "1", "--kappa-max", "1"]])
    def test_case_read_once(self, capsys, monkeypatch, argv):
        # The header hashes the text the command parsed, read once.
        from gridenergy import cli, network

        read, reads = network.case_text, []

        def counted(name_or_path):
            reads.append(read(name_or_path))
            return reads[-1]

        monkeypatch.setattr(network, "case_text", counted)
        monkeypatch.setattr(cli, "case_text", counted)
        code = main(argv)
        out = capsys.readouterr().out
        assert code == EXIT_OK and len(reads) == 1
        digest = hashlib.sha256(reads[0].encode()).hexdigest()[:16]
        assert f'"case_sha256": "{digest}"' in out
