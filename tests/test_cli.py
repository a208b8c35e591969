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

    def test_d_samples(self, capsys):
        code, out = run(capsys, "check", "twobus", "--d-samples", "8")
        cert = json.loads(out)["certificate"]
        assert cert["in_d_sampled"] is True
        assert cert["d_samples"] == 8


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
