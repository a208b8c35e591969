"""Regenerate the golden CLI outputs that tests/test_golden.py compares
against.

    PYTHONPATH=src python tests/make_golden.py [NAME ...]

With names, only those files are rewritten. A file is not rewritten when
its exit code or one of its VERDICTS would change; what would change is
printed instead and the script exits non-zero. Each file holds a line naming
the numpy and BLAS builds it was made with, a '# '-prefixed JSON line with
the command's argv, exit code and stderr, and then its stdout byte for
byte. Floats depend on the linear-algebra build, so a file is only
comparable under the same one. IEEE-118 commands run in a child process
with every BLAS thread count pinned to 1: their last digits depend on how
the build splits a product across threads.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from gridenergy import cli

TESTS_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = TESTS_DIR / "golden"
# Phase files passed with --theta, as paths relative to tests/.
THETA = "golden/theta_threebus.json"
THETA_NAN = "golden/theta_nan.json"
THETA_TRUNCATED = "golden/theta_truncated.json"
# A --theta path that names no file.
THETA_MISSING = "golden/theta_missing.json"
# A native case file whose second bus has the unknown kind "load".
CASE_BAD_KIND = "golden/case_bad_kind.json"
# twobus with a slack set-point of 1e200, which absorb_setpoints carries
# into the line's b; and twobus with b = -1.
CASE_SETPOINT_HUGE = "golden/case_setpoint_huge.json"
CASE_B_NEGATIVE = "golden/case_b_negative.json"
# MATPOWER cases whose mpc.baseMVA is (100), which float() cannot read, and
# 1e400, which it reads as inf.
CASE_BASEMVA_PAREN = "golden/case_basemva_paren.m"
CASE_BASEMVA_INF = "golden/case_basemva_inf.m"
# Malformed state files passed to check --state, each of which ends in an
# error line.
STATES = ("list", "unknown_bus", "short_list", "non_numeric", "truncated",
          "pinned_rho")
# State files for check --d-samples 64: the segment test fails partway
# (phases at +-0.8 rad), fails before the exponentials overflow (rho 400),
# and meets non-finite matrices first (rho 360 at both PQ buses).
D_STATES = ("partial", "rho400", "rho360")
# Environment variables that fix the BLAS thread count.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Per command, the output fields that hold a verdict, which a regeneration
# must not change: JSON fields, "certificate." naming one in the
# certificate, and CSV columns, each row shown with its leading key columns.
VERDICTS = {
    "solve": ("status", "boundary_active", "certificate.in_c", "certificate.phase_ok",
              "certificate.in_d_sampled"),
    "check": ("certificate.in_c", "certificate.phase_ok", "certificate.in_d_sampled"),
    "bounds": ("certified", "mode"),
    "sweep": ("kappa", "status", "boundary_active"),
    "region": ("theta2", "theta3", "solvable", "in_c"),
}
# File name -> the command it records.
GOLDEN = {
    "region_threebus_step6_scale1.csv": ["region", "threebus", "--grid-step", "6",
                                         "--scale", "1"],
    "region_threebus_step6_scale3.csv": ["region", "threebus", "--grid-step", "6",
                                         "--scale", "3"],
    "region_threebus-tree_step6.csv": ["region", "threebus-tree", "--grid-step", "6"],
    "solve_twobus.json": ["solve", "twobus"],
    "solve_twobus_newton.json": ["solve", "twobus", "--method", "newton"],
    "solve_twobus_lossy.json": ["solve", "twobus", "--lossy-kappa", "0.2"],
    "solve_threebus.json": ["solve", "threebus"],
    "solve_threebus_newton.json": ["solve", "threebus", "--method", "newton"],
    "solve_threebus_lossy.json": ["solve", "threebus", "--lossy-kappa", "0.2"],
    "solve_threebus-tree.json": ["solve", "threebus-tree"],
    "solve_threebus-tree_newton.json": ["solve", "threebus-tree", "--method", "newton"],
    "solve_threebus-tree_lossy.json": ["solve", "threebus-tree", "--lossy-kappa", "0.2"],
    "check_threebus_d8.json": ["check", "threebus", "--d-samples", "8"],
    "check_ieee14_d64.json": ["check", "ieee14", "--d-samples", "64"],
    **{f"check_threebus_state_{name}_d64.json": [
        "check", "threebus", "--state", f"golden/state_{name}.json",
        "--d-samples", "64"] for name in D_STATES},
    "sweep_twobus_delta1.csv": ["sweep", "twobus", "--delta", "1"],
    "sweep_twobus_delta0.5.csv": ["sweep", "twobus", "--delta", "0.5"],
    "sweep_twobus_delta0.1.csv": ["sweep", "twobus", "--delta", "0.1"],
    "solve_ieee14.json": ["solve", "ieee14"],
    "solve_ieee14_newton.json": ["solve", "ieee14", "--method", "newton"],
    "sweep_ieee14_kappa1-5.5.csv": ["sweep", "ieee14", "--kappa-min", "1",
                                    "--kappa-max", "5.5", "--kappa-step", "0.5"],
    "solve_ieee118.json": ["solve", "ieee118"],
    "solve_ieee118_newton.json": ["solve", "ieee118", "--method", "newton"],
    "sweep_ieee118_kappa3.5-4.5.csv": ["sweep", "ieee118", "--kappa-min", "3.5",
                                       "--kappa-max", "4.5", "--kappa-step", "0.5"],
    **{f"bounds_{case}_rho{rho}.json": ["bounds", case, "--b-rho", rho]
       for case in ("threebus", "threebus-tree", "ieee14", "ieee118")
       for rho in ("1.0", "1.05", "1.2", "1.5")},
    # ieee118's sampled budget stops at its floor acos(b_rho / 2) at 1.8 and
    # at zero at 2.0.
    **{f"bounds_{case}_rho{rho}.json": ["bounds", case, "--b-rho", rho]
       for case in ("ieee14", "ieee118") for rho in ("1.8", "2.0")},
    **{f"bounds_{case}_rho1.5_seed1.json": ["bounds", case, "--b-rho", "1.5",
                                            "--seed", "1"]
       for case in ("ieee14", "ieee118")},
    "error_tol_nan.json": ["solve", "twobus", "--tol", "nan"],
    "error_kappa_min_inf.csv": ["sweep", "twobus", "--kappa-min", "inf"],
    "error_lossy_kappa_nan.json": ["solve", "twobus", "--lossy-kappa", "nan"],
    "error_lossy_kappa_negative.json": ["solve", "threebus", "--lossy-kappa", "-1"],
    "error_delta_inf.csv": ["sweep", "twobus", "--delta", "inf"],
    # Negative values that argparse alone would read as options.
    "error_lossy_kappa_negative_exp.json": ["solve", "threebus", "--lossy-kappa",
                                            "-1e-300"],
    "error_delta_negative_inf.csv": ["sweep", "twobus", "--delta", "-inf"],
    "error_scale_nan.csv": ["region", "threebus", "--scale", "nan"],
    # Scaled injections past MAX_MAGNITUDE, refused by scale_injections.
    "error_scale_magnitude.csv": ["region", "threebus", "--scale", "1e7",
                                  "--grid-step", "30"],
    "error_kappa_magnitude.csv": ["sweep", "threebus", "--kappa-min", "1",
                                  "--kappa-max", "1e7", "--kappa-step", "5e6"],
    # Scaled injections that overflow to inf, refused without a warning.
    "error_scale_overflow.csv": ["region", "threebus", "--scale", "1e308",
                                 "--grid-step", "30"],
    # Imposed conductances past MAX_MAGNITUDE, and past the float range.
    "error_lossy_kappa_magnitude.json": ["solve", "threebus", "--lossy-kappa", "1e5"],
    "error_lossy_kappa_overflow.json": ["solve", "threebus", "--lossy-kappa", "1e308"],
    "error_case_setpoint_huge.json": ["solve", CASE_SETPOINT_HUGE],
    "error_case_b_negative.json": ["solve", CASE_B_NEGATIVE],
    "error_basemva_paren.json": ["solve", CASE_BASEMVA_PAREN],
    "error_basemva_inf.json": ["solve", CASE_BASEMVA_INF],
    "error_seed_negative.json": ["bounds", "threebus", "--seed", "-1"],
    "error_d_samples_negative.json": ["check", "threebus", "--d-samples", "-1"],
    # Far past the 1 000 000-row cap: numpy alone cannot allocate them.
    "error_d_samples_cap.json": ["check", "twobus", "--d-samples", "100000000000"],
    "error_kappa_range_empty.csv": ["sweep", "twobus", "--kappa-min", "3",
                                    "--kappa-max", "1"],
    "error_kappa_rows_cap.csv": ["sweep", "twobus", "--kappa-min", "1",
                                 "--kappa-max", "1e12", "--kappa-step", "1e-3"],
    "error_theta_nan.json": ["reactive", "threebus", "--theta", THETA_NAN],
    "error_theta_truncated.json": ["reactive", "threebus", "--theta", THETA_TRUNCATED],
    "error_theta_missing.json": ["reactive", "twobus", "--theta", THETA_MISSING],
    "error_unknown_flag.json": ["solve", "twobus", "--bogus"],
    "error_case_bad_kind.json": ["solve", CASE_BAD_KIND],
    **{f"error_state_{name}.json": ["check", "threebus", "--state",
                                    f"golden/state_{name}.json"]
       for name in STATES},
    "reactive_twobus.json": ["reactive", "twobus"],
    "reactive_threebus.json": ["reactive", "threebus"],
    "reactive_threebus_theta.json": ["reactive", "threebus", "--theta", THETA],
    "reactive_threebus-tree.json": ["reactive", "threebus-tree"],
    "reactive_threebus-tree_theta.json": ["reactive", "threebus-tree", "--theta", THETA],
    "reactive_ieee14.json": ["reactive", "ieee14"],
    # argparse's own output: help texts, and usage errors (exit 2).
    "help.txt": ["--help"],
    **{f"help_{command}.txt": [command, "--help"]
       for command in ("solve", "check", "sweep", "region", "bounds", "reactive")},
    "error_command_invalid.txt": ["bogus"],
    "error_solve_no_case.txt": ["solve"],
}


def versions() -> str:
    """The build line that heads every golden file."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return f"# numpy {np.__version__}; blas {blas}"


@contextlib.contextmanager
def _as_recorded():
    """argparse wraps its usage lines to the terminal, and error lines quote
    file paths as given: fix the width at 80 columns and run from tests/,
    where argv's golden/ paths lead."""
    old, cwd = os.environ.get("COLUMNS"), os.getcwd()
    os.environ["COLUMNS"] = "80"
    os.chdir(TESTS_DIR)
    try:
        yield
    finally:
        os.chdir(cwd)
        if old is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = old


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of the command; argparse's SystemExit
    gives its exit code. IEEE-118 commands run single-threaded in a child
    process."""
    if "ieee118" in argv:
        return _run_single_threaded(argv)
    return _run_here(argv)


def _run_single_threaded(argv: list[str]) -> tuple[int, str, str]:
    """run(argv) in a fresh interpreter on this gridenergy package, with one
    BLAS thread."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path, **{k: "1" for k in BLAS_THREADS})
    child = subprocess.run([sys.executable, __file__, "--run", json.dumps(argv)],
                           env=env, capture_output=True, text=True, check=True,
                           timeout=300)
    return tuple(json.loads(child.stdout))


def _run_here(argv: list[str]) -> tuple[int, str, str]:
    """run(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), _as_recorded():
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def render(argv: list[str]) -> str:
    """The golden file's text after the build line."""
    code, out, err = run(argv)
    meta = json.dumps({"argv": argv, "exit": code, "stderr": err}, sort_keys=True)
    return f"# {meta}\n{out}"


def verdicts(path: Path, argv: list[str], text: str) -> list[tuple]:
    """The VERDICTS of the command argv in the text of its golden file at
    path: one tuple per row of a .csv file, or one (field, value) pair per
    field of a .json file; [] for a command without verdicts, a help text,
    or a command that printed nothing."""
    fields = VERDICTS.get(argv[0], ())
    body = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not fields or not body or path.suffix == ".txt":
        return []
    if path.suffix == ".csv":
        return [tuple(row[k] for k in fields) for row in csv.DictReader(body)]
    doc = json.loads("\n".join(body))
    doc.update({f"certificate.{k}": v for k, v in doc.get("certificate", {}).items()})
    return [(k, doc.get(k)) for k in fields]


def flipped(old: list[tuple], new: list[tuple]) -> list[str]:
    """The verdicts that differ between the lists old and new, one line
    each."""
    lines = [f"  was {a}, now {b}" for a, b in zip(old, new) if a != b]
    if len(old) != len(new):
        lines.append(f"  {len(old)} rows, now {len(new)}")
    return lines


def exit_code(text: str) -> int:
    """The exit code in a golden file's text (after its build line)."""
    return json.loads(text.split("\n", 2)[1][2:])["exit"]


def refusals(path: Path, argv: list[str], text: str) -> list[str]:
    """What rewriting the file at path, which records argv, with text would
    change that a regeneration must not: the exit code and the verdicts;
    one line each, [] when the file does not exist."""
    if not path.exists():
        return []
    old = path.read_text()
    lines = flipped(verdicts(path, argv, old), verdicts(path, argv, text))
    was, now = exit_code(old), exit_code(text)
    if was != now:
        lines.insert(0, f"  exit {was} → {now}")
    return lines


def main(names: list[str]) -> None:
    unknown = sorted(set(names) - set(GOLDEN))
    if unknown:
        raise SystemExit(f"unknown golden files {unknown}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    refused = []
    for name, argv in GOLDEN.items():
        if not names or name in names:
            path, text = GOLDEN_DIR / name, versions() + "\n" + render(argv)
            rows = refusals(path, argv, text)
            if rows:
                print(f"refused {name}: its exit code or a verdict would change\n"
                      + "\n".join(rows))
                refused.append(name)
                continue
            path.write_text(text)
            print(f"wrote {name}")
    if refused:
        raise SystemExit(f"not rewritten: {refused}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"]:
        print(json.dumps(_run_here(json.loads(sys.argv[2]))))
    else:
        main(sys.argv[1:])
