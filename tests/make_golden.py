"""Regenerate the golden CLI outputs that tests/test_golden.py compares
against.

    PYTHONPATH=src python tests/make_golden.py [NAME ...]

With names, only those files are rewritten. Each file holds a line naming
the numpy and BLAS builds it was made with, a '# '-prefixed JSON line with
the command's argv, exit code and stderr, and then its stdout byte for
byte. Floats depend on the linear-algebra build, so a file is only
comparable under the same one.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from gridenergy import cli

TESTS_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = TESTS_DIR / "golden"
# Phase files passed with --theta, as paths relative to tests/.
THETA = "golden/theta_threebus.json"
THETA_NAN = "golden/theta_nan.json"
# Malformed state files passed to check --state, each of which ends in an
# error line.
STATES = ("list", "unknown_bus", "short_list", "non_numeric", "truncated",
          "pinned_rho")
# File name -> the command it records. The IEEE-118 case is left out: its
# last digits depend on the BLAS thread count.
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
    "sweep_twobus_delta1.csv": ["sweep", "twobus", "--delta", "1"],
    "sweep_twobus_delta0.5.csv": ["sweep", "twobus", "--delta", "0.5"],
    "sweep_twobus_delta0.1.csv": ["sweep", "twobus", "--delta", "0.1"],
    "solve_ieee14.json": ["solve", "ieee14"],
    "solve_ieee14_newton.json": ["solve", "ieee14", "--method", "newton"],
    "sweep_ieee14_kappa1-5.5.csv": ["sweep", "ieee14", "--kappa-min", "1",
                                    "--kappa-max", "5.5", "--kappa-step", "0.5"],
    **{f"bounds_{case}_rho{rho}.json": ["bounds", case, "--b-rho", rho]
       for case in ("threebus", "threebus-tree", "ieee14")
       for rho in ("1.0", "1.05", "1.2", "1.5")},
    "bounds_ieee14_rho1.5_seed1.json": ["bounds", "ieee14", "--b-rho", "1.5",
                                        "--seed", "1"],
    "error_tol_nan.json": ["solve", "twobus", "--tol", "nan"],
    "error_kappa_min_inf.csv": ["sweep", "twobus", "--kappa-min", "inf"],
    "error_lossy_kappa_nan.json": ["solve", "twobus", "--lossy-kappa", "nan"],
    "error_delta_inf.csv": ["sweep", "twobus", "--delta", "inf"],
    "error_scale_nan.csv": ["region", "threebus", "--scale", "nan"],
    "error_seed_negative.json": ["bounds", "threebus", "--seed", "-1"],
    "error_d_samples_negative.json": ["check", "threebus", "--d-samples", "-1"],
    "error_theta_nan.json": ["reactive", "threebus", "--theta", THETA_NAN],
    "error_unknown_flag.json": ["solve", "twobus", "--bogus"],
    **{f"error_state_{name}.json": ["check", "threebus", "--state",
                                    f"golden/state_{name}.json"]
       for name in STATES},
    "reactive_twobus.json": ["reactive", "twobus"],
    "reactive_threebus.json": ["reactive", "threebus"],
    "reactive_threebus_theta.json": ["reactive", "threebus", "--theta", THETA],
    "reactive_threebus-tree.json": ["reactive", "threebus-tree"],
    "reactive_threebus-tree_theta.json": ["reactive", "threebus-tree", "--theta", THETA],
    "reactive_ieee14.json": ["reactive", "ieee14"],
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
def _columns(width: str):
    """argparse wraps its usage lines to the terminal: fix the width."""
    old = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = width
    try:
        yield
    finally:
        if old is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = old


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of the command; argparse's SystemExit
    gives its exit code."""
    args = [str(TESTS_DIR / a) if a.startswith("golden/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), _columns("80"):
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def render(argv: list[str]) -> str:
    """The golden file's text after the build line."""
    code, out, err = run(argv)
    meta = json.dumps({"argv": argv, "exit": code, "stderr": err}, sort_keys=True)
    return f"# {meta}\n{out}"


def main(names: list[str]) -> None:
    unknown = sorted(set(names) - set(GOLDEN))
    if unknown:
        raise SystemExit(f"unknown golden files {unknown}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in GOLDEN.items():
        if not names or name in names:
            (GOLDEN_DIR / name).write_text(versions() + "\n" + render(argv))
            print(f"wrote {name}")


if __name__ == "__main__":
    main(sys.argv[1:])
