"""Command-line interface.

Subcommands: solve, check, sweep, region, bounds, reactive. Results go to
stdout (or --out) as JSON, or as CSV with a single '#'-prefixed JSON header
line so the files stay self-describing and plot-ready. Outputs are
byte-deterministic for identical inputs and seed.

Exit codes: 0 success/solution, 3 certified no-solution-in-domain, 1 error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import warnings

import numpy as np

from . import __version__
from . import convexity, network, reduced, solver
from .energy import PFState
from .errors import GridEnergyError, NoReactiveSolution, ParseError
from .network import case_text, load_case

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_SOLUTION = 3


def _header(args, digest: str) -> dict:
    return {"tool": f"gridenergy {__version__}", "case": args.case,
            "case_sha256": digest, "seed": args.seed, "tol": args.tol}


def _emit_json(args, payload: dict) -> None:
    if args.format == "csv":
        raise GridEnergyError("this command only produces JSON output")
    text = json.dumps(payload, indent=1, sort_keys=True)
    _write(args, text + "\n")


def _emit_table(args, header: dict, columns: list[str], rows: list[tuple]) -> None:
    if args.format == "json":
        payload = {"header": header,
                   "rows": [dict(zip(columns, row)) for row in rows]}
        _write(args, json.dumps(payload, indent=1, sort_keys=True) + "\n")
        return
    lines = ["#" + json.dumps(header, sort_keys=True), ",".join(columns)]
    for row in rows:
        # float() first: numpy scalars repr as np.float64(...) on numpy >= 2.
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row))
    _write(args, "\n".join(lines) + "\n")


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _prepare(case: str, lossy_kappa: float | None) -> tuple[network.Network, str]:
    """Parse, normalize set-points, and null out (or impose) conductances;
    with the network, the digest of the case text for the header."""
    if lossy_kappa is not None and not np.isfinite(lossy_kappa):
        raise ValueError(f"--lossy-kappa must be finite, got {lossy_kappa}")
    if lossy_kappa is not None and lossy_kappa < 0.0:
        raise ValueError(f"--lossy-kappa must be non-negative, got {lossy_kappa}")
    text = case_text(case)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    n = load_case(case, text)
    n = network.absorb_setpoints(network.losslessify(n))
    if lossy_kappa is not None and lossy_kappa != 0.0:
        lines = [network.Line(ln.i, ln.j, ln.b, lossy_kappa * ln.b)
                 for ln in n.lines]
        n = network.Network(n.buses, lines)
    return n, digest


def _state_payload(n, s: PFState) -> dict:
    return {
        "bus": [b.id for b in n.buses],
        "v": [float(v) for v in np.exp(s.rho)],
        "theta_rad": [float(t) for t in s.theta],
    }


def _certificate_payload(cert) -> dict:
    return {"in_c": cert.in_c, "phase_ok": cert.phase_ok,
            "lmi_min_eig": cert.lmi_min_eig, "tol_abs": cert.tol_abs,
            "in_d_sampled": None}


def cmd_solve(args) -> int:
    n, digest = _prepare(args.case, args.lossy_kappa)
    opts = solver.SolveOptions(grad_tol=args.tol)
    if args.method == "newton":
        out = solver.solve_newton(n, tol=args.tol)
    else:
        out = solver.solve_convex(n, opts=opts)
    payload = {
        "header": _header(args, digest),
        "method": args.method,
        "status": out.status.value,
        "grad_norm": out.grad_norm,
        "iterations": out.iterations,
        "boundary_active": out.boundary_active,
        "state": _state_payload(n, out.state),
        "certificate": _certificate_payload(out.certificate),
    }
    _emit_json(args, payload)
    if out.status is solver.SolveStatus.SOLUTION_FOUND:
        return EXIT_OK
    if out.status is solver.SolveStatus.NO_SOLUTION_IN_C:
        return EXIT_NO_SOLUTION
    return EXIT_ERROR


def _per_bus(n, values, name: str, out: np.ndarray) -> None:
    """Fill out from a JSON object keyed by bus id or a list in bus order."""
    index = {str(b.id): k for k, b in enumerate(n.buses)}
    if isinstance(values, list) and len(values) == n.n_bus:
        values = dict(zip(index, values))
    elif isinstance(values, list):
        raise ParseError(f"{name} has {len(values)} entries for {n.n_bus} buses")
    elif not isinstance(values, dict):
        raise ParseError(f"{name} must be a list or an object keyed by bus id")
    for bid, val in values.items():
        if bid not in index:
            raise ParseError(f"{name}: unknown bus id {bid!r}")
        # Only JSON numbers: float() would also read "0.5" as 0.5, and a
        # JSON true (bool subclasses int) as 1.0.
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ParseError(f"{name}: bus {bid} has non-numeric {val!r}")
        try:
            out[index[bid]] = float(val)
        except OverflowError as exc:
            raise ParseError(f"{name}: bus {bid}: {exc}") from None


def _read_json(path: str, flag: str):
    """The JSON document in the file passed with flag."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{flag} {path}: cannot read file: {exc.strerror}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{flag} {path}: invalid JSON: {exc}") from exc


def _load_state(n, path: str) -> PFState:
    doc = _read_json(path, "--state")
    if not isinstance(doc, dict):
        raise ParseError("state must be an object with 'rho' and/or 'theta'")
    s = PFState.flat(n)
    for key, arr in (("rho", s.rho), ("theta", s.theta)):
        if key in doc:
            _per_bus(n, doc[key], f"state '{key}'", arr)
    return s


def cmd_check(args) -> int:
    if args.d_samples < 0:
        raise ValueError(f"--d-samples must be non-negative, got {args.d_samples}")
    n, digest = _prepare(args.case, None)
    s = _load_state(n, args.state) if args.state else PFState.flat(n)
    cert = convexity.in_domain_C(n, s)
    payload = {"header": _header(args, digest),
               "certificate": _certificate_payload(cert)}
    if args.d_samples > 0:
        report = convexity.in_domain_D_sampled(n, s, samples=args.d_samples)
        payload["certificate"]["in_d_sampled"] = report.in_d
        payload["certificate"]["d_samples"] = report.samples
    _emit_json(args, payload)
    return EXIT_OK


def cmd_sweep(args) -> int:
    if not args.kappa_step > 0.0:
        raise ValueError(f"--kappa-step must be positive, got {args.kappa_step}")
    for flag, value in (("--delta", args.delta), ("--kappa-min", args.kappa_min),
                        ("--kappa-max", args.kappa_max),
                        ("--kappa-step", args.kappa_step)):
        if not np.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    # np.arange's own row count, taken before it allocates the rows.
    stop = args.kappa_max + 0.5 * args.kappa_step
    rows = (stop - args.kappa_min) / args.kappa_step
    if not rows > 0.0:
        raise ValueError(f"--kappa-min {args.kappa_min} is above --kappa-max "
                         f"{args.kappa_max}: the sweep has no rows")
    if not rows <= convexity.MAX_ROWS:
        raise ValueError(f"--kappa-min {args.kappa_min}, --kappa-max "
                         f"{args.kappa_max} and --kappa-step {args.kappa_step} "
                         f"give more than the cap of {convexity.MAX_ROWS} rows")
    n, digest = _prepare(args.case, None)
    kappas = np.arange(args.kappa_min, stop, args.kappa_step)
    opts = solver.SolveOptions(grad_tol=args.tol)
    records = solver.sweep_load(n, args.delta, kappas, opts)
    rows = [(r.kappa, r.delta, r.status.value, r.grad_norm, r.lmi_min_eig,
             r.boundary_active, r.iterations) for r in records]
    header = _header(args, digest)
    header["delta"] = args.delta
    _emit_table(args, header,
                ["kappa", "delta", "status", "grad_norm", "lmi_min_eig",
                 "boundary_active", "iterations"], rows)
    return EXIT_OK


def cmd_region(args) -> int:
    if not np.isfinite(args.scale):
        raise ValueError(f"--scale must be finite, got {args.scale}")
    n, digest = _prepare(args.case, None)
    if args.scale != 1.0:
        n = network.scale_injections(n, args.scale, 1.0)
    cells = reduced.region_grid(n, step_deg=args.grid_step)
    rows = [(c.theta_a, c.theta_b, c.solvable,
             "" if c.in_c is None else c.in_c,
             "" if c.reduced_min_eig is None else c.reduced_min_eig)
            for c in cells]
    header = _header(args, digest)
    header["scale"] = args.scale
    header["grid_step_deg"] = args.grid_step
    _emit_table(args, header,
                ["theta2", "theta3", "solvable", "in_c", "reduced_min_eig"],
                rows)
    return EXIT_OK


def cmd_bounds(args) -> int:
    n, digest = _prepare(args.case, None)
    bound = convexity.max_phase_bound(n, args.b_rho, seed=args.seed)
    payload = {"header": _header(args, digest),
               "b_rho": args.b_rho,
               "b_theta_deg": bound.b_theta_deg,
               "b_theta_rad": bound.b_theta,
               "mode": bound.mode,
               "certified": bound.certified}
    _emit_json(args, payload)
    return EXIT_OK


def cmd_reactive(args) -> int:
    n, digest = _prepare(args.case, None)
    theta = np.zeros(n.n_bus)
    if args.theta:
        _per_bus(n, _read_json(args.theta, "--theta"), "theta", theta)
    try:
        state, bound = reduced.reactive_with_bound(n, theta)
    except NoReactiveSolution:
        _emit_json(args, {"header": _header(args, digest),
                          "status": "NoReactiveSolution"})
        return EXIT_NO_SOLUTION
    payload = {"header": _header(args, digest),
               "status": "Solved",
               "pq_bus": [n.buses[p].id for p in n.pq],
               "zeta": [float(z) for z in state.zeta],
               "v": [float(v) for v in state.voltages()],
               "constraint_slack": [float(v) for v in state.constraint_slack],
               "v_bar": [float(v) for v in bound.v_bar]}
    _emit_json(args, payload)
    return EXIT_OK


def _add_globals(parser, defaults: bool) -> None:
    # Defaults live on the root parser; the per-command copies use
    # SUPPRESS so flags are accepted on either side of the subcommand.
    miss = argparse.SUPPRESS
    parser.add_argument("--tol", type=float, default=1e-8 if defaults else miss,
                        help="solver gradient tolerance (default 1e-8)")
    parser.add_argument("--seed", type=int, default=0 if defaults else miss,
                        help="RNG seed for sampling")
    parser.add_argument("--out", default=None if defaults else miss,
                        help="output file (default stdout)")
    parser.add_argument("--format", choices=("json", "csv"),
                        default=None if defaults else miss,
                        help="override the output format where supported")


class _CommandParser(argparse.ArgumentParser):
    """A command's parser that is built on first use, so that a call builds
    just the command it runs. Until then it holds only its constructor's
    arguments; the first attribute it lacks (any of ArgumentParser's) runs
    ArgumentParser's own set-up with add_help=False and then adds -h, the
    global flags and the command's arguments, the order that add_help=True
    and a parent parser would give."""

    def __init__(self, setup, **kwargs):
        self._pending = setup, kwargs

    def __getattr__(self, name):
        pending = self.__dict__.pop("_pending", None)
        if pending is None:
            raise AttributeError(name)
        setup, kwargs = pending
        super().__init__(add_help=False, **kwargs)
        self.add_argument("-h", "--help", action="help", default=argparse.SUPPRESS,
                          help="show this help message and exit")
        _add_globals(self, defaults=False)
        setup(self)
        return getattr(self, name)


# The set_defaults calls below read cmd_* when the command is parsed, so a
# wrapped cmd_* (the benchmark's span tracer) is the one that runs.
def _solve_args(p) -> None:
    p.add_argument("case")
    p.add_argument("--method", choices=("convex", "newton"), default="convex")
    p.add_argument("--lossy-kappa", type=float, default=None,
                   help="impose a uniform g/b ratio and use the lossy model")
    p.set_defaults(func=cmd_solve)


def _check_args(p) -> None:
    p.add_argument("case")
    p.add_argument("--state", default=None, help="JSON state file (rho/theta)")
    p.add_argument("--d-samples", type=int, default=0,
                   help="also sample the segment Hessian condition")
    p.set_defaults(func=cmd_check)


def _sweep_args(p) -> None:
    p.add_argument("case")
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--kappa-min", type=float, default=1.0)
    p.add_argument("--kappa-max", type=float, default=3.0)
    p.add_argument("--kappa-step", type=float, default=0.1)
    p.set_defaults(func=cmd_sweep)


def _region_args(p) -> None:
    p.add_argument("case")
    p.add_argument("--grid-step", type=float, default=2.0,
                   help="grid step in degrees")
    p.add_argument("--scale", type=float, default=1.0,
                   help="injection scaling factor")
    p.set_defaults(func=cmd_region)


def _bounds_args(p) -> None:
    p.add_argument("case")
    p.add_argument("--b-rho", type=float, default=1.5)
    p.set_defaults(func=cmd_bounds)


def _reactive_args(p) -> None:
    p.add_argument("case")
    p.add_argument("--theta", default=None, help="JSON phase file (per bus)")
    p.set_defaults(func=cmd_reactive)


def build_parser() -> argparse.ArgumentParser:
    """The root parser. Each command's parser gets its arguments when it
    parses or prints its help, not here."""
    ap = argparse.ArgumentParser(prog="gridenergy",
                                 description="Energy-function power flow toolkit")
    _add_globals(ap, defaults=True)
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=_CommandParser)
    for name, text, setup in (
            ("solve", "solve the power flow", _solve_args),
            ("check", "convexity-domain certificate for a state", _check_args),
            ("sweep", "kappa-delta load scaling sweep", _sweep_args),
            ("region", "two-phase region-of-convexity grid", _region_args),
            ("bounds", "operating-box phase budget", _bounds_args),
            ("reactive", "convex reactive solve at fixed phases", _reactive_args)):
        sub.add_parser(name, help=text, setup=setup)
    return ap


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each negative number after a long option joined onto it
    as --option=value. argparse reads a value such as -1e-3 or -inf as an
    option of its own, and only -1 or -.5 as a number. Every long option
    but --help takes one value."""
    out: list[str] = []
    for arg in argv:
        prev = out[-1] if out else ""
        if (len(prev) > 2 and prev.startswith("--") and "=" not in prev
                and not "--help".startswith(prev) and arg.startswith("-")):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] = f"{prev}={arg}"
                continue
        out.append(arg)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(_join_negative_values(
        sys.argv[1:] if argv is None else list(argv)))
    with warnings.catch_warnings():
        # One line per warning, free of the package's source paths.
        warnings.showwarning = lambda message, *_: print(
            f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except (GridEnergyError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
