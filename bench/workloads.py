"""The benchmark's three workloads, each a fixed op list from the paper's
experiments with its own correctness gate.

A workload object is ready once constructed: its cases are parsed and
normalised and one op of each kind has run. `run` executes the op list once
and returns raw results with the pass's wall-clock interval; `check` turns
those results into `Op`s, untimed, with `error` set when an op failed;
`latencies` gives the two latency metrics of the timed ops.
"""
from __future__ import annotations

import csv
import json
import math
import os
import statistics
import time
from typing import NamedTuple

import numpy as np

import gridenergy as ge
from gridenergy import cli, reduced, solver
from gridenergy.errors import InfeasibleStart

SolveStatus = ge.SolveStatus


class Op(NamedTuple):
    """`count` ops that shared the wall-clock interval t0..t1 equally."""
    t0: float
    t1: float
    count: int
    error: str | None
    tag: object = None


def _prepare(case: str):
    return ge.absorb_setpoints(ge.losslessify(ge.load_case(case)))


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * pct / 100))
    return float(ordered[rank - 1])


class Workload:
    """`pass_s` is a pass's nominal reference-speed seconds, from which a
    run's fixed pass count follows; `tail_pct` is the highest percentile
    with at least ten ops beyond it at two passes."""

    tail_pct: float
    tail_label: str

    def latencies(self, ops: list[Op], seconds) -> tuple[float, float]:
        """Nearest-rank p50 and tail of the per-op latency in ms, given each
        Op's seconds."""
        lat = [1e3 * s / op.count for op, s in zip(ops, seconds) for _ in range(op.count)]
        return nearest_rank(lat, 50), nearest_rank(lat, self.tail_pct)


class IeeeSweep(Workload):
    """Criterion-8 loading paths: one op is one solve_convex call inside
    sweep_load, which looks solve_convex up at call time."""

    name = "ieee_sweep"
    tail_pct = 90  # 108 ops in two passes
    tail_label = "p90"
    pass_s = 17.0
    # The two cases alternate so that each latency group is sampled across
    # the whole pass rather than in one stretch of it.
    PATHS = [(case, delta, kappas) for delta in (1.0, 0.5, 0.1) for case, kappas in
             (("ieee14", np.arange(1.0, 5.76, 0.5)), ("ieee118", np.arange(1.0, 4.51, 0.5)))]

    def __init__(self, seed: int, workdir: str):
        self.nets = {case: _prepare(case) for case in ("ieee14", "ieee118")}
        for net in self.nets.values():
            solver.solve_convex(net)

    def run(self):
        calls: list[tuple] = []
        retry: list[float] = []  # start of a solve that sweep_load retries from flat
        inner = solver.solve_convex

        def timed(*args, **kwargs):
            t0 = retry.pop() if retry else time.perf_counter()
            net = args[0] if args else kwargs["n"]
            try:
                out = inner(*args, **kwargs)
            except InfeasibleStart:
                retry.append(t0)
                raise
            except Exception as exc:
                calls.append((t0, time.perf_counter(), net, exc))
                raise
            calls.append((t0, time.perf_counter(), net, out))
            return out

        paths = []
        solver.solve_convex = timed
        try:
            t0 = time.perf_counter()
            for case, delta, kappas in self.PATHS:
                first = len(calls)
                try:
                    records = solver.sweep_load(self.nets[case], delta, kappas)
                except Exception as exc:
                    records = exc
                retry.clear()
                paths.append((records, calls[first:], len(kappas)))
            t1 = time.perf_counter()
        finally:
            solver.solve_convex = inner
        return paths, (t0, t1)

    def check(self, paths) -> list[Op]:
        ops = []
        for records, calls, size in paths:
            path_error = None
            if isinstance(records, Exception):
                path_error = f"sweep_load raised {records!r}"
            else:
                found = [r.status is SolveStatus.SOLUTION_FOUND for r in records]
                flips = sum(1 for a, b in zip(found, found[1:]) if a != b)
                if not found[0] or flips != 1:
                    path_error = f"path statuses {found} lack a single found->none transition"
            for t0, t1, net, out in calls:
                error = path_error
                if isinstance(out, Exception):
                    error = f"solve_convex raised {out!r}"
                elif out.status is SolveStatus.SOLUTION_FOUND:
                    ref = solver.solve_newton(net)
                    diff = max(np.max(np.abs(out.state.rho - ref.state.rho)),
                               np.max(np.abs(out.state.theta - ref.state.theta)))
                    if ref.status is not SolveStatus.SOLUTION_FOUND or diff > 1e-6:
                        error = f"convex solution differs from Newton by {diff:.3g}"
                elif out.status is not SolveStatus.NO_SOLUTION_IN_C:
                    error = f"solve_convex ended in {out.status.name}"
                ops.append(Op(t0, t1, 1, error))
            if not calls:
                ops.append(Op(0.0, 0.0, size, path_error or "no solve_convex call"))
        return ops


class RegionGrid(Workload):
    """Criterion-7 region grid on threebus over +-60 degrees at injection
    scale 1 and 6. Cells cannot be called one at a time, so the cells of a
    region_grid call share its time equally."""

    name = "region_grid"
    tail_label = "median ms per cell of the scale-6 calls"
    pass_s = 7.0
    STEP_DEG = 6.0
    CELLS = 441  # 21 x 21 phase pairs over +-60 degrees at STEP_DEG
    # Solvable cells per scale at STEP_DEG, recorded when the benchmark was added.
    SOLVABLE = {1.0: 397, 6.0: 0}

    def __init__(self, seed: int, workdir: str):
        base = _prepare("threebus")
        self.nets = {scale: ge.scale_injections(base, scale, 1.0) for scale in self.SOLVABLE}
        for net in self.nets.values():
            reduced.region_grid(net, 0.0, 0.0)

    def run(self):
        calls = []
        t0 = time.perf_counter()
        for scale, net in self.nets.items():
            t1 = time.perf_counter()
            try:
                cells = reduced.region_grid(net, step_deg=self.STEP_DEG)
            except Exception as exc:
                cells = exc
            calls.append((scale, cells, t1, time.perf_counter()))
        return calls, (t0, time.perf_counter())

    def check(self, calls) -> list[Op]:
        ops = []
        for scale, cells, t0, t1 in calls:
            if isinstance(cells, Exception):
                ops.append(Op(t0, t1, self.CELLS, f"region_grid raised {cells!r}", scale))
                continue
            error = None
            solvable = sum(1 for c in cells if c.solvable)
            if len(cells) != self.CELLS:
                error = f"scale {scale}: {len(cells)} cells, expected {self.CELLS}"
            elif solvable != self.SOLVABLE[scale]:
                error = f"scale {scale}: {solvable} solvable cells, expected {self.SOLVABLE[scale]}"
            elif scale == 1.0:
                agree, comparable = reduced.region_agreement(cells)
                if not comparable or agree / comparable < 0.97:
                    error = f"scale 1: agreement {agree}/{comparable} below 0.97"
            elif any(c.in_c for c in cells):
                error = f"scale {scale}: a cell lies in C"
            ops.append(Op(t0, t1, self.CELLS, error, scale))
        return ops

    def latencies(self, ops: list[Op], seconds) -> tuple[float, float]:
        """Median ms per cell of the scale-1 calls and of the scale-6 calls:
        a call's cells all get its mean time, so percentiles over cells
        would only pick out single calls."""
        per_cell = {scale: [] for scale in self.SOLVABLE}
        for op, s in zip(ops, seconds):
            per_cell[op.tag].append(1e3 * s / op.count)
        return statistics.median(per_cell[1.0]), statistics.median(per_cell[6.0])


class CliOneshot(Workload):
    """One-shot CLI invocations run in-process through gridenergy.cli.main,
    each writing to a file with --out. The seed draws the reactive phases
    and is passed to bounds as --seed."""

    name = "cli_oneshot"
    tail_pct = 86  # 36 ops per pass, two passes
    tail_label = "p86"
    pass_s = 13.0
    # Reactive cost varies erratically with the phases, and the tail op is
    # among the costliest reactive ones: 24 draws keep it alike across seeds.
    REACTIVE = 24
    # (case, b_rho, mode, lowest degrees, highest degrees); criterion 9 gives
    # the IEEE ranges at b_rho 1.5.
    BOUNDS = [("ieee14", "1.5", "sampled", 40.0, 60.0),
              ("ieee118", "1.5", "sampled", 35.0, 55.0),
              ("threebus", "1.5", "exact-vertices", 0.0, 90.0),
              ("threebus-tree", "1.5", "exact-vertices", 0.0, 90.0),
              ("ieee14", "1.2", "sampled", 0.0, 90.0)]
    WARMUP = [["bounds", "threebus"], ["reactive", "threebus"], ["solve", "twobus"],
              ["check", "twobus"], ["sweep", "twobus", "--kappa-max", "1.0"]]

    def __init__(self, seed: int, workdir: str):
        for case in ("twobus", "threebus", "threebus-tree", "ieee14", "ieee118"):
            _prepare(case)
        self.workdir = workdir
        self.ops: list[list[str]] = []
        self.gates = []
        for case, b_rho, mode, lo, hi in self.BOUNDS:
            self.ops.append(["bounds", case, "--b-rho", b_rho, "--seed", str(seed)])
            self.gates.append(_json(lambda doc, m=mode, a=lo, b=hi:
                                    doc["mode"] == m and a < doc["b_theta_deg"] <= b))
        # Latin-hypercube draws over +-0.35 rad: a reactive solve's cost
        # depends on the phases, and stratifying keeps the mix of costs, and
        # so the latency percentiles, alike from seed to seed.
        rng = np.random.default_rng(seed)
        strata = [rng.permutation(self.REACTIVE) for _ in range(2)]
        for i in range(self.REACTIVE):
            theta = [0.0] + [-0.35 + 0.7 * (s[i] + rng.uniform()) / self.REACTIVE
                             for s in strata]
            path = os.path.join(workdir, f"theta{i}.json")
            with open(path, "w") as fh:
                json.dump(theta, fh)
            self.ops.append(["reactive", "threebus", "--theta", path])
            self.gates.append(_json(lambda doc: max(map(abs, doc["constraint_slack"])) <= 1e-8))
        for argv in (["solve", "twobus", "--lossy-kappa", "0.2"],
                     ["solve", "threebus", "--lossy-kappa", "0.2"],
                     ["solve", "threebus"],
                     ["solve", "ieee14", "--method", "newton"],
                     ["solve", "ieee118", "--method", "newton"]):
            self.ops.append(argv)
            self.gates.append(_json(lambda doc: doc["status"] == "SolutionFound"))
        self.ops.append(["check", "ieee14", "--d-samples", "64"])
        self.gates.append(_json(lambda doc: doc["certificate"]["in_c"]))
        self.ops.append(["sweep", "twobus", "--kappa-min", "2.0", "--kappa-max", "2.15",
                         "--kappa-step", "0.01"])
        self.gates.append(_one_transition)
        self.first: list[bytes] | None = None
        out = os.path.join(workdir, "warmup.out")
        for argv in self.WARMUP:
            if cli.main(argv + ["--out", out]) != 0:
                raise RuntimeError(f"warm-up {argv} failed")

    def run(self):
        results = []
        t0 = time.perf_counter()
        for k, argv in enumerate(self.ops):
            out = os.path.join(self.workdir, f"op{k}.out")
            t1 = time.perf_counter()
            try:
                rc = cli.main(argv + ["--out", out])
            except Exception as exc:
                rc = exc
            results.append((t1, time.perf_counter(), rc, out))
        return results, (t0, time.perf_counter())

    def check(self, results) -> list[Op]:
        ops = []
        outputs = []
        for k, (t0, t1, rc, path) in enumerate(results):
            data, error = None, None
            if rc != 0:
                error = f"exit {rc!r}"
            else:
                with open(path, "rb") as fh:
                    data = fh.read()
                try:
                    passed = self.gates[k](data.decode())
                except (ValueError, KeyError, TypeError):
                    passed = False
                if not passed:
                    error = "output outside its expected range"
                elif self.first is not None and data != self.first[k]:
                    error = "output bytes differ from the first pass"
            outputs.append(data)
            if error:
                error = f"{' '.join(self.ops[k])}: {error}"
            ops.append(Op(t0, t1, 1, error))
        if self.first is None:
            self.first = outputs
        return ops


def _json(gate):
    return lambda text: gate(json.loads(text))


def _one_transition(text: str) -> bool:
    rows = list(csv.DictReader(line for line in text.splitlines()
                               if not line.startswith("#")))
    found = [r["status"] == "SolutionFound" for r in rows]
    return bool(found) and found[0] and sum(a != b for a, b in zip(found, found[1:])) == 1


WORKLOADS = {w.name: w for w in (IeeeSweep, RegionGrid, CliOneshot)}
