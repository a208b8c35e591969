"""gridenergy benchmark: the paper's experiments, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload ieee_sweep --seed 1 --seconds 25 --trace 0

Workloads: ieee_sweep, region_grid, cli_oneshot (see bench/README.md). With
--trace 0 the last stdout line is a JSON object carrying the end-to-end
metrics; with --trace 1 it carries the per-layer metrics. Results, machine
details and (traced runs) the raw spans go to .bench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7  # this process plus six fresh ones
# Probing goes on this long after set-up ends, so that the rolling median
# slowdown at its end is taken over real probes rather than edge padding.
SETUP_TAIL_S = 0.25
# At least two passes: cli_oneshot's second pass checks byte-identical
# outputs, and a traced run compares its counts across passes.
MIN_PASSES = 2
OUT_DIR = ".bench_out"
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
             "op_ms_tail": "ms", "peak_rss_mb": "MB"}
WORKLOADS = ("ieee_sweep", "region_grid", "cli_oneshot")

# numpy and the package are imported inside functions: the BLAS thread
# variables must be set first, and set-up is timed from before the first
# import of gridenergy, which imports numpy.


def machine() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def setup_samples(args, count: int) -> list[dict]:
    """Set-up times of `count` fresh processes, run one after another."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.splitlines()[-1]))
    return out


def source_digest(root: str) -> str:
    """Digest of the package sources and the benchmark, which stands for
    the commit when a checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "bench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(root, top))):
            dirnames.sort()
            for name in sorted(f for f in files if f.endswith(".py")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def earlier(path: str, seed: int, digest: str) -> dict | None:
    """An earlier result file, if it was made at the same seed and sources."""
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        doc = json.load(fh)
    return doc if doc.get("seed") == seed and doc.get("source") == digest else None


def end_to_end(work, passes, setup: list[float], clock=None) -> dict:
    """End-to-end metrics from the passes' ops, timed by `clock.work_time`
    (reference-speed seconds) or, without a clock, by the wall."""
    import numpy as np

    def seconds(t0, t1):
        t0, t1 = np.array(t0), np.array(t1)
        return clock.work_time(t1) - clock.work_time(t0) if clock else t1 - t0

    ops = [op for p in passes for op in p["ops"]]
    p50, tail = work.latencies(ops, seconds([op.t0 for op in ops], [op.t1 for op in ops]))
    per_pass = sum(op.count for op in passes[0]["ops"])
    pass_s = seconds([p["span"][0] for p in passes], [p["span"][1] for p in passes])
    return {"setup_s": statistics.median(setup),
            "ops_per_s": per_pass / float(np.median(pass_s)),
            "op_ms_p50": p50, "op_ms_tail": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def per_layer(tracer, ranges, clock, setup_clock) -> tuple[dict, list[str]]:
    """Median over passes of each per-layer metric, and the counts that did
    not repeat exactly from pass to pass."""
    import spans

    rows = [spans.layer_metrics(tracer, lo, hi, clock) for key, (lo, hi) in ranges.items()
            if key.startswith("pass")]
    merged = {k: (statistics.median_low if k in spans.COUNTS else statistics.median)(
        [r[k] for r in rows]) for k in rows[0]}
    merged["network.load_case.s"] += spans.layer_metrics(
        tracer, *ranges["setup"], setup_clock)["network.load_case.s"]
    differ = [k for k in spans.COUNTS if len({r[k] for r in rows}) > 1]
    return merged, differ


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gridenergy", "__init__.py")):
        print(f"error: no src/gridenergy under {root}; run from a checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, src)
    warnings.simplefilter("ignore", UserWarning)  # the MATPOWER parser's dropped columns
    workdir = os.path.join(root, OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return measure(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, root: str, workdir: str) -> int:
    t0 = time.perf_counter()
    from clock import SpeedClock  # imports numpy, which gridenergy needs first anyway
    with SpeedClock() as setup_clock:
        import gridenergy
        if not os.path.abspath(gridenergy.__file__).startswith(os.path.join(root, "src")):
            raise RuntimeError(f"imported gridenergy from {gridenergy.__file__}")
        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
            spans.install(tracer)
        import workloads
        work = workloads.WORKLOADS[args.workload](args.seed, workdir)
        t1 = time.perf_counter()
        time.sleep(SETUP_TAIL_S)
    ready = {"setup_s": float(setup_clock.work_time(t1) - setup_clock.work_time(t0)),
             "setup_wall_s": t1 - t0}
    if args.setup_only:
        print(json.dumps(ready))
        return 0
    import numpy as np
    ranges = {"setup": (0, len(tracer) if tracer else 0)}
    samples = [ready] + setup_samples(args, SETUP_SAMPLES - 1)
    setup = [r["setup_s"] for r in samples]

    # A fixed pass count for a given --seconds, whatever the host's speed,
    # so every statistic is taken over the same number of ops.
    need = max(MIN_PASSES, int(args.seconds // work.pass_s))
    passes = []
    with SpeedClock() as clock:
        for _ in range(need):
            lo = len(tracer) if tracer else 0
            raw, span = work.run()
            if tracer:
                ranges[f"pass{len(passes)}"] = (lo, len(tracer))
                tracer.paused = True
            passes.append({"span": span, "ops": work.check(raw)})
            if tracer:
                tracer.paused = False

    e2e = end_to_end(work, passes, setup, clock)
    wall = end_to_end(work, passes, [r["setup_wall_s"] for r in samples])
    ops = [op for p in passes for op in p["ops"]]
    attempted = sum(op.count for op in ops)
    failed = sum(op.count for op in ops if op.error)
    errors = [op.error for op in ops if op.error]
    info = machine()
    slow = clock.slowdown()
    digest = source_digest(root)
    result = {"workload": work.name, "seed": args.seed, "trace": args.trace,
              "source": digest, "machine": info,
              "pass_wall_s": [p["span"][1] - p["span"][0] for p in passes],
              "ops_per_pass": attempted // len(passes), "tail": work.tail_label,
              "setup_samples": samples, "end_to_end": e2e, "end_to_end_wall": wall,
              "slowdown": {"probes": len(slow), "median": float(np.median(slow)),
                           "max": float(slow.max())},
              "fail_ratio": failed / attempted, "errors": errors[:20]}
    out_dir = os.path.join(root, OUT_DIR)
    print(f"machine: {json.dumps(info, sort_keys=True)}")
    print(f"{work.name}: seed {args.seed}, sources {digest}, {len(passes)} passes of "
          f"{result['ops_per_pass']} ops, tail = {work.tail_label}, median slowdown "
          f"{result['slowdown']['median']:.3f} over {len(slow)} probes")
    label = "traced " if tracer else ""
    for k, v in e2e.items():
        print(f"{label}{k} = {v:.6g} {E2E_UNITS[k]} (wall clock: {wall[k]:.6g})")
    print(f"{label}fail_ratio = {result['fail_ratio']:.6g} ({failed} of {attempted} ops)")
    for err in errors[:10]:
        print(f"failed: {err}")

    def result_path(trace: int) -> str:
        return os.path.join(out_dir, f"{work.name}-seed{args.seed}-trace{trace}.json")

    if tracer:
        layer, differ = per_layer(tracer, ranges, clock, setup_clock)
        result["per_layer"] = layer
        result["counts_differ"] = differ
        print("counts repeat exactly across passes" if not differ else
              f"counts differ between passes: {', '.join(differ)}")
        prev = earlier(result_path(1), args.seed, digest)
        if prev is None:
            print("no earlier traced run at this seed and sources to compare counts with")
        else:
            result["counts_differ_runs"] = [k for k in spans.COUNTS
                                            if prev["per_layer"][k] != layer[k]]
            print("counts repeat exactly across traced runs"
                  if not result["counts_differ_runs"] else
                  "counts differ from the earlier traced run: "
                  + ", ".join(result["counts_differ_runs"]))
        base = earlier(result_path(0), args.seed, digest)
        if base is None:
            print("no untraced run at this seed and sources; tracing overhead not computed")
        else:
            result["tracing_overhead"] = {k: e2e[k] / base["end_to_end"][k] - 1.0 for k in e2e}
            print("tracing overhead vs the untraced run: " + ", ".join(
                f"{k} {v:+.1%}" for k, v in result["tracing_overhead"].items()))
        tracer.save(os.path.join(out_dir, f"{work.name}-spans.npz"), ranges)
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    with open(result_path(args.trace), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    return "s" if name.endswith((".s", ".self_s")) else "count"


if __name__ == "__main__":
    sys.exit(main())
