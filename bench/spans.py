"""Span tracer that measures gridenergy's layers from outside the package.

`install` wraps every public function of the seven package modules at load
time. Each wrapper records one span (function, start, end, parent span) in
compact in-memory arrays; nothing is aggregated while the benchmark runs.
`layer_metrics` turns a range of spans into the per-layer metrics listed in
BENCHMARK.json, and `save` writes the raw spans once the run is over.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

import numpy as np

LAYERS = ("network", "energy", "convexity", "linalg", "solver", "reduced", "cli")

# Every cross-module import of a wrapped function: alias -> original. The
# self-check fails the traced run when one of these no longer resolves to
# the original object, so a rename or re-import cannot silently report zero
# calls for the layer.
ALIASES = {
    "convexity.check_state": "energy.check_state",
    "convexity.hessian": "energy.hessian",
    "convexity.cholesky_psd": "linalg.cholesky_psd",
    "convexity.sym_eigen": "linalg.sym_eigen",
    "reduced.in_domain_C": "convexity.in_domain_C",
    "reduced.fd_hessian": "linalg.fd_hessian",
    "solver.in_domain_C": "convexity.in_domain_C",
    "solver.lossy_in_domain": "convexity.lossy_in_domain",
    "solver.pack": "energy.pack",
    "solver.unpack": "energy.unpack",
    "solver.solve_spd": "linalg.solve_spd",
    "solver.scale_injections": "network.scale_injections",
    "cli.load_case": "network.load_case",
}

CONVEX_SOLVES = ("solver.solve_convex", "solver.solve_convex_lossy")

# Metric prefix -> the wrapped functions it covers (a trailing "*" matches
# every public function with that prefix). Each gets ".calls" and ".s".
GROUPS = {
    "energy.value": ("energy.energy_value",),
    "energy.gradient": ("energy.energy_gradient",),
    "energy.hessian": ("energy.hessian",),
    "energy.hessian_blocks": ("energy.hessian_blocks",),
    "energy.pf_residuals": ("energy.pf_residuals",),
    "energy.lossy": ("energy.lossy_*",),
    "convexity.in_domain_C": ("convexity.in_domain_C",),
    "convexity.max_phase_bound": ("convexity.max_phase_bound",),
    "convexity.in_domain_D_sampled": ("convexity.in_domain_D_sampled",),
    "linalg.solve_spd": ("linalg.solve_spd",),
    "linalg.cholesky_psd": ("linalg.cholesky_psd",),
    "linalg.sym_eigen": ("linalg.sym_eigen",),
    "linalg.fd_hessian": ("linalg.fd_hessian",),
    "network.scale_injections": ("network.scale_injections",),
}

# Metrics that must repeat exactly when the same op list runs twice.
COUNTS = tuple(f"{g}.calls" for g in GROUPS) + (
    "solver.iterations_found", "solver.iterations_nosol",
    "reduced.newton_steps", "reduced.merit_evals", "reduced.stencil_evals",
    "linalg.solve_spd.retries")


def _outcome_note(out):
    return (out.status.name, out.iterations)


def _cells_note(cells):
    return (sum(1 for c in cells if c.solvable), len(cells))


# Results worth keeping per span, by wrapped function.
NOTES = {"solver.solve_convex": _outcome_note,
         "solver.solve_convex_lossy": _outcome_note,
         "reduced.region_grid": _cells_note}


class Tracer:
    """Spans in preorder: a span's index is assigned when it opens, so a
    parent always precedes its children."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.fn = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, object] = {}
        self.stack = [-1]
        self.paused = False

    def __len__(self):
        return len(self.start)

    def wrap(self, name: str, fn):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        note = NOTES.get(name)
        fn_a, parent_a, start_a, end_a = self.fn, self.parent, self.start, self.end
        stack, notes, clock = self.stack, self.notes, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(start_a)
            fn_a.append(nid)
            parent_a.append(stack[-1])
            end_a.append(0.0)
            stack.append(idx)
            start_a.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                notes[idx] = type(exc).__name__
                raise
            finally:
                end_a[idx] = clock()
                stack.pop()
            if note is not None:
                notes[idx] = note(out)
            return out

        return traced

    def save(self, path: str, ranges: dict[str, tuple[int, int]]) -> None:
        np.savez(path, names=np.array(self.names), fn=np.frombuffer(self.fn, np.uint16),
                 parent=np.frombuffer(self.parent, np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 ranges=np.array(json.dumps(ranges)))


def _resolve(qualname: str):
    mod, attr = qualname.split(".")
    return getattr(sys.modules[f"gridenergy.{mod}"], attr)


def install(tracer: Tracer) -> None:
    """Wrap every public function of the package modules, under its own
    module and every alias bound to the same object anywhere in the package.
    Raises RuntimeError when the alias table or a metric's functions no
    longer match the package."""
    mods = [importlib.import_module(f"gridenergy.{m}") for m in LAYERS]
    for alias, original in ALIASES.items():
        if _resolve(alias) is not _resolve(original):
            raise RuntimeError(f"harness self-check: {alias} is not {original}")
    wanted = [g for pats in GROUPS.values() for g in pats if not g.endswith("*")]
    wanted += list(CONVEX_SOLVES) + ["reduced.region_grid", "network.load_case",
                                     "cli.main"]
    package = [m for k, m in sorted(sys.modules.items())
               if k == "gridenergy" or k.startswith("gridenergy.")]
    wrapped = []
    for layer, mod in zip(LAYERS, mods):
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            traced = tracer.wrap(name, obj)
            for other in package:
                for key, val in list(vars(other).items()):
                    if val is obj:
                        setattr(other, key, traced)
            wrapped.append(name)
    missing = sorted(set(wanted) - set(wrapped)) + [
        p for pats in GROUPS.values() for p in pats
        if p.endswith("*") and not any(w.startswith(p[:-1]) for w in wrapped)]
    if missing:
        raise RuntimeError(f"harness self-check: no public function {missing}")
    for alias in ALIASES:
        if not getattr(_resolve(alias), "__wrapped__", None):
            raise RuntimeError(f"harness self-check: {alias} was not wrapped")


def _has_ancestor(parent: np.ndarray, mark: np.ndarray) -> np.ndarray:
    """Per span: does a strict ancestor satisfy `mark`? `parent` is local to
    the range (-1 for roots)."""
    anc = np.zeros(len(parent), dtype=bool)
    has = parent >= 0
    p = parent[has]
    while True:
        new = anc.copy()
        new[has] = mark[p] | anc[p]
        if np.array_equal(new, anc):
            return anc
        anc = new


def layer_metrics(tr: Tracer, lo: int, hi: int, clock=None) -> dict[str, float]:
    """Per-layer metrics over spans lo..hi-1 (one pass of the op list).

    `.calls` counts spans, `.s` is the time spent inside at least one span
    of the group, `self_s` is a layer's span time minus the time its
    direct child spans cover. Times are wall seconds, or reference-speed
    seconds when a `clock.SpeedClock` that covered the spans is given.
    """
    fn = np.frombuffer(tr.fn, np.uint16)[lo:hi]
    parent = np.frombuffer(tr.parent, np.int32)[lo:hi].astype(np.int64) - lo
    parent[parent < 0] = -1
    start = np.frombuffer(tr.start)[lo:hi]
    end = np.frombuffer(tr.end)[lo:hi]
    if clock is not None:
        start, end = clock.work_time(start), clock.work_time(end)
    dur = end - start
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    self_t = dur - child
    notes = {i - lo: v for i, v in tr.notes.items() if lo <= i < hi}

    def match(*pats):
        hit = [any(name.startswith(p[:-1]) if p.endswith("*") else name == p
                   for p in pats) for name in tr.names]
        return np.array(hit + [False], dtype=bool)[fn] if len(fn) else fn.astype(bool)

    def busy(mask):
        return float(dur[mask & ~_has_ancestor(parent, mask)].sum())

    out: dict[str, float] = {}
    for group, pats in GROUPS.items():
        mask = match(*pats)
        out[f"{group}.calls"] = int(mask.sum())
        out[f"{group}.s"] = busy(mask)

    for lay in ("solver", "reduced", "cli"):
        out[f"{lay}.self_s"] = float(self_t[match(f"{lay}.*")].sum())

    convex = match(*CONVEX_SOLVES)
    iters = {"SOLUTION_FOUND": 0, "NO_SOLUTION_IN_C": 0}
    for i in np.flatnonzero(convex):
        note = notes.get(int(i))
        if isinstance(note, tuple):
            iters[note[0]] = iters.get(note[0], 0) + note[1]
    out["solver.iterations_found"] = iters["SOLUTION_FOUND"]
    out["solver.iterations_nosol"] = iters["NO_SOLUTION_IN_C"]
    # Energy values a convex solve asks for itself are its line-search
    # trials; the ones nested in energy_gradient are not.
    values = match("energy.energy_value", "energy.lossy_energy_value")
    trials = int((values & has & convex[np.maximum(parent, 0)]).sum())
    out["solver.accept_ratio"] = sum(iters.values()) / trials if trials else 0.0

    in_reduced = _has_ancestor(parent, match("reduced.*"))
    out["reduced.newton_steps"] = int((match("energy.hessian_blocks") & in_reduced).sum())
    out["reduced.merit_evals"] = int((match("energy.pf_residuals") & in_reduced).sum())
    grid = match("reduced.region_grid")
    out["reduced.stencil_evals"] = int(
        (match("energy.energy_value") & _has_ancestor(parent, grid)).sum())
    cells = [notes[int(i)] for i in np.flatnonzero(grid)
             if isinstance(notes.get(int(i)), tuple)]
    total = sum(c[1] for c in cells)
    out["reduced.solvable_ratio"] = sum(c[0] for c in cells) / total if total else 0.0

    out["linalg.solve_spd.retries"] = sum(
        1 for i in np.flatnonzero(match("linalg.solve_spd"))
        if notes.get(int(i)) == "NotPositiveDefinite")
    out["network.load_case.s"] = busy(match("network.load_case"))
    return out
