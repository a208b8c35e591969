"""The package stays numpy-only: every module imports the standard
library, numpy or its own package, and nothing else."""
import ast
import importlib
import inspect
import re
import sys
from collections import Counter
from pathlib import Path

import gridenergy

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "gridenergy"}


def imported_roots(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_numpy_only():
    modules = sorted(Path(gridenergy.__file__).parent.rglob("*.py"))
    assert len(modules) >= 8
    foreign = {f"{m.name}: {root}" for m in modules
               for root in imported_roots(m) if root not in ALLOWED}
    assert not foreign


def bench_aliases() -> set[tuple[str, str]]:
    """(module, name) of every import bench/spans.py's ALIASES pins."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    for node in ast.parse(path.read_text(), str(path)).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["ALIASES"]):
            return {tuple(alias.split(".")) for alias in ast.literal_eval(node.value)}
    raise AssertionError("bench/spans.py has no ALIASES")


def unused_imports(path: Path):
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((a.asname or a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Import):
            bound.update(((a.asname or a.name).split(".")[0], node.lineno)
                         for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound if name not in used)


def test_no_unused_imports():
    modules = sorted(p for p in Path(gridenergy.__file__).parent.glob("*.py")
                     if p.name != "__init__.py")
    assert len(modules) >= 8
    allowed = bench_aliases()
    assert ("reduced", "fd_hessian") in allowed
    dead = [f"{m.stem}.{name}" for m in modules for name in unused_imports(m)
            if (m.stem, name) not in allowed]
    assert not dead


def private_reaches(path: Path, modules: set[str]):
    """Every import of another package module's private name, and every
    `mod._name` where mod is bound to another package module."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}  # local name -> package module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "gridenergy"):
            source = (node.module or "").removeprefix("gridenergy").strip(".")
            for alias in node.names:
                if not source and alias.name in modules:
                    bound[alias.asname or alias.name] = alias.name
                elif source and alias.name.startswith("_"):
                    yield f"from {source} import {alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                root, _, name = alias.name.partition(".")
                if root == "gridenergy" and name in modules and alias.asname:
                    bound[alias.asname] = name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and bound.get(node.value.id, path.stem) != path.stem
                and node.attr.startswith("_")):
            yield f"{node.value.id}.{node.attr}"


def test_no_private_reaches():
    paths = sorted(Path(gridenergy.__file__).parent.glob("*.py"))
    modules = {p.stem for p in paths}
    assert {"energy", "convexity", "linalg", "reduced", "solver"} <= modules
    reaches = [f"{p.stem}: {r}" for p in paths for r in private_reaches(p, modules)]
    assert not reaches


# What a builder passed to Network.derived must not read: networks from
# scale_injections share the memo and differ in exactly these.
INJECTION_FIELDS = {"p_inj", "q_inj", "v_set", "buses"}


def derived_builders(path: Path):
    """(name, reads of INJECTION_FIELDS) of every function that path passes
    to `.derived(...)`; a builder that is not a function of that module
    reads "unresolved", so the guard cannot be stepped round."""
    tree = ast.parse(path.read_text(), str(path))
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "derived"):
            arg = node.args[0] if len(node.args) == 1 and not node.keywords else None
            if not (isinstance(arg, ast.Name) and arg.id in functions):
                yield ast.unparse(node), {"unresolved"}
                continue
            reads = {sub.attr for sub in ast.walk(functions[arg.id])
                     if isinstance(sub, ast.Attribute) and sub.attr in INJECTION_FIELDS}
            reads |= {sub.id for sub in ast.walk(functions[arg.id])
                      if isinstance(sub, ast.Name) and sub.id in INJECTION_FIELDS}
            yield arg.id, reads


def test_derived_builders_read_no_injections():
    paths = sorted(Path(gridenergy.__file__).parent.glob("*.py"))
    found = {f"{p.stem}.{name}": reads for p in paths
             for name, reads in derived_builders(p)}
    assert {"energy._pq_incidence", "energy._hessian_index", "convexity._diag_2b",
            "convexity._pq_ends", "solver._chain"} <= set(found)
    bad = sorted(f"{name}: {sorted(reads)}" for name, reads in found.items() if reads)
    assert not bad


def attribute_readers(attr: str) -> set[str]:
    """Every package module that reads an attribute named attr."""
    return {p.stem for p in Path(gridenergy.__file__).parent.glob("*.py")
            if any(isinstance(node, ast.Attribute) and node.attr == attr
                   for node in ast.walk(ast.parse(p.read_text(), str(p))))}


def test_pq_ends_read_by_the_domain_only():
    # Each line end's PQ position is mapped once, by convexity.pq_line_ends
    # (and the energy's own fixed-end test); the barrier reads that map.
    assert attribute_readers("pq_ends") == {"network", "energy", "convexity"}


def linalg_solve_callers() -> set[str]:
    """Every package module that names numpy's linalg.solve."""
    return {p.stem for p in Path(gridenergy.__file__).parent.glob("*.py")
            if any(isinstance(node, ast.Attribute) and node.attr == "solve"
                   and ast.unparse(node.value).endswith("linalg")
                   for node in ast.walk(ast.parse(p.read_text(), str(p))))}


def test_linear_solves_go_through_linalg():
    # One kernel decides what a singular system gives (linalg.solve_rows:
    # NaN and a mask) and one the SPD test (linalg.solve_spd); nothing
    # else calls np.linalg.solve.
    assert linalg_solve_callers() == {"linalg"}


def private_definitions(tree):
    """Every function, class and method named _name (dunders aside)."""
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.endswith("__")):
            yield node


def referenced_names(tree):
    """Every name a tree reads or binds as a bare name or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_no_dead_private_helpers():
    # A private helper that nothing in the package names outside its own
    # definition is dead code: it outlived its callers.
    trees = {p: ast.parse(p.read_text(), str(p))
             for p in sorted(Path(gridenergy.__file__).parent.rglob("*.py"))}
    assert len(trees) >= 8
    uses = Counter(name for tree in trees.values() for name in referenced_names(tree))
    dead = [f"{path.stem}.{node.name}" for path, tree in trees.items()
            for node in private_definitions(tree)
            if uses[node.name] == Counter(referenced_names(node))[node.name]]
    assert not dead


def record_reads(path: Path):
    """(top-level function or class, attribute) of every read of an
    attribute named buses or lines in path."""
    for top in ast.parse(path.read_text(), str(path)).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr in ("buses", "lines")
                    and isinstance(node.ctx, ast.Load)):
                yield getattr(top, "name", "<module>"), node.attr


def test_records_read_only_at_the_boundary():
    # A Network holds arrays; n.buses and n.lines build Bus and Line
    # records on each access (about 0.14 ms on ieee118). Only network.py,
    # which parses and prints them, reads them; cli._prepare may read lines.
    paths = sorted(Path(gridenergy.__file__).parent.glob("*.py"))
    reads = {(p.stem, top, attr) for p in paths for top, attr in record_reads(p)}
    assert ("network", "serialize_native", "buses") in reads
    bad = sorted(f"{stem}.{top}: .{attr}" for stem, top, attr in reads
                 if stem != "network" and (attr, stem, top) != ("lines", "cli", "_prepare"))
    assert not bad


README = Path(__file__).resolve().parents[1] / "README.md"


def module_table_calls():
    """(module, name, parameter names) of every `name(args)` in a row of
    the README's | module | highlights | table."""
    in_table = False
    for line in README.read_text().splitlines():
        if re.fullmatch(r"\|\s*module\s*\|\s*highlights\s*\|", line):
            in_table = True
        elif in_table and not line.startswith("|"):
            return
        elif in_table and (row := re.fullmatch(r"\| `(\w+)`\s*\|(.*)\|", line)):
            for name, args in re.findall(r"`([A-Za-z_][\w.]*)\(([^()`]*)\)`", row[2]):
                yield row[1], name, [a.strip() for a in args.split(",") if a.strip()]


def test_readme_module_table_matches_the_code():
    # A signature the table quotes must be the function's own, so a
    # renamed parameter cannot leave the README behind.
    calls = list(module_table_calls())
    assert len(calls) >= 3
    wrong = []
    for module, name, params in calls:
        obj = importlib.import_module(f"gridenergy.{module}")
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if not (inspect.isfunction(obj) and list(inspect.signature(obj).parameters) == params):
            wrong.append(f"{module}.{name}({', '.join(params)})")
    assert not wrong
