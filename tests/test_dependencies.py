"""The package stays numpy-only: every module imports the standard
library, numpy or its own package, and nothing else."""
import ast
import sys
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
