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
