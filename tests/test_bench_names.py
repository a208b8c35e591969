"""The benchmark's span tracer resolves package functions by name when it
installs; a rename in the package must fail here, not in a traced run."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs():
    # No bytecode: the benchmark's directory is read-only to the suite.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT / "bench"))))
    proc = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
