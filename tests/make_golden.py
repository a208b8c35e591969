"""Regenerate the golden `region` outputs that tests/test_golden.py compares
against.

    PYTHONPATH=src python tests/make_golden.py

Each file holds one line naming the numpy and BLAS builds it was made with,
then the command's CSV output byte for byte. The grid's floats depend on
the linear-algebra build, so a file is only comparable under the same one.
"""
from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np

from gridenergy import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
# File name -> the command it records.
GOLDEN = {
    "region_threebus_step6_scale1.csv": ["region", "threebus", "--grid-step", "6",
                                         "--scale", "1"],
    "region_threebus_step6_scale3.csv": ["region", "threebus", "--grid-step", "6",
                                         "--scale", "3"],
    "region_threebus-tree_step6.csv": ["region", "threebus-tree", "--grid-step", "6"],
}


def versions() -> str:
    """The build line that heads every golden file."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return f"# numpy {np.__version__}; blas {blas}"


def render(argv: list[str]) -> str:
    """The command's stdout; raises if it does not exit 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return buf.getvalue()


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in GOLDEN.items():
        (GOLDEN_DIR / name).write_text(versions() + "\n" + render(argv))
        print(f"wrote {name}")


if __name__ == "__main__":
    main()
