"""CLI output against golden files: `region` grids recorded before the grid
became one stacked solve, and a slice of solve, check, sweep, bounds,
reactive and error commands, each with its exit code and stderr.
tests/make_golden.py regenerates them."""
import pytest

from make_golden import GOLDEN, GOLDEN_DIR, render, versions

REGION = sorted(k for k in GOLDEN if k.startswith("region_"))


def recorded(name: str) -> str:
    build, body = (GOLDEN_DIR / name).read_text().split("\n", 1)
    assert build == versions(), (
        f"{name} was recorded under '{build[2:]}' but this run has "
        f"'{versions()[2:]}'; regenerate it with tests/make_golden.py")
    return body


@pytest.mark.parametrize("name", REGION)
def test_region_matches_golden(name):
    assert render(GOLDEN[name]) == recorded(name)


@pytest.mark.parametrize("name", sorted(set(GOLDEN) - set(REGION)))
def test_cli_matches_golden(name):
    assert render(GOLDEN[name]) == recorded(name)

