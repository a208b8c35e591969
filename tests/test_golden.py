"""`region` output against golden files recorded before the grid became one
stacked solve. tests/make_golden.py regenerates them."""
import pytest

from make_golden import GOLDEN, GOLDEN_DIR, render, versions


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_region_matches_golden(name):
    recorded, body = (GOLDEN_DIR / name).read_text().split("\n", 1)
    assert recorded == versions(), (
        f"{name} was recorded under '{recorded[2:]}' but this run has "
        f"'{versions()[2:]}'; regenerate it with tests/make_golden.py")
    assert render(GOLDEN[name]) == body
