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



def test_sweep_verdict_change_is_refused(tmp_path, monkeypatch, capsys):
    # make_golden rewrites a sweep file whose numbers moved, but not one
    # whose status or boundary_active column would change.
    import make_golden

    name = "sweep_twobus_delta1.csv"
    text = recorded(name)
    monkeypatch.setattr(make_golden, "GOLDEN_DIR", tmp_path)
    flipped = versions() + "\n" + text.replace("SolutionFound", "NoSolutionInC", 1)
    (tmp_path / name).write_text(flipped)
    with pytest.raises(SystemExit, match="not rewritten"):
        make_golden.main([name])
    assert (tmp_path / name).read_text() == flipped
    assert ("was ('1.0', 'NoSolutionInC', 'False'), now ('1.0', 'SolutionFound', "
            "'False')") in capsys.readouterr().out
    moved = versions() + "\n" + text.replace(",False,4\n", ",False,5\n")
    (tmp_path / name).write_text(moved)
    make_golden.main([name])
    assert (tmp_path / name).read_text() == versions() + "\n" + text
