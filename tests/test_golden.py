"""CLI output against golden files: `region` grids recorded before the grid
became one stacked solve, and a slice of solve, check, sweep, bounds,
reactive and error commands, each with its exit code and stderr.
tests/make_golden.py regenerates them."""
import json

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


@pytest.mark.parametrize("name, old, new, message, number", [
    ("check_threebus_d8.json", '"in_c": true', '"in_c": false',
     "was ('certificate.in_c', False), now ('certificate.in_c', True)",
     "26.879999999999995"),
    ("region_threebus_step6_scale1.csv", "-1.0471975511965976,True,False,",
     "-1.0471975511965976,False,,",
     "was ('-1.0471975511965976', '-1.0471975511965976', 'False', ''), now "
     "('-1.0471975511965976', '-1.0471975511965976', 'True', 'False')",
     "-22.751358223094474")])
def test_verdict_change_is_refused(tmp_path, monkeypatch, capsys, name, old, new,
                                   message, number):
    # Not only sweeps: make_golden refuses a check file whose certificate
    # verdict would change, and a region file whose cell verdicts would,
    # but rewrites either when only a number moved.
    import make_golden

    text = recorded(name)
    assert old in text and number in text
    monkeypatch.setattr(make_golden, "GOLDEN_DIR", tmp_path)
    flipped = versions() + "\n" + text.replace(old, new, 1)
    (tmp_path / name).write_text(flipped)
    with pytest.raises(SystemExit, match="not rewritten"):
        make_golden.main([name])
    assert (tmp_path / name).read_text() == flipped
    assert message in capsys.readouterr().out
    moved = versions() + "\n" + text.replace(number, "1.5", 1)
    (tmp_path / name).write_text(moved)
    make_golden.main([name])
    assert (tmp_path / name).read_text() == versions() + "\n" + text


@pytest.mark.parametrize("name, old_exit", [("error_kappa_range_empty.csv", 0),
                                            ("reactive_twobus.json", 3)])
def test_exit_code_change_is_refused(tmp_path, monkeypatch, capsys, name, old_exit):
    # make_golden does not rewrite a file whose exit code would change: an
    # empty kappa range once printed a header-only table with exit 0.
    import make_golden

    build, meta, body = (versions() + "\n" + recorded(name)).split("\n", 2)
    doc = json.loads(meta[2:])
    new_exit, doc["exit"] = doc["exit"], old_exit
    old = "\n".join((build, "# " + json.dumps(doc, sort_keys=True), body))
    monkeypatch.setattr(make_golden, "GOLDEN_DIR", tmp_path)
    (tmp_path / name).write_text(old)
    with pytest.raises(SystemExit, match="not rewritten"):
        make_golden.main([name])
    assert (tmp_path / name).read_text() == old
    assert f"  exit {old_exit} → {new_exit}\n" in capsys.readouterr().out
