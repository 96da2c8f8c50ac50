"""The example scripts run end to end on tiny inputs and exit 0, and
descent_study's verdict is verify's."""

import csv
import importlib.util
import sys
from pathlib import Path

import pytest

from msvgd import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(monkeypatch, name, argv):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    return module.main()


@pytest.mark.parametrize("name, argv", [
    ("descent_study", ["--steps", "2", "--multipliers", "1"]),
    ("simplex_demo", ["--steps", "3", "--particles", "20"]),
])
def test_script_exits_zero(monkeypatch, capsys, name, argv):
    assert _run_script(monkeypatch, name, argv) == 0
    assert capsys.readouterr().out


def test_descent_study_passes_a_step_size_exactly_when_verify_does(monkeypatch, capsys,
                                                                   tmp_path):
    # 2.6e-13 times the theorem step size leaves KL flat over one step,
    # which fails verify's strict-decrease rule; the theorem step passes
    table = tmp_path / "study.csv"
    assert _run_script(monkeypatch, "descent_study",
                       ["--steps", "1", "--multipliers", "2.6e-13", "1",
                        "--out", str(table)]) == 0
    with open(table, encoding="utf-8", newline="") as fh:
        passed = [row["passed"] for row in csv.DictReader(fh)]
    assert passed == ["False", "True"]
    codes = [cli.main(["verify", "--suite", "descent", "--target", "quartic-1d-descent",
                       "--gamma-scale", scale, "--steps", "1",
                       "--out", str(tmp_path / f"verify-{scale}")])
             for scale in ("2.6e-13", "1")]
    assert codes == [1, 0]
    capsys.readouterr()
