"""The example scripts run end to end on tiny inputs and exit 0."""

import importlib.util
import sys
from pathlib import Path

import pytest

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
