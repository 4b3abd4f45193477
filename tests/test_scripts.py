"""Smoke runs of the command-line scripts under ``scripts/``."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv", [
    ("boundary_study", []),
    ("phase_diagram", ["matching_pennies", "--betas", "0.3,0.1",
                       "--etas", "0.01,0.1", "--horizon", "50"]),
], ids=["boundary_study", "phase_diagram"])
def test_script_runs_to_exit_code_0(name, argv, capsys):
    assert load_script(name).main(argv) == 0
    assert capsys.readouterr().out
