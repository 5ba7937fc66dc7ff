"""Smoke test: each demo script runs to completion and prints something."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    ["end_to_end_mapping.py", "regression_walkthrough.py", "state_machine_replay.py"],
)
def test_demo_runs(capsys, name):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
