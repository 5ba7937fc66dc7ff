"""Each demo script runs to completion and prints exactly its pinned stdout.
Every demo needs the standard library only, so its text is the same on every
platform; a new demo fails here until its stdout is pinned."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"

STDOUT = {
    "end_to_end_mapping.py": """\
    W1  W2  W3  W4  W5  W6  W7
R1      ✓
R2          ✓
R3                  ✓
R4  ✓
R5              ✓
R6                      ✓
R7                          ✓

total predicted cost: 0.0
R4 runs: W1
who runs W2: ['R1']
snapshot: {"allocation":{"R1":"W2","R2":"W3","R3":"W5","R4":"W1","R5":"W4","R6":"W6","R7":"W7"}}
""",
    "regression_walkthrough.py": """\
intercept : 0.3333333333333335
slope     : 1.5
ssr       : 0.16666666666666652
R^2       : 0.9642857142857143
residuals : [0.16666666666666652, -0.3333333333333335, 0.16666666666666607]
prediction at w=2 (the mean point): 3.3333333333333335
exact intercept: 1/3 beside 0.3333333333333335
exact slope    : 3/2 beside 1.5
""",
    "state_machine_replay.py": """\
transcript:
  2 OK
  3 OK
  4 OK
  5 OK
  6 OK Cloudworkload2
  7 OK Res2
final snapshot: {"allocation":{"Res1":"Cloudworkload3","Res2":"Cloudworkload2","Res3":"Cloudworkload1"}}
duplicate add left the state unchanged: AlreadyMapped
""",
}


@pytest.mark.parametrize("name", sorted(path.name for path in DEMOS.glob("*.py")))
def test_demo_runs(capsys, name):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out == STDOUT[name]
