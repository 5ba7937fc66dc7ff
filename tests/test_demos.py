"""Each demo script runs to completion. The two that need only the standard
library print exactly their pinned stdout; the regression walkthrough prints
numpy values, whose text may vary across numpy versions, so it only has to
print something."""

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


@pytest.mark.parametrize(
    "name",
    ["end_to_end_mapping.py", "regression_walkthrough.py", "state_machine_replay.py"],
)
def test_demo_runs(capsys, name):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert out == STDOUT[name] if name in STDOUT else out
