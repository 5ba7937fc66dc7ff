"""Animate the allocation state machine from a replay script.

Every command yields a report line; non-OK reports leave the state
untouched, which the trailing checks demonstrate.
"""

from pathlib import Path

from wrmap import Report, add
from wrmap.trace_io import parse_replay, run_replay, write_state

data_dir = Path(__file__).parent.parent / "tests" / "data"
script = (data_dir / "example_build.replay").read_text()
state, lines = run_replay(parse_replay(script))

print("transcript:")
for line in lines:
    print(" ", line)
print("final snapshot:", write_state(state), end="")

# A duplicate add reports AlreadyMapped and changes nothing.
outcome = add(state, "Res1", "SomethingElse")
assert outcome.report is Report.ALREADY_MAPPED
assert outcome.state == state
print("duplicate add left the state unchanged:", outcome.report)
