"""wrmap runs on the standard library: no subcommand and no import of the
package loads numpy or scipy, and only `allocate` loads the matcher.

Each check runs in a fresh interpreter, because this test process has
already imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
DATA = ROOT / "tests" / "data"

CLI_SCRIPT = """
import contextlib, io, json, sys
from wrmap.cli import main

def loaded():
    heavy = sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"})
    return heavy, "wrmap.matcher" in sys.modules

runs = {"import": [0, *loaded()]}
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    runs[name] = [code, *loaded()]
print(json.dumps(runs))
"""


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(ROOT / "src"), env.get("PYTHONPATH")] if p
    )
    result = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_no_command_loads_numpy_or_scipy():
    observations = str(DATA / "observations.csv")
    steps = [
        ("replay", ["replay", "--script", str(DATA / "example_build.replay")]),
        ("fit", ["fit", "--input", observations, "--all"]),
        ("residuals", ["residuals", "--input", observations, "--pair", "R1:W2"]),
        ("allocate", ["allocate", "--input", observations, "--at", "1",
                      "--resources", "R1", "--workloads", "W1,W2"]),
    ]
    runs = json.loads(run_python("-c", CLI_SCRIPT, json.dumps(steps)))
    assert runs == {
        "import": [0, [], False],
        "replay": [0, [], False],
        "fit": [0, [], False],
        "residuals": [0, [], False],
        "allocate": [0, [], True],
    }


def test_package_names_resolve():
    script = """
import sys
import wrmap
assert "wrmap.matcher" not in sys.modules
from wrmap import matcher
from wrmap import assign, matcher as again
assert again is matcher and assign is matcher.assign
for name in wrmap.__all__:
    getattr(wrmap, name)
assert not {m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"}
try:
    wrmap.no_such_name
except AttributeError:
    print("ok")
"""
    assert run_python("-c", script) == "ok\n"
