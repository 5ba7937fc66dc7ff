"""wrmap runs on the standard library and stays light to import: no
subcommand loads numpy, scipy, `dataclasses` or `inspect` (which
`dataclasses` imports); the value types are tuples and `__slots__` classes
instead. `import wrmap` loads no module of the package, each module imports
on its own, `replay` loads neither `wrmap.matcher` nor `wrmap.regression`,
and `fit` and `residuals` do not load `wrmap.matcher`.

Each check runs in a fresh interpreter, because this test process has
already imported all of them.
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

def loaded():
    heavy = {"numpy", "scipy", "dataclasses", "inspect"}
    lazy = {"wrmap.matcher", "wrmap.regression"}
    return sorted(({m.split(".")[0] for m in sys.modules} & heavy) | (lazy & set(sys.modules)))

import wrmap
runs = {"import wrmap": [0, loaded()]}
from wrmap.cli import main
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    runs[name] = [code, loaded()]
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


def test_no_command_loads_heavy_modules():
    observations = str(DATA / "observations.csv")
    steps = [
        ("replay", ["replay", "--script", str(DATA / "example_build.replay")]),
        ("fit", ["fit", "--input", observations, "--all"]),
        ("residuals", ["residuals", "--input", observations, "--pair", "R1:W2"]),
        ("allocate", ["allocate", "--input", observations, "--at", "1",
                      "--resources", "R1", "--workloads", "W1,W2"]),
    ]
    # The steps run in this order in one process, so each step's list also
    # holds what the steps before it loaded.
    runs = json.loads(run_python("-c", CLI_SCRIPT, json.dumps(steps)))
    assert runs == {
        "import wrmap": [0, []],
        "replay": [0, []],
        "fit": [0, ["wrmap.regression"]],
        "residuals": [0, ["wrmap.regression"]],
        "allocate": [0, ["wrmap.matcher", "wrmap.regression"]],
    }


def test_package_loads_nothing_and_each_module_imports_alone():
    script = """
import sys
import wrmap
print([m for m in sys.modules if m.startswith("wrmap.")],
      [name for name in vars(wrmap) if not name.startswith("__")])
"""
    assert run_python("-c", script) == "[] []\n"
    for module in ["cli", "core", "matcher", "regression", "trace_io"]:
        run_python("-c", f"import wrmap.{module}")
