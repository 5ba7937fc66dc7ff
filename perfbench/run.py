"""Benchmark of the `wrmap` CLI on generated inputs.

    python3 perfbench/run.py --workload fit_all|allocate|replay|all \
        --seed N --seconds S --trace 0|1

`--workload all` runs every workload untraced and then traced, printing
each report, and ends with one JSON object holding all of their metrics.

Run from anywhere inside a checkout that holds `src/wrmap`. Each workload
is a closed loop with one client: the benchmark spawns `python -m
wrmap.cli` on the generated inputs, waits for it to exit, checks its
output against an independent oracle, and only then spawns the next one.
Wall time runs from spawn to exit; CPU time and peak RSS come from the
child's `os.wait4` rusage. Nothing system-wide is traced.

With `--trace 1` the run instead calls `wrmap.cli.main` in process, every
other call with span-recording wrappers around the public module
attributes the CLI calls through (see spans.py), and reports per-module
self time and counts. End-to-end numbers only ever come from `--trace 0`.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Scratch files live in `.perfbench/` at the checkout root; the
spans of the latest traced run of a workload are left there as
`spans-<workload>.jsonl`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import gen
import oracle as oracles
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("fit_all", "allocate", "replay")
SETUP_REPEATS = 3  # untraced runs report the median set-up time of these
IMPORT_PROBES = 5

END_TO_END = {
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "cmd_cpu_p50_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.main.self_s": "s",
    "cli.render_assignment.self_s": "s",
    "trace_io.parse_observations.self_s": "s",
    "trace_io.parse_observations.rows": "count",
    "trace_io.parse_replay.self_s": "s",
    "trace_io.run_replay.self_s": "s",
    "trace_io.write_state.self_s": "s",
    "regression.fit.self_s": "s",
    "regression.fit.calls": "count",
    "regression.fit.failed": "count",
    "regression.goodness_of_fit.self_s": "s",
    "matcher.build_cost_matrix.self_s": "s",
    "matcher.assign.self_s": "s",
    "matcher.matrix_to_state.self_s": "s",
    "matcher.lsa.calls": "count",
    "matcher.lsa.self_s": "s",
    "matcher.assign.accept_ratio": "ratio",
    "core.add.self_s": "s",
    "core.add.calls": "count",
    "core.add.rejected": "count",
    "core.find.self_s": "s",
    "core.find.calls": "count",
    "core.map_query.self_s": "s",
    "core.map_query.calls": "count",
    "trace.overhead_s": "s",
}


@dataclass
class Sample:
    wall: float
    cpu: float = 0.0
    rss_mb: float = 0.0
    error: str | None = None


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _read_snapshot(inputs: gen.Inputs) -> str | None:
    if inputs.snapshot is None or not os.path.exists(inputs.snapshot):
        return None
    with open(inputs.snapshot, "rb") as handle:
        return handle.read().decode("utf-8", errors="replace")


def _judge(code: int, stdout: str, stderr: str, inputs, oracle) -> str | None:
    if code != 0:
        return f"exit code {code}"
    if stderr:
        return f"stderr: {stderr.splitlines()[0][:200]}"
    return oracle.check(stdout, _read_snapshot(inputs))


def invoke(inputs: gen.Inputs, oracle, scratch: str) -> Sample:
    """One CLI invocation in a child process, timed from spawn to exit."""
    if inputs.snapshot and os.path.exists(inputs.snapshot):
        os.remove(inputs.snapshot)
    out_path = os.path.join(scratch, "stdout")
    err_path = os.path.join(scratch, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "wrmap.cli", *inputs.argv],
            stdout=out, stderr=err, env=_child_env(), cwd=ROOT,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as out, open(err_path, "rb") as err:
        stdout = out.read().decode("utf-8", errors="replace")
        stderr = err.read().decode("utf-8", errors="replace")
    return Sample(
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,  # KiB on Linux
        _judge(proc.returncode, stdout, stderr, inputs, oracle),
    )


def invoke_in_process(inputs: gen.Inputs, oracle) -> Sample:
    """One call of `wrmap.cli.main`, as currently bound, with captured output."""
    import wrmap.cli

    if inputs.snapshot and os.path.exists(inputs.snapshot):
        os.remove(inputs.snapshot)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = wrmap.cli.main(inputs.argv)
        wall = time.perf_counter() - start
    return Sample(wall, error=_judge(code, out.getvalue(), err.getvalue(), inputs, oracle))


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples above it (nearest rank).

    Never below the 50th: with twenty samples or fewer no percentile above
    the median has ten beyond it, so the tail is the (lower) median.
    """
    n = len(values)
    p = max(50, 100 * (n - 10) // n)
    return p, sorted(values)[max(1, math.ceil(p * n / 100)) - 1]


def setup(workload: str, seed: int, scratch: str):
    """Generate inputs, build the oracle and run one untimed warm-up invocation."""
    start = time.perf_counter()
    inputs = gen.generate(workload, seed, tempfile.mkdtemp(dir=scratch))
    oracle = oracles.for_inputs(workload, inputs.data)
    warm = invoke(inputs, oracle, scratch)
    return time.perf_counter() - start, inputs, oracle, warm


def measure(inputs, oracle, seconds: float, scratch: str) -> list[Sample]:
    samples = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        samples.append(invoke(inputs, oracle, scratch))
    return samples


def end_to_end(samples: list[Sample], items: int, setup_times: list[float]):
    walls = [s.wall for s in samples]
    p, tail = tail_percentile(walls)
    metrics = {
        "cmd_p50_s": statistics.median(walls),
        "cmd_tail_s": tail,
        "cmd_cpu_p50_s": statistics.median(s.cpu for s in samples),
        "items_per_s": items * len(samples) / sum(walls),
        "peak_rss_mb": max(s.rss_mb for s in samples),
        "setup_s": statistics.median(setup_times),
    }
    notes = {"cmd_tail_s": f"(p{p} of {len(samples)} invocations)"}
    return metrics, notes


def _import_probe() -> float:
    code = "import time; t = time.perf_counter(); import wrmap.cli; print(time.perf_counter() - t)"
    result = subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=ROOT,
                            capture_output=True, text=True, check=True)
    return float(result.stdout)


def _scipy_import_probe() -> float:
    """Cumulative `scipy.optimize` import time under `-X importtime`, 0 if absent."""
    result = subprocess.run([sys.executable, "-X", "importtime", "-c", "import wrmap.cli"],
                            env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                            check=True)
    for line in result.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "scipy.optimize":
            return int(fields[1]) / 1e6
    return 0.0


def traced(inputs, oracle, seconds: float, spans_path: Path):
    """Per-layer metrics from in-process calls, alternating untraced and traced."""
    deadline = time.perf_counter() + seconds
    import_s = statistics.median(_import_probe() for _ in range(IMPORT_PROBES))
    scipy_s = statistics.median(_scipy_import_probe() for _ in range(IMPORT_PROBES))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    tracer = spans.Tracer()
    plain, samples = [], []
    while len(samples) < 3 or time.perf_counter() < deadline:
        plain.append(invoke_in_process(inputs, oracle))
        with tracer.installed():
            tracer.begin_invocation()
            samples.append(invoke_in_process(inputs, oracle))
    tracer.write(str(spans_path))

    self_times = tracer.self_times()
    per_call = []
    for own, counts in zip(self_times, tracer.counts):
        values = {}
        for name, unit in PER_LAYER.items():
            layer, _, kind = name.rpartition(".")
            if kind == "self_s":
                values[name] = own.get(layer, 0.0)
            elif unit == "count":
                values[name] = counts[name]
        calls = counts["matcher.lsa.calls"]
        values["matcher.assign.accept_ratio"] = (
            counts["matcher.assign.marks"] / calls if calls else 0.0
        )
        per_call.append(values)
    metrics = {
        name: (statistics.median_low if PER_LAYER[name] == "count" else statistics.median)(
            v[name] for v in per_call)
        for name in per_call[0]
    }
    metrics["cli.import_s"] = import_s
    metrics["cli.import_scipy_s"] = scipy_s
    metrics["trace.overhead_s"] = statistics.median(
        t.wall - u.wall for t, u in zip(samples, plain)
    )
    notes = {"trace.overhead_s": f"({len(samples)} traced and {len(plain)} untraced calls)"}
    return {name: metrics[name] for name in PER_LAYER}, notes, plain + samples


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; prints a readable report and returns the result object."""
    WORK.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=WORK, prefix=f"{workload}-")
    try:
        setups = [setup(workload, seed, scratch) for _ in range(1 if trace else SETUP_REPEATS)]
        _, inputs, oracle, _ = setups[-1]
        warm_errors = [warm.error for *_, warm in setups if warm.error]
        if trace:
            spans_path = WORK / f"spans-{workload}.jsonl"
            metrics, notes, samples = traced(inputs, oracle, seconds, spans_path)
            units = PER_LAYER
        else:
            samples = measure(inputs, oracle, seconds, scratch)
            metrics, notes = end_to_end(samples, inputs.items, [s[0] for s in setups])
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    errors = warm_errors + [s.error for s in samples if s.error]
    failed = sum(1 for s in samples if s.error)
    mode = "traced, in process" if trace else "closed loop, 1 client, child processes"
    print(f"== {workload} seed={seed} ({mode}): {len(samples)} invocations, "
          f"{inputs.items} items each")
    for name, value in metrics.items():
        print(f"{name:<36} {value:>14.6g} {units[name]:<6} {notes.get(name, '')}".rstrip())
    print(f"{'error_rate':<36} {failed / len(samples):>14.6g} ratio  "
          f"({failed} of {len(samples)} failed)")
    for reason in errors[:5]:
        print(f"error: {reason}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=48.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wrmap" / "cli.py").is_file():
        print(f"error: no wrmap sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run(workload, args.seed, args.seconds, trace)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
