"""Tests of the benchmark itself: generator, oracles and span accounting.

    python3 -m pytest -q perfbench

They run on shrunken workload shapes so the whole file takes seconds.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import oracle as oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

import wrmap.cli  # noqa: E402
import wrmap.matcher  # noqa: E402

SMALL = [
    (gen.FIT_ALL, {"resources": 3, "workloads": 2, "k": 8}),
    (gen.ALLOCATE, {"resources": 7, "workloads": 5}),
    (gen.REPLAY, {"adds": 60}),
]


@pytest.fixture
def small(monkeypatch):
    for table, sizes in SMALL:
        for key, value in sizes.items():
            monkeypatch.setitem(table, key, value)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _cli(inputs: gen.Inputs) -> tuple[str, str | None]:
    """stdout and snapshot of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert wrmap.cli.main(inputs.argv) == 0
    return out.getvalue(), run._read_snapshot(inputs)


def _setup(workload: str, seed: int, directory: Path):
    inputs = gen.generate(workload, seed, str(directory))
    return inputs, oracles.for_inputs(workload, inputs.data)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    for name in ("a", "b", "c"):
        (tmp_path / name).mkdir()
    first = gen.generate(workload, 7, str(tmp_path / "a"))
    second = gen.generate(workload, 7, str(tmp_path / "b"))
    gen.generate(workload, 8, str(tmp_path / "c"))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert first.items == second.items


def test_fit_all_oracle_flags_a_wrong_slope(tmp_path, small):
    inputs, oracle = _setup("fit_all", 1, tmp_path)
    stdout, _ = _cli(inputs)
    assert oracle.check(stdout, None) is None
    lines = stdout.split("\n")
    fields = lines[3].split(",")
    fields[3] = f"{float(fields[3]) * 1.0001:.6g}"
    lines[3] = ",".join(fields)
    assert "disagrees" in oracle.check("\n".join(lines), None)


def test_allocate_oracle_flags_swapped_marks(tmp_path, small):
    inputs, oracle = _setup("allocate", 1, tmp_path)
    stdout, snapshot = _cli(inputs)
    assert oracle.check(stdout, snapshot) is None
    assert oracle.check(stdout, snapshot) is None  # a repeat must match byte for byte

    resources, workloads = oracle.resources, oracle.workloads
    marks = sorted(oracles.parse_marks(stdout, resources, workloads))
    (i1, j1), (i2, j2) = marks[0], marks[1]
    swapped = frozenset(marks[2:] + [(i1, j2), (i2, j1)])
    table = wrmap.cli.render_assignment(
        wrmap.matcher.AssignmentMatrix(tuple(resources), tuple(workloads), swapped)
    )
    assert "not the optimum" in oracle.check(table, snapshot)
    assert "snapshot" in oracle.check(stdout, snapshot.replace(workloads[j1], workloads[j2]))


def test_replay_oracle_flags_a_wrong_report_line(tmp_path, small):
    inputs, oracle = _setup("replay", 1, tmp_path)
    stdout, snapshot = _cli(inputs)
    assert oracle.check(stdout, snapshot) is None
    lines = stdout.split("\n")
    lines[1] = lines[1].replace(" OK", " NotMapped", 1)
    assert "transcript" in oracle.check("\n".join(lines), snapshot)
    assert "snapshot" in oracle.check(stdout, snapshot.replace("}}", ',"zz":"wl000"}}'))


def test_span_self_times_sum_to_wall_time(tmp_path, small, monkeypatch):
    inputs, oracle = _setup("allocate", 2, tmp_path)
    solver_calls = []
    solver = wrmap.matcher.linear_sum_assignment

    def counted(*args, **kwargs):
        solver_calls.append(1)
        return solver(*args, **kwargs)

    monkeypatch.setattr(wrmap.matcher, "linear_sum_assignment", counted)
    original = wrmap.matcher.linear_sum_assignment
    tracer = spans.Tracer()
    with tracer.installed():
        tracer.begin_invocation()
        sample = run.invoke_in_process(inputs, oracle)
    assert sample.error is None
    assert wrmap.matcher.linear_sum_assignment is original
    own = tracer.self_times()[0]
    assert sum(own.values()) == pytest.approx(sample.wall, rel=0.05, abs=0.005)
    assert all(value >= 0.0 for value in own.values())
    counts = tracer.counts[0]
    assert counts["matcher.assign.calls"] == 1
    assert counts["matcher.assign.marks"] == 5
    assert counts["matcher.lsa.calls"] == len(solver_calls) >= 1
    assert counts["regression.fit.calls"] == 35


@pytest.mark.parametrize("n, p, rank", [(20, 50, 10), (22, 54, 12), (40, 75, 30)])
def test_tail_percentile_leaves_ten_samples_beyond(n, p, rank):
    values = [float(v) for v in range(1, n + 1)]
    assert run.tail_percentile(values) == (p, float(rank))
    assert n - rank >= 10


def test_tail_percentile_is_the_median_below_twenty_samples():
    assert run.tail_percentile([float(v) for v in range(1, 17)]) == (50, 8.0)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode != 0
    assert result.stdout == ""
