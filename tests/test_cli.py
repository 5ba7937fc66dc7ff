import contextlib
import errno
import io
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wrmap import trace_io
from wrmap.cli import MARK, main, render_assignment
from wrmap.matcher import AssignmentMatrix

DATA = Path(__file__).parent / "data"
OBSERVATIONS = str(DATA / "observations.csv")
REFERENCE7 = str(DATA / "reference7.csv")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_line_usage_error(code, err):
    assert code == 2
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def unwritable_paths(tmp_path):
    # A file under a missing directory, and a directory itself.
    return [tmp_path / "missing" / "state.json", tmp_path]


class TestFit:
    def test_single_pair_perfect_line(self, capsys):
        code, out, err = run(
            capsys, "fit", "--input", OBSERVATIONS, "--pair", "R1:W1"
        )
        assert code == 0
        assert err == ""
        assert out == (
            "resource,workload,mu0_hat,mu1_hat,ssr,r2,n\n"
            "R1,W1,0,1,0,1,3\n"
        )

    def test_single_pair_three_points(self, capsys):
        code, out, err = run(
            capsys, "fit", "--input", OBSERVATIONS, "--pair", "R1:W2"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1].startswith("R1,W2,0.333333,1.5,0.166667,0.964286,3")

    def test_constant_response_blank_r2(self, capsys):
        code, out, err = run(
            capsys, "fit", "--input", OBSERVATIONS, "--pair", "R2:W1"
        )
        assert code == 0
        assert out.splitlines()[1] == "R2,W1,5,0,0,,3"

    def test_all_is_lexicographic(self, capsys):
        code, out, err = run(capsys, "fit", "--input", OBSERVATIONS, "--all")
        assert code == 0
        pairs = [line.split(",")[:2] for line in out.splitlines()[1:]]
        assert pairs == sorted(pairs)
        assert len(pairs) == 4

    def test_precision_full(self, capsys):
        code, out, _ = run(
            capsys,
            "fit", "--input", OBSERVATIONS, "--pair", "R1:W2",
            "--precision", "full",
        )
        assert code == 0
        assert ",0.3333333333333335,1.5," in out.splitlines()[1]

    def test_unknown_pair(self, capsys):
        code, out, err = run(
            capsys, "fit", "--input", OBSERVATIONS, "--pair", "R9:W9"
        )
        assert code == 1
        assert out == ""
        assert "unknown pair" in err

    def test_singular_design(self, capsys, tmp_path):
        path = tmp_path / "singular.csv"
        path.write_text("resource,workload,w,r\nR1,W1,1,4\nR1,W1,1,6\n")
        code, out, err = run(capsys, "fit", "--input", str(path), "--pair", "R1:W1")
        assert code == 1
        assert "singular design for R1:W1" in err

    def test_offset_predictor(self, capsys, tmp_path):
        # (1,2), (2,3), (3,5) with w shifted by 1e6: spread 2, not singular.
        path = tmp_path / "offset.csv"
        path.write_text(
            "resource,workload,w,r\nR1,W1,1000001,2\nR1,W1,1000002,3\nR1,W1,1000003,5\n"
        )
        code, out, err = run(capsys, "fit", "--input", str(path), "--pair", "R1:W1")
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "R1,W1,-1.5e+06,1.5,0.166667,0.964286,3"

    @pytest.mark.parametrize("rows, reason", [
        ("1e200,1\nR1,W1,2e200,2\nR1,W1,3e200,3", "numeric overflow fitting R1:W1"),
        ("0,0\nR1,W1,1,1.2e154\nR1,W1,2,2.4e154", "numeric overflow in R-squared for R1:W1"),
    ])
    def test_numeric_overflow(self, capsys, tmp_path, rows, reason):
        path = tmp_path / "huge.csv"
        path.write_text(f"resource,workload,w,r\nR1,W1,{rows}\n")
        code, out, err = run(capsys, "fit", "--input", str(path), "--all")
        assert (code, out, err) == (1, "", f"error: {reason}\n")

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "fit", "--input", "no-such.csv", "--all")
        assert code == 2
        assert err != ""

    def test_flag_misuse(self, capsys):
        assert run(capsys, "fit", "--input", OBSERVATIONS)[0] == 2

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("resource,workload,w,r\nR1,W1,abc,2\n")
        code, _, err = run(capsys, "fit", "--input", str(path), "--all")
        assert code == 2
        assert "line 2" in err

    # Outside the number grammar, though float() reads most of them. The CR
    # ends a CRLF line, which the CLI passes to the parser untranslated.
    @pytest.mark.parametrize(
        "number", ["1_0", " 2 ", "nan", "inf", "Infinity", "0x10", "١", "3\r"]
    )
    def test_number_outside_grammar(self, capsys, tmp_path, number):
        path = tmp_path / "bad.csv"
        path.write_bytes(
            f"resource,workload,w,r\nR1,W1,0,0\nR1,W1,1,{number}\nR1,W1,2,2\n".encode()
        )
        code, out, err = run(capsys, "fit", "--input", str(path), "--all")
        assert (code, out, err) == (2, "", "error: line 3: invalid number\n")

    def test_invalid_utf8(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"resource,workload,w,r\nR1,W1,0,0\nR1,W\xff,1,1\n")
        code, out, err = run(capsys, "fit", "--input", str(path), "--all")
        assert_one_line_usage_error(code, err)
        assert err.startswith("error: line 3: invalid UTF-8")
        assert out == ""


class TestResiduals:
    def test_perfect_fit(self, capsys):
        code, out, _ = run(
            capsys, "residuals", "--input", OBSERVATIONS, "--pair", "R1:W1"
        )
        assert code == 0
        assert out == (
            "a,w,r,fitted,residual\n"
            "1,1,1,1,0\n"
            "2,2,2,2,0\n"
            "3,3,3,3,0\n"
        )

    def test_three_points(self, capsys):
        code, out, _ = run(
            capsys, "residuals", "--input", OBSERVATIONS, "--pair", "R1:W2"
        )
        assert code == 0
        assert out == (
            "a,w,r,fitted,residual\n"
            "1,1,2,1.83333,0.166667\n"
            "2,2,3,3.33333,-0.333333\n"
            "3,3,5,4.83333,0.166667\n"
        )

    def test_unknown_pair(self, capsys):
        code, _, err = run(
            capsys, "residuals", "--input", OBSERVATIONS, "--pair", "R9:W9"
        )
        assert code == 1
        assert "unknown pair" in err


# Names are tokens, which may contain ':'; fit --all lists a pair R:1,W1.
COLON_ROWS = "R:1,W1,1,2\nR:1,W1,2,3\nR:1,W1,3,5\n"


def observations(tmp_path, rows, name="obs.csv"):
    path = tmp_path / name
    path.write_text("resource,workload,w,r\n" + rows)
    return str(path)


@pytest.mark.parametrize("command", ["fit", "residuals"])
class TestPairContainingColon:
    def test_split_naming_an_observed_pair(self, capsys, tmp_path, command):
        path = observations(tmp_path, COLON_ROWS)
        code, out, err = run(capsys, command, "--input", path, "--pair", "R:1:W1")
        assert (code, err) == (0, "")
        if command == "fit":
            assert out == run(capsys, "fit", "--input", path, "--all")[1]
            assert out.splitlines()[1].startswith("R:1,W1,")
        else:
            r1 = observations(tmp_path, COLON_ROWS.replace("R:1", "R1"), "r1.csv")
            assert out == run(capsys, command, "--input", r1, "--pair", "R1:W1")[1]

    @pytest.mark.parametrize("text", ["R1W1", "R1:", ":W1", ":"])
    def test_no_split_into_two_names(self, capsys, tmp_path, command, text):
        path = observations(tmp_path, COLON_ROWS)
        code, out, err = run(capsys, command, "--input", path, "--pair", text)
        assert (code, out) == (2, "")
        assert err == f"error: --pair must look like RESOURCE:WORKLOAD, got {text!r}\n"

    def test_two_splits_naming_observed_pairs(self, capsys, tmp_path, command):
        path = observations(tmp_path, COLON_ROWS + COLON_ROWS.replace("R:1,", "R,1:"))
        code, out, err = run(capsys, command, "--input", path, "--pair", "R:1:W1")
        assert out == ""
        assert_one_line_usage_error(code, err)
        assert "ambiguous" in err and "R,1:W1" in err and "R:1,W1" in err

    @pytest.mark.parametrize("text", ["R:9:W1", "R:1:W9", "R::W1"])
    def test_no_split_naming_an_observed_pair(self, capsys, tmp_path, command, text):
        path = observations(tmp_path, COLON_ROWS)
        code, out, err = run(capsys, command, "--input", path, "--pair", text)
        assert (code, out, err) == (1, "", f"error: unknown pair {text}\n")


class TestAllocate:
    def test_reference_table(self, capsys):
        code, out, err = run(
            capsys,
            "allocate", "--input", REFERENCE7, "--at", "0.5",
            "--resources", ",".join(f"R{i}" for i in range(1, 8)),
            "--workloads", ",".join(f"W{j}" for j in range(1, 8)),
        )
        assert code == 0
        assert out == (DATA / "reference7.table").read_text(encoding="utf-8")

    def test_single_cell(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("resource,workload,w,r\nR1,W1,0,2\nR1,W1,1,3\n")
        code, out, _ = run(
            capsys,
            "allocate", "--input", str(path), "--at", "1",
            "--resources", "R1", "--workloads", "W1",
        )
        assert code == 0
        assert out == "    W1\nR1  ✓\n"

    def test_snapshot_written(self, capsys, tmp_path):
        snapshot = tmp_path / "state.json"
        code, _, _ = run(
            capsys,
            "allocate", "--input", REFERENCE7, "--at", "0.5",
            "--resources", ",".join(f"R{i}" for i in range(1, 8)),
            "--workloads", ",".join(f"W{j}" for j in range(1, 8)),
            "--snapshot", str(snapshot),
        )
        assert code == 0
        state = trace_io.read_state(snapshot.read_text(encoding="utf-8"))
        assert state.allocation["R4"] == "W1"
        assert state.allocation["R1"] == "W2"
        assert len(state) == 7

    @pytest.mark.parametrize("at", ["nan", "inf", "-inf"])
    def test_non_finite_demand(self, capsys, at):
        code, out, err = run(
            capsys,
            "allocate", "--input", REFERENCE7, f"--at={at}",
            "--resources", "R1", "--workloads", "W1",
        )
        assert out == ""
        assert_one_line_usage_error(code, err)

    # float() reads these, but they are outside the number grammar of the
    # observations CSV, which `--at` follows.
    @pytest.mark.parametrize("at", ["1_0", " 5 ", "١"])
    def test_demand_outside_number_grammar(self, capsys, at):
        code, out, err = run(
            capsys,
            "allocate", "--input", REFERENCE7, f"--at={at}",
            "--resources", "R1", "--workloads", "W1",
        )
        assert out == ""
        assert_one_line_usage_error(code, err)

    def test_unwritable_snapshot(self, capsys, tmp_path):
        for path in unwritable_paths(tmp_path):
            code, out, err = run(
                capsys,
                "allocate", "--input", REFERENCE7, "--at", "0.5",
                "--resources", "R1", "--workloads", "W1",
                "--snapshot", str(path),
            )
            assert out == ""
            assert_one_line_usage_error(code, err)

    @pytest.mark.parametrize(
        "resources, workloads",
        [("R1,R2,R1", "W1"), ("R1", "W1,W1")],
        ids=["resources", "workloads"],
    )
    def test_duplicate_names(self, capsys, resources, workloads):
        code, out, err = run(
            capsys,
            "allocate", "--input", OBSERVATIONS, "--at", "1",
            "--resources", resources, "--workloads", workloads,
        )
        assert out == ""
        assert_one_line_usage_error(code, err)
        assert "more than once" in err

    def test_empty_name_list(self, capsys):
        code, out, err = run(
            capsys,
            "allocate", "--input", OBSERVATIONS, "--at", "1",
            "--resources", ",", "--workloads", "W1",
        )
        assert out == ""
        assert_one_line_usage_error(code, err)
        assert err == "error: --resources must list at least one name\n"

    def test_overflowing_cost(self, capsys, tmp_path):
        path = tmp_path / "steep.csv"
        path.write_text("resource,workload,w,r\nR1,W1,1,10\nR1,W1,2,20\nR1,W1,3,30\n")
        code, out, err = run(
            capsys,
            "allocate", "--input", str(path), "--at", "1e308",
            "--resources", "R1", "--workloads", "W1",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "R1:W1" in err

    def test_overflowing_fit(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("resource,workload,w,r\nR1,W1,1e200,1\nR1,W1,2e200,2\nR1,W1,3e200,3\n")
        code, out, err = run(
            capsys,
            "allocate", "--input", str(path), "--at", "1",
            "--resources", "R1", "--workloads", "W1",
        )
        assert (code, out, err) == (1, "", "error: numeric overflow fitting R1:W1\n")

    def test_missing_pair(self, capsys):
        code, _, err = run(
            capsys,
            "allocate", "--input", OBSERVATIONS, "--at", "1",
            "--resources", "R1,R2,R3", "--workloads", "W1,W2",
        )
        assert code == 1
        assert "no observations" in err


class TestReplay:
    SCRIPT = str(DATA / "example_build.replay")

    def test_golden_transcript(self, capsys):
        code, out, err = run(capsys, "replay", "--script", self.SCRIPT)
        assert code == 0
        assert err == ""
        assert out == (DATA / "example_build.out").read_text(encoding="utf-8")

    def test_snapshot_out(self, capsys, tmp_path):
        snapshot = tmp_path / "state.json"
        code, _, _ = run(
            capsys,
            "replay", "--script", self.SCRIPT, "--snapshot-out", str(snapshot),
        )
        assert code == 0
        assert snapshot.read_bytes() == (DATA / "example_build.json").read_bytes()

    def test_unwritable_snapshot_out(self, capsys, tmp_path):
        for path in unwritable_paths(tmp_path):
            code, out, err = run(
                capsys,
                "replay", "--script", self.SCRIPT, "--snapshot-out", str(path),
            )
            assert out == ""
            assert_one_line_usage_error(code, err)

    def test_duplicate_add_expected(self, capsys, tmp_path):
        script = tmp_path / "dup.replay"
        script.write_text(
            "INIT\nADD Res1 W1\nADD Res1 W2 EXPECT AlreadyMapped\n"
        )
        code, out, _ = run(capsys, "replay", "--script", str(script))
        assert code == 0
        assert out.splitlines()[-1] == "3 AlreadyMapped"

    def test_expectation_failure(self, capsys, tmp_path):
        script = tmp_path / "fail.replay"
        script.write_text("INIT\nADD Res1 W1\nADD Res1 W2 EXPECT OK\nFIND Res1\n")
        code, out, err = run(capsys, "replay", "--script", str(script))
        assert code == 1
        assert "expectation failed at line 3" in err
        assert out.splitlines() == ["1 OK", "2 OK", "3 AlreadyMapped"]

    def test_comments_and_blank_lines_only(self, capsys, tmp_path):
        script = tmp_path / "empty.replay"
        script.write_text("# nothing to run\n\n   \n# still nothing\n")
        assert run(capsys, "replay", "--script", str(script)) == (0, "", "")

    # Script lines, numbered from 1, and the transcript they give.
    MIXED = [
        "# header", "INIT", "ADD R1 W1", "", "ADD R2 W1", "MAP W1",
        "# comment", "FIND R9", "ADD R1 W2", "FIND R1",
    ]
    MIXED_OUT = {
        2: "2 OK", 3: "3 OK", 5: "5 OK", 6: "6 OK R1,R2",
        8: "8 NotMapped", 9: "9 AlreadyMapped", 10: "10 OK W1",
    }

    @pytest.mark.parametrize("k", [3, 6, 8, 9, 10])
    def test_expectation_failure_stops_at_its_line(self, capsys, tmp_path, k):
        actual = self.MIXED_OUT[k].split()[1]
        expected = "NotMapped" if actual == "OK" else "OK"
        lines = list(self.MIXED)
        lines[k - 1] += f" EXPECT {expected}"
        script = tmp_path / "stop.replay"
        script.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "replay", "--script", str(script))
        assert code == 1
        assert out == "".join(
            f"{text}\n" for line, text in self.MIXED_OUT.items() if line <= k
        )
        assert err == (
            f"error: expectation failed at line {k}: expected {expected}, got {actual}\n"
        )

    def test_parse_error(self, capsys, tmp_path):
        script = tmp_path / "bad.replay"
        script.write_text("INIT\nDROP Res1\n")
        code, _, err = run(capsys, "replay", "--script", str(script))
        assert code == 2
        assert "line 2" in err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["allocate", "--input", REFERENCE7, "--at", "abc",
         "--resources", "R1", "--workloads", "W1"],
        ["fit", "--input", OBSERVATIONS, "--pair", "R1:W1", "--all"],
        ["replay", "--script", "x.replay", "--snapshot"],
    ],
)
def test_bad_command_line_is_one_line_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert out == ""
    assert_one_line_usage_error(code, err)


def test_help_exits_0(capsys):
    code, out, err = run(capsys, "allocate", "--help")
    assert code == 0
    assert out.startswith("usage: wrmap allocate")
    assert err == ""


def test_transcripts_deterministic(capsys):
    first = run(capsys, "fit", "--input", OBSERVATIONS, "--all")
    second = run(capsys, "fit", "--input", OBSERVATIONS, "--all")
    assert first == second
    argv = [
        "allocate", "--input", REFERENCE7, "--at", "0.5",
        "--resources", ",".join(f"R{i}" for i in range(1, 8)),
        "--workloads", ",".join(f"W{j}" for j in range(1, 8)),
    ]
    assert run(capsys, *argv) == run(capsys, *argv)


def reference_render_assignment(m):
    """The check-mark table built cell by cell, each cell padded with an
    f-string: the oracle for `render_assignment`."""
    label_width = max((len(r) for r in m.resources), default=0)
    marked = {i: j for i, j in m.marks}
    lines = [(" " * label_width + "  " + "  ".join(m.workloads)).rstrip()]
    for i, resource in enumerate(m.resources):
        cells = []
        for j, workload in enumerate(m.workloads):
            cell = MARK if marked.get(i) == j else ""
            cells.append(f"{cell:<{len(workload)}}")
        lines.append((f"{resource:<{label_width}}" + "  " + "  ".join(cells)).rstrip())
    return "\n".join(lines) + "\n"


# Names from empty (narrower than the mark) to wider, ASCII or not.
render_names = st.lists(
    st.one_of(st.sampled_from(["", "R", "W1", "wé", "资源", "Cloudworkload3"]),
              st.text(st.characters(blacklist_characters=",\n"), max_size=5)),
    max_size=7,
)


@st.composite
def assignment_matrices(draw):
    resources = draw(render_names)
    workloads = draw(render_names)
    columns = draw(st.permutations(range(len(workloads))))
    rows = draw(st.permutations(range(len(resources))))
    k = draw(st.integers(0, min(len(rows), len(columns))))
    return AssignmentMatrix(
        tuple(resources), tuple(workloads), frozenset(zip(rows[:k], columns[:k]))
    )


@given(assignment_matrices())
def test_render_assignment_matches_cell_by_cell_reference(m):
    assert render_assignment(m) == reference_render_assignment(m)


def test_render_assignment_edge_shapes():
    for m in [
        AssignmentMatrix((), (), frozenset()),
        AssignmentMatrix(("R1",), (), frozenset()),
        AssignmentMatrix((), ("W1",), frozenset()),
        AssignmentMatrix(("R1", "资源"), ("", "W"), frozenset({(1, 0)})),
        AssignmentMatrix(("a", "bb", "ccc"), ("Wide-workload", "w"), frozenset()),
    ]:
        assert render_assignment(m) == reference_render_assignment(m)


def _cli(argv, unbuffered=False, extra_env=(), **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(Path(__file__).parent.parent / "src"), env.get("PYTHONPATH")] if p
    )
    env.pop("PYTHONUNBUFFERED", None)
    env.pop("PYTHONIOENCODING", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env.update(extra_env)
    return subprocess.Popen([sys.executable, "-m", "wrmap.cli", *argv], env=env, **kwargs)


def _subcommand_argv(name, snapshot=None):
    """A short run of the subcommand, writing its snapshot if one is given."""
    argv = {
        "help": ["allocate", "--help"],
        "fit": ["fit", "--input", OBSERVATIONS, "--all"],
        "residuals": ["residuals", "--input", OBSERVATIONS, "--pair", "R1:W1"],
        "allocate": ["allocate", "--input", REFERENCE7, "--at", "0.5",
                     "--resources", "R1,R2,R3", "--workloads", "W1,W2,W3"],
        "replay": ["replay", "--script", str(DATA / "example_build.replay")],
    }[name]
    flag = {"allocate": "--snapshot", "replay": "--snapshot-out"}.get(name)
    if snapshot is not None and flag is not None:
        argv += [flag, snapshot]
    return argv


SUBCOMMANDS = ["fit", "residuals", "allocate", "replay", "help"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_unwritable_stdout_is_one_line_error(tmp_path, name, unbuffered):
    snapshot = tmp_path / "state.json"
    with open("/dev/full", "w") as full:
        proc = _cli(_subcommand_argv(name, str(snapshot)), unbuffered, stdout=full,
                    stderr=subprocess.PIPE, text=True)
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    # One line: no traceback, no "Exception ignored" from the flush at exit.
    reason = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert err == f"error: cannot write stdout: {reason}\n"
    # The snapshot is written before stdout, so it survives the failure.
    assert snapshot.exists() == (name in ("allocate", "replay"))


def _limit_file_size():
    """In the child: files it writes may grow to 20 bytes, and a write
    past that fails with EFBIG instead of killing it with SIGXFSZ."""
    import resource
    import signal

    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (20, 20))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs preexec_fn")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_short_write_of_stdout_is_an_error(tmp_path, name, unbuffered):
    # Every output is longer than 20 bytes: the first write takes 20 and
    # the next one fails. Unbuffered, Python's text layer would drop the
    # rest without a word.
    out_path = tmp_path / "out"
    with open(out_path, "w") as out:
        proc = _cli(_subcommand_argv(name), unbuffered, stdout=out, stderr=subprocess.PIPE, text=True,
                    preexec_fn=_limit_file_size)
        _, err = proc.communicate(timeout=120)
    assert out_path.stat().st_size == 20
    assert proc.returncode == 2
    reason = f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"
    assert err == f"error: cannot write stdout: {reason}\n"


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_unbuffered_stdout_is_the_buffered_bytes(name):
    # Either way `_emit` writes the bytes to the raw layer itself: past
    # `sys.stdout.buffer` when buffered, to that layer when unbuffered.
    outputs = []
    for unbuffered in (False, True):
        proc = _cli(_subcommand_argv(name), unbuffered, stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE)
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, b"")
        outputs.append(out)
    assert outputs[0] == outputs[1] != b""


def _argv_naming_a_non_ascii_resource(name, tmp_path):
    if name == "fit":
        path = tmp_path / "obs.csv"
        path.write_bytes("resource,workload,w,r\n资源,W1,1,2\n资源,W1,2,3\n".encode())
        return ["fit", "--input", str(path), "--all"]
    path = tmp_path / "script.replay"
    path.write_bytes("INIT\nADD 资源 W1\nFIND 资源\nMAP W1\n".encode())
    return ["replay", "--script", str(path)]


@pytest.mark.parametrize("name", SUBCOMMANDS + ["fit-non-ascii", "replay-non-ascii"])
def test_stdout_is_utf8_whatever_the_locale(tmp_path, name):
    # Encoded by the locale's codec, the allocation's marks and the
    # resource name would raise UnicodeEncodeError.
    if name.endswith("-non-ascii"):
        argv = _argv_naming_a_non_ascii_resource(name.split("-")[0], tmp_path)
    else:
        argv = _subcommand_argv(name)

    def stdout(encoding, unbuffered=False):
        proc = _cli(argv, unbuffered, {"PYTHONIOENCODING": encoding},
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, b"")
        return out

    expected = stdout("utf-8")
    for encoding in ("ascii", "latin-1"):
        for unbuffered in (False, True):
            assert stdout(encoding, unbuffered) == expected


@pytest.mark.skipif(os.name != "posix", reason="EPIPE is the POSIX error")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_broken_pipe_is_one_line_error(name, unbuffered):
    # Python ignores SIGPIPE, so the write fails with EPIPE instead of
    # killing the process.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cli(_subcommand_argv(name), unbuffered, stdout=write_end,
                    stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    reason = f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}"
    assert err == f"error: cannot write stdout: {reason}\n"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs preexec_fn")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_closed_stdout_is_one_line_error(name, unbuffered):
    # Started with fd 1 closed, Python sets sys.stdout to None.
    proc = _cli(_subcommand_argv(name), unbuffered, stderr=subprocess.PIPE,
                preexec_fn=lambda: os.close(1))
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err == b"error: cannot write stdout: the descriptor is closed\n"


# A usage error and a domain error, each with its exit code.
ERROR_ARGV = {
    "missing-input": (["fit", "--input", str(DATA / "missing.csv"), "--all"], 2),
    "unknown-pair": (["fit", "--input", OBSERVATIONS, "--pair", "资源:W9"], 1),
}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs preexec_fn")
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("stderr", ["full", "closed"])
@pytest.mark.parametrize("case", ERROR_ARGV)
def test_unwritable_stderr_keeps_the_exit_code(case, stderr, unbuffered):
    # Nothing is left to report a failed stderr write on, so it is dropped;
    # the error line must not move to stdout either.
    argv, code = ERROR_ARGV[case]
    with open("/dev/full", "w") as full:
        if stderr == "full":
            proc = _cli(argv, unbuffered, stdout=subprocess.PIPE, stderr=full)
        else:
            proc = _cli(argv, unbuffered, stdout=subprocess.PIPE,
                        preexec_fn=lambda: os.close(2))
        out, _ = proc.communicate(timeout=120)
    assert (proc.returncode, out) == (code, b"")


def test_stderr_is_utf8_whatever_the_locale():
    # Python's own stderr would write the name as \u8d44\u6e90 there.
    argv, code = ERROR_ARGV["unknown-pair"]

    def stderr(encoding, unbuffered=False):
        proc = _cli(argv, unbuffered, {"PYTHONIOENCODING": encoding},
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, out) == (code, b"")
        return err

    expected = stderr("utf-8")
    assert expected == "error: unknown pair 资源:W9\n".encode()
    for encoding in ("ascii", "latin-1"):
        for unbuffered in (False, True):
            assert stderr(encoding, unbuffered) == expected


@pytest.mark.skipif(shutil.which("head") is None, reason="no head(1)")
def test_replay_into_head_exits_0(tmp_path):
    wrmap = _cli(_subcommand_argv("replay", str(tmp_path / "state.json")),
                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = subprocess.Popen(["head", "-1"], stdin=wrmap.stdout, stdout=subprocess.PIPE)
    wrmap.stdout.close()
    out, _ = head.communicate(timeout=120)
    err = wrmap.stderr.read()
    wrmap.stderr.close()
    assert wrmap.wait(timeout=120) == 0
    assert err == b""
    expected = (DATA / "example_build.out").read_bytes()
    assert out == expected[: expected.index(b"\n") + 1]


# The contract fuzzer: `main` in process, on command lines drawn from the
# grammar with bad values mixed in, reading damaged copies of tests/data.
SAMPLE_INPUTS = ["observations.csv", "reference7.csv", "example_build.replay"]
FUZZ_OPTIONS = {
    "fit": ["--input", "--pair", "--precision"],  # --pair or else --all
    "residuals": ["--input", "--pair", "--precision"],
    "allocate": ["--input", "--at", "--resources", "--workloads", "--snapshot"],
    "replay": ["--script", "--snapshot-out"],
    "bogus": [],
}
# A command mostly reads its own kind of file, but may read any.
FUZZ_SAMPLES = {"replay": ["example_build.replay"], "allocate": ["reference7.csv"]}
HUGE_NUMBERS = [b"1e308", b"-1e308", b"1e200", b"1e-400", b"1e999"]


@st.composite
def damaged_files(draw, command):
    own = FUZZ_SAMPLES.get(command, ["observations.csv", "reference7.csv"])
    data = (DATA / draw(st.sampled_from(own * 4 + SAMPLE_INPUTS))).read_bytes()
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(
            ["flip", "crlf", "bom", "nul", "truncate", "repeat", "huge", "huge", "empty"]))
        at = draw(st.integers(0, len(data)))
        if kind == "flip":
            data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
        elif kind == "crlf":
            data = data.replace(b"\n", b"\r\n")
        elif kind == "bom":
            data = b"\xef\xbb\xbf" + data
        elif kind == "nul":
            data = data[:at] + b"\0" + data[at:]
        elif kind == "truncate":
            data = data[:at]
        elif kind == "repeat":
            line = draw(st.sampled_from(data.splitlines(keepends=True) or [b""]))
            data = data[:at] + line * draw(st.integers(1, 3)) + data[at:]
        elif kind == "huge":
            numbers = list(re.finditer(rb"(?<=,)[0-9.]+", data))
            if numbers:
                m = draw(st.sampled_from(numbers))
                data = data[:m.start()] + draw(st.sampled_from(HUGE_NUMBERS)) + data[m.end():]
        else:
            data = b""
    return data


fuzz_names = st.sampled_from(["R1", "W1", "Res2", "Cloudworkload2", "R:1", "资源", "",
                              ":", "R1:W1"])


def fuzz_list(names):
    """Names from tests/data, or any drawn names; comma-separated."""
    return st.one_of(st.lists(st.sampled_from(names), min_size=1, max_size=4),
                     st.lists(fuzz_names, max_size=4)).map(",".join)


fuzz_values = {
    "--pair": st.one_of(st.sampled_from(["R1:W1", "R1:W2", "R2:W1", "R2:W2", "R7:W7"]),
                        st.lists(fuzz_names, min_size=1, max_size=3).map(":".join),
                        st.text(max_size=6)),
    "--precision": st.sampled_from(["short", "full"] * 3 + ["long", ""]),
    "--at": st.sampled_from(["0.5", "1", "-2", ".5e1", "1e308"] * 3
                            + ["1e999", "nan", "-inf", "1_0", " 5 ", "١", "", "0x10", "R1"]),
    "--resources": fuzz_list(["R1", "R2", "R3", "R7"]),
    "--workloads": fuzz_list(["W1", "W2", "W3", "W7"]),
}


@st.composite
def command_lines(draw, command, inputs, outputs):
    """argv for the command: its flags in any order, one of them dropped 1
    time in 4, then 1 time in 4 a stray token."""
    flags = draw(st.permutations(FUZZ_OPTIONS[command]))
    if flags and draw(st.sampled_from([False] * 3 + [True])):
        flags.remove(draw(st.sampled_from(flags)))
    argv = [command]
    for flag in flags:
        if flag in ("--input", "--script"):
            argv += [flag, draw(st.sampled_from(inputs))]
        elif flag in ("--snapshot", "--snapshot-out"):
            argv += [flag, draw(st.sampled_from(outputs))]
        elif command == "fit" and flag == "--pair" and draw(st.booleans()):
            argv.append("--all")
        else:
            argv += [flag, draw(fuzz_values[flag])]
    return argv + draw(st.sampled_from([[]] * 12 + [["--help"], ["--bogus"], ["extra"],
                                                     ["--all"]]))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_contract_on_damaged_inputs(tmp_path, data):
    command = data.draw(st.sampled_from(["fit", "residuals", "allocate", "replay"] * 3
                                        + ["bogus"]))
    damaged = tmp_path / "input"
    damaged.write_bytes(data.draw(damaged_files(command)))
    inputs = [str(damaged)] * 6 + [str(tmp_path / "missing.csv"), str(tmp_path)]
    outputs = [str(tmp_path / "out.json")] * 6 + [str(tmp_path / "missing" / "out.json"),
                                                  str(tmp_path)]
    argv = data.draw(command_lines(command, inputs, outputs))
    # A text layer that cannot encode the marks: stdout is bytes all the same.
    out = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out.buffer.getvalue().decode("utf-8")  # raises unless the bytes are UTF-8
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
