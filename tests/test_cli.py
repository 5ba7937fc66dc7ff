import contextlib
import errno
import io
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import NamedTuple, Optional, Union

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wrmap.cli import MARK, main, render_assignment
from wrmap.matcher import AssignmentMatrix

DATA = Path(__file__).parent / "data"
OBSERVATIONS = str(DATA / "observations.csv")
REFERENCE7 = str(DATA / "reference7.csv")


class Row(NamedTuple):
    """A command line, the file it may read as `input`, and its outcome:
    exit code, stdout, stderr, and the bytes it writes to `state.json`
    (None for no file). A pattern stands for any text it matches in full."""

    argv: list
    code: int
    out: Union[str, re.Pattern] = ""
    err: Union[str, re.Pattern] = ""
    input: Union[str, bytes, None] = None
    snapshot: Optional[bytes] = None


def check(capsys, monkeypatch, tmp_path, row):
    """Run the row's command line with `main`, in tmp_path, and compare
    the whole outcome with the row's."""
    monkeypatch.chdir(tmp_path)
    if row.input is not None:
        Path("input").write_bytes(row.input.encode() if isinstance(row.input, str) else row.input)
    code = main(row.argv)
    out, err = capsys.readouterr()
    snapshot = Path("state.json").read_bytes() if Path("state.json").exists() else None
    # A text that its pattern matches compares as the pattern.
    texts = [want if isinstance(want, re.Pattern) and want.fullmatch(text) else text
             for text, want in [(out, row.out), (err, row.err)]]
    assert (code, *texts, snapshot) == (row.code, row.out, row.err, row.snapshot)


def usage(prefix):
    """A one-line error from argparse, pinned up to prefix: its wording
    differs between Python versions."""
    return re.compile(re.escape(f"error: {prefix}") + "[^\n]*\n")


def cmd(command, *flags, input=OBSERVATIONS):
    """The command line of fit, residuals or allocate reading input."""
    return [command, "--input", input, *flags]


def csv(rows):
    return "resource,workload,w,r\n" + rows


ENOENT = f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}"
EISDIR = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}"
FIT = "resource,workload,mu0_hat,mu1_hat,ssr,r2,n\n"
THREE_POINTS = "0.333333,1.5,0.166667,0.964286,3\n"  # the fit of (1,2), (2,3), (3,5)
RESIDUALS = ("a,w,r,fitted,residual\n"
             "1,1,2,1.83333,0.166667\n2,2,3,3.33333,-0.333333\n3,3,5,4.83333,0.166667\n")
ONE = ["--resources", "R1", "--workloads", "W1"]
SEVEN = ["--resources", "R1,R2,R3,R4,R5,R6,R7", "--workloads", "W1,W2,W3,W4,W5,W6,W7"]
TABLE7 = (DATA / "reference7.table").read_text(encoding="utf-8")
EXAMPLE_REPLAY = ["replay", "--script", str(DATA / "example_build.replay")]
TRANSCRIPT = (DATA / "example_build.out").read_text(encoding="utf-8")
REPLAY_INPUT = ["replay", "--script", "input"]
# (1,1), (2,2), (3,3) with w scaled by 2^100 and r by 2^1000: the slope is
# 2^900, the SSR 0, but sum((w - w_bar) * (r - r_bar)) and the SST are
# not finite unscaled.
HUGE_RESPONSE = "\nR1,W1,".join(f"{k * 2.0**100!r},{k * 2.0**1000!r}" for k in (1, 2, 3))
# Names are tokens, which may contain ':'; fit --all lists a pair R:1,W1.
COLON_ROWS = "R:1,W1,1,2\nR:1,W1,2,3\nR:1,W1,3,5\n"
# Script lines, numbered from 1, and the transcript they give.
MIXED = ["# header", "INIT", "ADD R1 W1", "", "ADD R2 W1", "MAP W1",
         "# comment", "FIND R9", "ADD R1 W2", "FIND R1"]
MIXED_OUT = {2: "2 OK", 3: "3 OK", 5: "5 OK", 6: "6 OK R1,R2",
             8: "8 NotMapped", 9: "9 AlreadyMapped", 10: "10 OK W1"}


def stop_at(k):
    """MIXED with an EXPECT at line k that fails: the transcript stops there."""
    actual = MIXED_OUT[k].split()[1]
    expected = "NotMapped" if actual == "OK" else "OK"
    return Row(REPLAY_INPUT, 1, "".join(f"{text}\n" for n, text in MIXED_OUT.items() if n <= k),
               f"error: expectation failed at line {k}: expected {expected}, got {actual}\n",
               "".join(f"{line} EXPECT {expected}\n" if n == k else f"{line}\n"
                       for n, line in enumerate(MIXED, 1)))


# The in-process CLI tests, keyed by test ID: "Class::test[id]" is test
# `test` of class `Class`, with that id. The IDs are those of the
# hand-written tests the table replaced.
CASES = {
    "TestFit::test_single_pair_perfect_line":
        Row(cmd("fit", "--pair", "R1:W1"), 0, FIT + "R1,W1,0,1,0,1,3\n"),
    "TestFit::test_single_pair_three_points":
        Row(cmd("fit", "--pair", "R1:W2"), 0, FIT + "R1,W2," + THREE_POINTS),
    "TestFit::test_constant_response_blank_r2":
        Row(cmd("fit", "--pair", "R2:W1"), 0, FIT + "R2,W1,5,0,0,,3\n"),
    "TestFit::test_all_is_lexicographic":
        Row(cmd("fit", "--all"), 0, f"{FIT}R1,W1,0,1,0,1,3\nR1,W2,{THREE_POINTS}"
                                    "R2,W1,5,0,0,,3\nR2,W2,1,2,0,1,3\n"),
    "TestFit::test_precision_full":
        Row(cmd("fit", "--pair", "R1:W2", "--precision", "full"), 0,
            FIT + "R1,W2,0.3333333333333335,1.5,0.16666666666666652,0.9642857142857143,3\n"),
    "TestFit::test_unknown_pair":
        Row(cmd("fit", "--pair", "R9:W9"), 1, err="error: unknown pair R9:W9\n"),
    "TestFit::test_singular_design":
        Row(cmd("fit", "--pair", "R1:W1", input="input"), 1,
            err="error: singular design for R1:W1\n", input=csv("R1,W1,1,4\nR1,W1,1,6\n")),
    # (1,2), (2,3), (3,5) with w shifted by 1e6: spread 2, not singular.
    "TestFit::test_offset_predictor":
        Row(cmd("fit", "--pair", "R1:W1", input="input"), 0,
            FIT + "R1,W1,-1.5e+06,1.5,0.166667,0.964286,3\n",
            input=csv("R1,W1,1000001,2\nR1,W1,1000002,3\nR1,W1,1000003,5\n")),
    # (1,2), (2,3), (3,5) with w scaled by 2^k: test_precision_full's fit, its slope over 2^k.
    **{f"TestFit::test_predictor_scale[2^{k}]":
       Row(cmd("fit", "--pair", "R1:W1", "--precision", "full", input="input"), 0,
           f"{FIT}R1,W1,0.3333333333333335,{1.5 / 2.0**k!r},0.16666666666666652,0.9642857142857143,3\n",
           input=csv("".join(f"R1,W1,{w * 2.0**k!r},{r}\n" for w, r in [(1, 2), (2, 3), (3, 5)])))
       for k in (600, -600)},
    # The first row's SSR overflows, the second row's line.
    **{f"TestFit::test_numeric_overflow[{rows}-{reason}]":
       Row(cmd("fit", "--all", input="input"), 1, err=f"error: {reason}\n",
           input=csv(f"R1,W1,{rows}\n"))
       for rows, reason in [
           ("1,1e200\nR1,W1,2,2e200\nR1,W1,3,5e200", "numeric overflow fitting R1:W1"),
           ("0,-1.5e308\nR1,W1,1,1.5e308", "numeric overflow fitting R1:W1")]},
    # Exact lines whose SST is not finite unscaled: R-squared sums r and the
    # residuals scaled by one power of two.
    **{f"TestFit::test_huge_response[{rows}]":
       Row(cmd("fit", "--all", input="input"), 0, FIT + out, input=csv(f"R1,W1,{rows}\n"))
       for rows, out in [("0,0\nR1,W1,1,1.2e154\nR1,W1,2,2.4e154", "R1,W1,0,1.2e+154,0,1,3\n"),
                         (HUGE_RESPONSE, "R1,W1,0,8.45271e+270,0,1,3\n")]},
    # Every pair's line is fitted before any SSR is summed.
    "TestFit::test_line_errors_come_first":
        Row(cmd("fit", "--all", input="input"), 1, err="error: singular design for R2:W1\n",
            input=csv("R1,W1,1,1e200\nR1,W1,2,2e200\nR1,W1,3,5e200\nR2,W1,1,4\nR2,W1,1,6\n")),
    "TestFit::test_missing_file":
        Row(cmd("fit", "--all", input="no-such.csv"), 2,
            err=f"error: cannot read no-such.csv: {ENOENT}: 'no-such.csv'\n"),
    "TestFit::test_flag_misuse":
        Row(cmd("fit"), 2, err=usage("one of the arguments --pair --all is required")),
    "TestFit::test_parse_error_exit_2":
        Row(cmd("fit", "--all", input="input"), 2, err="error: line 2: invalid number\n",
            input=csv("R1,W1,abc,2\n")),
    # Outside the number grammar, though float() reads most of them, or in
    # it but not finite as a double (1e999). The CR ends a CRLF line, which
    # the CLI passes to the parser untranslated.
    **{f"TestFit::test_number_outside_grammar[{number}]":
       Row(cmd("fit", "--all", input="input"), 2, err="error: line 3: invalid number\n",
           input=csv(f"R1,W1,0,0\nR1,W1,1,{number}\nR1,W1,2,2\n"))
       for number in ["1_0", " 2 ", "nan", "inf", "Infinity", "0x10", "١", "3\r", "1e999"]},
    "TestFit::test_invalid_utf8":
        Row(cmd("fit", "--all", input="input"), 2,
            err="error: line 3: invalid UTF-8: 'utf-8' codec can't decode byte 0xff in"
                " position 36: invalid start byte\n",
            input=b"resource,workload,w,r\nR1,W1,0,0\nR1,W\xff,1,1\n"),
    "TestResiduals::test_perfect_fit":
        Row(cmd("residuals", "--pair", "R1:W1"), 0,
            "a,w,r,fitted,residual\n1,1,1,1,0\n2,2,2,2,0\n3,3,3,3,0\n"),
    "TestResiduals::test_three_points": Row(cmd("residuals", "--pair", "R1:W2"), 0, RESIDUALS),
    "TestResiduals::test_unknown_pair":
        Row(cmd("residuals", "--pair", "R9:W9"), 1, err="error: unknown pair R9:W9\n"),
    "TestResiduals::test_huge_response":
        Row(cmd("residuals", "--pair", "R1:W1", input="input"), 0,
            "a,w,r,fitted,residual\n1,1.26765e+30,1.07151e+301,1.07151e+301,0\n"
            "2,2.5353e+30,2.14302e+301,2.14302e+301,0\n"
            "3,3.80295e+30,3.21453e+301,3.21453e+301,0\n",
            input=csv(f"R1,W1,{HUGE_RESPONSE}\n")),
    # Its SSR overflows, which residuals does not sum.
    "TestResiduals::test_overflowing_ssr":
        Row(cmd("residuals", "--pair", "R1:W1", input="input"), 0,
            "a,w,r,fitted,residual\n1,1,1e+200,6.66667e+199,3.33333e+199\n"
            "2,2,2e+200,2.66667e+200,-6.66667e+199\n3,3,5e+200,4.66667e+200,3.33333e+199\n",
            input=csv("R1,W1,1,1e200\nR1,W1,2,2e200\nR1,W1,3,5e200\n")),
    "TestResiduals::test_negative_zero_prints_as_0":
        Row(cmd("residuals", "--pair", "R1:W1", input="input"), 0,
            "a,w,r,fitted,residual\n1,0,0,0,0\n2,1,0,0,0\n3,2,0,0,0\n",
            input=csv("R1,W1,0,-0\nR1,W1,1,-0\nR1,W1,2,-0\n")),
    **{f"TestPairContainingColon::test_split_naming_an_observed_pair[{command}]":
       Row(cmd(command, "--pair", "R:1:W1", input="input"), 0, out, input=csv(COLON_ROWS))
       for command, out in [("fit", FIT + "R:1,W1," + THREE_POINTS), ("residuals", RESIDUALS)]},
    **{f"TestPairContainingColon::test_no_split_into_two_names[{text}-{command}]":
       Row(cmd(command, "--pair", text, input="input"), 2, input=csv(COLON_ROWS),
           err=f"error: --pair must look like RESOURCE:WORKLOAD, got {text!r}\n")
       for text in ["R1W1", "R1:", ":W1", ":"] for command in ["fit", "residuals"]},
    **{f"TestPairContainingColon::test_two_splits_naming_observed_pairs[{command}]":
       Row(cmd(command, "--pair", "R:1:W1", input="input"), 2,
           err="error: --pair 'R:1:W1' is ambiguous: it names R,1:W1 or R:1,W1\n",
           input=csv(COLON_ROWS + COLON_ROWS.replace("R:1,", "R,1:")))
       for command in ["fit", "residuals"]},
    **{f"TestPairContainingColon::test_no_split_naming_an_observed_pair[{text}-{command}]":
       Row(cmd(command, "--pair", text, input="input"), 1, err=f"error: unknown pair {text}\n",
           input=csv(COLON_ROWS))
       for text in ["R:9:W1", "R:1:W9", "R::W1"] for command in ["fit", "residuals"]},
    "TestAllocate::test_reference_table":
        Row(cmd("allocate", "--at", "0.5", *SEVEN, input=REFERENCE7), 0, TABLE7),
    "TestAllocate::test_single_cell":
        Row(cmd("allocate", "--at", "1", *ONE, input="input"), 0, "    W1\nR1  ✓\n",
            input=csv("R1,W1,0,2\nR1,W1,1,3\n")),
    "TestAllocate::test_snapshot_written":
        Row(cmd("allocate", "--at", "0.5", *SEVEN, "--snapshot", "state.json", input=REFERENCE7),
            0, TABLE7, snapshot=b'{"allocation":{"R1":"W2","R2":"W3","R3":"W5","R4":"W1",'
                                b'"R5":"W4","R6":"W6","R7":"W7"}}\n'),
    **{f"TestAllocate::test_non_finite_demand[{at}]":
       Row(cmd("allocate", f"--at={at}", *ONE, input=REFERENCE7), 2,
           err=f"error: --at must be a finite number, got {at}\n")
       for at in ["nan", "inf", "-inf"]},
    # float() reads these, but they are outside the number grammar of the
    # observations CSV, which `--at` follows.
    **{f"TestAllocate::test_demand_outside_number_grammar[{at}]":
       Row(cmd("allocate", f"--at={at}", *ONE, input=REFERENCE7), 2,
           err=f"error: argument --at: invalid float value: {at!r}\n")
       for at in ["1_0", " 5 ", "١"]},
    **{f"TestAllocate::{name}":
       Row(cmd("allocate", "--at", "0.5", *ONE, "--snapshot", path, input=REFERENCE7), 2,
           err=f"error: cannot write {path}: {reason}: {path!r}\n")
       for name, path, reason in [("test_unwritable_snapshot", "missing/state.json", ENOENT),
                                  ("test_snapshot_is_a_directory", ".", EISDIR)]},
    **{f"TestAllocate::test_duplicate_names[{flag}]":
       Row(cmd("allocate", "--at", "1", "--resources", resources, "--workloads", workloads), 2,
           err=f"error: --{flag} lists {name} more than once\n")
       for flag, resources, workloads, name in [("resources", "R1,R2,R1", "W1", "R1"),
                                                ("workloads", "R1", "W1,W1", "W1")]},
    "TestAllocate::test_empty_name_list":
        Row(cmd("allocate", "--at", "1", "--resources", ",", "--workloads", "W1"), 2,
            err="error: --resources must list at least one name\n"),
    "TestAllocate::test_overflowing_cost":
        Row(cmd("allocate", "--at", "1e308", *ONE, input="input"), 1,
            err="error: predicted cost for pair R1:W1 is not finite (inf)\n",
            input=csv("R1,W1,1,10\nR1,W1,2,20\nR1,W1,3,30\n")),
    "TestAllocate::test_overflowing_fit":
        Row(cmd("allocate", "--at", "1", *ONE, input="input"), 1,
            err="error: numeric overflow fitting R1:W1\n",
            input=csv("R1,W1,0,-1.5e308\nR1,W1,1,1.5e308\n")),
    # Its SSR overflows, but allocate needs only the line.
    "TestAllocate::test_overflowing_ssr":
        Row(cmd("allocate", "--at", "1", *ONE, input="input"), 0, "    W1\nR1  ✓\n",
            input=csv("R1,W1,1,1e200\nR1,W1,2,2e200\nR1,W1,3,5e200\n")),
    "TestAllocate::test_missing_pair":
        Row(cmd("allocate", "--at", "1", "--resources", "R1,R2,R3", "--workloads", "W1,W2"), 1,
            err="error: no observations for pair R3:W1\n"),
    "TestReplay::test_golden_transcript": Row(EXAMPLE_REPLAY, 0, TRANSCRIPT),
    "TestReplay::test_snapshot_out":
        Row(EXAMPLE_REPLAY + ["--snapshot-out", "state.json"], 0, TRANSCRIPT,
            snapshot=(DATA / "example_build.json").read_bytes()),
    **{f"TestReplay::{name}":
       Row(EXAMPLE_REPLAY + ["--snapshot-out", path], 2,
           err=f"error: cannot write {path}: {reason}: {path!r}\n")
       for name, path, reason in [("test_unwritable_snapshot_out", "missing/state.json", ENOENT),
                                  ("test_snapshot_out_is_a_directory", ".", EISDIR)]},
    "TestReplay::test_duplicate_add_expected":
        Row(REPLAY_INPUT, 0, "1 OK\n2 OK\n3 AlreadyMapped\n",
            input="INIT\nADD Res1 W1\nADD Res1 W2 EXPECT AlreadyMapped\n"),
    "TestReplay::test_expectation_failure":
        Row(REPLAY_INPUT, 1, "1 OK\n2 OK\n3 AlreadyMapped\n",
            "error: expectation failed at line 3: expected OK, got AlreadyMapped\n",
            "INIT\nADD Res1 W1\nADD Res1 W2 EXPECT OK\nFIND Res1\n"),
    "TestReplay::test_comments_and_blank_lines_only":
        Row(REPLAY_INPUT, 0, input="# nothing to run\n\n   \n# still nothing\n"),
    **{f"TestReplay::test_expectation_failure_stops_at_its_line[{k}]": stop_at(k)
       for k in [3, 6, 8, 9, 10]},
    "TestReplay::test_parse_error":
        Row(REPLAY_INPUT, 2, err="error: line 2: unknown command 'DROP'\n",
            input="INIT\nDROP Res1\n"),
    "test_bad_command_line_is_one_line_error[argv0]":
        Row([], 2, err=usage("the following arguments are required: command")),
    "test_bad_command_line_is_one_line_error[argv1]":
        Row(cmd("allocate", "--at", "abc", *ONE, input=REFERENCE7), 2,
            err="error: argument --at: invalid float value: 'abc'\n"),
    "test_bad_command_line_is_one_line_error[argv2]":
        Row(cmd("fit", "--pair", "R1:W1", "--all"), 2, err=usage("argument --all: ")),
    "test_bad_command_line_is_one_line_error[argv3]":
        Row(["replay", "--script", "x.replay", "--snapshot"], 2,
            err=usage("argument --snapshot-out: ")),
    "test_help_exits_0":
        Row(["allocate", "--help"], 0, re.compile("usage: wrmap allocate .*", re.S)),
}


def _define_table_tests():
    """Define each test that CASES names: `check` over its rows."""
    tests = {}
    for key, row in CASES.items():
        name, _, param = key.partition("[")
        tests.setdefault(name, {})[param[:-1]] = row
    for name, rows in tests.items():
        if list(rows) == [""]:
            def test(capsys, monkeypatch, tmp_path, row=rows[""]):
                check(capsys, monkeypatch, tmp_path, row)
        else:
            @pytest.mark.parametrize("row", list(rows.values()), ids=list(rows))
            def test(capsys, monkeypatch, tmp_path, row):
                check(capsys, monkeypatch, tmp_path, row)
        cls, _, func = name.rpartition("::")
        if cls:
            setattr(globals().setdefault(cls, type(cls, (), {})), func, staticmethod(test))
        else:
            globals()[func] = test


_define_table_tests()


def test_pair_with_16000_colons(capsys, monkeypatch, tmp_path):
    # Memory stays linear in the text: its 16,000 splits at a colon, if
    # built, would hold about 250 MB.
    text = "R" + ":" * 16_000 + "W"
    tracemalloc.start()
    try:
        check(capsys, monkeypatch, tmp_path,
              Row(cmd("fit", "--pair", text), 1, err=f"error: unknown pair {text}\n"))
        assert tracemalloc.get_traced_memory()[1] < 4 * 2**20
    finally:
        tracemalloc.stop()


def test_allocate_with_2000_by_2000_names(capsys, monkeypatch, tmp_path):
    # The first missing pair is found without the 4,000,000 pairs, which
    # would hold about 280 MB.
    resources, workloads = (",".join(f"{p}{k}" for k in range(2_000)) for p in "RW")
    tracemalloc.start()
    try:
        check(capsys, monkeypatch, tmp_path,
              Row(cmd("allocate", "--at", "1", "--resources", resources, "--workloads", workloads,
                      input=REFERENCE7), 1, err="error: no observations for pair R0:W0\n"))
        assert tracemalloc.get_traced_memory()[1] < 16 * 2**20
    finally:
        tracemalloc.stop()


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


def _limit_file_size():
    """In the child: files it writes may grow to 20 bytes, and a write
    past that fails with EFBIG instead of killing it with SIGXFSZ."""
    import resource
    import signal

    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (20, 20))


MISSING = str(DATA / "missing.csv")
# A usage error and a domain error, each with its exit code and stderr.
ERROR_ARGV = {
    "missing-input": (["fit", "--input", MISSING, "--all"], 2, "error: cannot read "
                      f"{MISSING}: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {MISSING!r}\n"),
    "unknown-pair": (["fit", "--input", OBSERVATIONS, "--pair", "资源:W9"], 1,
                     "error: unknown pair 资源:W9\n"),
}
# Encoded by the locale's codec, the name would raise UnicodeEncodeError
# on stdout and print as \u8d44\u6e90 on stderr.
NON_ASCII = {"fit-non-ascii": "resource,workload,w,r\n资源,W1,1,2\n资源,W1,2,3\n",
             "replay-non-ascii": "INIT\nADD 资源 W1\nFIND 资源\nMAP W1\n"}
# The argv cases. A snapshot flag and a non-ASCII case's input flag are
# given their path when the case runs.
CASE_ARGV = {
    "help": ["allocate", "--help"],
    "fit": ["fit", "--input", OBSERVATIONS, "--all"],
    "residuals": ["residuals", "--input", OBSERVATIONS, "--pair", "R1:W1"],
    "allocate": ["allocate", "--input", REFERENCE7, "--at", "0.5",
                 "--resources", "R1,R2,R3", "--workloads", "W1,W2,W3", "--snapshot"],
    "replay": ["replay", "--script", str(DATA / "example_build.replay"), "--snapshot-out"],
    "fit-non-ascii": ["fit", "--all", "--input"],
    "replay-non-ascii": ["replay", "--script"],
    **{case: argv for case, (argv, _, _) in ERROR_ARGV.items()},
}
SUBCOMMANDS = ["fit", "residuals", "allocate", "replay", "help"]


def _run(case, directory, stream, sink, unbuffered):
    """Run the case's command line with the stream sent to the sink: (exit
    code, stdout, stderr, snapshot or None). Stdout is what reached a pipe,
    head(1) or the 20-byte file, and a stream that reached none is b"".
    The case's non-ASCII input and its snapshot are in directory."""
    argv = CASE_ARGV[case]
    if case in NON_ASCII:
        (directory / "input").write_bytes(NON_ASCII[case].encode())
        argv = argv + [str(directory / "input")]
    snapshot = directory / "state.json"
    # A file of 20 bytes at most cannot hold the snapshot.
    if argv[-1].startswith("--snapshot"):
        argv = argv[:-1] if sink == "fsize" else argv + [str(snapshot)]
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONIOENCODING="utf-8", PYTHONUNBUFFERED="1" if unbuffered else "",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    kwargs, head = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}, None
    with contextlib.ExitStack() as stack:
        if sink in ("ascii", "latin-1", "utf-8"):
            env["PYTHONIOENCODING"] = sink
        elif sink == "full":
            kwargs[stream] = stack.enter_context(open("/dev/full", "wb"))
        elif sink == "fsize":
            kwargs.update(stdout=stack.enter_context(open(directory / "out", "wb")),
                          preexec_fn=_limit_file_size)
        elif sink == "closed":  # Python then sets sys.stdout or sys.stderr to None.
            kwargs["preexec_fn"] = lambda: os.close(1 if stream == "stdout" else 2)
        else:  # A pipe: "head" reads its first line, "pipe" has no reader, and
            # as Python ignores SIGPIPE, a write to it fails with EPIPE.
            read_end, write_end = os.pipe()
            stack.callback(os.close, write_end)
            if sink == "head":
                head = subprocess.Popen(["head", "-1"], stdin=read_end, stdout=subprocess.PIPE)
            os.close(read_end)
            kwargs["stdout"] = write_end
        proc = subprocess.Popen([sys.executable, "-m", "wrmap.cli", *argv], env=env, **kwargs)
    out, err = proc.communicate(timeout=120)
    if head is not None:
        out = head.communicate(timeout=120)[0]
    elif sink == "fsize":
        out = (directory / "out").read_bytes()
    return (proc.returncode, out or b"", err or b"",
            snapshot.read_bytes() if snapshot.exists() else None)


# What `_emit` reports when each stdout sink fails.
STDOUT_FAULTS = {sink: f"[Errno {e}] {os.strerror(e)}" for sink, e in
                 [("full", errno.ENOSPC), ("fsize", errno.EFBIG), ("pipe", errno.EPIPE)]}
STDOUT_FAULTS["closed"] = "the descriptor is closed"
SINK_NEEDS = {
    "full": pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
    "pipe": pytest.mark.skipif(os.name != "posix", reason="EPIPE is the POSIX error"),
    "head": pytest.mark.skipif(shutil.which("head") is None, reason="no head(1)"),
    **dict.fromkeys(["fsize", "closed"], pytest.mark.skipif(not hasattr(os, "fork"),
                                                            reason="needs preexec_fn")),
}
MODE = {False: "buffered", True: "unbuffered"}


@pytest.fixture(scope="module")
def run_case(tmp_path_factory):
    """run_case(case, stream, sink, unbuffered) gives `_run`'s result and
    the case's reference run: UTF-8, buffered, both streams piped, made
    once. A reference that fails its own check fails every run of the case."""
    references = {}

    def run_case(case, stream, sink, unbuffered):
        if case not in references:
            ref = _run(case, tmp_path_factory.mktemp(case), None, "utf-8", False)
            # An error case writes its line and no output, any other the reverse.
            _, want_code, want_err = ERROR_ARGV.get(case, (None, 0, ""))
            assert (ref[0], ref[2], ref[1] == b"") == (want_code, want_err.encode(), case in ERROR_ARGV)
            references[case] = ref
        return _run(case, tmp_path_factory.mktemp(case), stream, sink, unbuffered), references[case]

    return run_case


def _rows(cases, sinks):
    """One row per case, sink and buffering mode, with the sink's skip mark."""
    return [pytest.param(case, sink, unbuffered, marks=SINK_NEEDS[sink],
                         id=f"{case}-{sink}-{MODE[unbuffered]}")
            for case in cases for sink in sinks for unbuffered in MODE]


@pytest.mark.parametrize("case, sink, unbuffered", _rows(SUBCOMMANDS, STDOUT_FAULTS))
def test_failing_stdout_is_one_line_error(run_case, case, sink, unbuffered):
    (code, out, err, snapshot), ref = run_case(case, "stdout", sink, unbuffered)
    # One line: no traceback, no "Exception ignored" from the flush at exit.
    assert (code, err) == (2, f"error: cannot write stdout: {STDOUT_FAULTS[sink]}\n".encode())
    # The 20-byte file holds the output's first 20 bytes; unbuffered, Python's
    # text layer would drop the rest without a word. Every other run writes
    # its snapshot before stdout, so the snapshot survives the failed write.
    assert (out, snapshot) == ((ref[1][:20], None) if sink == "fsize" else (b"", ref[3]))


@pytest.mark.parametrize("case, sink, unbuffered", _rows(ERROR_ARGV, ["full", "closed"]))
def test_unwritable_stderr_keeps_the_exit_code(run_case, case, sink, unbuffered):
    (code, out, _, _), ref = run_case(case, "stderr", sink, unbuffered)
    # Nothing is left to report a failed stderr write on, so it is dropped;
    # the error line must not move to stdout either.
    assert (code, out) == (ref[0], b"")


# Neither the buffering mode nor a locale changes a byte.
@pytest.mark.parametrize("case", SUBCOMMANDS)
def test_unbuffered_stdout_is_the_buffered_bytes(run_case, case):
    run, ref = run_case(case, "stdout", "utf-8", True)
    assert run == ref


def _assert_the_same_in_every_locale(run_case, case):
    for sink in ["ascii", "latin-1"]:
        for unbuffered in MODE:
            run, ref = run_case(case, None, sink, unbuffered)
            assert run == ref


@pytest.mark.parametrize("case", SUBCOMMANDS + list(NON_ASCII))
def test_stdout_is_utf8_whatever_the_locale(run_case, case):
    _assert_the_same_in_every_locale(run_case, case)


def test_stderr_is_utf8_whatever_the_locale(run_case):
    _assert_the_same_in_every_locale(run_case, "unknown-pair")


@SINK_NEEDS["head"]
def test_replay_into_head_exits_0(run_case):
    (code, out, err, snapshot), ref = run_case("replay", "stdout", "head", False)
    assert (code, out, err, snapshot) == (0, ref[1][:ref[1].index(b"\n") + 1], b"", ref[3])


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
