from pathlib import Path

import pytest

from wrmap import trace_io
from wrmap.cli import main

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

    def test_unwritable_snapshot(self, capsys, tmp_path):
        for path in unwritable_paths(tmp_path):
            code, _, err = run(
                capsys,
                "allocate", "--input", REFERENCE7, "--at", "0.5",
                "--resources", "R1", "--workloads", "W1",
                "--snapshot", str(path),
            )
            assert_one_line_usage_error(code, err)

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
        assert snapshot.read_text(encoding="utf-8") == (
            '{"allocation":{"Res1":"Cloudworkload3",'
            '"Res2":"Cloudworkload2","Res3":"Cloudworkload1"}}\n'
        )

    def test_unwritable_snapshot_out(self, capsys, tmp_path):
        for path in unwritable_paths(tmp_path):
            code, _, err = run(
                capsys,
                "replay", "--script", self.SCRIPT, "--snapshot-out", str(path),
            )
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

    def test_parse_error(self, capsys, tmp_path):
        script = tmp_path / "bad.replay"
        script.write_text("INIT\nDROP Res1\n")
        code, _, err = run(capsys, "replay", "--script", str(script))
        assert code == 2
        assert "line 2" in err


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
