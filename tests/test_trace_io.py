import random
import sys
import time
from math import isfinite

import pytest
from hypothesis import given, strategies as st

from wrmap import core, trace_io
from wrmap.core import AllocationState, check_token
from wrmap.regression import Dataset, Observation


class TestParseObservations:
    def test_header_only(self):
        assert trace_io.parse_observations("resource,workload,w,r\n") == {}

    def test_groups_in_file_order(self):
        text = (
            "resource,workload,w,r\n"
            "R1,W1,1,2\n"
            "R1,W1,2,3\n"
            "R1,W1,3,5\n"
        )
        datasets = trace_io.parse_observations(text)
        assert list(datasets) == [("R1", "W1")]
        assert datasets[("R1", "W1")].observations == (
            Observation(1, 2),
            Observation(2, 3),
            Observation(3, 5),
        )

    def test_multiple_pairs_interleaved(self):
        text = (
            "resource,workload,w,r\n"
            "R1,W1,1,1\n"
            "R2,W1,5,5\n"
            "R1,W1,2,2\n"
        )
        datasets = trace_io.parse_observations(text)
        assert [o.w for o in datasets[("R1", "W1")].observations] == [1, 2]
        assert [o.w for o in datasets[("R2", "W1")].observations] == [5]

    def test_bad_number(self):
        with pytest.raises(trace_io.ParseError) as err:
            trace_io.parse_observations("resource,workload,w,r\nR1,W1,abc,2\n")
        assert err.value.line == 2
        assert "invalid number" in err.value.reason

    def test_wrong_header(self):
        with pytest.raises(trace_io.ParseError) as err:
            trace_io.parse_observations("res,wl,w,r\n")
        assert err.value.line == 1

    def test_wrong_column_count(self):
        with pytest.raises(trace_io.ParseError) as err:
            trace_io.parse_observations("resource,workload,w,r\nR1,W1,1\n")
        assert err.value.line == 2

    def test_non_finite_rejected(self):
        with pytest.raises(trace_io.ParseError):
            trace_io.parse_observations("resource,workload,w,r\nR1,W1,inf,2\n")

    def test_bad_token(self):
        with pytest.raises(trace_io.ParseError):
            trace_io.parse_observations("resource,workload,w,r\nR 1,W1,1,2\n")

    def test_accepts_bytes(self):
        assert trace_io.parse_observations(b"resource,workload,w,r\n") == {}

    def test_empty_input_misses_its_header(self):
        with pytest.raises(trace_io.ParseError) as err:
            trace_io.parse_observations(b"")
        assert str(err.value) == "line 1: missing header"

    def test_invalid_utf8_names_its_line(self):
        with pytest.raises(trace_io.ParseError) as err:
            trace_io.parse_observations(b"resource,workload,w,r\nR1,W\xff,1,2\n")
        assert err.value.line == 2
        assert err.value.reason.startswith("invalid UTF-8")

    @pytest.mark.parametrize(
        "number", ["1_0", " 2", "2 ", "nan", "inf", "-Infinity", "0x10", "١", "3\r",
                   "1e999", "1e", "e1", ".", "+", "1.2.3", ""],
    )
    def test_number_grammar_rejects(self, number):
        text = f"resource,workload,w,r\nR1,W1,0,0\nR1,W1,1,{number}\n"
        with pytest.raises(trace_io.ParseError) as err:
            trace_io.parse_observations(text)
        assert (err.value.line, err.value.reason) == (3, "invalid number")

    @pytest.mark.parametrize(
        "number, value",
        [("7", 7.0), ("+7", 7.0), ("-0", -0.0), ("7.", 7.0), (".5", 0.5),
         ("-.5e-3", -0.0005), ("1E+2", 100.0), ("0012.50", 12.5)],
    )
    def test_number_grammar_accepts(self, number, value):
        text = f"resource,workload,w,r\nR1,W1,{number},{number}\n"
        data = trace_io.parse_observations(text)[("R1", "W1")]
        assert repr(data.ws) == repr(data.rs) == repr((value,))

    @pytest.mark.parametrize(
        "field",
        ["1" * 100_000 + "x", "1." + "1" * 100_000 + "x", ".1e" + "1" * 100_000 + "x",
         "1" * 100_000 + ".1.", "-" + "1" * 100_000 + "e+"],
    )
    def test_long_malformed_number_fails_fast(self, field):
        # An ambiguous number pattern such as \d+\.?\d* backtracks
        # quadratically here and would take minutes on this field.
        text = f"resource,workload,w,r\nR1,W1,{field},2\n"
        start = time.perf_counter()
        with pytest.raises(trace_io.ParseError) as err:
            trace_io.parse_observations(text)
        assert time.perf_counter() - start < 0.5
        assert (err.value.line, err.value.reason) == (2, "invalid number")

    def test_long_malformed_token_fails_fast(self):
        text = "resource,workload,w,r\n" + "R" * 100_000 + " ,W1,1,2\n"
        start = time.perf_counter()
        with pytest.raises(trace_io.ParseError) as err:
            trace_io.parse_observations(text)
        assert time.perf_counter() - start < 0.5
        assert err.value.line == 2
        assert "whitespace" in err.value.reason

    def test_token_class_agrees_with_check_token(self):
        # Both check_token and the row pattern must accept a one-character
        # token exactly when the spec does: unless it is whitespace
        # (str.isspace) or a comma, on every code point. parse_replay
        # checks tokens only on lines with a comma, which is sound because
        # str.split() splits at exactly the whitespace that TOKEN excludes.
        disagree = []
        for code in range(sys.maxunicode + 1):
            ch = chr(code)
            spec = not (ch.isspace() or ch == ",")
            if len(f"a{ch}b".split()) != (2 if ch.isspace() else 1):
                disagree.append(hex(code))
            try:
                check_token(ch)
                checked = True
            except ValueError:
                checked = False
            matched = trace_io._ROW.fullmatch(f"{ch},W,1,2") is not None
            if not checked == matched == spec:
                disagree.append(hex(code))
        assert disagree == []

    def test_trusted_datasets_equal_validated(self):
        text = "resource,workload,w,r\nR1,W1,1,2\nR2,W1,5,5\nR1,W1,2,3.5\n"
        datasets = trace_io.parse_observations(text)
        expected = {
            ("R1", "W1"): Dataset.from_pairs([(1, 2), (2, 3.5)]),
            ("R2", "W1"): Dataset.from_pairs([(5, 5)]),
        }
        assert datasets == expected
        assert {hash(d) for d in datasets.values()} == {
            hash(d) for d in expected.values()
        }
        assert datasets[("R1", "W1")].ws == (1.0, 2.0)
        assert datasets[("R1", "W1")].rs == (2.0, 3.5)


class TestParseReplay:
    def test_full_grammar(self):
        text = (
            "# build a small state\n"
            "INIT\n"
            "ADD Res1 Cloudworkload3 EXPECT OK\n"
            "FIND Res1\n"
            "MAP Cloudworkload3 EXPECT OK\n"
        )
        commands = trace_io.parse_replay(text)
        assert [c.op for c in commands] == ["INIT", "ADD", "FIND", "MAP"]
        assert commands[1].expect is core.Report.OK
        assert commands[2].expect is None
        assert commands[1].line == 3

    def test_unknown_command(self):
        with pytest.raises(trace_io.ParseError, match="unknown command 'DELETE'"):
            trace_io.parse_replay("DELETE Res1\n")

    def test_bad_report_name(self):
        with pytest.raises(trace_io.ParseError, match="unknown report 'Maybe'"):
            trace_io.parse_replay("FIND Res1 EXPECT Maybe\n")

    def test_wrong_arity(self):
        with pytest.raises(trace_io.ParseError, match=r"ADD takes 2 argument\(s\), got 1"):
            trace_io.parse_replay("ADD Res1\n")

    def test_init_takes_no_expect(self):
        with pytest.raises(trace_io.ParseError, match="INIT takes no EXPECT clause"):
            trace_io.parse_replay("INIT EXPECT OK\n")

    def test_comma_in_a_comment_parses(self):
        commands = trace_io.parse_replay("ADD R1 W1 # R,1\nMAP W1 EXPECT OK #,\n")
        assert commands == [
            trace_io.ReplayCommand(1, "ADD", ("R1", "W1")),
            trace_io.ReplayCommand(2, "MAP", ("W1",), core.Report.OK),
        ]

    def test_argument_spelled_expect(self):
        # The clause is recognised only after the command's arguments.
        commands = trace_io.parse_replay("ADD EXPECT OK\n")
        assert commands == [trace_io.ReplayCommand(1, "ADD", ("EXPECT", "OK"))]
        state, lines = trace_io.run_replay(commands)
        assert state.allocation == {"EXPECT": "OK"}
        assert lines == ["1 OK"]

    def test_clause_after_an_argument_spelled_expect(self):
        commands = trace_io.parse_replay("ADD EXPECT W1 EXPECT OK\n")
        assert commands == [
            trace_io.ReplayCommand(1, "ADD", ("EXPECT", "W1"), core.Report.OK)
        ]

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("INIT EXPECT Maybe", "unknown report 'Maybe'"),
            # No clause follows the two arguments, so all three tokens count.
            ("ADD Res1 EXPECT OK", "ADD takes 2 argument(s), got 3"),
            ("MAP W1 EXPECT", "MAP takes 1 argument(s), got 2"),
            ("ADD R,1 W1", "token may not contain whitespace or commas: 'R,1'"),
            ("ADD R1 W,1", "token may not contain whitespace or commas: 'W,1'"),
            ("FIND , EXPECT OK", "token may not contain whitespace or commas: ','"),
            # A comma outside the arguments fails the check named first.
            ("AD,D R1 W1", "unknown command 'AD,D'"),
            ("FIND R1 EXPECT O,K", "unknown report 'O,K'"),
            ("ADD R1 W1 W,2", "ADD takes 2 argument(s), got 3"),
            # A CR, which a CRLF line ending leaves and str.split() takes for a space.
            ("ADD R1 W1\r", "carriage return: lines end with LF alone"),
        ],
    )
    def test_error_reasons(self, line, reason):
        with pytest.raises(trace_io.ParseError) as err:
            trace_io.parse_replay(f"INIT\n{line} # comment\n")
        assert (err.value.line, err.value.reason) == (2, reason)


class TestRunReplay:
    def test_robust_add_script(self):
        commands = trace_io.parse_replay(
            "INIT\n"
            "ADD Res1 Cloudworkload3 EXPECT OK\n"
            "ADD Res1 W9 EXPECT AlreadyMapped\n"
            "FIND Res1 EXPECT OK\n"
        )
        state, lines = trace_io.run_replay(commands)
        assert state.allocation == {"Res1": "Cloudworkload3"}
        assert lines == [
            "1 OK",
            "2 OK",
            "3 AlreadyMapped",
            "4 OK Cloudworkload3",
        ]

    def test_find_on_empty(self):
        commands = trace_io.parse_replay("INIT\nFIND Res1 EXPECT NotMapped\n")
        _, lines = trace_io.run_replay(commands)
        assert lines == ["1 OK", "2 NotMapped"]

    def test_map_never_fails(self):
        commands = trace_io.parse_replay("INIT\nMAP W1 EXPECT OK\n")
        _, lines = trace_io.run_replay(commands)
        assert lines == ["1 OK", "2 OK"]

    def test_map_payload_sorted(self):
        commands = trace_io.parse_replay(
            "INIT\nADD b W\nADD a W\nMAP W\n"
        )
        _, lines = trace_io.run_replay(commands)
        assert lines[-1] == "4 OK a,b"

    def test_map_text_follows_every_change_of_the_set(self):
        # Each MAP shows the workload's resources at that line: an ADD to
        # it, an ADD elsewhere and INIT must all show.
        commands = trace_io.parse_replay(
            "ADD b W\nMAP W\nMAP W\nADD a W\nADD c V\nMAP W\nMAP V\n"
            "ADD d X\nMAP W\nINIT\nMAP W\nADD e W\nMAP W\nMAP W\n"
        )
        _, lines = trace_io.run_replay(commands)
        assert lines == ["1 OK", "2 OK b", "3 OK b", "4 OK", "5 OK", "6 OK a,b",
                         "7 OK c", "8 OK", "9 OK a,b", "10 OK", "11 OK", "12 OK",
                         "13 OK e", "14 OK e"]

    def test_expectation_failure_stops(self):
        commands = trace_io.parse_replay(
            "INIT\nADD Res1 W1\nADD Res1 W2 EXPECT OK\nFIND Res1\n"
        )
        with pytest.raises(trace_io.ExpectationFailed) as err:
            trace_io.run_replay(commands)
        assert err.value.line == 3
        assert err.value.report_lines == ["1 OK", "2 OK", "3 AlreadyMapped"]

    def test_wrappers_placed_on_core_see_every_command(self, monkeypatch):
        calls = []
        for name in ("add", "find", "map_query"):
            def counting(*args, _op=getattr(core, name), _name=name):
                calls.append(_name)
                return _op(*args)
            monkeypatch.setattr(core, name, counting)
        commands = trace_io.parse_replay(
            "INIT\nADD R W\nFIND R\nADD R W\nMAP W\nINIT\nFIND R\nMAP W\n"
        )
        _, lines = trace_io.run_replay(commands)
        assert calls == ["add", "find", "add", "map_query", "find", "map_query"]
        assert lines == ["1 OK", "2 OK", "3 OK W", "4 AlreadyMapped", "5 OK R",
                         "6 OK", "7 NotMapped", "8 OK"]

    def test_report_values_closed(self):
        commands = trace_io.parse_replay(
            "INIT\nADD R W\nADD R W\nFIND R\nFIND X\nMAP W\nMAP Z\n"
        )
        _, lines = trace_io.run_replay(commands)
        reports = {line.split()[1] for line in lines}
        assert reports <= {"OK", "AlreadyMapped", "NotMapped"}


class TestSnapshots:
    def test_empty_state(self):
        assert trace_io.write_state(core.init()) == '{"allocation":{}}\n'

    def test_example_state_sorted_keys(self):
        state = AllocationState(
            (
                ("Res3", "Cloudworkload1"),
                ("Res1", "Cloudworkload3"),
                ("Res2", "Cloudworkload2"),
            )
        )
        assert trace_io.write_state(state) == (
            '{"allocation":{"Res1":"Cloudworkload3",'
            '"Res2":"Cloudworkload2","Res3":"Cloudworkload1"}}\n'
        )

    def test_invalid_utf8_snapshot(self):
        with pytest.raises(trace_io.SnapshotError, match="invalid UTF-8"):
            trace_io.read_state(b'{"allocation":{"R\xff":"W1"}}\n')

    def test_read_inverse_of_write(self):
        state = AllocationState((("R1", "W1"), ("R2", "W1")))
        assert trace_io.read_state(trace_io.write_state(state)) == state

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "not json",
            "[]",
            '{"allocation":[]}',
            '{"allocation":{}, "extra":1}',
            '{"allocation":{"bad token":"W"}}',
            '{"allocation":{"R":1}}',
            # json.loads alone keeps the last of a repeated key.
            '{"allocation":{"R1":"W1","R1":"W2"}}',
            '{"allocation":{},"allocation":{}}',
        ],
    )
    def test_malformed_snapshots(self, bad):
        with pytest.raises(trace_io.SnapshotError):
            trace_io.read_state(bad)


token = st.text(
    alphabet=st.characters(
        whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=0x7F
    ),
    min_size=1,
    max_size=8,
)

states = st.dictionaries(token, token, max_size=20).map(
    lambda d: AllocationState(tuple(d.items()))
)


@given(states)
def test_snapshot_round_trip_property(state):
    text = trace_io.write_state(state)
    assert trace_io.read_state(text) == state
    # Byte determinism: rewriting the reread state is identical.
    assert trace_io.write_state(trace_io.read_state(text)) == text


def reference_parse_observations(text):
    """Per-field reference parser of the observations CSV, the oracle for
    `parse_observations`: split on commas, check the column count, check
    both tokens, then read the numbers with float() and require them
    finite. float() also reads spellings outside the number grammar
    (`1_0`, ` 2`), so the tests give it only lines in the grammar and
    lines it rejects itself."""
    content = trace_io._decode(text)
    lines = content.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise trace_io.ParseError(1, "missing header")
    if lines[0] != trace_io.OBSERVATIONS_HEADER:
        raise trace_io.ParseError(
            1, f"header must be exactly {trace_io.OBSERVATIONS_HEADER!r}"
        )
    groups = {}
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 4:
            raise trace_io.ParseError(lineno, f"expected 4 columns, got {len(fields)}")
        resource, workload, w_text, r_text = fields
        for name in (resource, workload):
            try:
                check_token(name)
            except ValueError as exc:
                raise trace_io.ParseError(lineno, str(exc)) from exc
        try:
            w = float(w_text)
            r = float(r_text)
        except ValueError as exc:
            raise trace_io.ParseError(lineno, "invalid number") from exc
        if not (isfinite(w) and isfinite(r)):
            raise trace_io.ParseError(lineno, "invalid number")
        groups.setdefault((resource, workload), []).append(Observation(w, r))
    return {pair: Dataset(tuple(obs)) for pair, obs in groups.items()}


def _outcome(parse, text):
    try:
        datasets = parse(text)
    except trace_io.ParseError as exc:
        return ("error", exc.line, exc.reason)
    # repr tells -0.0 from 0.0; == checks Dataset equality itself.
    return ("ok", datasets, repr([(p, d.ws, d.rs) for p, d in datasets.items()]))


csv_tokens = st.one_of(
    st.sampled_from(["R1", "R2", "W1", "wé", "资源"]),
    st.text(
        st.characters(blacklist_characters=",").filter(lambda c: not c.isspace()),
        min_size=1,
        max_size=4,
    ),
)
# The number grammar: optional sign, digits with an optional fraction or
# a bare fraction, optional exponent.
digits = st.text("0123456789", min_size=1, max_size=5)
signs = st.sampled_from(["", "+", "-"])
csv_numbers = st.builds(
    "{}{}{}".format,
    signs,
    st.one_of(
        digits,
        st.builds("{}.{}".format, digits, st.just("") | digits),
        digits.map(".{}".format),
    ),
    st.just("") | st.builds("{}{}{}".format, st.sampled_from("eE"), signs, digits),
)


def csv_line(*fields):
    return st.tuples(*fields).map(",".join)


good_lines = csv_line(csv_tokens, csv_tokens, csv_numbers, csv_numbers)
# Lines the per-field parser rejects, one family per reason.
bad_numbers = st.sampled_from(
    ["", "abc", "1.2.3", "--1", "e5", ".", "-", "1e", "0x10", "nan", "-inf",
     "Infinity", "1e999", "-1e400"]
)
bad_tokens = st.sampled_from(["", "R 1", "\tW", "W\u3000", "R\x1c", "\u2028"])
bad_lines = st.one_of(
    st.just(""),
    st.lists(st.one_of(csv_tokens, csv_numbers), min_size=1, max_size=6)
    .filter(lambda fields: len(fields) != 4)
    .map(",".join),
    csv_line(bad_tokens, csv_tokens, csv_numbers, csv_numbers),
    csv_line(csv_tokens, bad_tokens, bad_numbers, csv_numbers),
    csv_line(csv_tokens, csv_tokens, csv_numbers, bad_numbers),
    csv_line(csv_tokens, csv_tokens, bad_numbers, csv_numbers),
)


@given(st.lists(good_lines, max_size=12), st.booleans())
def test_parser_matches_reference_on_accepted_language(lines, final_newline):
    text = "\n".join([trace_io.OBSERVATIONS_HEADER, *lines]) + "\n" * final_newline
    expected = _outcome(reference_parse_observations, text)
    assert _outcome(trace_io.parse_observations, text) == expected


@given(
    st.lists(good_lines, max_size=4),
    bad_lines,
    st.lists(st.one_of(good_lines, bad_lines), max_size=4),
)
def test_parser_matches_reference_on_rejected_lines(before, bad, after):
    text = "\n".join([trace_io.OBSERVATIONS_HEADER, *before, bad, *after, ""])
    expected = _outcome(reference_parse_observations, text)
    assert expected[0] == "error"
    assert _outcome(trace_io.parse_observations, text) == expected


def _large_csv_rows(seed=2014, rows=20_000):
    """Data rows of a seeded CSV whose pairs interleave in random order."""
    rng = random.Random(seed)
    pairs = [(f"R{rng.randrange(40)}", f"W{rng.randrange(40)}") for _ in range(300)]
    return [
        f"{r},{w},{rng.uniform(-1e3, 1e3):.{rng.randrange(8)}f},{rng.randrange(-99, 99)}"
        for r, w in (rng.choice(pairs) for _ in range(rows))
    ]


def test_parser_matches_reference_at_scale():
    text = "\n".join([trace_io.OBSERVATIONS_HEADER, *_large_csv_rows()]) + "\n"
    expected = _outcome(reference_parse_observations, text)
    assert expected[0] == "ok" and len(expected[1]) > 250
    assert _outcome(trace_io.parse_observations, text) == expected
    # The pairs come in order of first appearance, as in the reference.
    assert list(trace_io.parse_observations(text)) == list(expected[1])


@pytest.mark.parametrize(
    "first, later",
    [("R1,W1,1e999,2", "R 1,W1,1,2"), ("R 1,W1,1,2", "R1,W1,1,-1e999"),
     ("R1,W1,2,1e999", "R1,W1,x,2"), ("R1,W1,1,2,3", "R1,W1,1e999,2")],
)
def test_parser_reports_the_earlier_of_two_faults_at_scale(first, later):
    # Data row k is on line k + 1: the first fault is on line 15,001.
    rows = _large_csv_rows()
    rows[14_999] = first
    rows[17_999] = later
    text = "\n".join([trace_io.OBSERVATIONS_HEADER, *rows]) + "\n"
    expected = _outcome(reference_parse_observations, text)
    assert expected[:2] == ("error", 15_001)
    assert _outcome(trace_io.parse_observations, text) == expected
