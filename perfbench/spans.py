"""Span recording around the public module attributes the `wrmap` CLI calls.

`Tracer.installed()` replaces each traced attribute (for example
`wrmap.regression.fit`, which `cli` calls as `regression.fit`) with a
wrapper that records a span: name, start, end, the span that was open when
it started, and the invocation it belongs to. Spans stay in memory until
`write` saves them. Nothing under `src/` is changed; the attributes are
restored when the context exits.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name). `linear_sum_assignment` is looked up in
# `wrmap.matcher`'s namespace on every call, so wrapping it there counts
# every solver call the matcher makes.
TARGETS = [
    ("cli", "main", "cli.main"),
    ("cli", "render_assignment", "cli.render_assignment"),
    ("trace_io", "parse_observations", "trace_io.parse_observations"),
    ("trace_io", "parse_replay", "trace_io.parse_replay"),
    ("trace_io", "run_replay", "trace_io.run_replay"),
    ("trace_io", "write_state", "trace_io.write_state"),
    ("regression", "fit", "regression.fit"),
    ("regression", "goodness_of_fit", "regression.goodness_of_fit"),
    ("matcher", "build_cost_matrix", "matcher.build_cost_matrix"),
    ("matcher", "assign", "matcher.assign"),
    ("matcher", "matrix_to_state", "matcher.matrix_to_state"),
    ("matcher", "linear_sum_assignment", "matcher.lsa"),
    ("core", "add", "core.add"),
    ("core", "find", "core.find"),
    ("core", "map_query", "core.map_query"),
]


def _rows(result) -> int:
    return sum(dataset.n for dataset in result.values())


def _rejected(result) -> int:
    return int(result.report.value != "OK")


def _marks(result) -> int:
    return len(result.marks)


# Extra counts taken from a call's result: span name -> (counter, function).
RESULT_COUNTS = {
    "trace_io.parse_observations": ("rows", _rows),
    "core.add": ("rejected", _rejected),
    "matcher.assign": ("marks", _marks),
}


class Tracer:
    """Records spans of the traced calls; one tracer per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, invocation]
        self.counts: list[Counter] = []  # per invocation: "<span>.<counter>" -> n
        self._stack: list[int] = []

    def begin_invocation(self) -> None:
        self.counts.append(Counter())

    def _wrap(self, name, fn):
        extra = RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            counts = self.counts[-1]
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, len(self.counts) - 1]
            self.spans.append(span)
            self._stack.append(index)
            counts[name + ".calls"] += 1
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".failed"] += 1
                raise
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if extra is not None:
                counts[f"{name}.{extra[0]}"] += extra[1](result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target attribute for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(f"wrmap.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> list[dict[str, float]]:
        """Per invocation: span name -> summed duration minus child spans."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        result: list[dict[str, float]] = [defaultdict(float) for _ in self.counts]
        for (name, start, end, _, invocation), children in zip(self.spans, child_time):
            result[invocation][name] += (end - start) - children
        return result

    def write(self, path: str) -> None:
        """Save all spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, invocation in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "invocation": invocation}) + "\n")
