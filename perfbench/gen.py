"""Seeded input generator for the benchmark workloads.

Every input is a pure function of (workload, seed): the same pair gives the
same bytes on every machine, because it draws only from `random.Random`
seeded with a string. The generated files are the only thing the `wrmap`
CLI receives; the in-memory values returned beside them are what the
benchmark's oracles work from.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

# Shapes of each workload. Sizes are chosen so one CLI invocation takes
# about one and a half to two seconds on a small shared machine: the
# workload's own layer then takes about as long as the start-up (mostly
# importing scipy.optimize), and a run still holds about two dozen
# invocations.
FIT_ALL = dict(resources=20, workloads=20, k=250, noise=0.05)
ALLOCATE = dict(resources=96, workloads=80, k=3, noise=0.05, at=500.0)
REPLAY = dict(adds=1200, workloads=40, dup_add=0.1, unknown_find=0.1, expect=0.25)

# Predictor range: a demand level between 10 and 1000 units, recorded to
# three decimals, with responses to four. Chosen, not measured: no trace
# in the paper or the repo backs this range (the demos and tests use w in
# 0..3). The same holds for the intercept and slope ranges below, the 5%
# noise, the allocate query at w=500 and the replay mix in REPLAY (10%
# duplicate ADDs, 10% unknown FINDs, 25% of lines with EXPECT). The cost
# scale these give sets how often the matcher's padded-path tolerance
# defect shows up; it is left as drawn and counted in error_rate.
W_LOW, W_HIGH = 10.0, 1000.0


@dataclass
class Inputs:
    """Paths handed to the CLI plus the values the oracles need."""

    argv: list[str]
    items: int  # work items per invocation: rows, cost cells or commands
    data: dict
    snapshot: str | None = None  # path the CLI writes its state snapshot to


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"wrmap-bench:{workload}:{seed}")


def _names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i:03d}" for i in range(count)]


def observations(rng, resources, workloads, k, noise):
    """Noisy linear observations r = mu0 + mu1*w + e for every pair.

    Returns (csv_text, {pair: [(w, r), ...]}) with rows shuffled across
    pairs, as a trace collected over time would interleave them. The
    per-pair values are the floats the CSV text parses back to.
    """
    rows = []
    for res in resources:
        for wl in workloads:
            mu0 = rng.uniform(1.0, 50.0)
            mu1 = rng.uniform(0.01, 2.0)
            for _ in range(k):
                w = f"{rng.uniform(W_LOW, W_HIGH):.3f}"
                mean = mu0 + mu1 * float(w)
                r = f"{mean * (1.0 + rng.gauss(0.0, noise)):.4f}"
                rows.append((res, wl, w, r))
    rng.shuffle(rows)
    groups: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for res, wl, w, r in rows:
        groups.setdefault((res, wl), []).append((float(w), float(r)))
    text = "resource,workload,w,r\n" + "".join(f"{a},{b},{c},{d}\n" for a, b, c, d in rows)
    return text, groups


def replay_script(rng, adds, workloads, dup_add, unknown_find, expect):
    """ADD commands interleaved one-for-one with FIND and MAP.

    A share of ADDs repeat a known resource (AlreadyMapped) and a share of
    FINDs ask for a resource never added (NotMapped). A share of lines
    carry an EXPECT clause naming the report a plain dict model predicts.
    Returns (script_text, [(line_number, op, args), ...]).
    """
    ranks = _names("wl", workloads)
    known: dict[str, str] = {}
    added: list[str] = []
    commands = [("INIT", (), None)]
    fresh = 0
    for _ in range(adds):
        if known and rng.random() < dup_add:
            res = rng.choice(added)
        else:
            res = f"res{fresh:05d}"
            fresh += 1
            added.append(res)
        rank = rng.choice(ranks)
        add_report = "AlreadyMapped" if res in known else "OK"
        known.setdefault(res, rank)
        if rng.random() < unknown_find:
            target = f"ghost{rng.randrange(10**6):06d}"
        else:
            target = rng.choice(added)
        find_report = "OK" if target in known else "NotMapped"
        for op, args, report in (
            ("ADD", (res, rank), add_report),
            ("FIND", (target,), find_report),
            ("MAP", (rng.choice(ranks),), "OK"),
        ):
            commands.append((op, args, report if rng.random() < expect else None))
    lines = ["# generated replay: ADD interleaved with FIND and MAP"]
    numbered = []
    for op, args, report in commands:
        text = " ".join((op,) + args)
        lines.append(text + (f" EXPECT {report}" if report else ""))
        numbered.append((len(lines), op, args))
    return "\n".join(lines) + "\n", numbered


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def generate(workload: str, seed: int, out_dir: str) -> Inputs:
    """Write one workload's input files into out_dir; return CLI argv and data."""
    rng = _rng(workload, seed)
    if workload == "fit_all":
        p = FIT_ALL
        text, groups = observations(
            rng, _names("r", p["resources"]), _names("w", p["workloads"]), p["k"], p["noise"]
        )
        path = os.path.join(out_dir, "observations.csv")
        _write(path, text)
        return Inputs(["fit", "--input", path, "--all"], len(text.splitlines()) - 1,
                      {"groups": groups})
    if workload == "allocate":
        p = ALLOCATE
        resources = _names("r", p["resources"])
        workloads = _names("w", p["workloads"])
        text, groups = observations(rng, resources, workloads, p["k"], p["noise"])
        path = os.path.join(out_dir, "observations.csv")
        snapshot = os.path.join(out_dir, "state.json")
        _write(path, text)
        argv = ["allocate", "--input", path, "--at", repr(p["at"]),
                "--resources", ",".join(resources), "--workloads", ",".join(workloads),
                "--snapshot", snapshot]
        return Inputs(argv, len(resources) * len(workloads),
                      {"groups": groups, "resources": resources,
                       "workloads": workloads, "at": p["at"]}, snapshot)
    if workload == "replay":
        text, commands = replay_script(rng, **REPLAY)
        path = os.path.join(out_dir, "script.replay")
        snapshot = os.path.join(out_dir, "state.json")
        _write(path, text)
        return Inputs(["replay", "--script", path, "--snapshot-out", snapshot],
                      len(commands), {"commands": commands}, snapshot)
    raise ValueError(f"unknown workload {workload!r}")
