"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The whole module is desk-scale and finishes well under a minute.
"""

import math
import random
from pathlib import Path

import numpy as np

from wrmap import cli, core, matcher, regression, trace_io
from wrmap.core import AllocationState, Report
from wrmap.matcher import AssignmentMatrix

from exact_assignment import REFERENCE_MARKS, costs_of, exact, exact_optima
from ols_oracle import THREE_POINTS, grid_search_ssr, random_dataset

DATA = Path(__file__).parent / "data"


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name} {detail}"


def test_criterion_1_state_machine_invariants():
    rng = random.Random(1)
    resources = [f"R{i}" for i in range(20)]
    workloads = [f"W{i}" for i in range(10)]
    violations = 0
    for _ in range(10_000):
        state = core.init()
        for _ in range(rng.randrange(0, 101)):
            op = rng.randrange(3)
            if op == 0:
                outcome = core.add(
                    state, rng.choice(resources), rng.choice(workloads)
                )
            elif op == 1:
                outcome = core.find(state, rng.choice(resources))
            else:
                outcome = core.map_query(state, rng.choice(workloads))
            after = outcome.state
            if core.available(after) != frozenset(after.allocation.keys()):
                violations += 1
            if outcome.report is not Report.OK and after != state:
                violations += 1
            state = after
    report(
        "criterion 1: Z invariants over 10000 random sequences",
        violations == 0,
        f"{violations} violations",
    )


def test_criterion_2_worked_example_and_golden_replay(capsys):
    state = core.init()
    for res, wl in [
        ("Res1", "Cloudworkload3"),
        ("Res2", "Cloudworkload2"),
        ("Res3", "Cloudworkload1"),
    ]:
        state = core.add(state, res, wl).state
    ok = core.available(state) == {"Res1", "Res2", "Res3"}
    ok &= core.find(state, "Res1").payload == "Cloudworkload3"
    ok &= core.find(state, "Res2").payload == "Cloudworkload2"
    ok &= core.find(state, "Res3").payload == "Cloudworkload1"
    ok &= core.map_query(state, "Cloudworkload2").payload == ("Res2",)
    ok &= core.map_query(state, "Cloudworkload1").payload == ("Res3",)
    ok &= core.map_query(state, "Cloudworkload3").payload == ("Res1",)

    code = cli.main(["replay", "--script", str(DATA / "example_build.replay")])
    out = capsys.readouterr().out
    golden = (DATA / "example_build.out").read_text(encoding="utf-8")
    ok &= code == 0 and out.encode() == golden.encode()
    with capsys.disabled():
        report("criterion 2: worked 3-entry example + byte-exact golden replay", ok)


def test_criterion_3_ols_oracle_equivalence():
    rng = np.random.default_rng(3)
    failures = 0
    for _ in range(1000):
        data = random_dataset(rng, min_spread=1e-3)
        ws, rs, n = np.array(data.ws), np.array(data.rs), data.n
        model = regression.fit(data)
        res = regression.residuals(model, data)
        if abs(math.fsum(res)) > 1e-9 * n * max(abs(r) for r in rs):
            failures += 1
            continue
        if abs(math.fsum(w * e for w, e in zip(ws, res))) > 1e-9 * n * max(
            abs(w * r) for w, r in zip(ws, rs)
        ):
            failures += 1
            continue
        base = regression.ssr(model, data)
        deltas = rng.normal(size=(100, 2))
        mu0s = model.mu0_hat + deltas[:, 0]
        mu1s = model.mu1_hat + deltas[:, 1]
        perturbed = (
            (rs[None, :] - mu0s[:, None] - mu1s[:, None] * ws[None, :]) ** 2
        ).sum(axis=1)
        if (perturbed < base - 1e-12).any():
            failures += 1
    report(
        "criterion 3: OLS normal equations + minimality on 1000 random datasets",
        failures == 0,
        f"{failures} failures",
    )


def test_criterion_4_hand_derived_fit_with_grid_oracle():
    model = regression.fit(THREE_POINTS)
    ssr = regression.ssr(model, THREE_POINTS)
    ok = abs(model.mu1_hat - 1.5) <= 1e-12 * 1.5
    ok &= abs(model.mu0_hat - 1 / 3) <= 1e-12 * (1 / 3)
    ok &= abs(ssr - 1 / 6) <= 1e-12 * (1 / 6)

    # Independent oracle: brute-force SSR over the coefficient grid
    # [-5, 5]^2 at step 1e-3, evaluated directly per grid point.
    step = 1e-3
    (mu0, mu1), best = grid_search_ssr(THREE_POINTS, step=step)
    ok &= abs(mu0 - model.mu0_hat) <= step + 1e-9
    ok &= abs(mu1 - model.mu1_hat) <= step + 1e-9
    ok &= ssr <= best + 1e-12
    report("criterion 4: hand-derived 3-point fit confirmed by grid search", ok)


def test_criterion_5_reference_matrix_reproduction():
    grid = [
        [0.0 if (i, j) in REFERENCE_MARKS else 1.0 for j in range(7)]
        for i in range(7)
    ]
    result = matcher.assign(costs_of(grid))
    _, count, marks = exact_optima(grid)
    ok = result.marks == REFERENCE_MARKS and count == 1 and marks == REFERENCE_MARKS
    report(
        "criterion 5: 7x7 reference matching unique among all 5040 permutations", ok
    )


def test_criterion_6_assignment_optimality():
    rng = np.random.default_rng(6)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(1, 8))
        grid = rng.uniform(-10, 10, (n, n))
        result = matcher.assign(costs_of(grid))
        cost, best = exact(grid), exact_optima(grid)[0]
        total = sum(cost[i][j] for i, j in result.marks)
        if total != best or result.total_cost() != float(best):
            mismatches += 1
    report(
        "criterion 6: optimal assignment equals exhaustive minimum on 200 matrices",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def test_criterion_7_round_trips_and_deterministic_transcripts(capsys):
    rng = random.Random(7)
    names = [f"N{i}" for i in range(30)]
    failures = 0
    for _ in range(1000):
        k = rng.randrange(0, 11)
        res = rng.sample(names, k)
        wls = rng.sample(names, k)
        state = AllocationState(tuple(zip(res, wls)))
        if trace_io.read_state(trace_io.write_state(state)) != state:
            failures += 1
        m = matcher.state_to_matrix(state, sorted(res), sorted(set(wls)))
        if matcher.matrix_to_state(m) != state:
            failures += 1
        m2 = AssignmentMatrix(m.resources, m.workloads, m.marks)
        if matcher.state_to_matrix(matcher.matrix_to_state(m2), m.resources, m.workloads).marks != m.marks:
            failures += 1

    def transcript(argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out.encode(), captured.err.encode()

    scripts = [
        ["replay", "--script", str(DATA / "example_build.replay")],
        ["fit", "--input", str(DATA / "observations.csv"), "--all"],
        [
            "allocate", "--input", str(DATA / "reference7.csv"), "--at", "0.5",
            "--resources", ",".join(f"R{i}" for i in range(1, 8)),
            "--workloads", ",".join(f"W{j}" for j in range(1, 8)),
        ],
    ]
    deterministic = all(transcript(argv) == transcript(argv) for argv in scripts)
    with capsys.disabled():
        report(
            "criterion 7: 1000 round trips + byte-identical CLI transcripts",
            failures == 0 and deterministic,
            f"{failures} round-trip failures",
        )
