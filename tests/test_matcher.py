import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from wrmap import core, matcher
from wrmap.cli import render_assignment
from wrmap.matcher import AssignmentMatrix, CostMatrix
from wrmap.regression import RegressionModel

from exact_assignment import (
    REFERENCE_MARKS, costs_of, exact, exact_optima, reference_lex_min,
)


def one_per_column(result):
    """`AssignmentMatrix` allows a column several marks; `assign` must not."""
    cols = [j for _, j in result.marks]
    return len(cols) == len(set(cols))


def permutation_optima(grid):
    """`exact_optima` by exhaustion, the DP's own check: every injection of
    the shorter side, as per-row columns with n_wl for an unmarked row."""
    cost = exact(grid)
    n_res, n_wl = len(cost), len(cost[0])
    # The set drops the orders among the unmarked rows, which would
    # otherwise be counted as distinct optima.
    slots = list(range(n_wl)) + [n_wl] * (n_res - n_wl)
    ranked = sorted(
        (sum(cost[i][j] for i, j in enumerate(cols) if j < n_wl), cols)
        for cols in set(itertools.permutations(slots, n_res))
    )
    best, cols = ranked[0]
    count = sum(total == best for total, _ in ranked)
    return best, count, {(i, j) for i, j in enumerate(cols) if j < n_wl}


def test_exact_optima_matches_permutation_optima():
    # The kinds of cost the tests below hand to the oracles; the scipy
    # one takes integers only.
    rng = np.random.default_rng(71)
    for shape in itertools.product(range(1, 6), repeat=2):
        for _ in range(6):
            ties = rng.integers(0, 3, shape)
            for grid in (ties, rng.integers(-100, 101, shape) / 10,
                         rng.choice([0.0, 5e-324, 1e300, -1e300], shape)):
                assert exact_optima(grid) == permutation_optima(grid)
            assert reference_lex_min(ties) == permutation_optima(ties)[2]


def test_build_cost_matrix_constant():
    model = RegressionModel(2.0, 0.0)
    models = {(r, w): model for r in ["R1", "R2"] for w in ["W1", "W2"]}
    costs = matcher.build_cost_matrix(models, ["R1", "R2"], ["W1", "W2"], 9.0)
    assert costs.cost == ((2.0, 2.0), (2.0, 2.0))


def test_build_cost_matrix_intercepts_when_flat():
    models = {
        ("R1", "W1"): RegressionModel(1.0, 0.0),
        ("R1", "W2"): RegressionModel(4.0, 0.0),
    }
    for at in (0.0, 5.0, -3.0):
        costs = matcher.build_cost_matrix(models, ["R1"], ["W1", "W2"], at)
        assert costs.cost == ((1.0, 4.0),)


def test_build_cost_matrix_hand_predictions():
    models = {
        ("R1", "W1"): RegressionModel(1.0, 2.0),
        ("R1", "W2"): RegressionModel(0.0, -1.0),
        ("R2", "W1"): RegressionModel(3.0, 0.5),
        ("R2", "W2"): RegressionModel(-2.0, 1.0),
    }
    costs = matcher.build_cost_matrix(models, ["R2", "R1"], ["W2", "W1"], 2.0)
    # Orders are sorted regardless of argument order.
    assert costs.resources == ("R1", "R2")
    assert costs.workloads == ("W1", "W2")
    assert costs.cost == ((5.0, -2.0), (4.0, 0.0))
    # The sorted result equals a matrix built directly from the sorted labels.
    assert costs == CostMatrix(("R1", "R2"), ("W1", "W2"), ((5.0, -2.0), (4.0, 0.0)))


def test_build_cost_matrix_missing_model():
    with pytest.raises(matcher.MissingModel):
        matcher.build_cost_matrix({}, ["R1"], ["W1"], 0.0)


def test_build_cost_matrix_repeated_name():
    model = RegressionModel(1.0, 0.0)
    with pytest.raises(
        ValueError, match="^resources must be in lexicographic order, without repeats$"
    ):
        matcher.build_cost_matrix({("R1", "W1"): model}, ["R1", "R1"], ["W1"], 0.0)


def test_build_cost_matrix_non_token_name():
    # A model for every pair, so only CostMatrix's token check can reject it.
    model = RegressionModel(1.0, 0.0)
    with pytest.raises(ValueError, match="^token may not contain whitespace, ',', ':' or '#': 'R 1'$"):
        matcher.build_cost_matrix({("R 1", "W1"): model}, ["R 1"], ["W1"], 0.0)


@pytest.mark.parametrize("at", [1e308, -1e308])
def test_build_cost_matrix_overflowing_prediction(at):
    models = {
        ("R1", "W1"): RegressionModel(0.0, 1.0),
        ("R1", "W2"): RegressionModel(0.0, 10.0),
    }
    shown = "inf" if at > 0 else "-inf"
    message = f"^predicted cost for pair R1:W2 is not finite \\({shown}\\)$"
    with pytest.raises(matcher.NonFiniteCost, match=message) as info:
        matcher.build_cost_matrix(models, ["R1"], ["W1", "W2"], at)
    assert isinstance(info.value, matcher.MatcherError)


@pytest.mark.parametrize("at", [float("nan"), float("inf"), -float("inf")])
def test_build_cost_matrix_non_finite_demand(at):
    model = RegressionModel(1.0, 2.0)
    with pytest.raises(ValueError, match="^predictor value must be finite$"):
        matcher.build_cost_matrix({("R1", "W1"): model}, ["R1"], ["W1"], at)


def test_assign_diagonal():
    grid = [[0 if i == j else 1 for j in range(3)] for i in range(3)]
    costs = costs_of(grid)
    result = matcher.assign(costs)
    assert result.marks == {(0, 0), (1, 1), (2, 2)}
    assert costs.total(result.marks) == 0


@pytest.mark.parametrize(
    "costs",
    [CostMatrix((), (), ()), CostMatrix((), ("W1",), ()), CostMatrix(("R1",), (), ((),))],
    ids=["0x0", "0x1", "1x0"],
)
def test_assign_empty_side(costs):
    result = matcher.assign(costs)
    assert result == AssignmentMatrix(costs.resources, costs.workloads, frozenset())


def test_total_cost_is_correctly_rounded():
    # Added left to right in the marks' iteration order, 1e16 + 1.0 can
    # round the 1.0 away; the correctly rounded total is exactly 1.0.
    costs = costs_of([[1e16, 0, 0], [0, 1.0, 0], [0, 0, -1e16]])
    assert costs.total(frozenset({(0, 0), (1, 1), (2, 2)})) == 1.0


def test_assign_reference_seven_by_seven():
    grid = [
        [0.0 if (i, j) in REFERENCE_MARKS else 1.0 for j in range(7)]
        for i in range(7)
    ]
    result = matcher.assign(costs_of(grid))
    assert result.marks == REFERENCE_MARKS
    assert exact_optima(grid) == (0, 1, REFERENCE_MARKS)


def test_assign_two_by_two():
    costs = costs_of([[1, 2], [2, 1]])
    result = matcher.assign(costs)
    assert result.marks == {(0, 0), (1, 1)}
    assert costs.total(result.marks) == 2


def test_assign_tie_break_lexicographic():
    # All costs equal: every matching is optimal, identity wins.
    result = matcher.assign(costs_of([[1, 1, 1]] * 3))
    assert result.marks == {(0, 0), (1, 1), (2, 2)}


def test_assign_rectangular_padding():
    costs = CostMatrix(("R1", "R2", "R3"), ("W1",), ((5.0,), (1.0,), (3.0,)))
    result = matcher.assign(costs)
    assert result.marks == {(1, 0)}
    wide = CostMatrix(("R1",), ("W1", "W2", "W3"), ((4.0, 1.0, 2.0),))
    assert matcher.assign(wide).marks == {(0, 1)}


def test_assign_matches_brute_force_random():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        grid = rng.uniform(-10, 10, (n, n)).round(3).tolist()
        costs = costs_of(grid)
        result = matcher.assign(costs)
        cost, best = exact(grid), exact_optima(grid)[0]
        assert len(result.marks) == n and one_per_column(result)
        assert sum(cost[i][j] for i, j in result.marks) == best
        assert costs.total(result.marks) == float(best)


def test_assign_row_column_shift_invariance():
    rng = np.random.default_rng(29)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        grid = rng.uniform(0, 10, (n, n))
        shifted = grid.copy()
        shifted[int(rng.integers(0, n)), :] += 5.0
        shifted[:, int(rng.integers(0, n))] -= 3.0
        assert matcher.assign(costs_of(shifted)).marks == exact_optima(grid)[2]


def test_matrix_to_state_reference():
    names_r = tuple(f"R{i}" for i in range(1, 8))
    names_w = tuple(f"W{j}" for j in range(1, 8))
    m = AssignmentMatrix(names_r, names_w, frozenset(REFERENCE_MARKS))
    state = matcher.matrix_to_state(m)
    assert state.allocation == {
        "R1": "W2",
        "R2": "W3",
        "R3": "W5",
        "R4": "W1",
        "R5": "W4",
        "R6": "W6",
        "R7": "W7",
    }


def test_matrix_to_state_empty():
    m = AssignmentMatrix(("R1",), ("W1",), frozenset())
    assert matcher.matrix_to_state(m) == core.init()


def test_state_to_matrix_three_entry_example():
    state = core.init()
    for res, wl in [
        ("Res1", "Cloudworkload3"),
        ("Res2", "Cloudworkload2"),
        ("Res3", "Cloudworkload1"),
    ]:
        state = core.add(state, res, wl).state
    m = matcher.state_to_matrix(
        state,
        ["Res1", "Res2", "Res3"],
        ["Cloudworkload1", "Cloudworkload2", "Cloudworkload3"],
    )
    assert m.marks == {(0, 2), (1, 1), (2, 0)}


def test_state_to_matrix_many_to_one():
    state = core.add(core.add(core.init(), "Res1", "W2").state, "Res3", "W2").state
    m = matcher.state_to_matrix(state, ["Res1", "Res2", "Res3"], ["W1", "W2"])
    assert m.marks == {(0, 1), (2, 1)}
    assert render_assignment(m) == "      W1  W2\nRes1      ✓\nRes2\nRes3      ✓\n"
    assert matcher.matrix_to_state(m) == state


def test_state_to_matrix_errors():
    assert matcher.state_to_matrix(core.init(), [], []).marks == frozenset()
    one = core.add(core.init(), "Res1", "W1").state
    with pytest.raises(matcher.UnknownLabel):
        matcher.state_to_matrix(one, ["ResX"], ["W1"])
    with pytest.raises(matcher.UnknownLabel):
        matcher.state_to_matrix(one, ["Res1"], ["WX"])


def test_round_trips():
    rng = np.random.default_rng(31)
    names_r = tuple(f"R{i:02d}" for i in range(6))
    names_w = tuple(f"W{j:02d}" for j in range(6))
    for _ in range(100):
        k = int(rng.integers(0, 7))
        rows = rng.permutation(6)[:k]
        cols = rng.permutation(6)[:k]
        marks = frozenset((int(i), int(j)) for i, j in zip(rows, cols))
        m = AssignmentMatrix(names_r, names_w, marks)
        state = matcher.matrix_to_state(m)
        back = matcher.state_to_matrix(state, names_r, names_w)
        assert back.marks == marks
        assert matcher.matrix_to_state(back) == state


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.sampled_from(["R1", "R2", "R3", "R4"]),
                    st.sampled_from(["W1", "W2", "W3"])),
    st.permutations(["R1", "R2", "R3", "R4"]),
    st.permutations(["W1", "W2", "W3"]),
)
def test_round_trips_on_any_state(allocation, names_r, names_w):
    # Any state, not only a one-to-one one, over orders in any order.
    state = core.AllocationState(allocation.items())
    m = matcher.state_to_matrix(state, names_r, names_w)
    assert len(m.marks) == len(allocation)
    assert matcher.matrix_to_state(m) == state
    assert matcher.state_to_matrix(matcher.matrix_to_state(m), names_r, names_w) == m


def test_assignment_matrix_invariant():
    # Two resources may share a workload: two marks in one column.
    shared = AssignmentMatrix(("R1", "R2"), ("W1", "W2"), frozenset({(0, 0), (1, 0)}))
    assert matcher.matrix_to_state(shared).allocation == {"R1": "W1", "R2": "W1"}
    with pytest.raises(ValueError, match="^at most one mark per row$"):
        AssignmentMatrix(("R1", "R2"), ("W1", "W2"), frozenset({(0, 0), (0, 1)}))
    # No name repeats in either order, so each row is one resource.
    for resources, workloads, side in [
        (("R", "R"), ("W1", "W2"), "resources"),
        (("R1", "R2"), ("W", "W"), "workloads"),
    ]:
        with pytest.raises(ValueError, match=f"^{side} must not repeat a name$"):
            AssignmentMatrix(resources, workloads, frozenset({(0, 0), (1, 1)}))


def test_assign_matches_brute_force_lex_min_tie_heavy():
    rng = np.random.default_rng(37)
    for _ in range(120):
        grid = rng.integers(0, 3, rng.integers(1, 8, 2))
        assert matcher.assign(costs_of(grid)).marks == exact_optima(grid)[2]


def test_assign_rectangular_finds_optimum_among_large_costs():
    # Two cells 0.5 cheaper than the rest, away from the lexicographically
    # first corner; 0.5 is tiny next to the costs of 1e6.
    grid = np.full((2, 60), 1e6)
    grid[0, 59] = grid[1, 58] = 1e6 - 0.5
    costs = costs_of(grid)
    result = matcher.assign(costs)
    assert result.marks == {(0, 59), (1, 58)}
    assert costs.total(result.marks) == 1_999_999.0


def sparse_zero_grids():
    rng = np.random.default_rng(43)
    for n in list(range(1, 31)) + [30] * 5:
        # Few zeros, so the optimum is rarely all-zero and ties span rows.
        yield rng.integers(1, 4, (n, n)) * (rng.random((n, n)) > 0.05)


def small_integer_grids(shape, top):
    # top == 0 is the all-zero matrix, where every perfect matching is optimal.
    rng = np.random.default_rng(67 + top + sum(shape))
    for _ in range(1 if top == 0 else 3):
        yield rng.integers(0, top + 1, shape)


# Past the sizes the exact DP reaches, in both orientations, since the
# shorter side is padded with zero-cost dummies that tie with each other.
LARGE_GRIDS = {"sparse-zeros": sparse_zero_grids, **{
    f"{top}-{r}x{c}": functools.partial(small_integer_grids, (r, c), top)
    for top in range(3) for r, c in [(60, 150), (150, 60), (96, 80), (80, 96), (120, 120)]
}}


@pytest.mark.parametrize("grids", LARGE_GRIDS.values(), ids=LARGE_GRIDS)
def test_assign_agrees_with_reference_lex_min(grids):
    for grid in grids():
        result = matcher.assign(costs_of(grid))
        assert one_per_column(result)
        assert result.marks == reference_lex_min(grid)


@st.composite
def shifted_grids(draw, unit, shifts):
    """A grid of {0, 1, 2} * unit, and a copy with one row or column shifted."""
    n_res = draw(st.integers(1, 6))
    n_wl = draw(st.integers(1, 6))
    grid = np.array(
        draw(st.lists(st.lists(st.integers(0, 2), min_size=n_wl, max_size=n_wl),
                      min_size=n_res, max_size=n_res)),
        dtype=float,
    )
    grid *= unit
    # Only a fully marked side can shift without changing which cells win.
    axes = [axis for axis, ok in ((0, n_res <= n_wl), (1, n_res >= n_wl)) if ok]
    axis = draw(st.sampled_from(axes))
    index = draw(st.integers(0, grid.shape[axis] - 1))
    shift = draw(shifts)
    shifted = grid.copy()
    if axis == 0:
        shifted[index, :] += shift
    else:
        shifted[:, index] += shift
    return grid, shifted


@settings(max_examples=200, deadline=None)
@given(shifted_grids(0.25, st.integers(-2**40, 2**40)))
def test_assign_marks_invariant_under_row_or_column_shift(grids):
    # Quarters plus integers up to 2^40 add exactly, so every total moves
    # by the same shift and the same marks win.
    grid = grids[0]
    for costs in grids:
        assert matcher.assign(costs_of(costs)).marks == exact_optima(grid)[2]


@settings(max_examples=200, deadline=None)
@given(shifted_grids(0.1, st.floats(-1e9, 1e9, allow_nan=False)))
def test_assign_is_exact_lex_min_on_near_ties(grids):
    # Tenths tie in decimal but, once shifted and rounded, only nearly in
    # binary: the marks follow the exact totals of the doubles given.
    for grid in grids:
        assert matcher.assign(costs_of(grid)).marks == exact_optima(grid)[2]


def test_assign_is_exact_on_a_near_tie_below_the_largest_cost():
    # The diagonal costs 1e-9 and the optimum 0; 1e-9 is a near-tie only
    # relative to the largest cost.
    grid = [[1e-9, 0, 1e3], [0, 0, 1e3], [1e3, 1e3, 0]]
    costs = costs_of(grid)
    result = matcher.assign(costs)
    assert result.marks == {(0, 1), (1, 0), (2, 2)}
    assert costs.total(result.marks) == 0.0


def test_assign_is_exact_on_a_shifted_near_tie():
    # As doubles, 0.1 + 1.0 < 0.0 + 1.1: (0, 1), (1, 0) is the only optimum.
    grid = np.array([[0, 0.1, 0.1], [0, 0.1, 0.1]])
    grid[1] += 1.0
    assert matcher.assign(costs_of(grid)).marks == {(0, 1), (1, 0)}
    assert exact_optima(grid)[2] == {(0, 1), (1, 0)}


def test_assign_is_exact_on_costs_spanning_the_double_range():
    rng = np.random.default_rng(61)
    extremes = [0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300]
    for _ in range(60):
        shape = rng.integers(1, 6, 2)
        grid = np.sign(rng.uniform(-1, 1, shape)) * 10.0 ** rng.uniform(-300, 300, shape)
        picks = rng.random(shape) < 0.3
        grid[picks] = rng.choice(extremes, picks.sum())
        assert matcher.assign(costs_of(grid)).marks == exact_optima(grid)[2]


@pytest.mark.parametrize("shape", [(96, 80), (200, 200)])
def test_assign_solves_once(monkeypatch, shape):
    calls = []
    solver = matcher.linear_sum_assignment

    def counting(cost):
        calls.append((len(cost), len(cost[0])))
        return solver(cost)

    monkeypatch.setattr(matcher, "linear_sum_assignment", counting)
    grid = np.random.default_rng(47).uniform(0, 1000, shape)
    result = matcher.assign(costs_of(grid))
    assert calls == [shape]
    assert len(result.marks) == min(shape) and one_per_column(result)


def integer_grid(kind, shape, seed):
    """Integer costs: uniform below 2^40, which scipy's doubles hold exactly
    along with every total and potential, or ties in {0, 1, 2}."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**40 if kind == "uniform" else 3, shape)


SOLVER_SHAPES = [(1, 1), (1, 9), (9, 1), (7, 7), (5, 12), (12, 5), (60, 200),
                 (200, 60), (96, 80), (80, 96), (199, 200), (200, 199), (200, 200)]


@pytest.mark.parametrize("kind", ["uniform", "ties"])
@pytest.mark.parametrize("shape", SOLVER_SHAPES)
def test_solver_matches_scipy_and_returns_feasible_duals(kind, shape):
    cost = integer_grid(kind, shape, 53 + sum(shape))
    col_of, u, v = matcher.linear_sum_assignment(cost.tolist())
    rows, cols = linear_sum_assignment(cost)
    matched = [(i, j) for i, j in enumerate(col_of) if j >= 0]
    assert len(col_of) == shape[0] and len(matched) == min(shape)
    assert len({j for _, j in matched}) == len(matched)
    assert sum(cost[i, j] for i, j in matched) == cost[rows, cols].sum()
    assert all(type(p) is int for p in u + v)
    u, v = np.array(u), np.array(v)
    reduced = cost - u[:, None] - v[None, :]
    assert reduced.min() >= 0
    assert all(reduced[i, j] == 0 for i, j in matched)
    matched_rows = {i for i, _ in matched}
    matched_cols = {j for _, j in matched}
    assert all(u[i] == 0.0 for i in range(shape[0]) if i not in matched_rows)
    assert all(v[j] == 0.0 for j in range(shape[1]) if j not in matched_cols)
    # Zero-cost dummies at potential 0 square the problem up: their
    # reduced costs -v[j] (dummy rows) or -u[i] (dummy columns) stay >= 0.
    longer = v if shape[0] <= shape[1] else u
    assert longer.max() <= 0


def test_solver_empty_and_exact_on_integer_ties():
    assert matcher.linear_sum_assignment([]) == ([], [], [])
    cost = [[0.25 * c for c in row] for row in np.random.default_rng(59)
            .integers(0, 3, (40, 40)).tolist()]
    col_of, u, v = matcher.linear_sum_assignment(cost)
    # Quarter-integers keep every dual update exact.
    assert all(cost[i][j] - u[i] - v[j] == 0.0 for i, j in enumerate(col_of))
    assert min(c - ui - vj for row, ui in zip(cost, u) for c, vj in zip(row, v)) == 0.0
