import copy
import math
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from wrmap import core, matcher, trace_io
from wrmap.core import AllocationState, Report


RESOURCES = [f"R{i}" for i in range(20)]
WORKLOADS = [f"W{i}" for i in range(10)]


def build_example_state():
    # Three-entry state used throughout: Res1/2/3 carrying workloads 3/2/1.
    state = core.init()
    for res, wl in [
        ("Res1", "Cloudworkload3"),
        ("Res2", "Cloudworkload2"),
        ("Res3", "Cloudworkload1"),
    ]:
        outcome = core.add(state, res, wl)
        assert outcome.report is Report.OK
        state = outcome.state
    return state


def test_init_is_empty():
    state = core.init()
    assert core.available(state) == frozenset()
    assert state.allocation == {}


def test_init_map_query_empty():
    outcome = core.map_query(core.init(), "W0")
    assert outcome.report is Report.OK
    assert outcome.payload == ()


def test_init_find_not_mapped():
    state = core.init()
    outcome = core.find(state, "Res1")
    assert outcome.report is Report.NOT_MAPPED
    assert outcome.state == state


def test_add_first_binding():
    outcome = core.add(core.init(), "Res1", "Cloudworkload3")
    assert outcome.report is Report.OK
    assert outcome.state.allocation == {"Res1": "Cloudworkload3"}
    assert core.available(outcome.state) == {"Res1"}


def test_add_duplicate_keeps_first_binding():
    first = core.add(core.init(), "Res1", "Cloudworkload3").state
    outcome = core.add(first, "Res1", "CloudworkloadX")
    assert outcome.report is Report.ALREADY_MAPPED
    assert outcome.state == first
    assert core.find(outcome.state, "Res1").payload == "Cloudworkload3"


def test_three_entry_example():
    state = build_example_state()
    assert core.available(state) == {"Res1", "Res2", "Res3"}
    assert state.allocation == {
        "Res1": "Cloudworkload3",
        "Res2": "Cloudworkload2",
        "Res3": "Cloudworkload1",
    }


def test_find_example_state():
    state = build_example_state()
    outcome = core.find(state, "Res2")
    assert outcome.report is Report.OK
    assert outcome.payload == "Cloudworkload2"
    assert outcome.state == state


def test_map_query_example_state():
    state = build_example_state()
    # Oracle: enumerate all pairs and filter.
    expected = tuple(r for r, w in state.pairs if w == "Cloudworkload2")
    assert expected == ("Res2",)
    assert core.map_query(state, "Cloudworkload2").payload == expected


def test_map_query_many_to_one():
    state = core.init()
    state = core.add(state, "Res1", "W").state
    state = core.add(state, "Res2", "W").state
    assert core.map_query(state, "W").payload == ("Res1", "Res2")
    assert core.map_query(state, "W9").payload == ()


def test_available_matches_domain():
    state = build_example_state()
    assert core.available(state) == frozenset(state.allocation.keys())


@pytest.mark.parametrize("bad", ["", "has space", "has,comma", "tab\tchar", "nl\n"])
def test_token_rules(bad):
    with pytest.raises(ValueError):
        core.add(core.init(), bad, "W")
    with pytest.raises(ValueError):
        core.add(core.init(), "R", bad)


def test_duplicate_resource_rejected_in_state():
    with pytest.raises(ValueError):
        AllocationState((("R1", "W1"), ("R1", "W2")))


steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.sampled_from(RESOURCES),
            st.sampled_from(WORKLOADS),
        ),
        st.tuples(st.just("find"), st.sampled_from(RESOURCES)),
        st.tuples(st.just("map"), st.sampled_from(WORKLOADS)),
    ),
    max_size=60,
)


def run_step(state, step):
    if step[0] == "add":
        return core.add(state, step[1], step[2])
    if step[0] == "find":
        return core.find(state, step[1])
    return core.map_query(state, step[1])


def scan(model, workload):
    """MAP by a scan of every pair of a plain dict, in canonical order."""
    return tuple(sorted(r for r, w in model.items() if w == workload))


def strictly_increasing(payload):
    """A MAP payload is a tuple of names, each greater than the one before."""
    return type(payload) is tuple and all(map(str.__lt__, payload, payload[1:]))


def model_step(model, step):
    """The same step on a plain dict, the reference for the state machine."""
    if step[0] == "add":
        if step[1] in model:
            return Report.ALREADY_MAPPED, None
        model[step[1]] = step[2]
        return Report.OK, None
    if step[0] == "find":
        if step[1] not in model:
            return Report.NOT_MAPPED, None
        return Report.OK, model[step[1]]
    return Report.OK, scan(model, step[1])


@given(steps)
def test_invariant_and_error_preservation(sequence):
    state = core.init()
    model = {}
    for step in sequence:
        before = state.pairs
        outcome = run_step(state, step)
        after = outcome.state
        assert state.pairs == before
        assert core.available(after) == frozenset(after.allocation.keys())
        if outcome.report is not Report.OK:
            assert after == state
        assert (outcome.report, outcome.payload) == model_step(model, step)
        state = after
    assert state.allocation == model


@given(st.permutations([(f"R{i}", f"W{i % 3}") for i in range(8)]))
def test_state_ignores_pair_order(shuffled):
    reference = AllocationState(sorted(shuffled))
    grown = core.init()
    for resource, workload in shuffled:
        grown = core.add(grown, resource, workload).state
    for state in (AllocationState(shuffled), grown):
        assert state == reference
        assert hash(state) == hash(reference)
        assert state.pairs == reference.pairs
        assert trace_io.write_state(state) == trace_io.write_state(reference)


def test_allocation_is_a_copy():
    state = build_example_state()
    before = state.pairs
    allocation = state.allocation
    allocation["Res1"] = "Other"
    allocation["Res9"] = "W"
    del allocation["Res2"]
    assert state.pairs == before
    assert core.find(state, "Res1").payload == "Cloudworkload3"
    assert core.find(state, "Res9").report is Report.NOT_MAPPED
    assert core.available(state) == {"Res1", "Res2", "Res3"}
    with pytest.raises(AttributeError):
        state.pairs = ()


@given(steps, st.sampled_from(RESOURCES), st.sampled_from(WORKLOADS))
def test_add_then_find(sequence, resource, workload):
    state = core.init()
    for step in sequence:
        state = run_step(state, step).state
    outcome = core.add(state, resource, workload)
    if outcome.report is Report.OK:
        found = core.find(outcome.state, resource)
        assert found.report is Report.OK
        assert found.payload == workload


@given(steps)
def test_map_query_oracle_and_partition(sequence):
    state = core.init()
    for step in sequence:
        state = run_step(state, step).state
    union = set()
    for workload in WORKLOADS:
        result = core.map_query(state, workload).payload
        brute = {
            r
            for r in core.available(state)
            if core.find(state, r).payload == workload
        }
        assert result == tuple(sorted(brute))
        assert union.isdisjoint(result)
        union.update(result)
    assert union == core.available(state)


@given(steps)
def test_report_totality(sequence):
    state = core.init()
    for step in sequence:
        outcome = run_step(state, step)
        assert outcome.report in (Report.OK, Report.ALREADY_MAPPED, Report.NOT_MAPPED)
        if step[0] == "find":
            assert outcome.report is not Report.ALREADY_MAPPED
        elif step[0] == "add":
            assert outcome.report is not Report.NOT_MAPPED
        else:
            assert outcome.report is Report.OK
        state = outcome.state


@given(
    st.dictionaries(st.sampled_from(RESOURCES), st.sampled_from(WORKLOADS), max_size=20),
    steps,
)
def test_index_agrees_with_scan_however_the_state_is_built(allocation, sequence):
    # The workload -> resources index behind map_query is built by the
    # constructor (directly, from a snapshot, from a mark matrix) and grown
    # by add; every state met on the way must answer MAP as the scan does,
    # also after later adds on states derived from it.
    built = AllocationState(allocation.items())
    one_per_workload = {w: r for r, w in allocation.items()}
    marks = frozenset(
        (RESOURCES.index(r), WORKLOADS.index(w)) for w, r in one_per_workload.items()
    )
    bases = [
        built,
        trace_io.read_state(trace_io.write_state(built)),
        matcher.matrix_to_state(
            matcher.AssignmentMatrix(tuple(RESOURCES), tuple(WORKLOADS), marks)
        ),
    ]
    states = list(bases)
    for state in bases:
        for step in sequence:
            state = run_step(state, step).state
            states.append(state)
        states.append(trace_io.read_state(trace_io.write_state(state)))
    for state in states:
        model = state.allocation
        for workload in WORKLOADS + ["W99"]:
            payload = core.map_query(state, workload).payload
            assert payload == scan(model, workload)
            assert strictly_increasing(payload)


def test_rejected_add_returns_the_same_state():
    state = build_example_state()
    index = state._resources_of
    before = dict(index)
    outcome = core.add(state, "Res1", "Cloudworkload2")
    assert outcome.report is Report.ALREADY_MAPPED
    assert outcome.state is state
    assert state._resources_of is index
    assert index == before
    assert core.map_query(state, "Cloudworkload2").payload == ("Res2",)


def test_state_has_no_instance_dict():
    for state in (AllocationState([("R1", "W1")]), build_example_state()):
        assert not hasattr(state, "__dict__")


# A state keeps its mapping as a shared `_base` plus a small `_recent`,
# folded into a new base once `len(_recent)**2 > len(_base)`. A step
# rebuilt the base exactly when its state's `_base` is not the one of the
# state before it.


def test_seeded_script_across_many_folds_matches_a_plain_dict():
    rng = random.Random(2014)
    state, model = core.init(), {}
    rebuilds = longest = 0
    for _ in range(3000):
        resource, workload = f"R{rng.randrange(1500)}", f"W{rng.randrange(12)}"
        step = rng.choice([("add", resource, workload), ("add", resource, workload),
                           ("find", resource), ("map", workload)])
        outcome = run_step(state, step)
        assert (outcome.report, outcome.payload) == model_step(model, step)
        if step[0] == "map":
            assert strictly_increasing(outcome.payload)
        rebuilds += outcome.state._base is not state._base
        state = outcome.state
        longest = max(longest, len(state._recent))
        assert len(state) == len(model)
    assert state.allocation == model
    assert list(state.allocation) == list(model)  # in the order of the adds
    assert rebuilds > 40
    assert longest > 20


def test_states_grown_by_add_equal_states_built_whole():
    pairs = [(f"R{i:03d}", f"W{i % 7}") for i in range(150)]
    random.Random(7).shuffle(pairs)
    grown = core.init()
    for k, (resource, workload) in enumerate(pairs, start=1):
        grown = core.add(grown, resource, workload).state
        built = AllocationState(sorted(pairs[:k]))
        snapshot = trace_io.write_state(built)
        read = trace_io.read_state(snapshot)
        copies = [copy.copy(grown), copy.deepcopy(grown),
                  pickle.loads(pickle.dumps(grown))]
        for state in [grown, built, read, *copies]:
            assert state == grown == built
            assert hash(state) == hash(built)
            assert state.pairs == built.pairs == tuple(sorted(pairs[:k]))
            assert state.allocation == dict(pairs[:k])
            assert core.available(state) == {r for r, _ in pairs[:k]}
            assert len(state) == k
            assert trace_io.write_state(state) == snapshot
            assert core.find(state, resource).payload == workload
            assert core.map_query(state, workload).payload == scan(dict(pairs[:k]), workload)
    assert grown != core.add(grown, "R999", "W0").state


def test_adds_rebuild_the_whole_mapping_about_sqrt_n_times():
    n = 10_000
    state = core.init()
    rebuilds = longest = 0
    for i in range(n):
        grown = core.add(state, f"R{i}", f"W{i % 40}").state
        rebuilds += grown._base is not state._base
        state = grown
        longest = max(longest, len(state._recent))
    assert rebuilds <= 3 * math.sqrt(n)
    assert longest <= math.isqrt(n) + 1
    assert len(state) == n
