"""Workload analyzer state machine.

The state is an immutable value: a finite set of available resources plus a
partial function from resource names to workload names, with the invariant
that the function's domain equals the available set. Operations take a state
and return a fresh state plus a three-valued report; any non-OK outcome
returns the input state unchanged, so callers can check "error preserves
state" by plain structural equality. An outcome is a named tuple
(state, report, payload), so callers may unpack it.

Resource and workload names are tokens, defined once by `TOKEN`: both
`check_token` and the observations row pattern in `trace_io` match it.

Cost model: a state is a `__slots__` object holding one resource ->
workload dict, validated once when built from outside pairs, and an index
derived from it that maps each workload to the frozenset of its resources.
`add` checks only its two new tokens, then copies the dict with one more
entry and the index, which has at most W entries (one per workload), with
one entry replaced by a union (copy on write: n adds cost O(n^2), at C
speed); `find` and `map_query` are one dict lookup each. `pairs` sorts on
demand.
"""

from __future__ import annotations

import enum
import re
from typing import Iterable, NamedTuple, Union


class Report(enum.Enum):
    OK = "OK"
    ALREADY_MAPPED = "AlreadyMapped"
    NOT_MAPPED = "NotMapped"

    def __str__(self) -> str:
        return self.value


# One or more characters, none of them a comma or Unicode whitespace.
TOKEN = r"[^,\s]+"
_token_match = re.compile(TOKEN).fullmatch


def check_token(value: str) -> str:
    """Validate a resource/workload identifier against `TOKEN`.

    Tokens must be non-empty and free of whitespace and commas so that the
    CSV and replay formats never need quoting.
    """
    if not isinstance(value, str) or not value:
        raise ValueError("token must be a non-empty string")
    if _token_match(value) is None:
        raise ValueError(f"token may not contain whitespace or commas: {value!r}")
    return value


class AllocationState:
    """Immutable allocation: each resource mapped to its workload.

    Resources are unique (the allocation is a function); several resources
    may carry the same workload. Equality, hashing and `pairs` do not depend
    on the order in which the pairs were given.

    Beside the allocation dict the state keeps `_resources_of`, the inverse
    index workload -> frozenset of resources. It is derived from the dict,
    so equality, hashing, `pairs`, `allocation` and `available_resources`
    read only the dict and ignore it.
    """

    __slots__ = ("_allocation", "_resources_of")

    def __init__(self, pairs: Iterable[tuple[str, str]] = ()) -> None:
        allocation: dict[str, str] = {}
        for resource, workload in pairs:
            check_token(resource)
            check_token(workload)
            if resource in allocation:
                raise ValueError(f"duplicate resource in allocation: {resource!r}")
            allocation[resource] = workload
        groups: dict[str, list[str]] = {}
        for resource, workload in allocation.items():
            groups.setdefault(workload, []).append(resource)
        self._allocation = allocation
        self._resources_of = {w: frozenset(rs) for w, rs in groups.items()}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._allocation == other._allocation

    def __hash__(self) -> int:
        return hash(frozenset(self._allocation.items()))

    @property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        """The (resource, workload) pairs sorted by resource."""
        return tuple(sorted(self._allocation.items()))

    @property
    def allocation(self) -> dict[str, str]:
        return dict(self._allocation)

    @property
    def available_resources(self) -> frozenset[str]:
        return frozenset(self._allocation)

    def __len__(self) -> int:
        return len(self._allocation)


Payload = Union[None, str, frozenset]


class OpOutcome(NamedTuple):
    """Result of one operation: next state, report, optional output."""

    state: AllocationState
    report: Report
    payload: Payload = None


def init() -> AllocationState:
    """The initial analyzer state: nothing available, nothing allocated."""
    return AllocationState()


def add(state: AllocationState, resource: str, workload: str) -> OpOutcome:
    """Bind a new resource to a workload.

    Fails with AlreadyMapped (state unchanged, no overwrite) when the
    resource is already known.
    """
    check_token(resource)
    check_token(workload)
    if resource in state._allocation:
        return OpOutcome(state, Report.ALREADY_MAPPED)
    # Only the two new tokens need checking, so the grown dict and index go
    # onto a bare state directly instead of through the validating constructor.
    grown = AllocationState.__new__(AllocationState)
    grown._allocation = {**state._allocation, resource: workload}
    index = state._resources_of.copy()
    index[workload] = index.get(workload, frozenset()).union((resource,))
    grown._resources_of = index
    return OpOutcome(grown, Report.OK)


def find(state: AllocationState, resource: str) -> OpOutcome:
    """Look up the workload allocated to a resource.

    Fails with NotMapped when the resource is unknown. Never changes state.
    """
    check_token(resource)
    workload = state._allocation.get(resource)
    if workload is None:
        return OpOutcome(state, Report.NOT_MAPPED)
    return OpOutcome(state, Report.OK, workload)


def map_query(state: AllocationState, rank: str) -> OpOutcome:
    """All resources currently allocated to the given workload.

    Total: an unknown workload yields the empty set with OK.
    """
    check_token(rank)
    return OpOutcome(state, Report.OK, state._resources_of.get(rank, frozenset()))


def available(state: AllocationState) -> frozenset[str]:
    """The set of resources the analyzer knows about."""
    return state.available_resources
