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
workload dict, validated once when built from outside pairs. `add` checks
only its two new tokens and sets a copy of the dict, with one more entry,
on a fresh empty state (copy on write: n adds cost O(n^2), at C speed);
`find` is one dict lookup; `map_query` is a scan. `pairs` sorts on demand.
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
    """

    __slots__ = ("_allocation",)

    def __init__(self, pairs: Iterable[tuple[str, str]] = ()) -> None:
        allocation: dict[str, str] = {}
        for resource, workload in pairs:
            check_token(resource)
            check_token(workload)
            if resource in allocation:
                raise ValueError(f"duplicate resource in allocation: {resource!r}")
            allocation[resource] = workload
        self._allocation = allocation

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
    # Only the two new tokens need checking, so the grown dict goes onto an
    # empty state directly instead of through the validating constructor.
    grown = AllocationState()
    grown._allocation = {**state._allocation, resource: workload}
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
    matched = frozenset(
        resource for resource, workload in state._allocation.items() if workload == rank
    )
    return OpOutcome(state, Report.OK, matched)


def available(state: AllocationState) -> frozenset[str]:
    """The set of resources the analyzer knows about."""
    return state.available_resources
