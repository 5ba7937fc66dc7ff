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

Cost model: a state is a `__slots__` object holding its resource ->
workload mapping in two dicts with disjoint keys, a `_base` that states
share and never change and a small `_recent`, plus an index derived from
them that maps each workload to the sorted tuple of its resources. The
mapping is validated once when built from outside pairs. `add` checks
only its two new tokens and copies `_recent` with one more entry; once
`len(_recent)**2 > len(_base)` it folds `_recent` into a new base, so n
adds rebuild the base about 2*sqrt(n) times and each add costs amortised
O(sqrt(n)) on the mapping. It also copies the index (at most W entries,
one per workload) and inserts the new name into its workload's tuple of
k names with `bisect`, O(W + k). `find` is two dict lookups and
`map_query` one. Equality, hashing, `pairs`, `allocation` and `len` read
the merged mapping; `pairs` sorts on demand.
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_left
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


class CheckedTuple:
    """Base of the tuple value types whose one constructor checks them.

    A subclass puts it before its `namedtuple` base, so that `_make`, and so
    `_replace`, copy and pickle at every protocol, rebuild a value through
    that constructor too.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def __reduce__(self):
        return type(self), tuple(self)


class AllocationState:
    """Immutable allocation: each resource mapped to its workload.

    Resources are unique (the allocation is a function); several resources
    may carry the same workload. Equality, hashing and `pairs` do not depend
    on the order in which the pairs were given, nor on how the mapping is
    split between `_base` and `_recent`.

    Beside the mapping the state keeps `_resources_of`, the inverse index
    workload -> strictly increasing tuple of resources. It is derived from
    the mapping, so equality, hashing, `pairs`, `allocation` and
    `available` ignore it.
    """

    __slots__ = ("_base", "_recent", "_resources_of")

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
        self._base = allocation
        self._recent = {}
        self._resources_of = {w: tuple(sorted(rs)) for w, rs in groups.items()}

    def _merged(self) -> dict[str, str]:
        """The whole mapping, in the order its pairs were given or added."""
        return {**self._base, **self._recent} if self._recent else self._base

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._merged() == other._merged()

    def __hash__(self) -> int:
        return hash(frozenset(self._merged().items()))

    @property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        """The (resource, workload) pairs sorted by resource."""
        return tuple(sorted(self._merged().items()))

    @property
    def allocation(self) -> dict[str, str]:
        return dict(self._merged())

    def __len__(self) -> int:
        return len(self._base) + len(self._recent)

    def __reduce__(self):
        # copy and pickle rebuild a state from its pairs, through the checks.
        return type(self), (self.pairs,)


Payload = Union[None, str, tuple[str, ...]]


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
    base = state._base
    if resource in state._recent or resource in base:
        return OpOutcome(state, Report.ALREADY_MAPPED)
    # Only the two new tokens need checking, so the grown mapping and index
    # go onto a bare state directly instead of through the validating
    # constructor. The base is shared until `_recent` outgrows its square
    # root, and then rebuilt with `_recent` folded in.
    recent = {**state._recent, resource: workload}
    if len(recent) ** 2 > len(base):
        base, recent = {**base, **recent}, {}
    grown = AllocationState.__new__(AllocationState)
    grown._base = base
    grown._recent = recent
    index = state._resources_of.copy()
    resources = index.get(workload, ())
    at = bisect_left(resources, resource)
    index[workload] = resources[:at] + (resource,) + resources[at:]
    grown._resources_of = index
    return OpOutcome(grown, Report.OK)


def find(state: AllocationState, resource: str) -> OpOutcome:
    """Look up the workload allocated to a resource.

    Fails with NotMapped when the resource is unknown. Never changes state.
    """
    check_token(resource)
    workload = state._recent.get(resource) or state._base.get(resource)
    if workload is None:
        return OpOutcome(state, Report.NOT_MAPPED)
    return OpOutcome(state, Report.OK, workload)


def map_query(state: AllocationState, rank: str) -> OpOutcome:
    """All resources currently allocated to the given workload.

    The payload is the set in canonical form, its names in increasing
    order as a tuple. Total: an unknown workload yields `()` with OK.
    """
    check_token(rank)
    return OpOutcome(state, Report.OK, state._resources_of.get(rank, ()))


def available(state: AllocationState) -> frozenset[str]:
    """The set of resources the analyzer knows about."""
    return frozenset(state._merged())
