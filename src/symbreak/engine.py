"""Finite-domain variables, bitset domains, and the propagation fixpoint loop.

Variables are indices 0..n-1. Values are small positive integers starting at
1. A domain is an int bitmask with bit v set when value v is present, which
keeps membership tests, removals and copies cheap for the value ranges this
engine targets (at most a few hundred values).

A `Problem` plus a `DomainSet` is a self-contained value: nothing here touches
global state, so independent instances can run on separate threads.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Optional, Sequence, Union


# Masks up to this many bits wide (in mask_of), or with up to this many
# bits set (in bits_of and the log expansion), take the one-bit-at-a-time
# paths below, which are the fastest for them. Each step on a wide mask
# costs time linear in its width, so a mask with more bits set takes one
# pass over a byte or bit string instead; with at most this many steps the
# one-bit loop is linear in the width too, and cheaper than that string for
# the common write that loses one value above 64.
_NARROW_BITS = 64


def mask_of(values: Iterable[int]) -> int:
    m = 0
    wide = None
    for v in values:
        if v < 1:
            raise ValueError(f"values must be positive integers, got {v}")
        if v < _NARROW_BITS:
            m |= 1 << v
        elif wide is None:
            wide = [v]
        else:
            wide.append(v)
    if wide is not None:
        buf = bytearray(max(wide) // 8 + 1)
        for v in wide:
            buf[v >> 3] |= 1 << (v & 7)
        m |= int.from_bytes(buf, "little")
    return m


def full_mask(num_values: int) -> int:
    """The mask of 1..num_values (0 when num_values < 1), in closed form:
    building it value by value costs time quadratic in num_values."""
    return (1 << (num_values + 1)) - 2 if num_values > 0 else 0


def bits_of(mask: int) -> list[int]:
    """The values in mask, ascending."""
    if mask.bit_count() > _NARROW_BITS:
        return [v for v, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class DomainSet:
    """Per-variable value sets, one bitmask per variable.

    Removal is strict: taking out a value that is not present is a bug in the
    caller and raises. A variable with an empty mask is a wipeout; callers
    treat that as a terminal state and never re-add values.
    """

    __slots__ = ("masks",)

    def __init__(self, masks: Iterable[int]):
        self.masks = list(masks)

    @classmethod
    def full(cls, num_vars: int, num_values: int) -> "DomainSet":
        return cls([full_mask(num_values)] * num_vars)

    @classmethod
    def from_values(cls, value_lists: Iterable[Iterable[int]]) -> "DomainSet":
        return cls([mask_of(vals) for vals in value_lists])

    def copy(self) -> "DomainSet":
        return DomainSet(self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    def contains(self, var: int, value: int) -> bool:
        return bool(self.masks[var] >> value & 1)

    def remove(self, var: int, value: int) -> None:
        bit = 1 << value
        if not self.masks[var] & bit:
            raise ValueError(f"value {value} not in domain of variable {var}")
        self.masks[var] ^= bit

    def assign(self, var: int, value: int) -> None:
        """Shrink the domain of var to the single given value."""
        if not self.masks[var] >> value & 1:
            raise ValueError(f"value {value} not in domain of variable {var}")
        self.masks[var] = 1 << value

    def values(self, var: int) -> list[int]:
        return bits_of(self.masks[var])

    def size(self, var: int) -> int:
        return self.masks[var].bit_count()

    def is_empty(self, var: int) -> bool:
        return self.masks[var] == 0

    def has_wipeout(self) -> bool:
        return any(m == 0 for m in self.masks)

    def as_lists(self) -> list[list[int]]:
        return [bits_of(m) for m in self.masks]

    def is_subset_of(self, other: "DomainSet") -> bool:
        return all(a & ~b == 0 for a, b in zip(self.masks, other.masks))

    def __eq__(self, other) -> bool:
        return isinstance(other, DomainSet) and self.masks == other.masks

    def __repr__(self) -> str:
        return f"DomainSet({self.as_lists()})"


class Pruning(NamedTuple):
    var: int
    value: int
    cause: object  # the constraint that removed the value, or a short label


class Removals:
    """The values one filter call removed, held as (var, lost mask) writes.

    `count` is the number of removed (var, value) pairs. The pairs
    themselves are built only on demand: iterating yields them in write
    order, ascending by value within a write, and the record compares equal
    to a list of those pairs, so `len`, `set`, `sorted` and `== [...]` read
    it as the removal list it stands for. A call that removes nothing
    returns a plain `[]` instead, so a record is never empty.

    `constraints._narrow` and `constraints._wipe_scope`, the two writers of
    filter removals, create a record on the first write that removes
    something and set both slots themselves: there is no `__init__`, whose
    call would cost about as much as the rest of a small filter call.
    """

    __slots__ = ("writes", "count")

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        for var, lost in self.writes:
            for value in bits_of(lost):
                yield var, value

    def __eq__(self, other) -> bool:
        if isinstance(other, (Removals, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Removals({list(self)!r})"


# What a filter returns when it removed nothing and its constraint holds on
# every non-empty subdomain of the domain it saw, so that no later call can
# remove anything. A plain empty list, recognised by identity; it is shared,
# so no caller may mutate a filter's return.
ENTAILED: list = []


@dataclass
class PropagationOutcome:
    """What a propagation run did: the ordered removal log, the wipeout flag,
    and the domains at the fixpoint (or at the point the wipeout surfaced)."""

    prunings: list[Pruning]
    wipeout: bool
    final_domains: DomainSet

    def pruned_pairs(self) -> set[tuple[int, int]]:
        return {(p.var, p.value) for p in self.prunings}


Assignment = Union[Sequence[Optional[int]], dict]


def _as_vector(assignment: Assignment, num_vars: int) -> list[Optional[int]]:
    if isinstance(assignment, dict):
        vec: list[Optional[int]] = [None] * num_vars
        for var, value in assignment.items():
            vec[var] = value
        return vec
    vec = list(assignment)
    if len(vec) != num_vars:
        raise ValueError(f"assignment has {len(vec)} entries, expected {num_vars}")
    return vec


@dataclass(frozen=True)
class Problem:
    """A finite-domain CSP: variable count, value capacity, initial domains,
    constraints, and optionally the interchangeable-value classes."""

    num_vars: int
    num_values: int
    domains: DomainSet
    constraints: tuple = ()
    partition: Optional[object] = None  # ValueClassPartition, kept duck-typed

    def __post_init__(self):
        if len(self.domains) != self.num_vars:
            raise ValueError(
                f"domain set covers {len(self.domains)} variables, expected {self.num_vars}"
            )
        top = full_mask(self.num_values)
        for var, mask in enumerate(self.domains.masks):
            if mask & ~top:
                raise ValueError(f"domain of variable {var} exceeds 1..{self.num_values}")
        num_vars = self.num_vars
        checked = None  # constraints built together often share one scope tuple
        for c in self.constraints:
            scope = c.scope
            if scope is not checked:
                for var in scope:
                    if not 0 <= var < num_vars:
                        raise ValueError(f"constraint {c!r} references variable {var}")
                checked = scope
        if self.partition is not None:
            for cls in self.partition.classes:
                for v in cls:
                    if not 1 <= v <= self.num_values:
                        raise ValueError(f"partition value {v} outside 1..{self.num_values}")

    def with_constraints(self, extra) -> "Problem":
        """A copy of this problem with additional constraints appended."""
        return replace(self, constraints=self.constraints + tuple(extra))


class PropagationEngine:
    """Reusable fixpoint loop over a fixed constraint list.

    The queue is constraint-oriented: a constraint re-enters whenever the
    domain of any variable in its scope changes. Propagators are complete per
    call, so a constraint is not re-queued by its own removals.
    """

    def __init__(self, constraints: Sequence, num_vars: int):
        self.constraints = list(constraints)
        watchers: list[list[int]] = [[] for _ in range(num_vars)]
        for ci, c in enumerate(self.constraints):
            for var in c.scope:
                watchers[var].append(ci)
        self.watchers = watchers

    def run(
        self,
        dom: DomainSet,
        changed: Optional[Iterable[int]] = None,
        log: Optional[list] = None,
        entailed: Optional[list] = None,
    ):
        """Propagate to fixpoint, mutating dom.

        Returns (removal count, wipeout). With `changed` given, only
        constraints watching those variables are seeded; the caller asserts
        that every other constraint is already at fixpoint on dom. Each
        filter call returns `[]` or a `Removals` record: the count comes from
        the record, and the wipeout check and the constraints to wake from
        the variables it wrote. Removals are expanded into (var, value)
        pairs and appended to `log` as Pruning entries only when a list is
        supplied; callers that only need the count skip that cost.

        The wake order fixes the queue order, and with it the log and the
        cause of each pruning: a record with one write wakes the watchers of
        its variable, and a record with more writes wakes those of each
        distinct variable in the iteration order of the set of its
        variables, never in write order.

        `inq[ci]` is set exactly while constraint ci is queued, running or
        entailed: the running constraint keeps its flag until it has woken
        the others, so the wake loop skips it, like any queued one, by that
        flag alone (its filter is complete, so its own writes give it nothing
        to do). A filter that returns `ENTAILED` keeps its flag for the rest
        of the run: it removes nothing on any smaller domain, so it is never
        queued again, and since popping a no-op call wakes nothing, the
        queue order of every other constraint, the log, each pruning's cause
        and the count before a wipeout stay what they would be if it were
        called. Every other path that goes on to the next constraint clears
        the flag; a wipeout ends the run, and the flags with it.

        A full run does not seed a queue of every constraint: it sweeps a
        cursor over constraints 0..N-1, then drains the queue of those woken
        since, which pops them in exactly the seeded queue's order. While the
        cursor is at ci, every constraint above ci is still seeded, so its
        flag is set; and the queue is not popped during the sweep, so a
        constraint that a wake once found queued or entailed stays so until
        the drain. A wake on var during the sweep therefore scans only the
        watchers between `swept[var]`, where its last wake stopped, and ci
        (watcher lists ascend by constraint index), and moves `swept[var]`
        there: each watcher entry is scanned at most once per sweep, and the
        entries it skips are exactly those whose flags are set, so the queue
        order, the log and every count stay what a full seeded queue gives.
        After the sweep, and in incremental runs, a wake scans the whole list.

        `entailed`, when given, is a list of per-constraint flags that the
        caller owns, and the run uses it as `inq`. An incremental run reads
        each set flag as a constraint entailed on a domain that contains dom
        and never queues it; a full run overwrites the list. On a normal
        exit it holds exactly the flags of the constraints found entailed,
        and a copy of it may seed a run on any subdomain of the fixpoint;
        after a wipeout its contents are unspecified.
        """
        cons = self.constraints
        watchers = self.watchers
        masks = dom.masks
        queue: deque[int] = deque()
        push = queue.append
        pop = queue.popleft
        entailed_mark = ENTAILED
        new = tuple.__new__
        sweep_end = cursor = 0
        if changed is None:
            if entailed is None:
                inq = [True] * len(cons)
            else:
                inq = entailed
                inq[:] = [True] * len(cons)
            sweep_end = len(cons)
            swept = [0] * len(watchers)
        else:
            inq = [False] * len(cons) if entailed is None else entailed
            for var in changed:
                for ci in watchers[var]:
                    if not inq[ci]:
                        inq[ci] = True
                        push(ci)
        count = 0
        while True:
            sweeping = cursor < sweep_end
            if sweeping:
                ci = cursor
                cursor += 1
            elif queue:
                ci = pop()
            else:
                return count, False
            c = cons[ci]
            removed = c.propagate(dom)
            if not removed:
                inq[ci] = removed is entailed_mark
                continue
            count += removed.count
            writes = removed.writes
            if log is not None:
                # Expanded inline: a generator or a bits_of call per write
                # costs more than the expansion of a small record, and
                # tuple.__new__ skips the NamedTuple's Python-level __new__.
                for var, lost in writes:
                    if lost.bit_count() > _NARROW_BITS:
                        log += [new(Pruning, (var, value, c)) for value in bits_of(lost)]
                        continue
                    while lost:
                        low = lost & -lost
                        log.append(new(Pruning, (var, low.bit_length() - 1, c)))
                        lost ^= low
            if len(writes) == 1:
                var = writes[0][0]
                if not masks[var]:
                    return count, True
                woken = (var,)
            else:
                for var, _ in writes:
                    if not masks[var]:
                        return count, True
                woken = {var for var, _ in writes}
            for var in woken:
                ws = watchers[var]
                if sweeping:
                    # The entries outside [swept[var], ci) have their flags set.
                    lo = swept[var]
                    swept[var] = hi = bisect_left(ws, ci, lo)
                    ws = ws[lo:hi]
                for cj in ws:
                    if not inq[cj]:
                        inq[cj] = True
                        push(cj)
            inq[ci] = False


def propagate_fixpoint(problem: Problem, domains: Optional[DomainSet] = None) -> PropagationOutcome:
    """Run every constraint's propagator to mutual fixpoint.

    Wipeout is a reported outcome, not an error; propagation stops at the
    first empty domain. For monotone propagators the non-wipeout fixpoint is
    unique, so the result does not depend on scheduling order.
    """
    dom = (domains if domains is not None else problem.domains).copy()
    engine = PropagationEngine(problem.constraints, problem.num_vars)
    log: list[Pruning] = []
    _, wipeout = engine.run(dom, log=log)
    return PropagationOutcome(log, wipeout, dom)


def is_solution(problem: Problem, assignment: Assignment) -> bool:
    """True iff the total assignment satisfies every constraint."""
    vec = _as_vector(assignment, problem.num_vars)
    for var, value in enumerate(vec):
        if value is None:
            raise ValueError(f"assignment is partial: variable {var} unassigned")
    return all(c.check(vec) for c in problem.constraints)
