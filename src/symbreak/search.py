"""Backtracking search with per-node propagation and two labelling modes.

Static mode enumerates the problem as given; callers wanting static symmetry
breaking post the builder constraints first. Symmetry-skipping mode branches,
per class of interchangeable values, only on values already used plus the
single smallest unused one, which visits exactly one representative per
symmetry class of solutions. Candidate narrowing applies to the next
branching variable only; deeper variables keep their full domains until
propagation or branching reaches them.

The search is one loop over an explicit stack, one frame per assigned
variable, and each child copies its parent's domain masks. Depth costs no
Python recursion, so the recursion limit does not bound the variable count.
Each frame also keeps its node's entailment flags (see
`PropagationEngine.run`): the root's full run fills them, and each child
runs on a copy of its parent's flags, so it never wakes a constraint that an
ancestor found entailed; a child's domains lie inside its parent's fixpoint,
where that constraint removes nothing.

`solve` propagates the problem's constraints as they are, with one
exception: when every constraint's scope is one variable set and at least
two are `DisjunctionEq`, as in the pigeonhole family with or without
precedence or generator-lex, its engine runs those disjunctions as one
`ValueCover` kernel (see `_fuse_value_covers`). On ge-tree `pigeonhole:10`
that is one call per node in place of 3.2 disjunction calls. The kernel
reaches the same fixpoint, so every node, branch and pruning is what it
would be without it. The leaf check still reads `problem.constraints`, and
every other caller of the engine, logged runs included, keeps the
decomposition.

Counters: a node is one attempted assignment; a branch is a maximal
root-to-leaf path, where a leaf is a wipeout, a solution, or an empty
candidate set. A failure at the root therefore counts zero branches.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Optional, Sequence

from .breaking import ValueClassPartition
from .constraints import Conditional, DisjunctionEq, ValueCover
from .engine import DomainSet, Problem, PropagationEngine, bits_of, mask_of


class SearchTimeout(Exception):
    """Raised when a deadline passes mid-search; carries the stats so far."""

    def __init__(self, stats: "SearchStats"):
        super().__init__("search deadline exceeded")
        self.stats = stats


@dataclass
class SearchStats:
    nodes: int = 0
    branches: int = 0
    backtracks: int = 0
    prunings: int = 0
    solutions: int = 0

    def as_record(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Strategy:
    var_order: str = "lex"  # lex | min-domain
    mode: str = "static"  # static | ge-tree
    # value order is always ascending

    def __post_init__(self):
        if self.var_order not in ("lex", "min-domain"):
            raise ValueError(f"unknown variable order {self.var_order!r}")
        if self.mode not in ("static", "ge-tree"):
            raise ValueError(f"unknown mode {self.mode!r}")


def ge_tree_candidates(
    partial: dict,
    var: int,
    dom: DomainSet,
    partition: ValueClassPartition,
) -> list[int]:
    """Branching values for var: per class, the values the partial assignment
    already uses plus the smallest unused one; off-class values pass through."""
    used = mask_of(partial.values())
    mask = dom.masks[var]
    keep = mask & (used | ~partition.classed_mask)
    for cls_mask in partition.class_masks:
        unused = cls_mask & ~used
        keep |= mask & unused & -unused  # the lowest unused class value, if in dom
    return bits_of(keep)


def _fuse_value_covers(constraints: tuple) -> Sequence:
    """The constraints `solve` propagates: the problem's own, except that
    when every constraint's scope is one variable set and at least two are
    `DisjunctionEq`, those become one `ValueCover`, queued first.

    The kernel reaches the members' fixpoint, so every node keeps its domains
    and wipeout flag; the guard keeps `prunings` exact too. A run that ends
    in a wipeout stops at the first filter call that empties a variable, and
    every filter here empties its whole scope, which is the whole set, so
    the run's count is every value the set held when the run began, however
    the queue was ordered. A `Conditional` is left out of the guard, since
    its filter wipes only its inner scope.
    """
    disjunctions = [c for c in constraints if c.__class__ is DisjunctionEq]
    if len(disjunctions) < 2:
        return constraints
    shared = set(disjunctions[0].scope)
    if any(c.__class__ is Conditional or set(c.scope) != shared for c in constraints):
        return constraints
    return [ValueCover(disjunctions)] + [c for c in constraints if c.__class__ is not DisjunctionEq]


def solve(
    problem: Problem,
    domains: Optional[DomainSet] = None,
    strategy: Optional[Strategy] = None,
    goal: str = "all",
    deadline: Optional[float] = None,
    node_hook: Optional[Callable[[dict], None]] = None,
):
    """Search the problem; returns (solutions, stats).

    goal: "first" stops at one solution, "all" collects every one found,
    "count" only counts. Solutions are full value vectors in variable order.
    In ge-tree mode they are one representative per symmetry class.
    """
    strategy = strategy or Strategy()
    if goal not in ("first", "all", "count"):
        raise ValueError(f"unknown goal {goal!r}")
    ge_mode = strategy.mode == "ge-tree"
    partition = problem.partition
    if ge_mode and partition is None:
        raise ValueError("ge-tree mode requires a value class partition on the problem")

    engine = PropagationEngine(_fuse_value_covers(problem.constraints), problem.num_vars)
    stats = SearchStats()
    solutions: list[tuple[int, ...]] = []
    num_vars = problem.num_vars
    partial: dict[int, int] = {}  # the current assignment, var -> value
    min_domain = strategy.var_order == "min-domain"
    dom = (domains if domains is not None else problem.domains).copy()
    flags: list[bool] = []
    pruned, wiped = engine.run(dom, entailed=flags)
    stats.prunings += pruned
    if wiped:
        return solutions, stats

    # One frame per variable on the current path: (var, its domain before
    # branching, its entailment flags, the candidates not yet tried). dom and
    # flags are the node being entered, the root or a child that propagation
    # did not wipe out.
    stack: list[tuple[int, DomainSet, list[bool], Iterator[int]]] = []
    while True:
        if deadline is not None and time.perf_counter() > deadline:
            raise SearchTimeout(stats)
        if min_domain:
            free = (i for i in range(num_vars) if i not in partial)
            var = min(free, key=dom.size, default=None)
        else:
            # In lex order the frames on the stack are variables 0..k-1.
            var = len(stack) if len(stack) < num_vars else None
        if var is None:
            # Checker-only constraints never prune, so leaves are re-verified.
            stats.branches += 1
            vec = tuple(partial[i] for i in range(num_vars))
            if all(c.check(vec) for c in problem.constraints):
                stats.solutions += 1
                if goal != "count":
                    solutions.append(vec)
                if goal == "first":
                    return solutions, stats
            else:
                stats.backtracks += 1
        else:
            cands = ge_tree_candidates(partial, var, dom, partition) if ge_mode else dom.values(var)
            if cands:
                stack.append((var, dom, flags, iter(cands)))
            else:
                stats.branches += 1
                stats.backtracks += 1
        while stack:  # advance to the next child that survives propagation
            var, parent, parent_flags, untried = stack[-1]
            value = next(untried, None)
            if value is None:
                stack.pop()
                del partial[var]
                continue
            stats.nodes += 1
            child = parent.copy()
            child.assign(var, value)
            child_flags = parent_flags[:]
            pruned, wiped = engine.run(child, changed=(var,), entailed=child_flags)
            stats.prunings += pruned
            partial[var] = value
            if node_hook is not None:
                node_hook(dict(partial))
            if not wiped:
                dom = child
                flags = child_flags
                break
            stats.branches += 1
            stats.backtracks += 1
        if not stack:
            return solutions, stats
