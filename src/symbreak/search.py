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

Counters: a node is one attempted assignment; a branch is a maximal
root-to-leaf path, where a leaf is a wipeout, a solution, or an empty
candidate set. A failure at the root therefore counts zero branches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .breaking import ValueClassPartition
from .engine import DomainSet, Problem, PropagationEngine


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
    wall_ms: float = 0.0

    def as_record(self) -> dict:
        return {
            "nodes": self.nodes,
            "branches": self.branches,
            "backtracks": self.backtracks,
            "prunings": self.prunings,
            "solutions": self.solutions,
        }


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
    used = set(partial.values())
    smallest_unused: dict[tuple[int, ...], Optional[int]] = {}
    out = []
    for value in dom.values(var):
        cls = partition.class_of(value)
        if cls is not None and value not in used:
            if cls not in smallest_unused:
                smallest_unused[cls] = next((v for v in cls if v not in used), None)
            if value != smallest_unused[cls]:
                continue
        out.append(value)
    return out


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

    engine = PropagationEngine(problem.constraints, problem.num_vars)
    stats = SearchStats()
    solutions: list[tuple[int, ...]] = []
    num_vars = problem.num_vars
    partial: dict[int, int] = {}  # the current assignment, var -> value
    min_domain = strategy.var_order == "min-domain"
    start = time.perf_counter()

    def finish():
        stats.wall_ms = (time.perf_counter() - start) * 1000.0
        return solutions, stats

    dom = (domains if domains is not None else problem.domains).copy()
    pruned, wiped = engine.run(dom)
    stats.prunings += pruned
    if wiped:
        return finish()

    def pick_var(dom: DomainSet) -> Optional[int]:
        free = (i for i in range(num_vars) if i not in partial)
        return min(free, key=dom.size, default=None) if min_domain else next(free, None)

    # One frame per variable on the current path: (var, its domain before
    # branching, the candidates not yet tried). dom is the node being entered,
    # the root or a child that propagation did not wipe out.
    stack: list[tuple[int, DomainSet, Iterator[int]]] = []
    while True:
        if deadline is not None and time.perf_counter() > deadline:
            finish()
            raise SearchTimeout(stats)
        var = pick_var(dom)
        if var is None:
            # Checker-only constraints never prune, so leaves are re-verified.
            stats.branches += 1
            vec = tuple(partial[i] for i in range(num_vars))
            if all(c.check(vec) for c in problem.constraints):
                stats.solutions += 1
                if goal != "count":
                    solutions.append(vec)
                if goal == "first":
                    return finish()
            else:
                stats.backtracks += 1
        else:
            cands = ge_tree_candidates(partial, var, dom, partition) if ge_mode else dom.values(var)
            if cands:
                stack.append((var, dom, iter(cands)))
            else:
                stats.branches += 1
                stats.backtracks += 1
        while stack:  # advance to the next child that survives propagation
            var, parent, untried = stack[-1]
            value = next(untried, None)
            if value is None:
                stack.pop()
                del partial[var]
                continue
            stats.nodes += 1
            child = parent.copy()
            child.assign(var, value)
            pruned, wiped = engine.run(child, changed=(var,))
            stats.prunings += pruned
            partial[var] = value
            if node_hook is not None:
                node_hook(dict(partial))
            if not wiped:
                dom = child
                break
            stats.branches += 1
            stats.backtracks += 1
        if not stack:
            return finish()
