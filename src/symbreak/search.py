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
A frame keeps its untried candidates as a bit mask and tries them lowest
first, and it keeps the mask of values assigned above it, so a surviving
child passes that mask with its own value's bit down, and the GE-tree rule
(`ge_tree_mask`) reads it without walking the partial assignment.
Each frame also keeps its node's entailment flags (see
`PropagationEngine.run`): the root's full run fills them, and each child
runs on a copy of its parent's flags, so it never wakes a constraint that an
ancestor found entailed; a child's domains lie inside its parent's fixpoint,
where that constraint removes nothing.

`solve` propagates the problem's constraints as they are, with one
exception: when every constraint's scope is one variable set and at least
two are `DisjunctionEq`, as in the pigeonhole family with or without
precedence or generator-lex, its engine runs those disjunctions as one
`ValueCover` kernel (see `_fuse_value_covers`). The kernel reaches the same
fixpoint, so every node, branch and pruning is what it would be without
it. The leaf check still reads `problem.constraints`, and every other
caller of the engine, logged runs included, keeps the decomposition.

Most of those nodes are dead ends that one filter call wipes out, and
`solve` settles them without an engine run. Under the fusion guard,
pushing var's frame asks the kernel's `ValueCover.lookahead`, which names
exactly the children its first round wipes, and the `LexLeqPermuted.doomed`
of each lex filter whose flag at the node is clear, which names the values
b with sigma(b) < b when every position before var's is a singleton that
sigma fixes. The frame's doomed mask is the union of the values they
name, and its count is the one the kernel's scan gives. A doomed child
costs no domain copy, no flags copy and no engine run, yet counts as the
node, the branch, the backtrack and the prunings that the run would have
given, and `node_hook` still sees every node, in order. The counters are
exact:

- every constraint shares one variable set, and each filter empties the
  whole set when it empties any variable, so a wipeout run removes every
  value the child held, in any queue order: the other scope variables'
  bits plus 1, which is the count of the kernel's scan, whoever names
  the child;
- a child the kernel dooms: its flag is clear, since an entailed kernel
  dooms none (below); the engine builds `watchers` in constraint order,
  so a run with `changed=(var,)` pops the kernel first, and its first
  round wipes the scope;
- a child a lex filter dooms: the fixed prefix singletons and var = {b}
  survive every earlier call unless that call empties a variable, which
  is itself a wipeout. The lex filter is queued, because its flag is clear
  and it watches var. When it runs, it ties at each prefix position and
  meets sigma(b) < b at var's position, where the two sides can neither
  tie nor fall below, and it wipes the scope;
- a doomed child holds no solution, so the solutions, `goal="first"` and
  the order of `node_hook` calls do not move.

A frame settles its lowest untried candidates that are all doomed, up to
the next one that is not, in one step: k of them add k nodes, branches and
backtracks and k times the count to `prunings`, and `node_hook`, when set,
sees each in ascending order. That is exact because a settled child copies
and mutates nothing: the parent's domains, its flags and the frame's
doomed mask and count are what the next child reads, so k consecutive
doomed children are k single ones. No deadline check falls between them,
as none falls between children of one frame.

The kernel's lookahead runs at every frame, entailed or not. An entailed
kernel has each needed value as some scope variable's singleton, and so
does each child, so every child's first round returns `ENTAILED`: the scan
names no doomed and no quiet child and gives only the count. A lex filter
whose flag is set is not asked, since no run would queue it; the plain
pigeonhole, which has no lex filter, asks the kernel alone.

The kernel's scan also names its quiet children: those whose first round
pins nothing, wipes nothing and does not return `ENTAILED`, so that its
call returns a plain `[]`. When the kernel is the only constraint, and so
the only one that watches var, a quiet child is entered with no engine
run: it copies the parent's masks, sets var to {b} and shares the parent's
flag list. That is exact:

- the run with `changed=(var,)` would queue the kernel alone, as its flag
  is clear where it names a quiet child; the call removes nothing, so it
  wakes nothing, and leaves that flag clear, so the run would end with no
  prunings and no wipeout, and with the flags it began with;
- no frame's flag list is ever mutated in place, since every engine run
  writes into a fresh copy of its parent's, so children may share one;
- the child's masks are what the run would have left, so every node below
  it, and its solutions, are the same.

Any other constraint (a lex filter, a precedence) watches the one
variable set, var included, so there the child takes the engine run,
since that constraint may still remove values. On ge-tree `pigeonhole:10` the kernel's lookahead settles 21,147
of 26,442 nodes and enters the other 5,295 quietly, so the kernel runs
only at the root; on generator-lex `pigeonhole:8` the two lookaheads
settle 2,233 of 2,511, and the engine runs only at the root and at the 278
children that survive.

The kernel's lookahead takes the other scope variables in two parts (see
`ValueCover.lookahead`): a tuple it scans, and a summary of the rest. In
lex order every scope variable before var is assigned, so each frame
carries a summary of them: seen, the union of their values; twice, the
values that two or more of them take; and count, how many they are. A
child that survives takes its parent's summary and, when its variable is
in the kernel's scope, adds its own value in O(1). The lookahead then scans
only the scope variables after var. In min-domain order the assigned
variables are scattered, so the summary stays empty and the lookahead
scans every other scope variable, as before. That is exact:

- an entered node's assigned variables are singletons of their values: a
  child sets var to {b}, propagation can empty that singleton but not
  shrink it to another, and a child that wipes out is never entered;
- a singleton {v} adds v to seen, adds v to twice when v was already seen,
  adds v to covered and adds 1 to count, and none of these depends on the
  order in which the variables are read, so folding the summary in before
  the scan gives the full scan's masks and count;
- a singleton never holds two lone values, so the search for a variable
  that holds two of them skips the summarised ones;
- the summary records the kernel's scope alone, which under the fusion
  guard may be fewer than all the variables.

So each lookahead answers as the full scan would, and every counter,
solution and `node_hook` call is unchanged. On ge-tree `pigeonhole:10` a
frame at depth k reads 9 - k variables where it read 9.

Counters: a node is one attempted assignment; a branch is a maximal
root-to-leaf path, where a leaf is a wipeout, a solution, or an empty
candidate set. A failure at the root therefore counts zero branches.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

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


VAR_ORDERS = ("lex", "min-domain")
GOALS = ("first", "all", "count")


@dataclass(frozen=True)
class Strategy:
    var_order: str = "lex"  # one of VAR_ORDERS
    mode: str = "static"  # static | ge-tree
    # value order is always ascending

    def __post_init__(self):
        if self.var_order not in VAR_ORDERS:
            raise ValueError(f"unknown variable order {self.var_order!r}")
        if self.mode not in ("static", "ge-tree"):
            raise ValueError(f"unknown mode {self.mode!r}")


def ge_tree_mask(used: int, mask: int, partition: ValueClassPartition) -> int:
    """The GE-tree rule on masks: of mask, keep the values in used and, per
    class, the smallest class value not in used; off-class values pass."""
    keep = mask & (used | ~partition.classed_mask)
    for cls_mask in partition.class_masks:
        unused = cls_mask & ~used
        keep |= mask & unused & -unused  # the lowest unused class value, if in mask
    return keep


def ge_tree_candidates(
    partial: dict,
    var: int,
    dom: DomainSet,
    partition: ValueClassPartition,
) -> list[int]:
    """Branching values for var: per class, the values the partial assignment
    already uses plus the smallest unused one; off-class values pass through.
    `solve` applies the same rule as `ge_tree_mask`, to the used mask it
    carries down the search."""
    return bits_of(ge_tree_mask(mask_of(partial.values()), dom.masks[var], partition))


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
    its filter wipes only its inner scope. Constraints usually hold one
    scope tuple, so the variable sets are compared only where tuples differ.
    """
    disjunctions = [c for c in constraints if c.__class__ is DisjunctionEq]
    if len(disjunctions) < 2:
        return constraints
    scope = disjunctions[0].scope
    shared = frozenset(scope)
    if any(c.__class__ is Conditional or not (c.scope is scope or c.scope == scope or set(c.scope) == shared)
           for c in constraints):
        return constraints
    cover = ValueCover([c.value for c in disjunctions], scope)
    return [cover] + [c for c in constraints if c.__class__ is not DisjunctionEq]


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
    if goal not in GOALS:
        raise ValueError(f"unknown goal {goal!r}")
    ge_mode = strategy.mode == "ge-tree"
    partition = problem.partition
    if ge_mode and partition is None:
        raise ValueError("ge-tree mode requires a value class partition on the problem")

    num_vars = problem.num_vars
    min_domain = strategy.var_order == "min-domain"
    engine = PropagationEngine(_fuse_value_covers(problem.constraints), num_vars)
    cons = engine.constraints
    cover = cons[0] if cons and cons[0].__class__ is ValueCover else None
    # The variables whose value a frame's summary for the kernel records:
    # in lex order the kernel's scope, in min-domain order none.
    summarised = [False] * num_vars
    # Under the fusion guard, each other constraint with a lookahead, as
    # (its index, its doomed method): each lex filter; pigeonhole alone has
    # none.
    lookaheads = []
    if cover is not None:
        lookaheads = [(ci, c.doomed) for ci, c in enumerate(cons) if ci and hasattr(c, "doomed")]
        # Every constraint watches the kernel's variable set, so quiet
        # children skip the engine run only when the kernel is alone.
        solo = len(cons) == 1
        # Per variable, the scope variables its lookahead scans, made when
        # its first frame is pushed: in lex order the ones after it, since
        # the summary holds those before it; in min-domain order every other.
        scans: list = [None] * num_vars
        if not min_domain:
            for v in cover.scope:
                summarised[v] = True
    stats = SearchStats()
    solutions: list[tuple[int, ...]] = []
    partial: dict[int, int] = {}  # the current assignment, var -> value
    dom = (domains if domains is not None else problem.domains).copy()
    flags: list[bool] = []
    pruned, wiped = engine.run(dom, entailed=flags)
    stats.prunings += pruned
    if wiped:
        return solutions, stats

    # One frame per variable on the current path: [var, its domain and
    # entailment flags before branching, the mask of the values assigned
    # above it, the kernel's summary of the summarised variables assigned
    # above it (seen, twice, count; see `ValueCover.lookahead`), the mask of
    # its untried candidates, the lookaheads' doomed mask for var and the
    # kernel's wipeout count, and the mask of its quiet children]. Only the
    # untried mask changes in place.
    # dom, flags, used and summary are the node being entered, the root or a
    # child that propagation did not wipe out.
    used = 0
    summary = (0, 0, 0)
    stack: list[list] = []
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
            cands = ge_tree_mask(used, dom.masks[var], partition) if ge_mode else dom.masks[var]
            if cands:
                doomed = wipe_count = quiet = 0
                if cover is not None:
                    scan = scans[var]
                    if scan is None:
                        scan = scans[var] = tuple(
                            v for v in cover.scope if v != var and (min_domain or v > var))
                    doomed, wipe_count, quiet = cover.lookahead(dom.masks, var, scan, summary)
                    if not solo:
                        quiet = 0
                    for ci, lookahead in lookaheads:
                        if not flags[ci]:
                            doomed |= lookahead(dom.masks, var)
                stack.append([var, dom, flags, used, summary, cands, doomed, wipe_count, quiet])
            else:
                stats.branches += 1
                stats.backtracks += 1
        while stack:  # advance to the next child that survives propagation
            frame = stack[-1]
            (var, parent, parent_flags, parent_used, parent_summary,
             untried, doomed, wipe_count, quiet) = frame
            if not untried:
                stack.pop()
                partial.pop(var, None)  # a run settled without node_hook sets no value
                continue
            low = untried & -untried
            if doomed & low:
                # Every untried value below the lowest undoomed one: each is
                # one node, branch and backtrack (see the module docstring).
                live = untried & ~doomed
                run = untried & ((live & -live) - 1)  # all of untried when live is 0
                frame[5] = untried ^ run
                k = run.bit_count()
                stats.nodes += k
                stats.prunings += k * wipe_count
                stats.branches += k
                stats.backtracks += k
                if node_hook is not None:
                    for value in bits_of(run):
                        partial[var] = value
                        node_hook(dict(partial))
                continue
            frame[5] = untried ^ low
            value = low.bit_length() - 1
            stats.nodes += 1
            child = parent.copy()
            if quiet & low:
                # The kernel's run would remove nothing and entail nothing
                # (see the module docstring), so the child keeps the
                # parent's flags.
                child.masks[var] = low
                child_flags = parent_flags
                wiped = False
            else:
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
                used = parent_used | low
                summary = parent_summary
                if summarised[var]:
                    seen, twice, count = summary
                    summary = (seen | low, twice | seen & low, count + 1)
                break
            stats.branches += 1
            stats.backtracks += 1
        if not stack:
            return solutions, stats
