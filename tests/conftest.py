"""Shared helpers: random instance builders and independent oracles.

The oracles here are deliberately written against the raw definitions
(itertools products, tuple comparisons) so they share no code path with the
library's filtering or enumeration.
"""

from __future__ import annotations

import itertools
import random
import time
import tracemalloc
from collections import deque

from symbreak import DomainSet, Problem
from symbreak.breaking import ValueClassPartition
from symbreak.constraints import (
    Constraint,
    DisjunctionEq,
    EqImpliesEq,
    EqImpliesLeq,
    ParityLink,
    StrictLess,
)
from symbreak.engine import ENTAILED, Pruning


def make_rng(seed):
    return random.Random(seed)


def best_time(call, repeat=5):
    """The shortest wall time of `repeat` calls of call(), and the result of
    the last one. The scaling tests compare such times across sizes."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - t0)
    return best, result


def peak_bytes(call):
    """How far the traced memory rose above its level before call() while
    the call ran, in bytes."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def random_domain_lists(rng, n, m):
    return [sorted(rng.sample(range(1, m + 1), rng.randint(1, m))) for _ in range(n)]


def random_domains(rng, n, m):
    return DomainSet.from_values(random_domain_lists(rng, n, m))


def random_binary_constraint(rng, n, m):
    a = rng.randrange(n)
    b = rng.randrange(n)
    while b == a:
        b = rng.randrange(n)
    kind = rng.randrange(4)
    if kind == 0:
        return EqImpliesLeq(a, rng.randint(1, m), b, rng.randint(1, m))
    if kind == 1:
        return EqImpliesEq(a, rng.randint(1, m), b, rng.randint(1, m))
    if kind == 2:
        return StrictLess(a, b)
    return ParityLink(a, rng.choice(["odd", "even"]), b, rng.choice(["odd", "even"]))


def random_binary_problem(rng, n_max=5, m_max=5, constraints_max=6):
    n = rng.randint(2, n_max)
    m = rng.randint(2, m_max)
    cons = tuple(
        random_binary_constraint(rng, n, m) for _ in range(rng.randint(0, constraints_max))
    )
    return Problem(n, m, random_domains(rng, n, m), cons)


def random_mixed_problem(rng, n_max=4, m_max=4):
    """Binary constraints plus the occasional disjunction; partitions kept
    small so full enumeration stays cheap."""
    n = rng.randint(2, n_max)
    m = rng.randint(2, m_max)
    cons = [random_binary_constraint(rng, n, m) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.5:
        cons.append(DisjunctionEq(rng.randint(1, m), range(n)))
    return Problem(n, m, random_domains(rng, n, m), tuple(cons))


def random_symmetric_problem(rng, n_max=4, m_max=4):
    """A problem whose solution set is invariant under its class group:
    every domain holds whole classes (or none), and constraints are drawn
    from class-invariant families only."""
    from symbreak.constraints import AtLeastNValues, DisjunctionEq

    n = rng.randint(2, n_max)
    m = rng.randint(2, m_max)
    part = random_partition(rng, m)
    classed = {v for cls in part.classes for v in cls}
    free = [v for v in range(1, m + 1) if v not in classed]
    lists = []
    for _ in range(n):
        values = set()
        for cls in part.classes:
            if rng.random() < 0.8:
                values.update(cls)
        values.update(v for v in free if rng.random() < 0.5)
        if not values:
            values.update(part.classes[0])
        lists.append(sorted(values))
    cons = ()
    roll = rng.random()
    if roll < 0.3:
        cls = part.classes[rng.randrange(len(part.classes))]
        cons = tuple(DisjunctionEq(j, range(n)) for j in cls)
    elif roll < 0.6:
        cons = (AtLeastNValues(n, rng.randint(1, min(n, m))),)
    return Problem(n, m, DomainSet.from_values(lists), cons, part)


def random_partition(rng, m, max_classes=2):
    values = list(range(1, m + 1))
    rng.shuffle(values)
    classes = []
    while values and len(classes) < max_classes:
        take = rng.randint(2, max(2, len(values)))
        take = min(take, len(values))
        if take < 2:
            break
        classes.append(sorted(values[:take]))
        values = values[take:]
    if not classes:
        classes = [[1, 2]] if m >= 2 else [[1]]
    return ValueClassPartition.of(classes)


def all_total_assignments(domains: DomainSet):
    return itertools.product(*[domains.values(v) for v in range(len(domains))])


def brute_solutions(problem: Problem, domains: DomainSet | None = None):
    """Full product enumeration with per-constraint checks; independent of the
    library's backtracking enumerator."""
    dom = domains if domains is not None else problem.domains
    out = []
    for vec in all_total_assignments(dom):
        if all(c.check(vec) for c in problem.constraints):
            out.append(vec)
    return out


def support_marking_gac(constraints, domains: DomainSet):
    """Single-constraint-set filtering by marking the components of every
    satisfying scope assignment; returns (pruned pair set, wipeout)."""
    scope = sorted({v for c in constraints for v in c.scope})
    width = max(scope) + 1 if scope else 0
    supported = set()
    for combo in itertools.product(*[domains.values(v) for v in scope]):
        vec = [None] * width
        for var, val in zip(scope, combo):
            vec[var] = val
        if all(c.check(vec) for c in constraints):
            supported.update(zip(scope, combo))
    pruned = set()
    wipeout = False
    for var in scope:
        values = domains.values(var)
        kept = [v for v in values if (var, v) in supported]
        pruned.update((var, v) for v in values if (var, v) not in supported)
        if not kept:
            wipeout = True
    return pruned, wipeout


def decomposed_lex_filter(perm, order, domains: DomainSet):
    """Fixpoint of the two-vector lex relaxation with channelling, computed
    from lex-least/lex-greatest tuple comparisons. Returns (pruned, final,
    wipeout)."""
    dom = domains.copy()
    pruned = set()
    inv = perm.inverse()

    def wipe():
        for var in order:
            for v in dom.values(var):
                dom.remove(var, v)
                pruned.add((var, v))
        return pruned, dom, True

    changed = True
    while changed:
        changed = False
        left = [dom.values(v) for v in order]
        if any(not l for l in left):
            return wipe()
        right = [sorted(perm(x) for x in l) for l in left]
        least = [l[0] for l in left]
        greatest = [r[-1] for r in right]
        if tuple(least) > tuple(greatest):
            return wipe()
        for i, var in enumerate(order):
            for v in list(left[i]):
                probe = least[:i] + [v] + least[i + 1 :]
                if tuple(probe) > tuple(greatest) and dom.contains(var, v):
                    dom.remove(var, v)
                    pruned.add((var, v))
                    changed = True
            for w in list(right[i]):
                probe = greatest[:i] + [w] + greatest[i + 1 :]
                if tuple(least) > tuple(probe):
                    v = inv(w)
                    if dom.contains(var, v):
                        dom.remove(var, v)
                        pruned.add((var, v))
                        changed = True
            if dom.is_empty(var):
                return wipe()
    return pruned, dom, False


class EntailmentProxy(Constraint):
    """Delegates to a constraint and counts its filter calls in a shared
    one-item list. A blind proxy returns a fresh [] in place of ENTAILED, so
    the engine and search never learn that the constraint is entailed."""

    def __init__(self, inner, calls, blind):
        self.inner = inner
        self.scope = inner.scope
        self.calls = calls
        self.blind = blind

    def check(self, assignment):
        return self.inner.check(assignment)

    def propagate(self, dom):
        self.calls[0] += 1
        removed = self.inner.propagate(dom)
        return [] if self.blind and removed is ENTAILED else removed

    def describe(self):
        return self.inner.describe()


def reference_run(constraints, num_vars, dom, changed=None, log=None, entailed=None):
    """The engine's documented schedule as a plain FIFO loop, mutating dom;
    returns (removal count, wipeout) like `PropagationEngine.run`.

    A full run seeds every constraint in index order; with `changed`, the
    watchers of those variables, each once. Each popped filter is called;
    its removals go to the log in write order, values ascending within a
    write. A single write wakes its variable's watchers in index order,
    several writes the watchers of `{var for var, _ in writes}` in that
    set's iteration order. A flag is set while its constraint is queued or
    running, and stays set for a filter that returns ENTAILED."""
    watchers = [[ci for ci, c in enumerate(constraints) if var in c.scope] for var in range(num_vars)]
    flags = [False] * len(constraints) if entailed is None else entailed
    queue = deque()

    def wake(var):
        for cj in watchers[var]:
            if not flags[cj]:
                flags[cj] = True
                queue.append(cj)

    if changed is None:
        flags[:] = [True] * len(constraints)
        queue.extend(range(len(constraints)))
    else:
        for var in changed:
            wake(var)
    count = 0
    while queue:
        ci = queue.popleft()
        c = constraints[ci]
        removed = c.propagate(dom)
        if not removed:
            flags[ci] = removed is ENTAILED
            continue
        for var, lost in removed.writes:
            for value in range(lost.bit_length()):
                if lost >> value & 1:
                    count += 1
                    if log is not None:
                        log.append(Pruning(var, value, c))
        if any(not dom.masks[var] for var, _ in removed.writes):
            return count, True
        if len(removed.writes) == 1:
            wake(removed.writes[0][0])
        else:
            for var in {var for var, _ in removed.writes}:
                wake(var)
        flags[ci] = False
    return count, False


class CallRecorder(Constraint):
    """Delegates to a constraint and appends its index to a shared list on
    each filter call, so two schedulers can be compared call by call."""

    def __init__(self, inner, index, calls):
        self.inner = inner
        self.scope = inner.scope
        self.index = index
        self.calls = calls

    def check(self, assignment):
        return self.inner.check(assignment)

    def propagate(self, dom):
        self.calls.append(self.index)
        return self.inner.propagate(dom)

    def describe(self):
        return self.inner.describe()
