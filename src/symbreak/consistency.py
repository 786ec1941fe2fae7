"""Ground-truth oracles, higher consistency levels, and filtering levels by name.

Everything here works by enumeration against explicit budgets: exact solution
listing, brute-force support filtering, singleton arc consistency, and the
naive strong k-consistency checker. Exceeding a budget raises; there is no
silent truncation. SAC takes an optional deadline instead, and passing it
raises as well.

The enumerators assign variables one at a time and check each constraint as
soon as its scope is assigned. A constraint whose `checks_partial` is set
(value precedence, class canonicity) is also checked on every prefix that
assigns part of its scope, and a prefix it rejects is not extended: no
completion of it could satisfy the constraint. This prunes the walk, never
the result. Budgets still count the full domain product, so whether a call
raises BudgetExceeded does not depend on how much of the walk is pruned.

SAC skips a singleton probe whose outcome is already known not to be a
wipeout, in the manner of SAC-SDS (Bessière & Debruyne, IJCAI 2005) and of
SAC3's greedy branches (Lecoutre & Cardon, IJCAI 2005): when the variable is
already fixed to the value, or when an earlier surviving probe left a
fixpoint that fixes it and still lies inside the current domains. Both rules
are exact (see enforce_sac), so the removals, their order and their causes
are those of probing every pair. Each probe also starts from the entailment
flags of the fixpoint it probes, so it never calls a filter already entailed
there. The deadline is checked once per candidate pair, skipped or not, so a
run whose probes are all skipped still times out.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .breaking import METHODS, ClassCanonical, apply_method
from .constraints import BinaryConstraint
from .engine import DomainSet, Problem, PropagationEngine, PropagationOutcome, Pruning, bits_of, propagate_fixpoint

DEFAULT_BUDGET = 10_000_000


class BudgetExceeded(Exception):
    """The requested enumeration is larger than the caller's budget allows."""


class SacTimeout(Exception):
    """Singleton arc consistency passed its deadline before reaching a fixpoint."""


def _check_budget(dom: DomainSet, variables, budget: int, what: str) -> None:
    product = 1
    for var in variables:
        product *= dom.size(var)
    if product > budget:
        raise BudgetExceeded(f"{what} would enumerate {product} assignments, budget is {budget}")


def _checks_by_level(constraints, variables):
    """The constraints to check at each level of the assignment order
    `variables`: each one at the level that completes its scope and, when it
    `checks_partial`, at every level from its first assigned scope variable
    on. Constraints whose scope is not covered are ignored (never fully
    instantiated)."""
    position = {var: i for i, var in enumerate(variables)}
    grouped: list[list] = [[] for _ in variables]
    for c in constraints:
        if all(v in position for v in c.scope):
            levels = [position[v] for v in c.scope]
            last = max(levels)
            first = min(levels) if c.checks_partial else last
            for level in range(first, last + 1):
                grouped[level].append(c)
    return grouped


def _satisfying(constraints, dom: DomainSet, variables: Sequence[int], budget: int, what: str):
    """Every assignment of `variables` drawn from `dom` that satisfies each
    constraint whose scope it covers, in lexicographic order of `variables`.

    Yields one variable-indexed vector, overwritten between yields; the
    variables not yet assigned hold None. The walk keeps an explicit stack of
    value indices, so depth costs no recursion. A prefix is extended only if
    it passes every constraint listed at its level (see _checks_by_level), so
    a `checks_partial` constraint cuts a prefix that no completion satisfies;
    the assignments yielded, and their order, are those of the unpruned walk.
    The budget is checked against the full domain product before the walk.
    """
    _check_budget(dom, variables, budget, what)
    checks = _checks_by_level(constraints, variables)
    values = [dom.values(v) for v in variables]
    vec: list[Optional[int]] = [None] * (max(variables) + 1 if variables else 0)
    last = len(variables) - 1
    if last < 0:
        yield vec
        return
    next_index = [0] * len(variables)
    i = 0
    while i >= 0:
        j = next_index[i]
        if j == len(values[i]):
            vec[variables[i]] = None
            next_index[i] = 0
            i -= 1
            continue
        next_index[i] = j + 1
        vec[variables[i]] = values[i][j]
        for c in checks[i]:
            if not c.check(vec):
                break
        else:
            if i == last:
                yield vec
            else:
                i += 1


def enumerate_solutions(
    problem: Problem,
    domains: Optional[DomainSet] = None,
    budget: int = DEFAULT_BUDGET,
) -> list[tuple[int, ...]]:
    """Exactly the total assignments drawn from the domains that satisfy every
    constraint, in lexicographic order."""
    dom = domains if domains is not None else problem.domains
    variables = list(range(problem.num_vars))
    found = _satisfying(problem.constraints, dom, variables, budget, "solution enumeration")
    return [tuple(vec) for vec in found]


def has_support(
    constraints: Sequence,
    domains: DomainSet,
    var: int,
    value: int,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """True iff some total assignment of the constraints' scope variables,
    drawn from the domains and fixing var=value, satisfies all of them."""
    if not domains.contains(var, value):
        return False
    scope_vars = sorted({v for c in constraints for v in c.scope} | {var})
    probe = domains.copy()
    probe.assign(var, value)
    found = _satisfying(constraints, probe, scope_vars, budget, "support search")
    return next(found, None) is not None


def brute_force_gac(
    constraints: Sequence,
    domains: DomainSet,
    budget: int = DEFAULT_BUDGET,
) -> PropagationOutcome:
    """Remove exactly the values that belong to no total scope assignment
    satisfying all given constraints simultaneously.

    One marking pass over the satisfying assignments is already the fixpoint:
    every component of a satisfying assignment is supported by that very
    assignment, so removing unmarked values never invalidates a mark.
    """
    dom = domains.copy()
    scope_vars = sorted({v for c in constraints for v in c.scope})
    supported = [0] * (scope_vars[-1] + 1 if scope_vars else 0)
    for vec in _satisfying(constraints, dom, scope_vars, budget, "support filtering"):
        for var in scope_vars:
            supported[var] |= 1 << vec[var]

    cause = constraints[0] if len(constraints) == 1 else "oracle-conjunction"
    log = []
    for var in scope_vars:
        for v in bits_of(dom.masks[var] & ~supported[var]):
            dom.remove(var, v)
            log.append(Pruning(var, v, cause))
    wipeout = any(dom.is_empty(v) for v in scope_vars)
    return PropagationOutcome(log, wipeout, dom)


def _require_binary(constraints) -> None:
    for c in constraints:
        if len(c.scope) > 2:
            raise ValueError(f"constraint {c!r} has arity {len(c.scope)}; binary constraints required")


def enforce_sac(
    problem: Problem,
    domains: Optional[DomainSet] = None,
    *,
    deadline: Optional[float] = None,
) -> PropagationOutcome:
    """Singleton arc consistency on a binary constraint set.

    A value stays iff assigning it and running the arc-consistency fixpoint
    produces no wipeout. After any removal every remaining pair is probed
    again until a full pass is clean. With a `deadline` (a time.perf_counter()
    value), the clock is checked once per candidate pair, skipped or not, and
    SacTimeout is raised once the deadline has passed.

    The log opens with the arc-consistency run: its entries before the first
    whose cause is "sac-probe" are exactly propagate_fixpoint's log on the
    same problem and domains, and arc consistency wipes out iff SAC does with
    no "sac-probe" entry.

    Every probe starts from the entailment flags (see `PropagationEngine.run`)
    of the fixpoint it probes: the AC run fills them, each probe runs on a
    copy, and each removal's re-run on the list itself, which it updates for
    the fixpoint it reaches. This is exact: every probe domain, and every
    domain a re-run starts from, lies inside the fixpoint that set the flags,
    so a flagged constraint would remove nothing there; by `run`'s own
    argument a no-op call wakes nothing, so leaving it out changes no queue
    order, no log entry or cause and no wipeout. A re-run narrows `dom` in
    place, so the flags it leaves stay valid for every later probe.

    Two rules skip a probe of (var, value) that cannot wipe out, so the
    removals, their order and their causes are those of probing every pair.
    `dom` is a fixpoint at every probe: after the AC run, and after each
    removal's re-run.
    - Singleton: dom[var] == {value}. The probe would start from dom itself,
      where every filter is already at fixpoint (filters are idempotent),
      so its run would remove nothing.
    - Witness: an earlier probe that survived left a fixpoint F with
      F[var] == {value}, and F is still inside dom. Then F lies inside
      dom with var=value, and since filters are monotone, every state the
      probe's run passes through contains F: no domain can empty.
    A surviving probe's final masks are kept, by reference, under each of
    its singleton pairs; the subset test is made at use, since removals may
    have taken a value of F out of dom since.
    """
    _require_binary(problem.constraints)
    dom = (domains if domains is not None else problem.domains).copy()
    engine = PropagationEngine(problem.constraints, problem.num_vars)

    log: list[Pruning] = []
    flags: list[bool] = []
    _, wipeout = engine.run(dom, log=log, entailed=flags)
    if wipeout:
        return PropagationOutcome(log, True, dom)
    masks = dom.masks
    witnesses: dict[tuple[int, int], list[int]] = {}
    changed = True
    while changed:
        changed = False
        for var in range(len(masks)):
            for value in bits_of(masks[var]):
                bit = 1 << value
                if not masks[var] & bit:
                    continue  # removed by a fixpoint re-run inside this pass
                if deadline is not None and time.perf_counter() > deadline:
                    raise SacTimeout("singleton arc consistency timed out")
                if masks[var] == bit:
                    continue
                witness = witnesses.get((var, value))
                if witness is not None and all(f & m == f for f, m in zip(witness, masks)):
                    continue
                probe = dom.copy()
                probe.masks[var] = bit
                _, wiped = engine.run(probe, changed=[var], entailed=flags[:])
                if not wiped:
                    fixed = probe.masks
                    for w, m in enumerate(fixed):
                        if not m & (m - 1):
                            witnesses[w, m.bit_length() - 1] = fixed
                    continue
                dom.remove(var, value)
                log.append(Pruning(var, value, "sac-probe"))
                changed = True
                _, wipeout = engine.run(dom, changed=[var], log=log, entailed=flags)
                if wipeout:
                    return PropagationOutcome(log, True, dom)
    return PropagationOutcome(log, False, dom)


LEVELS = ("ac", "gac", "sac", "oracle-gac")
# The methods a level can filter under: ge-tree breaks symmetry during
# search and posts nothing.
FILTER_METHODS = tuple(m for m in METHODS if m != "ge-tree")


def filter_level(problem: Problem, method: str, level: str, budget: int = DEFAULT_BUDGET,
                 deadline: Optional[float] = None) -> PropagationOutcome:
    """One filtering level on the problem with a method posted (see
    breaking.apply_method). "ac" takes binary constraints only; "oracle-gac"
    ignores the method and adds class canonicity to the constraints."""
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}")
    if method not in FILTER_METHODS:
        raise ValueError(f"method {method!r} does not filter" if method in METHODS else f"unknown method {method!r}")
    if level == "oracle-gac":
        constraints = list(problem.constraints)
        if problem.partition is not None:
            constraints.append(ClassCanonical(problem.partition, range(problem.num_vars)))
        return brute_force_gac(constraints, problem.domains, budget=budget)
    run_problem = apply_method(problem, method)
    if level == "sac":
        return enforce_sac(run_problem, deadline=deadline)
    if level == "ac" and any(len(c.scope) > 2 for c in run_problem.constraints):
        raise ValueError("level 'ac' needs binary constraints; use 'gac'")
    return propagate_fixpoint(run_problem)


_COMPARE_RELATIONS = [
    ("generator-lex", "puget-ac"),
    ("puget-ac", "puget-sac"),
    ("puget-sac", "oracle"),
    ("generator-lex", "precedence"),
    ("precedence", "oracle"),
]


def compare_methods(problem: Problem, budget: int = DEFAULT_BUDGET, deadline: Optional[float] = None):
    """Filter the problem's domains under its classes, without its
    constraints, with each static method and the oracle. Returns (results,
    relations): results maps each method to (pruned pairs of the problem's
    variables, wipeout); relations holds a {"weaker", "stronger", "holds"}
    dict per pruning-strength relation: the weaker never removes a pair the
    stronger keeps, wipeouts compared by flag."""
    if problem.partition is None:
        raise ValueError("compare requires 'classes' in the problem")
    base = replace(problem, constraints=())
    n = problem.num_vars
    results = {}
    # SAC runs before the oracle: a timeout is reported before the budget is checked.
    for name, method, level in (("generator-lex", "generator-lex", "gac"), ("precedence", "precedence", "gac"),
                                ("puget-sac", "puget", "sac"), ("oracle", "none", "oracle-gac")):
        outcome = filter_level(base, method, level, budget, deadline)
        log, wipeout = outcome.prunings, outcome.wipeout
        if level == "sac":
            # SAC's log opens with AC's, up to its first probe removal (see
            # enforce_sac), which may be on a first-use variable: split it first.
            ac = next((i for i, p in enumerate(log) if p.cause == "sac-probe"), len(log))
            results["puget-ac"] = ({(p.var, p.value) for p in log[:ac] if p.var < n}, wipeout and ac == len(log))
        results[name] = ({(p.var, p.value) for p in log if p.var < n}, wipeout)

    relations = []
    for weaker, stronger in _COMPARE_RELATIONS:
        weak_pairs, weak_wipe = results[weaker]
        strong_pairs, strong_wipe = results[stronger]
        if weak_wipe:
            holds = strong_wipe
        elif strong_wipe:
            holds = True  # the stronger method refutes outright
        else:
            holds = weak_pairs <= strong_pairs
        relations.append({"weaker": weaker, "stronger": stronger, "holds": holds})
    return results, relations


@dataclass(frozen=True)
class ConsistencyWitness:
    assignment: dict
    variable: int
    level: int


@dataclass(frozen=True)
class ConsistencyReport:
    level: int
    holds: bool
    witness: Optional[ConsistencyWitness] = None


def _compat_tables(problem: Problem) -> tuple[list[int], dict[tuple[int, int], dict[int, int]]]:
    """Compatibility masks for a problem of unary and binary constraints, as
    (base, table): base[x] is the mask of x's values that every unary
    constraint on x accepts, and table[x, vx] maps a neighbouring variable to
    the mask of its values compatible with x=vx. A `BinaryConstraint` gives
    its rows by its support masks; any other two-variable constraint, by
    `check` on each pair of values."""
    _require_binary(problem.constraints)
    dom = problem.domains
    base = list(dom.masks)
    table: dict[tuple[int, int], dict[int, int]] = {}
    for c in problem.constraints:
        if len(c.scope) == 1:
            (x,) = c.scope
            vec: list[Optional[int]] = [None] * problem.num_vars
            for vx in bits_of(base[x]):
                vec[x] = vx
                if not c.check(vec):
                    base[x] &= ~(1 << vx)
            continue
        a, b = c.scope
        dom_a, dom_b = dom.masks[a], dom.masks[b]
        if isinstance(c, BinaryConstraint):
            rows_a = {va: c.keep_b(dom_b, 1 << va) for va in bits_of(dom_a)}
            rows_b = {vb: c.keep_a(dom_a, 1 << vb) for vb in bits_of(dom_b)}
        else:
            # No closed-form support masks: test each pair of values.
            rows_a = dict.fromkeys(bits_of(dom_a), 0)
            rows_b = dict.fromkeys(bits_of(dom_b), 0)
            vec = [None] * problem.num_vars
            for va in rows_a:
                vec[a] = va
                for vb in rows_b:
                    vec[b] = vb
                    if c.check(vec):
                        rows_a[va] |= 1 << vb
                        rows_b[vb] |= 1 << va
        for x, y, rows in ((a, b, rows_a), (b, a, rows_b)):
            for vx, compatible in rows.items():
                row = table.setdefault((x, vx), {})
                row[y] = row.get(y, -1) & compatible
    return base, table


def is_k_consistent(problem: Problem, k: int, budget: int = DEFAULT_BUDGET) -> ConsistencyReport:
    """Every consistent assignment of every (k-1)-subset of variables extends
    to every other variable. Consistent means: satisfies each constraint that
    the partial assignment fully instantiates."""
    if k < 1:
        raise ValueError("consistency level must be at least 1")
    base, table = _compat_tables(problem)
    num_vars = problem.num_vars
    size = k - 1
    if size > num_vars:
        return ConsistencyReport(k, True)

    visited = 0
    for subset in itertools.combinations(range(num_vars), size):
        # An explicit stack over subset positions: position i tries values[i]
        # from next_index[i] against accs[i], the masks its prefix allows.
        values = [bits_of(base[var]) for var in subset]
        next_index = [0] * size
        accs = [base] * (size + 1)
        i = 0
        while i >= 0:
            if i == size:
                visited += 1
                if visited > budget:
                    raise BudgetExceeded(f"consistency check visited over {budget} assignments")
                acc = accs[size]
                for other in range(num_vars):
                    if acc[other] == 0 and other not in subset:
                        assignment = {var: values[p][next_index[p] - 1] for p, var in enumerate(subset)}
                        return ConsistencyReport(k, False, ConsistencyWitness(assignment, other, k))
                i -= 1
                continue
            var, j = subset[i], next_index[i]
            if j == len(values[i]):
                next_index[i] = 0
                i -= 1
                continue
            next_index[i] = j + 1
            value = values[i][j]
            acc = accs[i]
            if acc[var] >> value & 1:
                row = table.get((var, value))
                if row:
                    acc = list(acc)
                    for other, mask in row.items():
                        acc[other] &= mask
                accs[i + 1] = acc
                i += 1
    return ConsistencyReport(k, True)


def is_strongly_k_consistent(problem: Problem, k: int, budget: int = DEFAULT_BUDGET) -> ConsistencyReport:
    """j-consistency for every j up to k; reports the first failing level."""
    for j in range(1, k + 1):
        report = is_k_consistent(problem, j, budget=budget)
        if not report.holds:
            return ConsistencyReport(k, False, report.witness)
    return ConsistencyReport(k, True)
