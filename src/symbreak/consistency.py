"""Ground-truth oracles and higher consistency levels.

Everything here works by enumeration against explicit budgets: exact solution
listing, brute-force support filtering, singleton arc consistency, and the
naive strong k-consistency checker. Exceeding a budget raises; there is no
silent truncation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .engine import DomainSet, Problem, PropagationEngine, PropagationOutcome, Pruning, bits_of

DEFAULT_BUDGET = 10_000_000


class BudgetExceeded(Exception):
    """The requested enumeration is larger than the caller's budget allows."""


def _domain_product(dom: DomainSet, variables: Iterable[int]) -> int:
    product = 1
    for var in variables:
        product *= dom.size(var)
    return product


def _check_budget(dom: DomainSet, variables, budget: int, what: str) -> None:
    product = _domain_product(dom, variables)
    if product > budget:
        raise BudgetExceeded(f"{what} would enumerate {product} assignments, budget is {budget}")


def _by_last_scope_var(constraints, variables):
    """Constraints grouped by the variable that completes their scope, given
    the assignment order `variables`. Constraints whose scope is not covered
    are ignored (never fully instantiated)."""
    position = {var: i for i, var in enumerate(variables)}
    grouped: list[list] = [[] for _ in variables]
    for c in constraints:
        if all(v in position for v in c.scope):
            grouped[max(position[v] for v in c.scope)].append(c)
    return grouped


def _satisfying(constraints, dom: DomainSet, variables: Sequence[int], budget: int, what: str):
    """Every assignment of `variables` drawn from `dom` that satisfies each
    constraint whose scope it covers, in lexicographic order of `variables`.

    Yields one variable-indexed vector, overwritten between yields. The walk
    keeps an explicit stack of value indices, so depth costs no recursion.
    """
    _check_budget(dom, variables, budget, what)
    checks = _by_last_scope_var(constraints, variables)
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
    supported = [0] * len(scope_vars)
    for vec in _satisfying(constraints, dom, scope_vars, budget, "support filtering"):
        supported = [mask | 1 << vec[var] for mask, var in zip(supported, scope_vars)]

    cause = constraints[0] if len(constraints) == 1 else "oracle-conjunction"
    log = []
    for var, mask in zip(scope_vars, supported):
        for v in bits_of(dom.masks[var] & ~mask):
            dom.remove(var, v)
            log.append(Pruning(var, v, cause))
    wipeout = any(dom.is_empty(v) for v in scope_vars)
    return PropagationOutcome(log, wipeout, dom)


def _require_binary(constraints) -> None:
    for c in constraints:
        if len(c.scope) > 2:
            raise ValueError(f"constraint {c!r} has arity {len(c.scope)}; binary constraints required")


def enforce_sac(problem: Problem, domains: Optional[DomainSet] = None) -> PropagationOutcome:
    """Singleton arc consistency on a binary constraint set.

    A value stays iff assigning it and running the arc-consistency fixpoint
    produces no wipeout. After any removal every remaining pair is probed
    again until a full pass is clean.
    """
    _require_binary(problem.constraints)
    dom = (domains if domains is not None else problem.domains).copy()
    engine = PropagationEngine(problem.constraints, problem.num_vars)

    log: list[Pruning] = []
    _, wipeout = engine.run(dom, log=log)
    if wipeout:
        return PropagationOutcome(log, True, dom)

    changed = True
    while changed:
        changed = False
        for var in range(problem.num_vars):
            for value in dom.values(var):
                if not dom.contains(var, value):
                    continue  # removed by a fixpoint re-run inside this pass
                probe = dom.copy()
                probe.assign(var, value)
                _, wiped = engine.run(probe, changed=[var])
                if not wiped:
                    continue
                dom.remove(var, value)
                log.append(Pruning(var, value, "sac-probe"))
                changed = True
                if dom.is_empty(var):
                    return PropagationOutcome(log, True, dom)
                _, wipeout = engine.run(dom, changed=[var], log=log)
                if wipeout:
                    return PropagationOutcome(log, True, dom)
    return PropagationOutcome(log, False, dom)


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


class _CompatTables:
    """Pairwise compatibility masks for a binary problem: table[x][vx] maps a
    neighbouring variable to the mask of its values compatible with x=vx."""

    def __init__(self, problem: Problem):
        _require_binary(problem.constraints)
        self.num_vars = problem.num_vars
        self.dom = problem.domains
        table: dict[tuple[int, int], dict[int, int]] = {}
        for c in problem.constraints:
            if len(c.scope) != 2:
                continue
            a, b = c.scope
            dom_a, dom_b = self.dom.masks[a], self.dom.masks[b]
            for va in bits_of(dom_a):
                row = table.setdefault((a, va), {})
                row[b] = row.get(b, -1) & c.keep_b(dom_b, 1 << va)
            for vb in bits_of(dom_b):
                row = table.setdefault((b, vb), {})
                row[a] = row.get(a, -1) & c.keep_a(dom_a, 1 << vb)
        self.table = table

    def narrow(self, acc: list[int], var: int, value: int) -> list[int]:
        row = self.table.get((var, value))
        if not row:
            return acc
        acc = list(acc)
        for other, mask in row.items():
            acc[other] &= mask
        return acc


def is_k_consistent(
    problem: Problem,
    k: int,
    budget: int = DEFAULT_BUDGET,
    _tables: Optional[_CompatTables] = None,
) -> ConsistencyReport:
    """Every consistent assignment of every (k-1)-subset of variables extends
    to every other variable. Consistent means: satisfies each constraint that
    the partial assignment fully instantiates."""
    if k < 1:
        raise ValueError("consistency level must be at least 1")
    tables = _tables if _tables is not None else _CompatTables(problem)
    dom = problem.domains
    num_vars = problem.num_vars
    size = k - 1
    if size > num_vars:
        return ConsistencyReport(k, True)

    visited = 0
    base = list(dom.masks)
    for subset in itertools.combinations(range(num_vars), size):
        # An explicit stack over subset positions: position i tries values[i]
        # from next_index[i] against accs[i], the masks its prefix allows.
        values = [dom.values(var) for var in subset]
        next_index = [0] * size
        accs = [base] * (size + 1)
        partial: dict[int, int] = {}
        i = 0
        while i >= 0:
            if i == size:
                visited += 1
                if visited > budget:
                    raise BudgetExceeded(f"consistency check visited over {budget} assignments")
                for other in range(num_vars):
                    if other not in partial and accs[size][other] == 0:
                        return ConsistencyReport(k, False, ConsistencyWitness(dict(partial), other, k))
                i -= 1
                continue
            var, j = subset[i], next_index[i]
            if j == len(values[i]):
                partial.pop(var, None)
                next_index[i] = 0
                i -= 1
                continue
            next_index[i] = j + 1
            value = values[i][j]
            if accs[i][var] >> value & 1:
                partial[var] = value
                accs[i + 1] = tables.narrow(accs[i], var, value)
                i += 1
    return ConsistencyReport(k, True)


def is_strongly_k_consistent(problem: Problem, k: int, budget: int = DEFAULT_BUDGET) -> ConsistencyReport:
    """j-consistency for every j up to k; reports the first failing level."""
    tables = _CompatTables(problem)
    for j in range(1, k + 1):
        report = is_k_consistent(problem, j, budget=budget, _tables=tables)
        if not report.holds:
            return ConsistencyReport(k, False, report.witness)
    return ConsistencyReport(k, True)
