"""Deterministic generators for the benchmark families this lab studies, plus
a DIMACS CNF reader, the 3-SAT reduction and the two sides of its check."""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, replace

from .breaking import ValueClassPartition, build_precedence, build_puget
from .consistency import DEFAULT_BUDGET, has_support
from .constraints import AtLeastNValues, Conditional, DisjunctionEq, ParityLink
from .engine import DomainSet, Problem, PropagationEngine, propagate_fixpoint


def pigeonhole_model(n: int) -> Problem:
    """n variables over n+1 interchangeable values, one disjunction per value
    demanding it be used somewhere. Unsatisfiable: n slots cannot cover n+1
    values."""
    if n < 1:
        raise ValueError("need at least one variable")
    scope = tuple(range(n))
    constraints = tuple(DisjunctionEq(j, scope) for j in range(1, n + 2))
    return Problem(
        num_vars=n,
        num_values=n + 1,
        domains=DomainSet.full(n, n + 1),
        constraints=constraints,
        partition=ValueClassPartition.of([range(1, n + 2)]),
    )


def staircase_fixture() -> Problem:
    """Five variables over one class of five interchangeable values, domains
    {1}, {1,2}, {1,3}, {1,4}, {5}. Every adjacent-transposition lex constraint
    is already at fixpoint here, yet the full group still prunes value 1 from
    the three middle variables.

    The declared class is not a solution symmetry of these domains: swapping
    2 and 3 maps the solution 1,2,1,1,5 to 1,3,1,1,5, which X1 = {1,2}
    forbids. Of the 8 solutions, every breaking method keeps 1,2,3,4,5 alone,
    yet the solution 1,1,1,1,5 lies in another orbit: the kept set is not one
    solution per orbit."""
    return Problem(
        num_vars=5,
        num_values=5,
        domains=DomainSet.from_values([[1], [1, 2], [1, 3], [1, 4], [5]]),
        partition=ValueClassPartition.of([range(1, 6)]),
    )


def surjection_fixture() -> Problem:
    """Seven variables over one class of four interchangeable values, with a
    tail that forces every value to occur. Arc consistency on the dual
    first-use encoding prunes nothing from the original variables, while full
    filtering removes value 1 from the second variable.

    As in `staircase_fixture`, the declared class is not a solution symmetry
    of these domains: of the 8 solutions, every breaking method keeps the
    same 3, which is not one per orbit."""
    return Problem(
        num_vars=7,
        num_values=4,
        domains=DomainSet.from_values([[1], [1, 2], [1, 3], [3, 4], [2], [3], [4]]),
        partition=ValueClassPartition.of([range(1, 5)]),
    )


# First-use domains of the surjection fixture at the arc-consistency fixpoint,
# keyed by value: the only candidate positions for each value's first use.
SURJECTION_FIXTURE_FIRST_USE = {1: [1], 2: [2, 5], 3: [3, 4, 6], 4: [4, 7]}


def chained_pairs_base(k: int) -> Problem:
    """2k+1 variables over 2(k+1) values pairing value i with k+1+i. The first
    k variables slide over {i, i+1}; the rest are pinned to the upper pair
    members. Using an upper member demands its lower partner be used first,
    which k sliding variables cannot cover: unsatisfiable by counting."""
    if k < 1:
        raise ValueError("k must be at least 1")
    num_vars = 2 * k + 1
    num_values = 2 * (k + 1)
    value_lists = [[i, i + 1] for i in range(1, k + 1)]
    value_lists += [[k + 1 + i] for i in range(1, k + 2)]
    pairs = [(i, k + 1 + i) for i in range(1, k + 2)]
    return Problem(
        num_vars=num_vars,
        num_values=num_values,
        domains=DomainSet.from_values(value_lists),
        partition=ValueClassPartition.of(pairs),
    )


def chained_pairs_levels_base(k: int) -> Problem:
    """2k+1 variables over the same k+1 value pairs as `chained_pairs_base`.
    The first variable is pinned to 1, the next k slide over {1, 2} and the
    last k are pinned to k+3, the upper partner of 2. Using k+3 demands 2 be
    used first, so 2 must appear somewhere in the sliding window; the
    symmetry-reduced problem has 2^k - 1 solutions, one per window
    assignment holding a 2."""
    if k < 1:
        raise ValueError("k must be at least 1")
    value_lists = [[1]] + [[1, 2]] * k + [[k + 3]] * k
    pairs = [(i, k + 1 + i) for i in range(1, k + 2)]
    return Problem(
        num_vars=2 * k + 1,
        num_values=2 * (k + 1),
        domains=DomainSet.from_values(value_lists),
        partition=ValueClassPartition.of(pairs),
    )


def chained_pairs_family(k: int) -> Problem:
    """The dual first-use encoding of `chained_pairs_levels_base(k)`, with its
    domains narrowed to the arc-consistency fixpoint. For k >= 2 it is
    strongly k-consistent but not (k+1)-consistent, so the k-th member
    probes consistency level k.

    At the fixpoint every variable is fixed except the k window positions,
    over {1, 2}, and Z_2, the first use of 2, over the window positions. A
    consistent assignment to at most k-1 variables either fixes Z_2 = p,
    which forces 2 at p and 1 before it, or leaves a window position free
    to take 2; either way it extends to a solution. Assigning 1 to all k
    window positions is consistent, but no position is left for Z_2. For
    k = 1 arc consistency itself forces the window, so that member is
    globally consistent.

    The encoding of `chained_pairs_base` cannot serve here: arc consistency
    wipes it out, and no first-use encoding that keeps position 1 in the
    domain of an upper class member is even 2-consistent.
    """
    encoding = build_puget(chained_pairs_levels_base(k)).problem
    narrowed = propagate_fixpoint(encoding)
    return replace(encoding, domains=narrowed.final_domains)


# The one table of problem names: name -> (the form a user writes, its
# generator). A fixture's form is its bare name; a family's form names the
# one integer argument it takes.
_NAMED = {
    "pigeonhole": ("pigeonhole:N", pigeonhole_model),
    "staircase": ("staircase", staircase_fixture),
    "surjection": ("surjection", surjection_fixture),
    "chained-pairs": ("chained-pairs:K", chained_pairs_family),
}


def named(spec: str) -> Problem | None:
    """The problem a registered name builds, such as `pigeonhole:8` or
    `staircase`, or None when the part of spec before its first colon is no
    registered name. A fixture takes no argument and a family exactly one
    decimal integer; any other spec with a registered name is a ValueError
    that names the expected form. The generator checks the integer's range."""
    name, colon, arg = spec.partition(":")
    if name not in _NAMED:
        return None
    form, generator = _NAMED[name]
    if form == name:
        if not colon:
            return generator()
    elif re.fullmatch("-?[0-9]+", arg):
        return generator(int(arg))
    raise ValueError(f"bad problem name {spec!r}: expected {form}")


class DimacsError(ValueError):
    """A malformed DIMACS document; carries the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class CNFFormula:
    """A CNF over num_vars boolean variables with clauses of up to three
    signed literals."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for clause in self.clauses:
            if not clause:
                raise ValueError("empty clause")
            if len(clause) > 3:
                raise ValueError(f"clause {clause} is wider than three literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} outside 1..{self.num_vars}")


def parse_dimacs(text: str) -> CNFFormula:
    """Parse a DIMACS cnf document; comments are ignored, clause and variable
    counts must match the header, and each clause ends with 0."""
    num_vars = None
    declared_clauses = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    current_start = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError(lineno, "duplicate problem line")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(lineno, f"malformed problem line {line!r}")
            try:
                num_vars, declared_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(lineno, f"malformed problem line {line!r}") from None
            if num_vars < 0 or declared_clauses < 0:
                raise DimacsError(lineno, "negative counts in problem line")
            continue
        if num_vars is None:
            raise DimacsError(lineno, "clause before problem line")
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise DimacsError(lineno, f"bad token {token!r}") from None
            if lit == 0:
                if not current:
                    raise DimacsError(lineno, "empty clause")
                if len(current) > 3:
                    raise DimacsError(current_start, f"clause {tuple(current)} wider than three literals")
                clauses.append(tuple(current))
                current = []
            else:
                if abs(lit) > num_vars:
                    raise DimacsError(lineno, f"literal {lit} exceeds {num_vars} variables")
                if not current:
                    current_start = lineno
                current.append(lit)

    last = len(text.splitlines())
    if num_vars is None:
        raise DimacsError(max(last, 1), "missing problem line")
    if current:
        raise DimacsError(current_start, "unterminated clause (missing 0)")
    if len(clauses) != declared_clauses:
        raise DimacsError(max(last, 1), f"header declares {declared_clauses} clauses, found {len(clauses)}")
    return CNFFormula(num_vars, tuple(clauses))


def format_dimacs(formula: CNFFormula) -> str:
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lines.append(" ".join(map(str, clause)) + " 0")
    return "\n".join(lines) + "\n"


def _literal_values(lit: int) -> tuple[int, int]:
    """The two interchangeable values standing for this literal being true."""
    v = abs(lit)
    if lit > 0:
        return (4 * v - 3, 4 * v - 2)
    return (4 * v - 1, 4 * v)


def reduce_3sat(formula: CNFFormula) -> Problem:
    """Encode a 3-CNF as a CSP over N+M+1 variables and 4N+2 values.

    Variable i <= N picks one of four values, the odd pair meaning true and
    the even pair false. Each clause variable ranges over the value pairs of
    its literals. A final switch variable selects, by parity, between an
    unsatisfiable distinct-count demand and a satisfiable one, wired through
    parity links. Values pair up into 2N interchangeable classes; the two
    switch values stay unclassed. A formula needs at least one variable:
    with none, the unsatisfiable demand would ask for at least zero distinct
    values, which no problem file can state.
    """
    n, m = formula.num_vars, len(formula.clauses)
    if n < 1:
        raise ValueError("need at least one propositional variable")
    switch = n + m
    value_lists: list[list[int]] = []
    for i in range(1, n + 1):
        value_lists.append([4 * i - 3, 4 * i - 2, 4 * i - 1, 4 * i])
    for clause in formula.clauses:
        values: set[int] = set()
        for lit in clause:
            values.update(_literal_values(lit))
        value_lists.append(sorted(values))
    value_lists.append([4 * n + 1, 4 * n + 2])

    constraints = []
    for i in range(n):
        constraints.append(ParityLink(switch, "odd", i, "odd"))
    for j in range(m):
        constraints.append(ParityLink(switch, "odd", n + j, "even"))
    constraints.append(Conditional(switch, "odd", AtLeastNValues(n, n + 1)))
    constraints.append(Conditional(switch, "even", AtLeastNValues(n, n)))

    pairs = []
    for i in range(1, n + 1):
        pairs.append((4 * i - 3, 4 * i - 2))
        pairs.append((4 * i - 1, 4 * i))

    return Problem(
        num_vars=n + m + 1,
        num_values=4 * n + 2,
        domains=DomainSet.from_values(value_lists),
        constraints=tuple(constraints),
        partition=ValueClassPartition.of(pairs),
    )


def reduction_has_support(problem: Problem, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff, in a problem reduce_3sat built, the switch's odd value has a
    support under value precedence: exactly when the formula is satisfiable.
    The binary constraints run to their fixpoint before the support search."""
    switch = problem.num_vars - 1
    odd_value = problem.num_values - 1  # 4N+1
    dom = problem.domains.copy()
    dom.assign(switch, odd_value)
    binaries = [c for c in problem.constraints if len(c.scope) == 2]
    PropagationEngine(binaries, problem.num_vars).run(dom)
    return has_support(build_precedence(problem), dom, switch, odd_value, budget=budget)


def brute_force_sat(formula: CNFFormula) -> bool:
    """True iff one of the 2^N truth assignments satisfies every clause."""
    for bits in itertools.product((False, True), repeat=formula.num_vars):
        if all(any((lit > 0) == bits[abs(lit) - 1] for lit in clause) for clause in formula.clauses):
            return True
    return False
