"""Command-line front end.

Commands load a problem (a JSON file or a named generator), apply a
symmetry-breaking method, and run propagation, consistency, search, or
comparison experiments. Reports go to stdout as a JSON document followed by
an aligned text table; wall-clock timings go to stderr so stdout stays
byte-for-byte reproducible.

Exit codes: 0 ran, 1 internal comparison failure, 2 usage or schema error
(including input nested too deeply to read), 3 enumeration budget exceeded,
4 search timed out, 10 the instance is unsatisfiable. Search and the oracles
walk explicit stacks, so the number of variables is not limited by recursion.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .breaking import ClassCanonical, build_generator_lex, build_precedence, build_puget
from .consistency import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    brute_force_gac,
    enforce_sac,
    has_support,
    is_k_consistent,
)
from .engine import Problem, PropagationEngine, propagate_fixpoint
from .instances import (
    DimacsError,
    chained_pairs_family,
    parse_dimacs,
    pigeonhole_model,
    reduce_3sat,
    staircase_fixture,
    surjection_fixture,
)
from .problem_io import ProblemFormatError, load_problem, problem_to_dict
from .search import SearchTimeout, Strategy, solve

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_TIMEOUT = 4
EXIT_UNSAT = 10

METHODS = ("none", "precedence", "generator-lex", "puget", "ge-tree")


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _emit_table(headers, rows) -> None:
    cells = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    for row in cells:
        print("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))


def _emit_timing(started: float) -> None:
    print(f"wall time: {(time.perf_counter() - started) * 1000.0:.1f} ms", file=sys.stderr)


def _budget(args) -> int:
    """The enumeration budget: --budget, else SYMBREAK_BUDGET, else the
    default. Below 1 is a usage error, since every oracle call would fail."""
    budget = args.budget
    if budget is None:
        env = os.environ.get("SYMBREAK_BUDGET")
        budget = int(env) if env else DEFAULT_BUDGET
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    return budget


def _resolve_problem(spec: str) -> Problem:
    """A problem file path, or a named generator like pigeonhole:8,
    staircase, surjection, chained-pairs:3."""
    name, _, arg = spec.partition(":")
    if name == "pigeonhole":
        return pigeonhole_model(int(arg))
    if name == "staircase":
        return staircase_fixture()[0]
    if name == "surjection":
        return surjection_fixture()[0]
    if name == "chained-pairs":
        return chained_pairs_family(int(arg))
    return load_problem(spec)


def _apply_method(problem: Problem, method: str):
    """The problem to run, plus the encoding when the method introduces
    first-use variables."""
    if method in ("none", "ge-tree"):
        return problem, None
    if problem.partition is None:
        raise ProblemFormatError(f"method {method!r} requires 'classes' in the problem")
    if method == "precedence":
        return problem.with_constraints(build_precedence(problem)), None
    if method == "generator-lex":
        return problem.with_constraints(build_generator_lex(problem)), None
    if method == "puget":
        encoding = build_puget(problem)
        return encoding.problem, encoding
    raise ProblemFormatError(f"unknown method {method!r}")


def _pair_list(pairs) -> list[list[int]]:
    return [[var, value] for var, value in sorted(pairs)]


def cmd_solve(args) -> int:
    started = time.perf_counter()
    problem = _resolve_problem(args.problem)
    if args.method == "ge-tree" and problem.partition is None:
        return _fail("ge-tree requires 'classes' in the problem", EXIT_USAGE)
    run_problem, encoding = _apply_method(problem, args.method)
    strategy = Strategy(
        var_order=args.var_order,
        mode="ge-tree" if args.method == "ge-tree" else "static",
    )
    deadline = time.perf_counter() + args.timeout if args.timeout else None
    try:
        solutions, stats = solve(run_problem, strategy=strategy, goal=args.goal, deadline=deadline)
    except SearchTimeout:
        return _fail("search timed out", EXIT_TIMEOUT)
    if encoding is not None:
        solutions = [encoding.project(vec) for vec in solutions]
    doc = {
        "format": 1,
        "command": "solve",
        "method": args.method,
        "var_order": args.var_order,
        "goal": args.goal,
        "satisfiable": stats.solutions > 0,
        "stats": stats.as_record(),
    }
    if args.goal != "count":
        doc["solutions"] = [list(vec) for vec in solutions]
    _emit_json(doc)
    _emit_table(
        ["nodes", "branches", "backtracks", "prunings", "solutions"],
        [[stats.nodes, stats.branches, stats.backtracks, stats.prunings, stats.solutions]],
    )
    _emit_timing(started)
    return EXIT_OK if stats.solutions > 0 else EXIT_UNSAT


def _oracle_gac(problem: Problem, budget: int):
    constraints = list(problem.constraints)
    if problem.partition is not None:
        constraints.append(ClassCanonical(problem.partition, range(problem.num_vars)))
    if not constraints:
        return None
    return brute_force_gac(constraints, problem.domains, budget=budget)


def cmd_propagate(args) -> int:
    started = time.perf_counter()
    problem = _resolve_problem(args.problem)
    encoding = None
    if args.level == "oracle-gac":
        outcome = _oracle_gac(problem, args.budget)
        if outcome is None:
            outcome = propagate_fixpoint(problem)
    else:
        run_problem, encoding = _apply_method(problem, args.method)
        if args.level == "sac":
            outcome = enforce_sac(run_problem)
        else:
            if args.level == "ac" and any(len(c.scope) > 2 for c in run_problem.constraints):
                return _fail("level 'ac' needs binary constraints; use 'gac'", EXIT_USAGE)
            outcome = propagate_fixpoint(run_problem)
    pairs = outcome.pruned_pairs()
    causes = {(p.var, p.value): p.cause for p in outcome.prunings}
    if encoding is not None:
        pairs = encoding.x_pairs(pairs)
    doc = {
        "format": 1,
        "command": "propagate",
        "level": args.level,
        "method": "oracle" if args.level == "oracle-gac" else args.method,
        "wipeout": outcome.wipeout,
        "prunings": _pair_list(pairs),
    }
    _emit_json(doc)
    rows = []
    for var, value in sorted(pairs):
        cause = causes[(var, value)]
        label = cause if isinstance(cause, str) else cause.describe()
        rows.append([f"X{var}", value, label])
    _emit_table(["var", "value", "cause"], rows)
    _emit_timing(started)
    return EXIT_UNSAT if outcome.wipeout else EXIT_OK


# Pruning-strength relations checked by cmd_compare: each left method never
# removes a pair the right one keeps, wipeouts compared by flag.
_COMPARE_RELATIONS = [
    ("generator-lex", "puget-ac"),
    ("puget-ac", "puget-sac"),
    ("puget-sac", "oracle"),
    ("generator-lex", "precedence"),
    ("precedence", "oracle"),
]


def cmd_compare(args) -> int:
    started = time.perf_counter()
    problem = _resolve_problem(args.problem)
    if problem.partition is None:
        return _fail("compare requires 'classes' in the problem", EXIT_USAGE)
    base = Problem(problem.num_vars, problem.num_values, problem.domains, (), problem.partition)

    results = {}
    genlex = propagate_fixpoint(base.with_constraints(build_generator_lex(base)))
    results["generator-lex"] = (genlex.pruned_pairs(), genlex.wipeout)
    prec = propagate_fixpoint(base.with_constraints(build_precedence(base)))
    results["precedence"] = (prec.pruned_pairs(), prec.wipeout)
    encoding = build_puget(base)
    ac = propagate_fixpoint(encoding.problem)
    results["puget-ac"] = (encoding.x_pairs(ac.pruned_pairs()), ac.wipeout)
    sac = enforce_sac(encoding.problem)
    results["puget-sac"] = (encoding.x_pairs(sac.pruned_pairs()), sac.wipeout)
    oracle = brute_force_gac(
        [ClassCanonical(base.partition, range(base.num_vars))], base.domains, budget=args.budget
    )
    results["oracle"] = (oracle.pruned_pairs(), oracle.wipeout)

    relations = []
    violations = 0
    for weaker, stronger in _COMPARE_RELATIONS:
        weak_pairs, weak_wipe = results[weaker]
        strong_pairs, strong_wipe = results[stronger]
        if weak_wipe:
            holds = strong_wipe
        elif strong_wipe:
            holds = True  # the stronger method refutes outright
        else:
            holds = weak_pairs <= strong_pairs
        violations += 0 if holds else 1
        relations.append({"weaker": weaker, "stronger": stronger, "holds": holds})

    doc = {
        "format": 1,
        "command": "compare",
        "methods": {
            name: {"wipeout": wipe, "prunings": _pair_list(pairs)}
            for name, (pairs, wipe) in results.items()
        },
        "relations": relations,
        "violations": violations,
    }
    _emit_json(doc)
    rows = [
        [name, "yes" if wipe else "no", len(pairs)]
        for name, (pairs, wipe) in sorted(results.items())
    ]
    _emit_table(["method", "wipeout", "prunings"], rows)
    rows = [[r["weaker"], "<=", r["stronger"], "ok" if r["holds"] else "VIOLATION"] for r in relations]
    _emit_table(["weaker", "", "stronger", "check"], rows)
    _emit_timing(started)
    return EXIT_FAILURE if violations else EXIT_OK


def cmd_bench_getree(args) -> int:
    started = time.perf_counter()
    if args.n_min < 1 or args.n_max < args.n_min:
        return _fail("need 1 <= n-min <= n-max", EXIT_USAGE)
    print("# getree-bench format=1")
    print("n,static_prunings,static_nodes,static_branches,getree_branches,getree_nodes,branch_ratio,doubling_ok,status")
    previous = None
    for n in range(args.n_min, args.n_max + 1):
        problem = pigeonhole_model(n)
        static_problem = problem.with_constraints(build_precedence(problem))
        deadline = time.perf_counter() + args.timeout if args.timeout else None
        try:
            _, static = solve(static_problem, goal="count", deadline=deadline)
            _, getree = solve(
                problem, strategy=Strategy(mode="ge-tree"), goal="count", deadline=deadline
            )
        except SearchTimeout:
            print(f"{n},,,,,,,,timeout")
            previous = None
            continue
        if previous is None:
            ratio, doubling = "", ""
        else:
            ratio = f"{getree.branches / previous:.3f}"
            doubling = "yes" if getree.branches > 2 * previous else "NO"
        print(
            f"{n},{static.prunings},{static.nodes},{static.branches},"
            f"{getree.branches},{getree.nodes},{ratio},{doubling},ok"
        )
        previous = getree.branches
    _emit_timing(started)
    return EXIT_OK


def cmd_reduce(args) -> int:
    started = time.perf_counter()
    with open(args.cnf, "r", encoding="utf-8") as handle:
        formula = parse_dimacs(handle.read())
    problem, partition = reduce_3sat(formula)
    doc = problem_to_dict(problem)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    else:
        _emit_json(doc)
    if args.check:
        if formula.num_vars > 3:
            return _fail(
                f"--check enumerates 2^{formula.num_vars} truth assignments and every "
                "support candidate; refusing above 3 variables (budget)",
                EXIT_BUDGET,
            )
        switch = problem.num_vars - 1
        odd_value = 4 * formula.num_vars + 1
        dom = problem.domains.copy()
        dom.assign(switch, odd_value)
        binaries = [c for c in problem.constraints if len(c.scope) == 2]
        PropagationEngine(binaries, problem.num_vars).run(dom)
        support = has_support(build_precedence(problem, partition), dom, switch, odd_value,
                              budget=args.budget)
        sat = _brute_force_sat(formula)
        agree = support == sat
        print(f"support exists: {'yes' if support else 'no'}, SAT: {'yes' if sat else 'no'}, "
              f"agreement: {'yes' if agree else 'NO'}")
        if not agree:
            return EXIT_FAILURE
    _emit_timing(started)
    return EXIT_OK


def _brute_force_sat(formula) -> bool:
    import itertools

    for bits in itertools.product((False, True), repeat=formula.num_vars):
        if all(any((lit > 0) == bits[abs(lit) - 1] for lit in clause) for clause in formula.clauses):
            return True
    return False


def cmd_kcheck(args) -> int:
    started = time.perf_counter()
    if args.k < 1:
        return _fail("k must be at least 1", EXIT_USAGE)
    if args.family != "chained-pairs":
        return _fail(f"unknown family {args.family!r}", EXIT_USAGE)
    problem = chained_pairs_family(args.k)
    levels = []
    first_witness = None
    for j in range(1, args.k + 2):
        report = is_k_consistent(problem, j, budget=args.budget)
        entry = {"level": j, "holds": report.holds}
        if not report.holds and first_witness is None:
            first_witness = report.witness
            entry["witness"] = {
                "assignment": {str(v): val for v, val in sorted(report.witness.assignment.items())},
                "variable": report.witness.variable,
            }
        levels.append(entry)
    doc = {
        "format": 1,
        "command": "kcheck",
        "family": args.family,
        "k": args.k,
        "levels": levels,
    }
    _emit_json(doc)
    rows = [[e["level"], "yes" if e["holds"] else "no"] for e in levels]
    _emit_table(["level", "consistent"], rows)
    if first_witness is not None:
        parts = ", ".join(f"X{v}={val}" for v, val in sorted(first_witness.assignment.items()))
        print(f"witness: {{{parts}}} cannot extend to X{first_witness.variable}")
    _emit_timing(started)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symbreak",
        description="finite-domain lab for breaking value symmetry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="search for solutions")
    p.add_argument("problem", help="problem file or generator name (e.g. pigeonhole:8)")
    p.add_argument("--method", choices=METHODS, default="none")
    p.add_argument("--goal", choices=("first", "all", "count"), default="all")
    p.add_argument("--var-order", choices=("lex", "min-domain"), default="lex")
    p.add_argument("--timeout", type=float, default=None, help="seconds")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("propagate", help="run one filtering level and report prunings")
    p.add_argument("problem")
    p.add_argument("--level", choices=("ac", "gac", "sac", "oracle-gac"), default="gac")
    p.add_argument("--method", choices=("none", "precedence", "generator-lex", "puget"), default="none")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("compare", help="filter with every method and check the strength order")
    p.add_argument("problem")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bench-getree", help="static versus dynamic on the pigeonhole family")
    p.add_argument("--n-min", type=int, default=4)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--timeout", type=float, default=None, help="seconds per n")
    p.set_defaults(func=cmd_bench_getree)

    p = sub.add_parser("reduce", help="encode a DIMACS 3-CNF as a problem file")
    p.add_argument("--cnf", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--check", action="store_true",
                   help="verify support-existence against brute-force SAT (small formulas)")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("kcheck", help="consistency levels of a named family's encoding")
    p.add_argument("--family", default="chained-pairs")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_kcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if hasattr(args, "budget"):
            args.budget = _budget(args)
        return args.func(args)
    except (ProblemFormatError, DimacsError) as exc:
        return _fail(str(exc), EXIT_USAGE)
    except FileNotFoundError as exc:
        return _fail(str(exc), EXIT_USAGE)
    except BudgetExceeded as exc:
        return _fail(str(exc), EXIT_BUDGET)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
