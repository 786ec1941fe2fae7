"""Command-line front end.

Commands load a problem (a JSON file or a named generator), apply a
symmetry-breaking method, and run propagation, consistency, search, or
comparison experiments. Reports go to stdout as a JSON document followed by
an aligned text table; wall-clock timings go to stderr so stdout stays
byte-for-byte reproducible.

Exit codes: 0 ran, 1 internal comparison failure, 2 usage or schema error
(including input nested too deeply to read, a path that cannot be read or
written, such as a directory, and a problem too large to build in memory,
such as a file declaring 10**12 variables or values), 3 enumeration budget
exceeded, 4 search or SAC timed out, 10 the instance is unsatisfiable. Search
and the oracles walk explicit stacks, so the number of variables is not
limited by recursion.

`main(argv)` returns the exit code and may be called repeatedly in one
process; it builds its argument parser once, on the first call.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from .breaking import METHODS, apply_method
from .consistency import (
    DEFAULT_BUDGET,
    FILTER_METHODS,
    LEVELS,
    BudgetExceeded,
    SacTimeout,
    compare_methods,
    filter_level,
    is_k_consistent,
)
from .engine import Problem
from .instances import (
    _NAMED,
    brute_force_sat,
    chained_pairs_family,
    named,
    parse_dimacs,
    pigeonhole_model,
    reduce_3sat,
    reduction_has_support,
)
from .problem_io import dumps, load_problem, problem_to_dict, save_problem
from .search import GOALS, VAR_ORDERS, SearchTimeout, Strategy, solve

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_TIMEOUT = 4
EXIT_UNSAT = 10


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _emit_json(doc: dict) -> None:
    print(dumps(doc))


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


def _timeout(args) -> float:
    """The --timeout in seconds. Zero, negative, NaN and infinite values are
    usage errors: none of them is a deadline a search could meet or miss."""
    timeout = args.timeout
    if not 0 < timeout < float("inf"):  # also false for NaN
        raise ValueError(f"timeout must be a positive number of seconds, got {timeout}")
    return timeout


def _deadline(args):
    """A perf_counter deadline --timeout seconds from now, or None."""
    return time.perf_counter() + args.timeout if args.timeout is not None else None


def _resolve_problem(spec: str) -> Problem:
    """The problem a registered name builds (`instances.named`), else the
    problem file at that path."""
    problem = named(spec)
    return load_problem(spec) if problem is None else problem


def cmd_solve(args) -> int:
    started = time.perf_counter()
    deadline = _deadline(args)  # building the model counts against --timeout
    problem = _resolve_problem(args.problem)
    run_problem = apply_method(problem, args.method)
    strategy = Strategy(
        var_order=args.var_order,
        mode="ge-tree" if args.method == "ge-tree" else "static",
    )
    try:
        solutions, stats = solve(run_problem, strategy=strategy, goal=args.goal, deadline=deadline)
    except SearchTimeout:
        return _fail("search timed out", EXIT_TIMEOUT)
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
        doc["solutions"] = [list(vec[: problem.num_vars]) for vec in solutions]
    _emit_json(doc)
    _emit_table(
        ["nodes", "branches", "backtracks", "prunings", "solutions"],
        [[stats.nodes, stats.branches, stats.backtracks, stats.prunings, stats.solutions]],
    )
    _emit_timing(started)
    return EXIT_OK if stats.solutions > 0 else EXIT_UNSAT


def cmd_propagate(args) -> int:
    started = time.perf_counter()
    problem = _resolve_problem(args.problem)
    outcome = filter_level(problem, args.method, args.level, args.budget, _deadline(args))
    causes = {(p.var, p.value): p.cause for p in outcome.prunings if p.var < problem.num_vars}
    doc = {
        "format": 1,
        "command": "propagate",
        "level": args.level,
        "method": "oracle" if args.level == "oracle-gac" else args.method,
        "wipeout": outcome.wipeout,
        "prunings": [list(pair) for pair in sorted(causes)],
    }
    _emit_json(doc)
    rows = []
    for (var, value), cause in sorted(causes.items()):
        rows.append([f"X{var}", value, cause])  # a constraint prints as its description
    _emit_table(["var", "value", "cause"], rows)
    _emit_timing(started)
    return EXIT_UNSAT if outcome.wipeout else EXIT_OK


def cmd_compare(args) -> int:
    started = time.perf_counter()
    results, relations = compare_methods(_resolve_problem(args.problem), args.budget, _deadline(args))
    violations = sum(not r["holds"] for r in relations)
    doc = {
        "format": 1,
        "command": "compare",
        "methods": {
            name: {"wipeout": wipe, "prunings": [list(pair) for pair in sorted(pairs)]}
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
        deadline = _deadline(args)  # each row's --timeout includes building its model
        problem = pigeonhole_model(n)
        static_problem = apply_method(problem, "precedence")
        try:
            _, static = solve(static_problem, goal="count", deadline=deadline)
            _, getree = solve(
                problem, strategy=Strategy(mode="ge-tree"), goal="count", deadline=deadline
            )
        except SearchTimeout:
            print(f"{n},,,,,,,,timeout")
            previous = None
            continue
        if not previous:  # the first row, or after a timeout or a row with no branch
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
    problem = reduce_3sat(formula)
    if args.out:
        save_problem(problem, args.out)
        print(f"wrote {args.out}")
    else:
        _emit_json(problem_to_dict(problem))
    if args.check:
        if formula.num_vars > 3:
            return _fail(
                f"--check enumerates 2^{formula.num_vars} truth assignments and every "
                "support candidate; refusing above 3 variables (budget)",
                EXIT_BUDGET,
            )
        support = reduction_has_support(problem, budget=args.budget)
        sat = brute_force_sat(formula)
        agree = support == sat
        print(f"support exists: {'yes' if support else 'no'}, SAT: {'yes' if sat else 'no'}, "
              f"agreement: {'yes' if agree else 'NO'}")
        if not agree:
            return EXIT_FAILURE
    _emit_timing(started)
    return EXIT_OK


def cmd_kcheck(args) -> int:
    started = time.perf_counter()
    if args.k < 1:
        return _fail("k must be at least 1", EXIT_USAGE)
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
    problem_help = "problem file or named generator: " + ", ".join(form for form, _ in _NAMED.values())

    p = sub.add_parser("solve", help="search for solutions")
    p.add_argument("problem", help=problem_help)
    p.add_argument("--method", choices=METHODS, default="none")
    p.add_argument("--goal", choices=GOALS, default="all")
    p.add_argument("--var-order", choices=VAR_ORDERS, default="lex")
    p.add_argument("--timeout", type=float, default=None, help="seconds")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("propagate", help="run one filtering level and report prunings")
    p.add_argument("problem", help=problem_help)
    p.add_argument("--level", choices=LEVELS, default="gac")
    p.add_argument("--method", choices=FILTER_METHODS, default="none")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--timeout", type=float, default=None, help="seconds for the SAC run")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("compare", help="filter with every method and check the strength order")
    p.add_argument("problem", help=problem_help)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--timeout", type=float, default=None, help="seconds for the SAC run")
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
    p.add_argument("--family", choices=("chained-pairs",), default="chained-pairs")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_kcheck)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on first use and then shared. Sharing is
    safe: parse_args leaves the parser unchanged and every default is a
    constant (SYMBREAK_BUDGET is read per call, in _budget)."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if hasattr(args, "budget"):
            args.budget = _budget(args)
        if getattr(args, "timeout", None) is not None:
            args.timeout = _timeout(args)
        return args.func(args)
    except BudgetExceeded as exc:
        return _fail(str(exc), EXIT_BUDGET)
    except SacTimeout as exc:
        return _fail(str(exc), EXIT_TIMEOUT)
    except (ValueError, OSError) as exc:
        # ProblemFormatError and DimacsError are ValueErrors.
        return _fail(str(exc), EXIT_USAGE)
    except (MemoryError, OverflowError):
        # A declared size whose domains or masks cannot be allocated.
        return _fail("problem too large to build in memory", EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
