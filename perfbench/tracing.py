"""Spans and counters recorded around the library's public functions.

Used only by the traced run. `Tracer.install` replaces each public function
and method listed below with a wrapper, in every symbreak module that holds
it (so names that `symbreak.cli` and `symbreak.search` import directly are
covered too). Wrappers do nothing but call through while the tracer is
disabled, so checks that run between requests are not counted.

Each wrapped call is a span with name, start, end and parent; spans stay in
memory and are written once, at the end, as CSV. Filter calls
(`Constraint.propagate`) are too many to keep one span each: they are folded
into per-kind counters and into their parent span's child time. Self time is
a span's duration minus its children's.
"""

from __future__ import annotations

import os
from array import array
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name); a dotted attribute is a method on a class.
SPANS = (
    ("search", "solve", "search.solve"),
    ("search", "ge_tree_candidates", "search.ge_tree_candidates"),
    ("engine", "PropagationEngine.run", "engine.run"),
    ("engine", "propagate_fixpoint", "engine.propagate_fixpoint"),
    ("breaking", "build_puget", "breaking.build_puget"),
    ("breaking", "build_generator_lex", "breaking.build_generator_lex"),
    ("breaking", "build_precedence", "breaking.build_precedence"),
    ("consistency", "enforce_sac", "consistency.enforce_sac"),
    ("consistency", "brute_force_gac", "consistency.brute_force_gac"),
    ("consistency", "enumerate_solutions", "consistency.enumerate_solutions"),
    ("problem_io", "load_problem", "problem_io.load_problem"),
    ("cli", "main", "cli.main"),
)

# Constraint class -> kind; the binary kinds inherit BinaryConstraint.propagate
# and get a wrapper each so their counts stay apart.
KINDS = {
    "DisjunctionEq": "disjunction_eq",
    "LexLeqPermuted": "lex_leq_permuted",
    "Precedence": "precedence",
    "EqImpliesLeq": "eq_implies_leq",
    "EqImpliesEq": "eq_implies_eq",
    "StrictLess": "strict_less",
}

MODULES = ("engine", "constraints", "breaking", "consistency", "instances", "problem_io", "search", "cli")


def layer_metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [
        ("search.nodes", "count", "lower"),
        ("search.branches", "count", "lower"),
        ("search.backtracks", "count", "lower"),
        ("search.prunings", "count", "lower"),
        ("search.solutions", "count", "lower"),
        ("search.candidates_calls", "count", "lower"),
        ("search.s", "s", "lower"),
        ("search.self_s", "s", "lower"),
        ("search.us_per_node", "us", "lower"),
        ("engine.runs_full", "count", "lower"),
        ("engine.runs_incremental", "count", "lower"),
        ("engine.s", "s", "lower"),
        ("engine.self_s", "s", "lower"),
        ("engine.us_per_run", "us", "lower"),
    ]
    for kind in KINDS.values():
        p = f"constraints.{kind}."
        specs += [
            (p + "calls", "count", "lower"),
            (p + "noop_calls", "count", "lower"),
            (p + "removals", "count", "lower"),
            (p + "wipeouts", "count", "lower"),
            (p + "s", "s", "lower"),
            (p + "noop_ratio", "frac", "lower"),
            (p + "ns_per_cell", "ns", "lower"),
        ]
    specs += [
        ("breaking.build_puget_s", "s", "lower"),
        ("breaking.build_generator_lex_s", "s", "lower"),
        ("breaking.build_precedence_s", "s", "lower"),
        ("breaking.generated_constraints", "count", "lower"),
        ("consistency.enforce_sac_s", "s", "lower"),
        ("consistency.sac_engine_runs", "count", "lower"),
        ("consistency.brute_force_gac_s", "s", "lower"),
        ("consistency.oracle_assignments", "count", "lower"),
        ("consistency.budget_used_frac", "frac", "lower"),
        ("problem_io.load_problem_s", "s", "lower"),
        ("problem_io.bytes_read", "B", "lower"),
        ("cli.main_s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
        ("cli.stdout_bytes", "B", "lower"),
        ("instances.generate_s", "s", "lower"),
        ("workload.requests", "count", "higher"),
        ("workload.wipeout_frac", "frac", "lower"),
        ("trace.requests_per_s_untraced", "1/s", "higher"),
        ("trace.requests_per_s_traced", "1/s", "higher"),
        ("trace.overhead_frac", "frac", "lower"),
    ]
    return specs


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stack = []  # open frames: [span id, name, child seconds]
        self.names = []
        self.name_index = {}
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.next_id = 0
        self.count = defaultdict(int)  # span name -> calls
        self.total = defaultdict(float)  # span name -> seconds
        self.self_time = defaultdict(float)  # span name -> seconds minus children
        self.child_count = defaultdict(int)  # (name, parent name) -> calls
        self.kind = {kind: [0, 0, 0, 0, 0.0, 0] for kind in KINDS.values()}  # calls, noop, removals, wipeouts, s, cells
        self.counters = defaultdict(float)
        self.budget_used = 0.0

    # -- span bookkeeping -------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Run fn as a span called name."""
        stack = self.stack
        parent = stack[-1] if stack else None
        frame = [self.next_id, name, 0.0]
        self.next_id += 1
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent[2] += duration
            self.count[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - frame[2]
            self.child_count[name, parent[1] if parent else None] += 1
            index = self.name_index.get(name)
            if index is None:
                index = self.name_index[name] = len(self.names)
                self.names.append(name)
            self.span_id.append(frame[0])
            self.span_name.append(index)
            self.span_parent.append(parent[0] if parent else -1)
            self.span_start.append(start)
            self.span_end.append(end)

    def _wrap(self, name, fn, after):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            result = tracer.span(name, fn, *args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_filter(self, kind, fn):
        tracer = self
        stats = self.kind[kind]

        def propagate(constraint, dom, *args, **kwargs):
            if not tracer.enabled:
                return fn(constraint, dom, *args, **kwargs)
            masks = dom.masks
            scope = constraint.scope
            cells = sum(masks[var].bit_count() for var in scope)
            start = perf_counter()
            removed = fn(constraint, dom, *args, **kwargs)
            duration = perf_counter() - start
            if tracer.stack:
                tracer.stack[-1][2] += duration
            stats[0] += 1
            if removed:
                stats[2] += len(removed)
                if any(not masks[var] for var in scope):
                    stats[3] += 1
            else:
                stats[1] += 1
            stats[4] += duration
            stats[5] += cells
            return removed

        propagate.__wrapped__ = fn
        return propagate

    # -- hooks that read arguments and results ----------------------------

    def _after_solve(self, args, kwargs, result):
        stats = result[1]
        for key in ("nodes", "branches", "backtracks", "prunings", "solutions"):
            self.counters["search." + key] += getattr(stats, key)

    def _after_run(self, args, kwargs, result):
        changed = args[2] if len(args) > 2 else kwargs.get("changed")
        self.counters["engine.runs_full" if changed is None else "engine.runs_incremental"] += 1

    def _after_build(self, args, kwargs, result):
        generated = getattr(result, "generated", result)
        self.counters["breaking.generated_constraints"] += len(generated)

    def _oracle_budget(self, variables, domains, budget):
        product = 1
        for var in variables:
            product *= domains.masks[var].bit_count()
        self.counters["consistency.oracle_assignments"] += product
        self.budget_used = max(self.budget_used, product / budget)

    def _after_gac(self, args, kwargs, result):
        constraints = args[0]
        domains = args[1] if len(args) > 1 else kwargs["domains"]
        budget = args[2] if len(args) > 2 else kwargs.get("budget", self.default_budget)
        self._oracle_budget(sorted({v for c in constraints for v in c.scope}), domains, budget)

    def _after_enumerate(self, args, kwargs, result):
        problem = args[0]
        domains = args[1] if len(args) > 1 else kwargs.get("domains")
        budget = args[2] if len(args) > 2 else kwargs.get("budget", self.default_budget)
        self._oracle_budget(range(problem.num_vars), domains or problem.domains, budget)

    def _after_load(self, args, kwargs, result):
        self.counters["problem_io.bytes_read"] += os.path.getsize(args[0])

    # -- installation -----------------------------------------------------

    def install(self, lib):
        """Wrap the public functions of the library modules in `lib`."""
        self.default_budget = lib.consistency.DEFAULT_BUDGET
        after = {
            "search.solve": self._after_solve,
            "engine.run": self._after_run,
            "breaking.build_puget": self._after_build,
            "breaking.build_generator_lex": self._after_build,
            "breaking.build_precedence": self._after_build,
            "consistency.brute_force_gac": self._after_gac,
            "consistency.enumerate_solutions": self._after_enumerate,
            "problem_io.load_problem": self._after_load,
        }
        modules = [lib.symbreak] + [getattr(lib, name) for name in MODULES]
        for module_name, attribute, span_name in SPANS:
            owner = getattr(lib, module_name)
            if "." in attribute:
                class_name, attribute = attribute.split(".")
                owner = getattr(owner, class_name)
                setattr(owner, attribute, self._wrap(span_name, getattr(owner, attribute), after.get(span_name)))
                continue
            original = getattr(owner, attribute)
            wrapper = self._wrap(span_name, original, after.get(span_name))
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
        for class_name, kind in KINDS.items():
            cls = getattr(lib.constraints, class_name)
            cls.propagate = self._wrap_filter(kind, cls.propagate)

    # -- results ----------------------------------------------------------

    def write_spans(self, path):
        """Write every recorded span as CSV: id,name,parent,start_s,end_s."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,name,parent,start_s,end_s\n")
            for i in range(len(self.span_id)):
                handle.write(
                    f"{self.span_id[i]},{self.names[self.span_name[i]]},{self.span_parent[i]},"
                    f"{self.span_start[i]!r},{self.span_end[i]!r}\n"
                )

    def metrics(self, scale, extra):
        """Per-layer metric values, keyed by name. Times measured here are
        multiplied by `scale` (to the run's reference speed); `extra` supplies
        the values measured outside the wrappers (set-up, request counts)."""
        c, total, self_time = self.counters, self.total, self.self_time
        values = {
            "search.nodes": c["search.nodes"],
            "search.branches": c["search.branches"],
            "search.backtracks": c["search.backtracks"],
            "search.prunings": c["search.prunings"],
            "search.solutions": c["search.solutions"],
            "search.candidates_calls": self.count["search.ge_tree_candidates"],
            "search.s": total["search.solve"],
            "search.self_s": self_time["search.solve"],
            "search.us_per_node": _ratio(total["search.solve"] * 1e6, c["search.nodes"]),
            "engine.runs_full": c["engine.runs_full"],
            "engine.runs_incremental": c["engine.runs_incremental"],
            "engine.s": total["engine.run"],
            "engine.self_s": self_time["engine.run"],
            "engine.us_per_run": _ratio(total["engine.run"] * 1e6, self.count["engine.run"]),
        }
        for kind, (calls, noop, removals, wipeouts, seconds, cells) in self.kind.items():
            p = f"constraints.{kind}."
            values.update({
                p + "calls": calls,
                p + "noop_calls": noop,
                p + "removals": removals,
                p + "wipeouts": wipeouts,
                p + "s": seconds,
                p + "noop_ratio": _ratio(noop, calls),
                p + "ns_per_cell": _ratio(seconds * 1e9, cells),
            })
        values.update({
            "breaking.build_puget_s": total["breaking.build_puget"],
            "breaking.build_generator_lex_s": total["breaking.build_generator_lex"],
            "breaking.build_precedence_s": total["breaking.build_precedence"],
            "breaking.generated_constraints": c["breaking.generated_constraints"],
            "consistency.enforce_sac_s": total["consistency.enforce_sac"],
            "consistency.sac_engine_runs": self.child_count["engine.run", "consistency.enforce_sac"],
            "consistency.brute_force_gac_s": total["consistency.brute_force_gac"],
            "consistency.oracle_assignments": c["consistency.oracle_assignments"],
            "consistency.budget_used_frac": self.budget_used,
            "problem_io.load_problem_s": total["problem_io.load_problem"],
            "problem_io.bytes_read": c["problem_io.bytes_read"],
            "cli.main_s": total["cli.main"],
            "cli.self_s": self_time["cli.main"],
        })
        units = {name: unit for name, unit, _ in layer_metric_specs()}
        for name, value in values.items():
            if units[name] in ("s", "us", "ns"):
                values[name] = value * scale
        values.update(extra)
        return {
            name: int(values[name]) if unit in ("count", "B") else float(values[name])
            for name, unit in units.items()
        }
