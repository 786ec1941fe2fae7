"""The benchmark's three workloads.

A workload turns a seed into a list of request specs during set-up, runs one
spec against the library (the timed part) and checks the result (untimed).
The same seed always gives the same specs; the library sees only the
generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from pathlib import Path

# Every solve gets a deadline and every oracle call a budget, so a runaway
# request counts as failed instead of hanging the run.
REQUEST_DEADLINE_S = 20.0
ORACLE_BUDGET = 1_000_000  # above the largest compare-small domain product, 5**8


def bell(k: int) -> int:
    """The k-th Bell number, by the Bell triangle."""
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def domain_sizes(rng, m, count):
    """`count` domain sizes spread evenly over 1..m, in seeded order. The
    multiset depends only on (m, count), so the domain product, and with it
    most of the work, is the same for every seed."""
    sizes = [1 + i * m // count for i in range(count)]
    rng.shuffle(sizes)
    return sizes


class PigeonholeSearch:
    """The paper's separation experiment: one solve(goal="count") per request
    on pigeonhole_model(N), which is unsatisfiable for every N.

    Requests come in blocks of 20 with a fixed mix, shuffled by the seed.
    Sorted by latency the types are precedence (refutes at the root), ge-tree
    N=8, generator-lex N=7, ge-tree N=9, generator-lex N=8 and ge-tree N=10,
    each about twice the one before. The weights put the median in the middle
    of the generator-lex N=7 block (40-60 %) and the 90th percentile in the
    middle of the ge-tree N=10 block (80-100 %), not on a boundary.
    """

    name = "pigeonhole-search"
    MIX = (
        ("precedence", 10, 4),
        ("ge-tree", 8, 4),
        ("generator-lex", 7, 4),
        ("ge-tree", 9, 2),
        ("generator-lex", 8, 2),
        ("ge-tree", 10, 4),
    )
    BLOCK = sum(weight for _, _, weight in MIX)
    BLOCKS = 64
    TRACED_PER_S = 4 / 3  # traced requests per second of --seconds

    def __init__(self):
        self.expected_branches = {n: bell(n - 1) for _, n, _ in self.MIX}

    def _prepare(self, lib, method, n):
        problem = lib.instances.pigeonhole_model(n)
        if method == "precedence":
            problem = problem.with_constraints(lib.breaking.build_precedence(problem))
        elif method == "generator-lex":
            problem = problem.with_constraints(lib.breaking.build_generator_lex(problem))
        mode = "ge-tree" if method == "ge-tree" else "static"
        return (method, n, problem, lib.search.Strategy(mode=mode))

    def generate(self, lib, seed, workdir):
        rng = random.Random(seed)
        prepared = {(method, n): self._prepare(lib, method, n) for method, n, _ in self.MIX}
        specs = []
        for _ in range(self.BLOCKS):
            block = [prepared[method, n] for method, n, weight in self.MIX for _ in range(weight)]
            rng.shuffle(block)
            specs.extend(block)
        return specs

    def warm_up(self, lib, workdir):
        for method, n in (("precedence", 6), ("ge-tree", 6), ("generator-lex", 5)):
            self.run(lib, self._prepare(lib, method, n))

    def run(self, lib, spec):
        _, _, problem, strategy = spec
        deadline = time.perf_counter() + REQUEST_DEADLINE_S
        _, stats = lib.search.solve(problem, strategy=strategy, goal="count", deadline=deadline)
        return stats

    def check(self, lib, spec, stats):
        method, n, _, _ = spec
        if stats.solutions != 0:
            return False
        if method == "precedence":
            return stats.nodes == 0
        if method == "ge-tree":
            # The bench-getree rule: branches more than double from N-1 to N.
            # Exact counts are Bell numbers, computed here, not by the library.
            return stats.branches == self.expected_branches[n] and stats.branches > 2 * bell(n - 2)
        return True

    def extras(self, spec, stats):
        return {}


class DualFilter:
    """Arc consistency on the dual first-use encoding: build_puget plus
    propagate_fixpoint on a random base problem with n in [100, 200], m=8
    values and two classes of four.

    The first variable's domain is full; without it random domains refute at
    position 0 in microseconds and the request measures nothing. The other
    domains are random non-empty subsets, so some requests end in wipeout;
    their share is reported. Domain sizes are spread evenly over 1..m, and n is
    stratified over [100, 200] within every block of 16 requests, so any
    prefix of the pool covers the whole range.
    """

    name = "dual-filter"
    BLOCK, POOL = 16, 128
    TRACED_PER_S = 0.45
    N_MIN, N_MAX, M = 100, 200, 8

    def _base(self, lib, rng, n):
        m = self.M
        lists = [list(range(1, m + 1))]
        lists += [sorted(rng.sample(range(1, m + 1), k)) for k in domain_sizes(rng, m, n - 1)]
        partition = lib.breaking.ValueClassPartition.of([range(1, 5), range(5, 9)])
        return lib.engine.Problem(n, m, lib.engine.DomainSet.from_values(lists), partition=partition)

    def generate(self, lib, seed, workdir):
        rng = random.Random(seed)
        width = self.N_MAX - self.N_MIN + 1
        sizes = []
        for _ in range(self.POOL // self.BLOCK):
            block = [self.N_MIN + int((i + rng.random()) * width / self.BLOCK) for i in range(self.BLOCK)]
            rng.shuffle(block)
            sizes += block
        return [self._base(lib, rng, n) for n in sizes]

    def warm_up(self, lib, workdir):
        self.run(lib, self._base(lib, random.Random(0), 20))

    def run(self, lib, base):
        encoding = lib.breaking.build_puget(base)
        return encoding, lib.engine.propagate_fixpoint(encoding.problem)

    def check(self, lib, base, result):
        encoding, outcome = result
        if not outcome.wipeout:
            again = lib.engine.propagate_fixpoint(encoding.problem, outcome.final_domains)
            if again.wipeout or again.prunings:
                return False
        genlex = lib.engine.propagate_fixpoint(
            base.with_constraints(lib.breaking.build_generator_lex(base))
        )
        if genlex.wipeout:
            return outcome.wipeout
        if outcome.wipeout:
            return True
        return genlex.pruned_pairs() <= encoding.x_pairs(outcome.pruned_pairs())

    def extras(self, base, result):
        return {"wipeouts": int(result[1].wipeout)}


class CompareSmall:
    """The compare experiment end to end: an in-process
    symbreak.cli.main(["compare", file]) with stdout captured, on seeded random
    problem files written during set-up (n in [6, 8], m in [4, 5], one or two
    classes). Every block of 12 files holds each (n, m, classes) shape once,
    and domain sizes are spread evenly over 1..m. No subprocess, so interpreter
    start-up stays out of the timing.
    """

    name = "compare-small"
    SHAPES = [(n, m, k) for n in (6, 7, 8) for m in (4, 5) for k in (1, 2)]
    BLOCK = len(SHAPES)
    POOL = 32 * BLOCK
    TRACED_PER_S = 10.0
    METHODS = {"generator-lex", "precedence", "puget-ac", "puget-sac", "oracle"}

    def __init__(self):
        self.stdout_of = {}  # path -> first stdout seen; later runs must match

    def _write(self, lib, rng, path, n, m, num_classes):
        classes = [range(1, m + 1)] if num_classes == 1 else [range(1, 3), range(3, m + 1)]
        lists = [sorted(rng.sample(range(1, m + 1), k)) for k in domain_sizes(rng, m, n)]
        problem = lib.engine.Problem(
            n, m, lib.engine.DomainSet.from_values(lists),
            partition=lib.breaking.ValueClassPartition.of(classes),
        )
        lib.problem_io.save_problem(problem, str(path))
        return str(path)

    def generate(self, lib, seed, workdir):
        rng = random.Random(seed)
        shapes = []
        for _ in range(self.POOL // self.BLOCK):
            shapes += rng.sample(self.SHAPES, self.BLOCK)
        return [self._write(lib, rng, Path(workdir) / f"case{i}.json", *shape) for i, shape in enumerate(shapes)]

    def warm_up(self, lib, workdir):
        self.run(lib, self._write(lib, random.Random(0), Path(workdir) / "warm.json", 5, 4, 1))

    def run(self, lib, path):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(["compare", path, "--budget", str(ORACLE_BUDGET)])
        return code, out.getvalue()

    def check(self, lib, path, result):
        code, stdout = result
        if code != 0:
            return False
        if self.stdout_of.setdefault(path, stdout) != stdout:
            return False  # stdout must be byte-reproducible
        try:
            doc, _ = json.JSONDecoder().raw_decode(stdout)
        except json.JSONDecodeError:
            return False
        return doc.get("violations") == 0 and set(doc.get("methods", ())) == self.METHODS

    def extras(self, path, result):
        return {"stdout_bytes": len(result[1].encode())}


WORKLOADS = {w.name: w for w in (PigeonholeSearch, DualFilter, CompareSmall)}
