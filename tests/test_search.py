from collections import Counter

import pytest

from symbreak import (
    DomainSet,
    Problem,
    PropagationEngine,
    SearchTimeout,
    Strategy,
    canonical_form,
    enumerate_solutions,
    ge_tree_candidates,
    is_class_canonical,
    pigeonhole_model,
    solve,
)
from symbreak import search
from symbreak.breaking import ValueClassPartition, build_generator_lex, build_precedence
from symbreak.constraints import (
    Conditional,
    DisjunctionEq,
    LexLeqPermuted,
    Permutation,
    Precedence,
    StrictLess,
    ValueCover,
)

from conftest import best_time, make_rng, random_domains, random_partition


def rgs_leaf_count(length):
    """Independent count of symmetry-reduced branches: sequences over one
    class where each new value is the smallest unused one."""
    def rec(pos, mx):
        if pos == length:
            return 1
        return sum(rec(pos + 1, max(mx, v)) for v in range(1, mx + 2))

    return 1 if length == 0 else rec(0, 0)


# solve(goal="count") on pigeonhole_model(n): n -> (nodes, branches,
# backtracks, prunings, solutions). A rewrite of the search loop or of a filter
# that only aims at speed must leave every entry as it is. GE-tree counts are
# the same in both variable orders.
COUNTER_FIELDS = ("nodes", "branches", "backtracks", "prunings", "solutions")
PIGEONHOLE_GE_TREE = {
    2: (1, 1, 1, 4, 0), 3: (3, 2, 2, 12, 0), 4: (8, 5, 5, 40, 0), 5: (23, 15, 15, 150, 0),
    6: (75, 52, 52, 624, 0), 7: (278, 203, 203, 2842, 0), 8: (1155, 877, 877, 14032, 0),
    9: (5295, 4140, 4140, 74520, 0), 10: (26442, 21147, 21147, 422940, 0),
}
PIGEONHOLE_PRECEDENCE = {n: (0, 0, 0, n * (n + 1), 0) for n in range(2, 11)}
PIGEONHOLE_GENERATOR_LEX = {
    2: (3, 3, 3, 12, 0), 3: (8, 7, 7, 51, 0), 4: (20, 17, 17, 180, 0), 5: (54, 46, 46, 610, 0),
    6: (168, 145, 145, 2202, 0), 7: (608, 533, 533, 8932, 0), 8: (2511, 2233, 2233, 40976, 0),
    9: (11560, 10405, 10405, 208953, 0),
}
# Recorded separately with var_order="min-domain"; on full pigeonhole
# domains it visits the same tree as "lex".
PIGEONHOLE_GENERATOR_LEX_MIN_DOMAIN = {
    2: (3, 3, 3, 12, 0), 3: (8, 7, 7, 51, 0), 4: (20, 17, 17, 180, 0), 5: (54, 46, 46, 610, 0),
    6: (168, 145, 145, 2202, 0), 7: (608, 533, 533, 8932, 0), 8: (2511, 2233, 2233, 40976, 0),
}


def test_pigeonhole_search_counters_are_pinned():
    def record(problem, strategy=None):
        _, stats = solve(problem, strategy=strategy, goal="count")
        return stats.as_record()

    for n, counts in PIGEONHOLE_GE_TREE.items():
        expected = dict(zip(COUNTER_FIELDS, counts))
        for order in ("lex", "min-domain"):
            assert record(pigeonhole_model(n), Strategy(mode="ge-tree", var_order=order)) == expected
    for table, builder in ((PIGEONHOLE_PRECEDENCE, build_precedence),
                           (PIGEONHOLE_GENERATOR_LEX, build_generator_lex)):
        for n, counts in table.items():
            prob = pigeonhole_model(n)
            assert record(prob.with_constraints(builder(prob))) == dict(zip(COUNTER_FIELDS, counts))
    for n, counts in PIGEONHOLE_GENERATOR_LEX_MIN_DOMAIN.items():
        prob = pigeonhole_model(n)
        prob = prob.with_constraints(build_generator_lex(prob))
        assert record(prob, Strategy(var_order="min-domain")) == dict(zip(COUNTER_FIELDS, counts))


def test_ge_tree_pigeonhole_calls_few_disjunctions_per_node(monkeypatch):
    # A disjunction whose value is assigned is entailed, and no node below
    # wakes it again: about 3.2 calls per node here, against 7.0 when every
    # disjunction on a changed variable is called at every node.
    calls = [0]
    real_propagate = DisjunctionEq.propagate

    def counting_propagate(self, dom):
        calls[0] += 1
        return real_propagate(self, dom)

    monkeypatch.setattr(DisjunctionEq, "propagate", counting_propagate)
    for order in ("lex", "min-domain"):
        calls[0] = 0
        _, stats = solve(pigeonhole_model(9), strategy=Strategy(mode="ge-tree", var_order=order),
                         goal="count")
        assert stats.nodes == PIGEONHOLE_GE_TREE[9][0]
        assert calls[0] <= 4 * stats.nodes, (order, calls[0], stats.nodes)


def test_ge_tree_pigeonhole_runs_one_value_cover_per_node(monkeypatch):
    # Every constraint of the pigeonhole shares its scope, so solve fuses
    # the n+1 disjunctions into one kernel, which n variables can never
    # entail. Each pushed frame asks the kernel's lookahead once, and every
    # child it does not foresee wiping out is quiet: the kernel alone
    # watches each variable and would remove nothing there. So the kernel
    # runs once, at the root, and never at a child.
    calls = {ValueCover: 0, DisjunctionEq: 0, "lookahead": 0}
    for kind in (ValueCover, DisjunctionEq):
        def counting_propagate(self, dom, kind=kind, real=kind.propagate):
            calls[kind] += 1
            return real(self, dom)

        monkeypatch.setattr(kind, "propagate", counting_propagate)

    def counting_lookahead(self, masks, var, scan, summary, real=ValueCover.lookahead):
        calls["lookahead"] += 1
        return real(self, masks, var, scan, summary)

    monkeypatch.setattr(ValueCover, "lookahead", counting_lookahead)
    for order in ("lex", "min-domain"):
        calls.update(dict.fromkeys(calls, 0))
        _, stats = solve(pigeonhole_model(9), strategy=Strategy(mode="ge-tree", var_order=order),
                         goal="count")
        assert stats.nodes == PIGEONHOLE_GE_TREE[9][0]
        frames = stats.nodes - stats.branches + 1
        assert frames == 1156, order
        assert calls == {ValueCover: 1, DisjunctionEq: 0, "lookahead": frames}, order

    # One constraint over two of the variables keeps the decomposition, and
    # so does a conditional over all of them: its filter wipes only its
    # inner scope, so a wipeout need not empty the shared set.
    prob = pigeonhole_model(6)
    for extra in (StrictLess(0, 1), Conditional(0, "odd", DisjunctionEq(1, range(1, 6)))):
        calls.update(dict.fromkeys(calls, 0))
        solve(prob.with_constraints([extra]), strategy=Strategy(mode="ge-tree"))
        assert calls[ValueCover] == 0 and calls[DisjunctionEq] > 0, extra


def random_shared_scope_problem(rng):
    """Two or more disjunctions, and perhaps a lex and a precedence
    constraint, all over one shuffled variable set: the shape solve fuses."""
    def shuffled(scope):
        return rng.sample(scope, len(scope))

    n, m = rng.randint(2, 6), rng.randint(2, 5)
    scope = rng.sample(range(n), rng.randint(2, n))
    cons = [DisjunctionEq(rng.randint(1, m), shuffled(scope))
            for _ in range(rng.randint(2, len(scope) + 1))]
    if rng.random() < 0.5:
        img = list(range(1, m + 1))
        rng.shuffle(img)
        cons.append(LexLeqPermuted(Permutation(img), shuffled(scope)))
    if rng.random() < 0.5:
        cls = sorted(rng.sample(range(1, m + 1), rng.randint(2, m)))
        cons.append(Precedence(cls, shuffled(scope)))
    rng.shuffle(cons)
    dom = random_domains(rng, n, m) if rng.random() < 0.5 else DomainSet.full(n, m)
    return Problem(n, m, dom, tuple(cons), random_partition(rng, m))


def test_fused_search_matches_the_unfused_engine(monkeypatch):
    # On problems whose constraints all share one variable set, the fused
    # kernel must leave every solution and all five counters as they are.
    rng = make_rng(64)
    for _ in range(300):
        prob = random_shared_scope_problem(rng)
        assert any(isinstance(c, ValueCover) for c in search._fuse_value_covers(prob.constraints))
        strategy = Strategy(mode=rng.choice(["static", "ge-tree"]),
                            var_order=rng.choice(["lex", "min-domain"]))
        fused = solve(prob, strategy=strategy)
        with monkeypatch.context() as patch:
            patch.setattr(search, "_fuse_value_covers", lambda constraints: constraints)
            unfused = solve(prob, strategy=strategy)
        assert fused[0] == unfused[0], (prob, strategy)
        assert fused[1].as_record() == unfused[1].as_record(), (prob, strategy)


def test_value_cover_fusion_cost_scales_linearly():
    # solve fuses the disjunctions before its deadline is first read, so the
    # fusion guard and the kernel's member check must cost time linear in
    # the number of constraints when they share one scope tuple: factor 3
    # slack on the per-constraint cost fitted at the smallest size.
    timings = {}
    for n in (250, 2000):
        constraints = pigeonhole_model(n).constraints
        timings[n], fused = best_time(lambda: search._fuse_value_covers(constraints))
        assert [c.__class__ for c in fused] == [ValueCover]
    assert timings[2000] <= 3.0 * timings[250] * 2000 / 250, timings


def count_only_lookahead(self, masks, var, scan, summary, real=ValueCover.lookahead):
    """The kernel's lookahead naming no doomed and no quiet child, with the
    frame's real wipeout count, which a lex filter's doomed child uses."""
    return 0, real(self, masks, var, scan, summary)[1], 0


def test_root_lex_lookahead_cost_scales_linearly():
    # The first frame of generator-lex search asks each of the n lex
    # filters which values of variable 0 it dooms, before the deadline is
    # next read. Each answer must cost O(1) on the root domains, so the
    # whole scan is linear in n: factor 3 slack on the per-filter cost
    # fitted at the smallest size.
    timings = {}
    for n in (250, 2000):
        prob = pigeonhole_model(n)
        lex = build_generator_lex(prob)
        assert len(lex) == n
        masks = prob.domains.masks

        def scan():
            return [c.doomed(masks, 0) for c in lex]

        timings[n], _ = best_time(scan)
    assert timings[2000] <= 3.0 * timings[250] * 2000 / 250, timings


def test_doomed_children_keep_every_node_in_order(monkeypatch):
    # A child the kernel's lookahead foresees wiping out skips its engine
    # run, yet counts, prunes and reaches node_hook exactly as when every
    # child runs the engine; the lex filters' lookahead stays on in both.
    def record(prob, strategy, goal):
        seen = []
        solutions, stats = solve(prob, strategy=strategy, goal=goal, node_hook=seen.append)
        return solutions, stats.as_record(), seen

    rng = make_rng(64)
    settled = [0]
    real_lookahead = ValueCover.lookahead

    def counting_lookahead(self, masks, var, scan, summary):
        doomed, count, quiet = real_lookahead(self, masks, var, scan, summary)
        settled[0] += doomed.bit_count()
        return doomed, count, quiet

    for _ in range(300):
        prob = random_shared_scope_problem(rng)
        strategy = Strategy(mode=rng.choice(["static", "ge-tree"]),
                            var_order=rng.choice(["lex", "min-domain"]))
        goal = rng.choice(["first", "all", "count"])
        with monkeypatch.context() as patch:
            patch.setattr(ValueCover, "lookahead", counting_lookahead)
            looked_ahead = record(prob, strategy, goal)
        with monkeypatch.context() as patch:
            patch.setattr(ValueCover, "lookahead", count_only_lookahead)
            every_child_run = record(prob, strategy, goal)
        assert looked_ahead == every_child_run, (prob, strategy, goal)
    assert settled[0] >= 100, settled


def test_doomed_runs_without_node_hook_match_every_child_run(monkeypatch):
    # Without node_hook, solve settles each run of consecutive doomed
    # children in one step. Solutions and all five counters must be what
    # running every child through the engine gives.
    def record(prob, strategy, goal):
        solutions, stats = solve(prob, strategy=strategy, goal=goal)
        return solutions, stats.as_record()

    def settled_in_runs(prob, strategy, goal):
        # Children settled in runs of two or more, read from node_hook: a
        # settled child runs no engine, and the children of one run differ
        # only in the value of their frame's variable.
        trace = []  # None for a child's engine run, then each node's variables
        real_run = PropagationEngine.run

        def marking_run(self, dom, changed=None, entailed=None):
            if changed is not None:
                trace.append(None)
            return real_run(self, dom, changed=changed, entailed=entailed)

        with monkeypatch.context() as patch:
            patch.setattr(PropagationEngine, "run", marking_run)
            solve(prob, strategy=strategy, goal=goal,
                  node_hook=lambda partial: trace.append(frozenset(partial)))
        lengths = []
        prev, prev_settled = "root", False
        for item in trace:
            settled = item is not None and prev is not None
            if settled and prev_settled and item == prev:
                lengths[-1] += 1
            elif settled:
                lengths.append(1)
            prev, prev_settled = item, settled
        return sum(k for k in lengths if k >= 2)

    def compare(prob, strategy, goal):
        batched = record(prob, strategy, goal)
        with monkeypatch.context() as patch:
            patch.setattr(ValueCover, "lookahead", count_only_lookahead)
            every_child_run = record(prob, strategy, goal)
        assert batched == every_child_run, (prob, strategy, goal)
        return settled_in_runs(prob, strategy, goal)

    rng = make_rng(65)
    in_runs = 0
    for _ in range(300):
        prob = random_shared_scope_problem(rng)
        strategy = Strategy(mode=rng.choice(["static", "ge-tree"]),
                            var_order=rng.choice(["lex", "min-domain"]))
        in_runs += compare(prob, strategy, rng.choice(["first", "all", "count"]))
    for n in range(4, 11):
        for order in ("lex", "min-domain"):
            in_runs += compare(pigeonhole_model(n), Strategy(mode="ge-tree", var_order=order), "count")
    assert in_runs >= 100, in_runs


def test_lex_lookahead_keeps_every_node_in_order(monkeypatch):
    # With the lex filters' lookahead on as well as the kernel's, solutions,
    # counters and every node_hook call, in order, are what running every
    # child through the engine gives. A lex filter names values only: the
    # count of a child it dooms is the kernel's, also at a frame where the
    # kernel is entailed (every needed value is a scope variable's
    # singleton), where the kernel names no child and a lex filter alone
    # dooms one.
    settled = [0]
    entailed_settled = [0]
    # Per variable, its latest frame: [whether the kernel is entailed there,
    # the union of the lex filters' doomed masks]. The kernel's lookahead
    # runs first at every frame.
    frames = {}
    real_lookahead = ValueCover.lookahead
    real_doomed = LexLeqPermuted.doomed

    def noting_lookahead(self, masks, var, scan, summary):
        covered = 0
        for v in self.scope:
            if not masks[v] & (masks[v] - 1):
                covered |= masks[v]
        frames[var] = [not self.needed & ~covered, 0]
        return real_lookahead(self, masks, var, scan, summary)

    def counting_doomed(self, masks, var):
        doomed = real_doomed(self, masks, var)
        settled[0] += doomed.bit_count()
        frames[var][1] |= doomed
        return doomed

    def counting_hook(partial):
        var = next(reversed(partial))  # the variable of the child's frame
        entailed, doomed = frames.get(var, (False, 0))
        entailed_settled[0] += entailed and doomed >> partial[var] & 1

    def record(prob, strategy, goal, hook=lambda partial: None):
        seen = []

        def node_hook(partial):
            seen.append(partial)
            hook(partial)

        solutions, stats = solve(prob, strategy=strategy, goal=goal, node_hook=node_hook)
        return solutions, stats.as_record(), seen

    def compare(prob, strategy, goal):
        frames.clear()
        with monkeypatch.context() as patch:
            patch.setattr(ValueCover, "lookahead", noting_lookahead)
            patch.setattr(LexLeqPermuted, "doomed", counting_doomed)
            looked_ahead = record(prob, strategy, goal, counting_hook)
        with monkeypatch.context() as patch:
            patch.setattr(ValueCover, "lookahead", lambda self, masks, var, scan, summary: (0, 0, 0))
            patch.setattr(LexLeqPermuted, "doomed", lambda self, masks, var: 0)
            every_child_run = record(prob, strategy, goal)
        assert looked_ahead == every_child_run, (prob, strategy, goal)

    rng = make_rng(66)
    for _ in range(300):
        prob = random_shared_scope_problem(rng)
        strategy = Strategy(mode=rng.choice(["static", "ge-tree"]),
                            var_order=rng.choice(["lex", "min-domain"]))
        compare(prob, strategy, rng.choice(["first", "all", "count"]))
    assert entailed_settled[0] >= 10, entailed_settled
    for n in range(4, 10):
        prob = pigeonhole_model(n)
        prob = prob.with_constraints(build_generator_lex(prob))
        for order in ("lex", "min-domain"):
            compare(prob, Strategy(var_order=order), "count")
    assert settled[0] >= 1000, settled


def test_quiet_children_keep_every_node_in_order(monkeypatch):
    # A quiet child, on a variable that the kernel alone watches, is entered
    # without an engine run, yet solutions, counters and every node_hook
    # call, in order, are what running it through the engine gives. Each
    # quiet child entered is one engine run fewer.
    def record(prob, strategy, goal):
        seen = []
        runs = [0]
        real_run = PropagationEngine.run

        def counting_run(self, dom, changed=None, entailed=None):
            runs[0] += 1
            return real_run(self, dom, changed=changed, entailed=entailed)

        with monkeypatch.context() as patch:
            patch.setattr(PropagationEngine, "run", counting_run)
            solutions, stats = solve(prob, strategy=strategy, goal=goal, node_hook=seen.append)
        return (solutions, stats.as_record(), seen), runs[0]

    real_lookahead = ValueCover.lookahead

    def compare(prob, strategy, goal):
        quiet_on, runs = record(prob, strategy, goal)
        with monkeypatch.context() as patch:
            patch.setattr(ValueCover, "lookahead",
                          lambda self, masks, var, scan, summary:
                          real_lookahead(self, masks, var, scan, summary)[:2] + (0,))
            quiet_off, runs_off = record(prob, strategy, goal)
        assert quiet_on == quiet_off, (prob, strategy, goal)
        return runs_off - runs, quiet_on[1]

    rng = make_rng(67)
    entered = solo_problems = 0
    for _ in range(300):
        prob = random_shared_scope_problem(rng)
        solo_problems += all(c.__class__ is DisjunctionEq for c in prob.constraints)
        strategy = Strategy(mode=rng.choice(["static", "ge-tree"]),
                            var_order=rng.choice(["lex", "min-domain"]))
        entered += compare(prob, strategy, rng.choice(["first", "all", "count"]))[0]
    assert solo_problems >= 50 and entered >= 100, (solo_problems, entered)
    for n in range(4, 11):
        for order in ("lex", "min-domain"):
            # Every child that survives the lookahead is quiet.
            saved, counters = compare(pigeonhole_model(n), Strategy(mode="ge-tree", var_order=order),
                                      "count")
            assert saved == counters["nodes"] - counters["branches"], (n, order)


def pigeonhole_among_free_variables(k, needed, layout):
    """The pigeonhole's shape on k scope variables over k + 1 interchangeable
    values, each of the first `needed` values taken somewhere in the scope,
    placed among unconstrained variables: layout holds one letter per
    variable, "s" for a scope variable and "f" for a free one."""
    assert layout.count("s") == k
    scope = tuple(v for v, kind in enumerate(layout) if kind == "s")
    n = len(layout)
    return Problem(n, k + 1, DomainSet.full(n, k + 1),
                   tuple(DisjunctionEq(j, scope) for j in range(1, needed + 1)),
                   ValueClassPartition.of([range(1, k + 2)]))


def test_frame_summaries_keep_every_node_in_order(monkeypatch):
    # Each frame hands the kernel's lookahead a summary of the assigned
    # scope variables and scans only the rest: in lex order the scope
    # variables after var, with the summary of those before it; in
    # min-domain order every other one, with an empty summary. Solutions,
    # counters and every node_hook call, in order, are what the full scan
    # at every frame gives, also where free variables lie before, between
    # and after the scope variables.
    real_lookahead = ValueCover.lookahead
    order = [None]
    summarised = [0]

    def checked_lookahead(self, masks, var, scan, summary):
        if order[0] == "lex":
            before = [v for v in self.scope if v < var]
            taken = Counter(masks[v].bit_length() - 1 for v in before)
            assert all(masks[v] & (masks[v] - 1) == 0 for v in before), (masks, var)
            assert summary == (sum(1 << value for value in taken),
                               sum(1 << value for value, k in taken.items() if k > 1),
                               len(before)), (masks, var, summary)
            assert sorted(scan) == sorted(v for v in self.scope if v > var), (var, scan)
        else:
            assert summary == (0, 0, 0)
            assert sorted(scan) == sorted(v for v in self.scope if v != var), (var, scan)
        summarised[0] += summary[2]
        return real_lookahead(self, masks, var, scan, summary)

    def full_lookahead(self, masks, var, scan, summary):
        return real_lookahead(self, masks, var, [v for v in self.scope if v != var], (0, 0, 0))

    def record(prob, strategy, goal, lookahead):
        seen = []
        with monkeypatch.context() as patch:
            patch.setattr(ValueCover, "lookahead", lookahead)
            solutions, stats = solve(prob, strategy=strategy, goal=goal, node_hook=seen.append)
        return solutions, stats.as_record(), seen

    def compare(prob, strategy, goal):
        order[0] = strategy.var_order
        with_summary = record(prob, strategy, goal, checked_lookahead)
        assert with_summary == record(prob, strategy, goal, full_lookahead), (prob, strategy, goal)

    layouts = ("{}", "f{}", "{}f", "ff{}", "s{}fs", "f{}fsf")
    for k in range(2, 5):
        for needed in (k, k + 1):  # satisfiable, then the pigeonhole itself
            for layout in layouts:
                prob = pigeonhole_among_free_variables(
                    k, needed, layout.format("s" * (k - layout.count("s"))))
                for mode in ("static", "ge-tree"):
                    for var_order in ("lex", "min-domain"):
                        for goal in ("first", "all", "count"):
                            compare(prob, Strategy(mode=mode, var_order=var_order), goal)
    for n in range(5, 9):
        for var_order in ("lex", "min-domain"):
            compare(pigeonhole_model(n), Strategy(mode="ge-tree", var_order=var_order), "count")
    rng = make_rng(68)
    for _ in range(300):
        prob = random_shared_scope_problem(rng)
        strategy = Strategy(mode=rng.choice(["static", "ge-tree"]),
                            var_order=rng.choice(["lex", "min-domain"]))
        compare(prob, strategy, rng.choice(["first", "all", "count"]))
    assert summarised[0] >= 1000, summarised


def test_generator_lex_pigeonhole_runs_the_engine_only_where_a_child_survives(monkeypatch):
    # The twin of the ge-tree pin above: every wipeout on generator-lex
    # pigeonhole is one that the kernel's or a lex filter's lookahead
    # foresees, so the engine runs at the root and at each child that
    # survives, and never at a branch's dead end.
    runs = [0]
    real_run = PropagationEngine.run

    def counting_run(self, dom, changed=None, entailed=None):
        runs[0] += 1
        return real_run(self, dom, changed=changed, entailed=entailed)

    monkeypatch.setattr(PropagationEngine, "run", counting_run)
    seen = {}
    for n in range(4, 10):
        prob = pigeonhole_model(n)
        runs[0] = 0
        _, stats = solve(prob.with_constraints(build_generator_lex(prob)), goal="count")
        assert stats.nodes == PIGEONHOLE_GENERATOR_LEX[n][0]
        assert runs[0] == stats.nodes - stats.branches + 1, (n, runs[0])
        seen[n] = runs[0]
    assert (seen[7], seen[8]) == (76, 279), seen


def test_generator_lex_pigeonhole_calls_few_lex_filters_per_node(monkeypatch):
    # A lex constraint that ties as singletons up to a position whose values
    # all fall below their images, or ties as singletons throughout, is
    # entailed, and no node below wakes it again: about 1.1 calls per node
    # here, against 1.82 when it is woken whenever its scope changes.
    calls = [0]
    real_propagate = LexLeqPermuted.propagate

    def counting_propagate(self, dom):
        calls[0] += 1
        return real_propagate(self, dom)

    monkeypatch.setattr(LexLeqPermuted, "propagate", counting_propagate)
    prob = pigeonhole_model(8)
    prob = prob.with_constraints(build_generator_lex(prob))
    _, stats = solve(prob, goal="count")
    assert stats.nodes == PIGEONHOLE_GENERATOR_LEX[8][0]
    assert calls[0] <= 1.3 * stats.nodes, (calls[0], stats.nodes)


def test_candidates_used_plus_one_fresh():
    part = ValueClassPartition.of([[1, 2, 3, 4]])
    dom = DomainSet.from_values([[1, 2, 3, 4]] * 2)
    assert ge_tree_candidates({0: 1}, 1, dom, part) == [1, 2]


def test_candidates_dead_branch_when_smallest_unavailable():
    part = ValueClassPartition.of([[1, 2, 3]])
    dom = DomainSet.from_values([[2, 3]])
    assert ge_tree_candidates({}, 0, dom, part) == []
    # cross-check: no canonical solution opens with a value other than 1
    prob = Problem(1, 3, dom, partition=part)
    assert [v for v in enumerate_solutions(prob) if is_class_canonical(v, part)] == []


def test_candidates_two_classes_pass_everything_once_used():
    part = ValueClassPartition.of([[1, 2], [3, 4]])
    dom = DomainSet.from_values([[1, 2, 3, 4]] * 3)
    assert ge_tree_candidates({0: 1, 1: 3}, 2, dom, part) == [1, 2, 3, 4]


def test_candidates_match_the_rule_on_random_partials():
    # Independent restatement: within a class, keep the values the partial
    # assignment uses plus the smallest class value it does not use (kept
    # only if var's domain still holds it); values in no class pass.
    def by_rule(partial, var, dom, part):
        used = set(partial.values())
        out = []
        for value in dom.values(var):
            cls = next((c for c in part.classes if value in c), None)
            if cls is None or value in used or value == min(set(cls) - used, default=None):
                out.append(value)
        return out

    rng = make_rng(31)
    for _ in range(600):
        n, m = rng.randint(1, 6), rng.randint(1, 7)
        part = random_partition(rng, m, max_classes=rng.randint(1, 3))
        dom = random_domains(rng, n, m)
        var = rng.randrange(n)
        others = [v for v in range(n) if v != var]
        partial = {v: rng.randint(1, m) for v in rng.sample(others, rng.randint(0, len(others)))}
        assert ge_tree_candidates(partial, var, dom, part) == by_rule(partial, var, dom, part), (
            partial, var, dom, part)


def test_ge_tree_mask_matches_the_rule_on_random_used_sets():
    # Independent restatement on masks: of var's domain, keep the values in
    # used, and per class the smallest class value not in used; values in
    # no class, including those above every class, pass.
    def by_rule(used, values, part):
        out = []
        for value in values:
            cls = next((c for c in part.classes if value in c), None)
            if cls is None or value in used or value == min(set(cls) - used, default=None):
                out.append(value)
        return out

    rng = make_rng(32)
    empty = 0
    for _ in range(600):
        m = rng.randint(1, 7)
        part = random_partition(rng, m, max_classes=rng.randint(1, 3))
        values = sorted(rng.sample(range(1, m + 3), rng.randint(0, m + 2)))
        partial = {v: rng.randint(1, m + 2) for v in range(rng.randint(0, 5))}
        used_mask = 0
        for value in partial.values():
            used_mask |= 1 << value
        mask = sum(1 << value for value in values)
        got = search.ge_tree_mask(used_mask, mask, part)
        expected = by_rule(set(partial.values()), values, part)
        assert got == sum(1 << value for value in expected), (partial, values, part)
        empty += not values
    assert empty > 0


def test_static_mode_with_precedence_fails_at_root():
    for n in (1, 4, 16, 64):
        prob = pigeonhole_model(n)
        posted = prob.with_constraints(build_precedence(prob))
        sols, stats = solve(posted, goal="count")
        assert stats.solutions == 0
        assert stats.branches == 0 and stats.nodes == 0
        assert stats.prunings >= n


def test_symmetry_skipping_counts_match_independent_counter():
    for n in range(2, 8):
        prob = pigeonhole_model(n)
        _, stats = solve(prob, strategy=Strategy(mode="ge-tree"), goal="count")
        assert stats.branches == rgs_leaf_count(n - 1)
        assert stats.solutions == 0
        _, md = solve(
            prob, strategy=Strategy(mode="ge-tree", var_order="min-domain"), goal="count"
        )
        assert md.branches == stats.branches


def test_ge_tree_enumerates_one_representative_per_class():
    part = ValueClassPartition.of([[1, 2, 3]])
    prob = Problem(3, 3, DomainSet.full(3, 3), partition=part)
    sols, stats = solve(prob, strategy=Strategy(mode="ge-tree"))
    assert sols == [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3)]
    assert stats.solutions == 5


def test_unknown_strategy_names_and_goals_are_rejected():
    with pytest.raises(ValueError, match="unknown variable order 'dom'"):
        Strategy(var_order="dom")
    with pytest.raises(ValueError, match="unknown mode 'lex'"):
        Strategy(mode="lex")
    prob = Problem(2, 2, DomainSet.full(2, 2))
    with pytest.raises(ValueError, match="unknown goal 'best'"):
        solve(prob, goal="best")


def test_ge_tree_requires_partition():
    prob = Problem(2, 2, DomainSet.full(2, 2))
    with pytest.raises(ValueError):
        solve(prob, strategy=Strategy(mode="ge-tree"))


def test_ge_tree_matches_canonical_image_on_symmetric_problems():
    # the canonical-image identity presumes the problem itself cannot tell
    # class members apart: domains are unions of whole classes and the
    # constraints are class-invariant
    from conftest import random_symmetric_problem

    rng = make_rng(61)
    for _ in range(40):
        prob = random_symmetric_problem(rng)
        part = prob.partition
        expected = sorted({canonical_form(v, part) for v in enumerate_solutions(prob)})
        got, _ = solve(prob, strategy=Strategy(mode="ge-tree"))
        assert sorted(got) == expected


def test_ge_tree_selects_canonical_solutions_on_arbitrary_domains():
    rng = make_rng(62)
    for _ in range(40):
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        part = random_partition(rng, m)
        prob = Problem(n, m, random_domains(rng, n, m), (), part)
        expected = sorted(
            v for v in enumerate_solutions(prob) if is_class_canonical(v, part)
        )
        got, _ = solve(prob, strategy=Strategy(mode="ge-tree"))
        assert sorted(got) == expected


def test_ge_tree_never_visits_two_symmetric_partials():
    # two partials over the same variables that differ by a class relabelling
    # would canonicalize to the same key
    part = ValueClassPartition.of([[1, 2, 3]])
    prob = Problem(4, 3, DomainSet.full(4, 3), partition=part)
    seen = set()

    def hook(partial):
        assigned_vars = tuple(sorted(partial))
        values = tuple(partial[v] for v in assigned_vars)
        key = (assigned_vars, canonical_form(values, part))
        assert key not in seen
        seen.add(key)

    solve(prob, strategy=Strategy(mode="ge-tree"), node_hook=hook)
    assert seen


def test_stats_invariants_and_goals():
    prob = Problem(3, 3, DomainSet.full(3, 3), (StrictLess(0, 1), StrictLess(1, 2)))
    sols, stats = solve(prob)
    assert sols == [(1, 2, 3)]
    assert stats.branches <= stats.nodes
    assert stats.solutions <= stats.branches

    first, fstats = solve(prob, goal="first")
    assert first == [(1, 2, 3)] and fstats.solutions == 1

    counted, cstats = solve(prob, goal="count")
    assert counted == [] and cstats.solutions == 1


def test_min_domain_order_changes_visit_order_not_solutions():
    dom = DomainSet.from_values([[1, 2, 3], [1, 2]])
    prob = Problem(2, 3, dom, (StrictLess(0, 1),))
    lex_sols, _ = solve(prob)
    md_sols, _ = solve(prob, strategy=Strategy(var_order="min-domain"))
    assert sorted(lex_sols) == sorted(md_sols) == [(1, 2)]


def test_search_deadline():
    prob = pigeonhole_model(12)
    with pytest.raises(SearchTimeout):
        solve(prob, strategy=Strategy(mode="ge-tree"), goal="count", deadline=0.0)


def test_lex_order_branches_on_the_lowest_unassigned_variable():
    # Every node's partial assignment covers exactly the first k variables,
    # also with singleton domains from the caller, on one-variable problems,
    # and where the root is already a leaf.
    rng = make_rng(63)
    for _ in range(200):
        n, m = rng.randint(1, 5), rng.randint(1, 4)
        dom = random_domains(rng, n, m)
        for var in range(n):
            if rng.random() < 0.3:
                dom.assign(var, rng.choice(dom.values(var)))
        part = random_partition(rng, m)
        cons = (StrictLess(0, 1),) if n > 1 and rng.random() < 0.5 else ()
        prob = Problem(n, m, DomainSet.full(n, m), cons, part)
        expected = sorted(enumerate_solutions(prob, dom))
        for mode in ("static", "ge-tree"):
            seen = []

            def hook(partial):
                assert sorted(partial) == list(range(len(partial))), partial
                seen.append(len(partial))

            sols, stats = solve(prob, domains=dom, strategy=Strategy(mode=mode), node_hook=hook)
            assert len(seen) == stats.nodes
            if mode == "static":
                assert sorted(sols) == expected
            else:
                assert sorted(sols) == [v for v in expected if is_class_canonical(v, part)]
    # Root leaves: no variable at all, and a root that propagation wipes out.
    assert solve(Problem(0, 2, DomainSet.full(0, 2)))[0] == [()]
    wiped = Problem(2, 2, DomainSet.from_values([[2], [1]]), (StrictLess(0, 1),))
    sols, stats = solve(wiped, node_hook=lambda partial: pytest.fail("no node expected"))
    assert sols == [] and stats.nodes == 0
