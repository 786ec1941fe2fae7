import pytest

from symbreak import (
    DomainSet,
    Problem,
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

from conftest import make_rng, random_domains, random_partition


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
    # the n+1 disjunctions into one kernel: one call at the root and one per
    # node, since n variables can never cover all n+1 values.
    calls = {ValueCover: 0, DisjunctionEq: 0}
    for kind in calls:
        def counting_propagate(self, dom, kind=kind, real=kind.propagate):
            calls[kind] += 1
            return real(self, dom)

        monkeypatch.setattr(kind, "propagate", counting_propagate)
    for order in ("lex", "min-domain"):
        calls.update(dict.fromkeys(calls, 0))
        _, stats = solve(pigeonhole_model(9), strategy=Strategy(mode="ge-tree", var_order=order),
                         goal="count")
        assert stats.nodes == PIGEONHOLE_GE_TREE[9][0]
        assert calls == {ValueCover: stats.nodes + 1, DisjunctionEq: 0}, order

    # One constraint over two of the variables keeps the decomposition, and
    # so does a conditional over all of them: its filter wipes only its
    # inner scope, so a wipeout need not empty the shared set.
    prob = pigeonhole_model(6)
    for extra in (StrictLess(0, 1), Conditional(0, "odd", DisjunctionEq(1, range(1, 6)))):
        calls.update(dict.fromkeys(calls, 0))
        solve(prob.with_constraints([extra]), strategy=Strategy(mode="ge-tree"))
        assert calls[ValueCover] == 0 and calls[DisjunctionEq] > 0, extra


def test_fused_search_matches_the_unfused_engine(monkeypatch):
    # On problems whose constraints all share one variable set, the fused
    # kernel must leave every solution and all five counters as they are.
    def shuffled(rng, scope):
        return rng.sample(scope, len(scope))

    def random_shared_scope_problem(rng):
        n, m = rng.randint(2, 6), rng.randint(2, 5)
        scope = rng.sample(range(n), rng.randint(2, n))
        cons = [DisjunctionEq(rng.randint(1, m), shuffled(rng, scope))
                for _ in range(rng.randint(2, len(scope) + 1))]
        if rng.random() < 0.5:
            img = list(range(1, m + 1))
            rng.shuffle(img)
            cons.append(LexLeqPermuted(Permutation(img), shuffled(rng, scope)))
        if rng.random() < 0.5:
            cls = sorted(rng.sample(range(1, m + 1), rng.randint(2, m)))
            cons.append(Precedence(cls, shuffled(rng, scope)))
        rng.shuffle(cons)
        dom = random_domains(rng, n, m) if rng.random() < 0.5 else DomainSet.full(n, m)
        return Problem(n, m, dom, tuple(cons), random_partition(rng, m))

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
