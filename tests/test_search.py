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
from symbreak.breaking import ValueClassPartition, build_generator_lex, build_precedence
from symbreak.constraints import StrictLess

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
    9: (5295, 4140, 4140, 74520, 0),
}
PIGEONHOLE_PRECEDENCE = {n: (0, 0, 0, n * (n + 1), 0) for n in range(2, 11)}
PIGEONHOLE_GENERATOR_LEX = {
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
