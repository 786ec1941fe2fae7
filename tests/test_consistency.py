import sys

import pytest

from symbreak import (
    BudgetExceeded,
    DomainSet,
    Problem,
    brute_force_gac,
    enforce_sac,
    enumerate_solutions,
    has_support,
    is_k_consistent,
    is_strongly_k_consistent,
    pigeonhole_model,
    propagate_fixpoint,
)
from symbreak.breaking import ClassCanonical, ValueClassPartition, build_puget
from symbreak.constraints import DisjunctionEq, StrictLess
from symbreak.instances import staircase_fixture, surjection_fixture

from conftest import (
    brute_solutions,
    make_rng,
    random_binary_problem,
    random_domains,
    random_mixed_problem,
    support_marking_gac,
)


# ----------------------------------------------------------------- enumerate

def test_enumerate_pigeonhole_is_empty():
    for n in (4, 5, 6):
        assert enumerate_solutions(pigeonhole_model(n)) == []


def test_enumerate_no_constraints():
    prob = Problem(2, 2, DomainSet.full(2, 2))
    assert enumerate_solutions(prob) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_enumerate_matches_product_oracle():
    rng = make_rng(41)
    for _ in range(40):
        prob = random_mixed_problem(rng)
        assert enumerate_solutions(prob) == sorted(brute_solutions(prob))


def test_enumerate_budget_refusal():
    with pytest.raises(BudgetExceeded):
        enumerate_solutions(pigeonhole_model(9))
    with pytest.raises(BudgetExceeded):
        enumerate_solutions(pigeonhole_model(3), budget=10)


# -------------------------------------------------------------------- oracle

def test_oracle_full_group_on_staircase():
    prob, dom = staircase_fixture()
    out = brute_force_gac([ClassCanonical(prob.partition, range(5))], dom)
    assert out.pruned_pairs() == {(1, 1), (2, 1), (3, 1)}
    assert not out.wipeout


def test_oracle_full_group_on_surjection_fixture():
    prob, dom = surjection_fixture()
    out = brute_force_gac([ClassCanonical(prob.partition, range(7))], dom)
    assert out.pruned_pairs() == {(1, 1)}


def test_oracle_matches_marking_oracle_and_is_idempotent():
    rng = make_rng(42)
    for _ in range(60):
        n, m = rng.randint(1, 5), rng.randint(2, 4)
        dom = random_domains(rng, n, m)
        cons = [DisjunctionEq(rng.randint(1, m), range(n))]
        if rng.random() < 0.5 and n >= 2:
            cons.append(StrictLess(0, n - 1))
        out = brute_force_gac(cons, dom)
        want, wiped = support_marking_gac(cons, dom)
        assert out.pruned_pairs() == want
        assert out.wipeout == wiped
        again = brute_force_gac(cons, out.final_domains)
        assert again.pruned_pairs() == set()


def test_oracle_budget_refusal():
    dom = DomainSet.full(6, 6)
    with pytest.raises(BudgetExceeded):
        brute_force_gac([DisjunctionEq(1, range(6))], dom, budget=100)


def test_oracles_walk_past_the_recursion_limit():
    # one assignment level per variable must not cost one Python frame each
    n = sys.getrecursionlimit() + 500
    dom = DomainSet.full(n, 1)
    covered = [DisjunctionEq(1, range(n))]
    assert enumerate_solutions(Problem(n, 1, dom, tuple(covered))) == [(1,) * n]
    assert has_support(covered, dom, n - 1, 1)
    out = brute_force_gac(covered, dom)
    assert out.prunings == [] and not out.wipeout

    # a check that only the last variable completes fails at full depth
    refuted = [StrictLess(0, n - 1)]
    assert enumerate_solutions(Problem(n, 1, dom, tuple(refuted))) == []
    assert not has_support(refuted, dom, 0, 1)
    out = brute_force_gac(refuted, dom)
    assert out.wipeout and out.pruned_pairs() == {(0, 1), (n - 1, 1)}

    # the k-consistency walk assigns one subset variable per level
    assert is_k_consistent(Problem(n, 1, dom), n + 1).holds
    report = is_k_consistent(Problem(n, 1, dom, tuple(refuted)), n)
    assert not report.holds and report.witness.variable == n - 1
    assert report.witness.assignment == {var: 1 for var in range(n - 1)}


# ------------------------------------------------------------------- support

def test_has_support_empty_constraints():
    dom = DomainSet.from_values([[1, 2]])
    assert has_support([], dom, 0, 1)
    assert not has_support([], dom, 0, 3)


def test_has_support_agrees_with_enumeration():
    rng = make_rng(43)
    for _ in range(40):
        prob = random_mixed_problem(rng)
        sols = enumerate_solutions(prob)
        for var in range(prob.num_vars):
            for value in prob.domains.values(var):
                expected = any(v[var] == value for v in sols)
                assert has_support(list(prob.constraints), prob.domains, var, value) == expected


# ----------------------------------------------------------------------- sac

def test_sac_noop_on_consistent_singletons():
    dom = DomainSet.from_values([[1], [2]])
    prob = Problem(2, 2, dom, (StrictLess(0, 1),))
    out = enforce_sac(prob)
    assert out.prunings == [] and not out.wipeout


def test_sac_rejects_wide_constraints():
    prob = Problem(3, 3, DomainSet.full(3, 3), (DisjunctionEq(1, range(3)),))
    with pytest.raises(ValueError):
        enforce_sac(prob)


def test_sac_at_least_as_strong_as_ac():
    rng = make_rng(44)
    for _ in range(50):
        prob = random_binary_problem(rng, n_max=4, m_max=4)
        ac = propagate_fixpoint(prob)
        sac = enforce_sac(prob)
        if sac.wipeout or ac.wipeout:
            assert sac.wipeout or not ac.wipeout
        else:
            assert ac.pruned_pairs() <= sac.pruned_pairs()


def naive_sac(prob):
    """Literal restatement: drop any value whose assignment cannot be made
    arc consistent; restart from scratch after every removal."""
    dom = prob.domains.copy()
    while True:
        removed = None
        for var in range(prob.num_vars):
            for value in dom.values(var):
                probe = dom.copy()
                probe.assign(var, value)
                if propagate_fixpoint(prob, probe).wipeout:
                    removed = (var, value)
                    break
            if removed:
                break
        if not removed:
            return dom
        dom.remove(*removed)
        if dom.is_empty(removed[0]):
            return dom


def test_sac_matches_literal_definition():
    rng = make_rng(45)
    for _ in range(40):
        prob = random_binary_problem(rng, n_max=4, m_max=4, constraints_max=4)
        ours = enforce_sac(prob)
        literal = naive_sac(prob)
        if ours.wipeout:
            assert literal.has_wipeout()
        else:
            assert ours.final_domains == literal


# ------------------------------------------------------------- k-consistency

def test_one_consistency_is_nonempty_domains():
    prob = Problem(2, 2, DomainSet.full(2, 2), (StrictLess(0, 1),))
    assert is_k_consistent(prob, 1).holds


def test_two_consistency_iff_ac_cannot_prune():
    rng = make_rng(46)
    checked = 0
    for _ in range(80):
        prob = random_binary_problem(rng, n_max=4, m_max=4)
        report = is_k_consistent(prob, 2)
        out = propagate_fixpoint(prob)
        assert report.holds == (not out.prunings and not out.wipeout)
        checked += report.holds
    assert 0 < checked < 80  # both outcomes exercised


def test_k_consistency_witness_is_genuine():
    rng = make_rng(47)
    found = 0
    for _ in range(120):
        prob = random_binary_problem(rng, n_max=4, m_max=4)
        for k in (2, 3):
            report = is_k_consistent(prob, k)
            if report.holds:
                continue
            found += 1
            w = report.witness
            assert len(w.assignment) == k - 1
            vec = [None] * prob.num_vars
            for var, val in w.assignment.items():
                vec[var] = val
            covered = [
                c for c in prob.constraints if all(vec[v] is not None for v in c.scope)
            ]
            assert all(c.check(vec) for c in covered)  # the base tuple is consistent
            for value in prob.domains.values(w.variable):
                vec2 = list(vec)
                vec2[w.variable] = value
                newly = [
                    c
                    for c in prob.constraints
                    if all(vec2[v] is not None for v in c.scope) and c not in covered
                ]
                assert not all(c.check(vec2) for c in newly)
    assert found


def test_strong_k_consistency_stops_at_first_failing_level():
    prob = Problem(
        2,
        3,
        DomainSet.from_values([[3], [1, 2, 3]]),
        (StrictLess(0, 1),),
    )
    # {X0=3} cannot extend to X1
    report = is_strongly_k_consistent(prob, 3)
    assert not report.holds
    assert report.witness.level == 2


def test_k_consistency_budget():
    prob = Problem(5, 5, DomainSet.full(5, 5))
    with pytest.raises(BudgetExceeded):
        is_k_consistent(prob, 3, budget=1)


def test_sac_on_encoding_restricted_to_originals_matches_oracle():
    rng = make_rng(49)
    exact = 0
    for _ in range(60):
        n, m = rng.randint(2, 5), rng.randint(2, 4)
        part = ValueClassPartition.of([range(1, m + 1)])
        prob = Problem(n, m, random_domains(rng, n, m), partition=part)
        enc = build_puget(prob)
        sac = enforce_sac(enc.problem)
        oracle = brute_force_gac([ClassCanonical(part, range(n))], prob.domains)
        if sac.wipeout or oracle.wipeout:
            assert sac.wipeout == oracle.wipeout
        else:
            assert enc.x_pairs(sac.pruned_pairs()) == oracle.pruned_pairs()
            exact += 1
    assert exact  # the equality path is exercised
