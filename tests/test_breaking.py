import hashlib
import itertools
from dataclasses import replace

import pytest

from symbreak import DomainSet, Problem, brute_force_gac, enforce_sac, enumerate_solutions, propagate_fixpoint
from symbreak.breaking import (
    ClassCanonical,
    SymmetrySet,
    ValueClassPartition,
    METHODS,
    adjacent_generators,
    apply_method,
    apply_permutation,
    build_generator_lex,
    build_precedence,
    build_puget,
    canonical_form,
    full_group,
    is_class_canonical,
    lex_constraints,
    valsymbreak_holds,
)
from symbreak.constraints import Permutation
from symbreak.instances import pigeonhole_model, staircase_fixture, surjection_fixture

from conftest import (
    best_time,
    make_rng,
    peak_bytes,
    random_binary_constraint,
    random_domains,
    random_partition,
)


def closure(perms, num_values):
    """Group closure by breadth-first composition."""
    seen = {Permutation.identity(num_values)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in perms:
                q = g.compose(p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def test_partition_validation():
    with pytest.raises(ValueError):
        ValueClassPartition.of([[2, 1]])
    with pytest.raises(ValueError):
        ValueClassPartition.of([[1, 2], [2, 3]])


def test_partition_rejects_nonpositive_values():
    with pytest.raises(ValueError, match="partition value 0 is not positive"):
        ValueClassPartition.of([[0, 1]])


def test_adjacent_generators_counts():
    part = ValueClassPartition.of([[1, 2, 3], [4, 5]])
    gens = adjacent_generators(part, 5)
    assert gens.tag == "adjacent-generators"
    assert len(gens.perms) == 3  # five classed values in two classes
    singles = ValueClassPartition.of([[1], [2], [3]])
    assert adjacent_generators(singles, 3).perms == ()


def test_adjacent_generators_generate_whole_class_group():
    part = ValueClassPartition.of([[1, 2, 3, 4, 5]])
    gens = adjacent_generators(part, 5)
    assert len(closure(gens.perms, 5)) == 120


def test_full_group_size_and_limit():
    part = ValueClassPartition.of([[1, 2], [3, 4, 5]])
    group = full_group(part, 5)
    assert len(group.perms) == 2 * 6
    with pytest.raises(ValueError):
        full_group(ValueClassPartition.of([[1, 2, 3, 4, 5, 6, 7, 8, 9]]), 9, limit=1000)


def test_valsymbreak_first_occurrence_examples():
    part = ValueClassPartition.of([[1, 2, 3]])
    assert valsymbreak_holds([1, 2, 1, 3], part)
    assert not valsymbreak_holds([1, 3, 1, 2], part)  # 2 must come before 3


def test_generator_satisfaction_equals_full_group_satisfaction():
    # enumerated over every total assignment for a spread of partitions
    cases = [
        (3, 3, [[1, 2, 3]]),
        (4, 4, [[1, 2], [3, 4]]),
        (5, 4, [[1, 2, 3], [4]]),
        (4, 5, [[1, 2, 3, 4, 5]]),
    ]
    for n, m, classes in cases:
        part = ValueClassPartition.of(classes)
        gens = adjacent_generators(part, m)
        group = full_group(part, m)
        for vec in itertools.product(range(1, m + 1), repeat=n):
            by_gens = valsymbreak_holds(vec, gens)
            by_group = valsymbreak_holds(vec, group)
            assert by_gens == by_group == is_class_canonical(vec, part)


def test_interchanging_with_first_value_does_not_eliminate_all():
    # generators swapping value 1 with each other value keep two symmetric
    # assignments: [1,2] and [1,3]
    gens = SymmetrySet(
        (Permutation.transposition(3, 1, 2), Permutation.transposition(3, 1, 3)),
        "custom",
    )
    assert valsymbreak_holds([1, 2], gens)
    assert valsymbreak_holds([1, 3], gens)
    assert canonical_form([1, 3], ValueClassPartition.of([[1, 2, 3]])) == (1, 2)


def test_canonical_form_examples():
    part = ValueClassPartition.of([[1, 2, 3]])
    assert canonical_form([2, 2, 3, 1], part) == (1, 1, 2, 3)
    assert canonical_form([1, 1, 2, 3], part) == (1, 1, 2, 3)


def test_canonical_form_is_orbit_invariant_retraction():
    part = ValueClassPartition.of([[1, 2, 3]])
    group = full_group(part, 3)
    for vec in itertools.product(range(1, 4), repeat=4):
        canon = canonical_form(vec, part)
        assert canonical_form(canon, part) == canon
        assert is_class_canonical(canon, part)
        orbit = {canonical_form(apply_permutation(p, vec), part) for p in group.perms}
        assert orbit == {canon}
        members = {apply_permutation(p, vec) for p in group.perms}
        assert sum(1 for a in members if is_class_canonical(a, part)) == 1


def test_class_canonical_checker_matches_lex_conjunction_oracle():
    rng = make_rng(31)
    for _ in range(50):
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        part = random_partition(rng, m)
        dom = random_domains(rng, n, m)
        conj = lex_constraints(full_group(part, m).perms, range(n))
        via_lex = brute_force_gac(conj, dom)
        via_canon = brute_force_gac([ClassCanonical(part, range(n))], dom)
        assert via_lex.pruned_pairs() == via_canon.pruned_pairs()
        assert via_lex.wipeout == via_canon.wipeout


def test_builders_produce_expected_counts():
    prob = staircase_fixture()
    assert len(build_generator_lex(prob)) == 4
    assert len(build_precedence(prob)) == 1
    singles = Problem(
        2, 3, DomainSet.full(2, 3), partition=ValueClassPartition.of([[1], [2], [3]])
    )
    assert build_generator_lex(singles) == []
    assert build_precedence(singles) == []


def test_all_static_builders_select_exactly_canonical_solutions():
    rng = make_rng(32)
    for _ in range(40):
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        part = random_partition(rng, m)
        prob = Problem(n, m, random_domains(rng, n, m), partition=part)
        base = enumerate_solutions(prob)
        canonical = sorted(v for v in base if is_class_canonical(v, part))
        via_prec = enumerate_solutions(prob.with_constraints(build_precedence(prob)))
        via_lex = enumerate_solutions(prob.with_constraints(build_generator_lex(prob)))
        assert via_prec == canonical
        assert via_lex == canonical


def test_puget_first_use_domains_on_surjection_fixture():
    from symbreak.instances import SURJECTION_FIXTURE_FIRST_USE

    prob = surjection_fixture()
    enc = build_puget(prob)
    out = propagate_fixpoint(enc.problem)
    assert not out.wipeout
    for value, expected in SURJECTION_FIXTURE_FIRST_USE.items():
        assert out.final_domains.values(enc.first_use_var[value]) == expected


def test_puget_single_variable_canonicity():
    prob = Problem(1, 2, DomainSet.full(1, 2), partition=ValueClassPartition.of([[1, 2]]))
    enc = build_puget(prob)
    sols = enumerate_solutions(enc.problem)
    assert {v[:prob.num_vars] for v in sols} == {(1,)}


def test_puget_dummy_ordering_forbids_skipping_values():
    # within a class, an unused value followed by a used one is infeasible
    rng = make_rng(33)
    for _ in range(30):
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        part = random_partition(rng, m)
        prob = Problem(n, m, random_domains(rng, n, m), partition=part)
        enc = build_puget(prob)
        for vec in enumerate_solutions(enc.problem):
            x = vec[:prob.num_vars]
            used = set(x)
            for cls in part.classes:
                flags = [v in used for v in cls]
                assert flags == sorted(flags, reverse=True)


def test_puget_solutions_project_to_canonical_solutions():
    rng = make_rng(34)
    for _ in range(30):
        n, m = rng.randint(2, 4), rng.randint(2, 3)
        part = random_partition(rng, m)
        prob = Problem(n, m, random_domains(rng, n, m), partition=part)
        base = enumerate_solutions(prob)
        canonical = sorted(v for v in base if is_class_canonical(v, part))
        enc = build_puget(prob)
        projected = sorted(v[:prob.num_vars] for v in enumerate_solutions(enc.problem))
        assert projected == canonical


def test_puget_surjection_route_matches_dummy_route():
    rng = make_rng(35)
    for _ in range(15):
        n, m = rng.randint(2, 3), 2
        part = ValueClassPartition.of([[1, 2]])
        prob = Problem(n, m, random_domains(rng, n, m), partition=part)
        dummy = build_puget(prob)
        surj = build_puget(prob, force_surjection=True)
        a = sorted(v[:prob.num_vars] for v in enumerate_solutions(dummy.problem))
        b = sorted(v[:prob.num_vars] for v in enumerate_solutions(surj.problem, budget=10**7))
        assert a == b


def puget_log_base(rng):
    """A base problem with classes and binary constraints: mostly small, and
    one in four with 60..72 variables, whose first-use variables range over
    more than 64 positions, so their removals take the engine's wide log
    path."""
    wide = rng.random() < 0.25
    n = rng.randint(60, 72) if wide else rng.randint(2, 8)
    m = rng.randint(2, 5)
    cons = tuple(random_binary_constraint(rng, n, m) for _ in range(rng.randint(0, 2)))
    lists = [sorted(rng.sample(range(1, m + 1), rng.randint(1, m))) if rng.random() < 0.3
             else list(range(1, m + 1)) for _ in range(n)]
    return Problem(n, m, DomainSet.from_values(lists), cons, random_partition(rng, m)), wide


def puget_log_digest(seeds):
    """SHA-256 over the propagate_fixpoint outcome (log with causes, wipeout
    flag, final masks) of each base's Puget encoding, with and without the
    surjection tail, and over the enforce_sac outcome of the small ones."""
    digest = hashlib.sha256()
    for seed in seeds:
        base, wide = puget_log_base(make_rng(seed))
        for force_surjection in (False, True):
            enc = build_puget(base, force_surjection=force_surjection).problem
            outcomes = [propagate_fixpoint(enc)] + ([] if wide else [enforce_sac(enc)])
            for out in outcomes:
                log = [(p.var, p.value, str(p.cause)) for p in out.prunings]
                digest.update(repr((log, out.wipeout, out.final_domains.masks)).encode())
    return digest.hexdigest()


# The dual encoding's filters and the engine's queue order fix the log, each
# pruning's cause and the final domains. Recorded at commit 340bbfc by
# running puget_log_digest(range(150)) there.
PUGET_LOG_DIGEST = "247898e19ea9dbdc1fefcbe13ab6384196cee6bd1e0234e474111e1fa5626d5a"


def test_puget_logs_keep_their_digest():
    assert puget_log_digest(range(150)) == PUGET_LOG_DIGEST


def test_apply_method_keeps_the_problem_first():
    # The problem's variables, domains and constraints stay first, so
    # var < num_vars picks the problem's pairs; only puget adds variables.
    for problem in (staircase_fixture(), surjection_fixture(), pigeonhole_model(4)):
        n = problem.num_vars
        for method in METHODS:
            run = apply_method(problem, method)
            assert run.domains.masks[:n] == problem.domains.masks, method
            assert run.constraints[: len(problem.constraints)] == problem.constraints, method
            assert (run.num_vars > n) == (method == "puget"), method


def test_apply_method_rejects_an_unknown_method_and_a_problem_without_classes():
    problem = staircase_fixture()
    with pytest.raises(ValueError, match="unknown method 'lex'"):
        apply_method(problem, "lex")
    bare = replace(problem, partition=None)
    assert apply_method(bare, "none") is bare
    for method in METHODS[1:]:
        with pytest.raises(ValueError, match=f"method '{method}' requires 'classes' in the problem"):
            apply_method(bare, method)


def _assert_set_up_scales_linearly(build, arg_of):
    # Factor 3 slack on the cost per variable fitted at the smallest size,
    # in time and in memory at its peak.
    timings, peaks = {}, {}
    for n in (250, 2000):
        arg = arg_of(n)
        timings[n], _ = best_time(lambda: build(arg))
        peaks[n] = peak_bytes(lambda: build(arg))
    assert timings[2000] <= 3.0 * timings[250] * 2000 / 250, timings
    assert peaks[2000] <= 3.0 * peaks[250] * 2000 / 250, peaks


def test_pigeonhole_model_set_up_scales_linearly():
    # The disjunctions share one scope tuple, which is checked once.
    _assert_set_up_scales_linearly(pigeonhole_model, lambda n: n)


def test_generator_lex_set_up_scales_linearly():
    # The n lex constraints share one order, and each transposition keeps
    # only its two moved points.
    _assert_set_up_scales_linearly(build_generator_lex, pigeonhole_model)


def alternating_classes_base(n):
    """X0 full over 1..8, odd positions {1..4} and even positions {5..8}:
    the first-use variables of both classes are written all through the
    full run's first pass over the dual encoding's constraints."""
    lists = [range(1, 9)] + [range(1, 5) if pos % 2 else range(5, 9) for pos in range(1, n)]
    part = ValueClassPartition.of([[1, 2, 3, 4], [5, 6, 7, 8]])
    return Problem(n, 8, DomainSet.from_values(lists), partition=part)


def test_dual_encoding_fixpoint_scales_linearly():
    # Each first-use variable is watched by 2n constraints, and its writes
    # come while the full run still sweeps the seeded constraints, which a
    # wake skips without scanning them.
    _assert_set_up_scales_linearly(
        propagate_fixpoint, lambda n: build_puget(alternating_classes_base(n)).problem
    )
