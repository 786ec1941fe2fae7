import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbreak import (
    CNFFormula,
    DimacsError,
    DomainSet,
    PropagationEngine,
    brute_force_gac,
    chained_pairs_base,
    chained_pairs_family,
    enumerate_solutions,
    format_dimacs,
    has_support,
    is_k_consistent,
    named,
    parse_dimacs,
    pigeonhole_model,
    propagate_fixpoint,
    reduce_3sat,
    staircase_fixture,
    surjection_fixture,
)
from symbreak.breaking import ClassCanonical, apply_permutation, build_precedence, build_puget, full_group
from symbreak.constraints import ParityLink
from symbreak.instances import brute_force_sat, chained_pairs_levels_base, reduction_has_support
from symbreak.problem_io import dumps, problem_to_dict

from conftest import brute_solutions, make_rng


def brute_sat(formula):
    for bits in itertools.product((False, True), repeat=formula.num_vars):
        if all(any((lit > 0) == bits[abs(lit) - 1] for lit in c) for c in formula.clauses):
            return True
    return False


# ------------------------------------------------------------------ pigeonhole

def test_pigeonhole_structure():
    prob = pigeonhole_model(2)
    assert prob.num_vars == 2 and prob.num_values == 3
    assert len(prob.constraints) == 3
    assert prob.domains.as_lists() == [[1, 2, 3], [1, 2, 3]]
    assert enumerate_solutions(prob) == []


def test_pigeonhole_unsatisfiable_small():
    assert enumerate_solutions(pigeonhole_model(1)) == []
    assert enumerate_solutions(pigeonhole_model(4)) == []


def test_pigeonhole_rejects_zero():
    with pytest.raises(ValueError):
        pigeonhole_model(0)


# -------------------------------------------------------------------- fixtures

def test_fixture_domains_and_determinism():
    dom = staircase_fixture().domains
    assert dom.as_lists() == [[1], [1, 2], [1, 3], [1, 4], [5]]
    assert staircase_fixture().domains == dom
    dom5 = surjection_fixture().domains
    assert dom5.as_lists() == [[1], [1, 2], [1, 3], [3, 4], [2], [3], [4]]
    assert surjection_fixture().domains == dom5


def test_surjection_fixture_admits_a_canonical_assignment():
    prob = surjection_fixture()
    out = brute_force_gac([ClassCanonical(prob.partition, range(7))], prob.domains)
    assert not out.wipeout


# ---------------------------------------------------------------- chained pairs

def test_chained_pairs_structure():
    base = chained_pairs_base(2)
    assert base.num_vars == 5 and base.num_values == 6
    assert base.domains.as_lists() == [[1, 2], [2, 3], [4], [5], [6]]
    assert base.partition.classes == ((1, 4), (2, 5), (3, 6))
    enc = chained_pairs_family(2)
    assert enc.num_vars == 5 + 6


def test_chained_pairs_symmetry_reduced_problem_is_unsatisfiable():
    for k in (1, 2, 3):
        base = chained_pairs_base(k)
        posted = base.with_constraints(build_precedence(base))
        assert enumerate_solutions(posted) == []


def test_chained_pairs_encoding_refuted_by_arc_consistency():
    # the first-use chain plus the pinned tail force a cascade that empties a
    # domain outright, so the encoding cannot be arc consistent either
    for k in (2, 3, 4):
        encoding = build_puget(chained_pairs_base(k)).problem
        assert propagate_fixpoint(encoding).wipeout
        report = is_k_consistent(encoding, 2)
        assert not report.holds


def test_chained_pairs_family_is_the_narrowed_dual_encoding():
    for k in (1, 2, 3, 4):
        base = chained_pairs_levels_base(k)
        enc = build_puget(base)
        family = chained_pairs_family(k)
        assert list(map(repr, family.constraints)) == list(map(repr, enc.problem.constraints))
        for var in range(family.num_vars):
            assert set(family.domains.values(var)) <= set(enc.problem.domains.values(var))
        assert propagate_fixpoint(family).prunings == []
        # the reduced base needs a 2 in the window; each such window is one
        # solution of the family, with Z_j the first use of j
        reduced = brute_solutions(base.with_constraints(build_precedence(base)))
        windows = [w for w in itertools.product([1, 2], repeat=k) if 2 in w]
        assert sorted(reduced) == sorted((1, *w) + (k + 3,) * k for w in windows)
        solutions = brute_solutions(family)
        assert sorted(s[: base.num_vars] for s in solutions) == sorted(reduced)
        for s in solutions:
            for j, z in enc.first_use_var.items():
                used = [p + 1 for p in range(base.num_vars) if s[p] == j]
                assert s[z] == (used[0] if used else enc.dummy_value[j])


# ------------------------------------------------------------- named problems

# SHA-256 of dumps(problem_to_dict(cli._resolve_problem(spec))), recorded at
# commit 98f3255, before instances.named became the one table of names.
NAMED_PROBLEM_DIGESTS = {
    "pigeonhole:1": "d7986ebf72f44ac8bd2eb38fc7f1b09d904c77f9e8c27d0baccb9c2e0cb9edfa",
    "pigeonhole:2": "d57279e147634df13420b4c809c00fb3106affed2f3a221a1455d9819f9cf80a",
    "pigeonhole:3": "039e96bfe5673c435aee79ad332dbdf346fb82ab5fac133898ea70762c20b93d",
    "pigeonhole:4": "c7acc568246cb2f5c4ecea952b05eafeb8c0ab2cf16be311b5a9bcf2a6ca6ab2",
    "pigeonhole:5": "853567a4ab73d2cef03d3296e2acb1cd74f25ab5f8adceee5a009567b118edef",
    "pigeonhole:6": "1bfc3a7928717c1ae179238a3fe670adea34e4a5812542d87933eb3936ac8110",
    "pigeonhole:7": "345a673fafae468dfc346c8299d4732254b6f2bcf364816341c48e875c1be4c9",
    "pigeonhole:8": "2b20ded2dc4b50d8d37b3e13eda182f81d588e99d8de5bdf6ec18ceb1853389f",
    "staircase": "fc2220d69aa1a3426f1b6212e5aebbf7b9ce9dad336bacf73fb226307519bbc0",
    "surjection": "dbfd350bc48e1cd81c56d1d027453010159c7bcc8973fdbc5e9fea8e8eefa7e4",
    "chained-pairs:1": "ea5cb9b647942b8536d875d7e2b03b2082dc31e981e30ed819c0de2f5c7c2b4f",
    "chained-pairs:2": "826229e81fc2e461d63b056046ebe98af4e65afeb86c7da9cc5a47993994eeeb",
    "chained-pairs:3": "6631fe654c180f08f839c8af8e1f81ea12594e1b367f5d4958053589a53fd1b8",
    "chained-pairs:4": "58c39f154d2d8f84520abd12fd3f59014562a0f43ebf3368e3af35f4f0b3af25",
}


@pytest.mark.parametrize("spec", sorted(NAMED_PROBLEM_DIGESTS))
def test_named_builds_the_problem_the_cli_resolved(spec):
    text = dumps(problem_to_dict(named(spec)))
    assert hashlib.sha256(text.encode()).hexdigest() == NAMED_PROBLEM_DIGESTS[spec]


def test_named_leaves_other_specs_to_the_caller():
    for spec in ("problem.json", "pigeon:3", "C:\\cases\\staircase.json", "", ":3"):
        assert named(spec) is None


# ------------------------------------------------------------------- reduction

def test_reduce_duplicate_literals_collapse():
    prob = reduce_3sat(CNFFormula(1, (((1, 1, 1)),)))
    # clause variable keeps just the pair standing for the literal
    assert prob.domains.values(1) == [1, 2]
    assert prob.num_vars == 3 and prob.num_values == 6
    assert prob.partition.classes == ((1, 2), (3, 4))


def test_reduce_clause_domains_follow_literal_polarity():
    f = CNFFormula(3, ((1, -2, 3),))
    prob = reduce_3sat(f)
    assert prob.domains.values(3) == [1, 2, 7, 8, 9, 10]


def test_reduce_rejects_formula_without_variables():
    assert parse_dimacs("p cnf 0 0\n") == CNFFormula(0, ())
    with pytest.raises(ValueError, match="at least one"):
        reduce_3sat(CNFFormula(0, ()))


def test_reduce_even_switch_side_is_satisfiable():
    rng = make_rng(71)
    for _ in range(20):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        clauses = tuple(
            tuple(rng.choice([-1, 1]) * rng.randint(1, n) for _ in range(3)) for _ in range(m)
        )
        prob = reduce_3sat(CNFFormula(n, clauses))
        switch = prob.num_vars - 1
        dom = prob.domains.copy()
        dom.assign(switch, 4 * n + 2)
        sols = enumerate_solutions(prob, dom, budget=10**7)
        assert sols


def test_reduce_parity_links_narrow_domains_as_documented():
    f = CNFFormula(2, ((1, -2, 1),))
    prob = reduce_3sat(f)
    switch = prob.num_vars - 1
    dom = prob.domains.copy()
    dom.assign(switch, 9)  # the odd switch value for two variables
    binaries = [c for c in prob.constraints if isinstance(c, ParityLink)]
    PropagationEngine(binaries, prob.num_vars).run(dom)
    assert dom.values(0) == [1, 3]
    assert dom.values(1) == [5, 7]
    assert dom.values(2) == [2, 8]


def test_reduce_interchangeable_pairs_preserve_solutions():
    f = CNFFormula(2, ((1, 2, -1), (-2, 1, 2)))
    prob = reduce_3sat(f)
    sols = set(enumerate_solutions(prob, budget=10**7))
    group = full_group(prob.partition, prob.num_values)
    for sol in itertools.islice(sols, 40):
        for perm in group.perms:
            assert apply_permutation(perm, sol) in sols


def test_reduce_support_search_tracks_satisfiability():
    rng = make_rng(72)
    seen = {True: 0, False: 0}
    crafted = [
        CNFFormula(1, ((1, 1, 1), (-1, -1, -1))),
        CNFFormula(2, ((1, 2, 2), (1, -2, -2), (-1, 2, 2), (-1, -2, -2))),
    ]
    random_formulas = []
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        random_formulas.append(
            CNFFormula(
                n,
                tuple(
                    tuple(rng.choice([-1, 1]) * rng.randint(1, n) for _ in range(3))
                    for _ in range(m)
                ),
            )
        )
    for f in crafted + random_formulas:
        prob = reduce_3sat(f)
        switch = prob.num_vars - 1
        odd = 4 * f.num_vars + 1
        dom = prob.domains.copy()
        dom.assign(switch, odd)
        binaries = [c for c in prob.constraints if isinstance(c, ParityLink)]
        PropagationEngine(binaries, prob.num_vars).run(dom)
        support = has_support(build_precedence(prob), dom, switch, odd)
        sat = brute_sat(f)
        assert support == sat
        seen[sat] += 1
    assert seen[True] and seen[False]


def test_reduction_check_agrees_with_sat():
    rng = make_rng(73)
    seen = {True: 0, False: 0}
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(1, 5)
        formula = CNFFormula(
            n,
            tuple(
                tuple(rng.choice([-1, 1]) * rng.randint(1, n) for _ in range(rng.randint(1, 3)))
                for _ in range(m)
            ),
        )
        sat = brute_sat(formula)
        prob = reduce_3sat(formula)
        assert reduction_has_support(prob) == sat, formula
        assert brute_force_sat(formula) == sat, formula
        seen[sat] += 1
    assert seen[True] and seen[False]


# ---------------------------------------------------------------------- dimacs

def test_parse_basic_document():
    f = parse_dimacs("c a comment\np cnf 2 1\n1 -2 0\n")
    assert f.num_vars == 2
    assert f.clauses == ((1, -2),)


def test_parse_round_trip():
    f = CNFFormula(3, ((1, -2, 3), (-1, 2, -3), (2,)))
    assert parse_dimacs(format_dimacs(f)) == f


@pytest.mark.parametrize(
    "text,line",
    [
        ("p cnf 2 2\n1 0\n", 2),            # clause count mismatch reported at end
        ("p cnf 1 1\n1 2 0\n", 2),          # literal out of range
        ("p cnf 2 1\n1 -2\n", 2),           # missing terminator
        ("1 0\n", 1),                       # clause before header
        ("p cnf 2 1\n0\n", 2),              # empty clause
        ("p cnf 2 1\np cnf 2 1\n", 2),      # duplicate header
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(DimacsError) as err:
        parse_dimacs(text)
    assert err.value.line >= 1
    assert f"line {err.value.line}" in str(err.value)


def test_parse_rejects_wide_clause():
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 4 1\n1 2 3 4 0\n")


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="pcnf 0123456789-\n", max_size=80))
def test_parser_never_crashes(text):
    try:
        parse_dimacs(text)
    except DimacsError:
        pass


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=60))
def test_parser_never_crashes_on_bytes(blob):
    try:
        parse_dimacs(blob.decode("latin-1"))
    except DimacsError:
        pass


def test_formula_validation():
    with pytest.raises(ValueError):
        CNFFormula(2, ((),))
    with pytest.raises(ValueError):
        CNFFormula(2, ((3, 1, 1),))
    with pytest.raises(ValueError):
        CNFFormula(2, ((1, 2, 1, 2),))
