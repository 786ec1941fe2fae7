"""Acceptance suite: one test per shipped guarantee, each printing a PASS or
FAIL line (run with -s to see them during a green run).

The chained-pairs criterion states the claim as specified: the family's
dual encoding is strongly k-consistent but not (k+1)-consistent. The
`chained_pairs_family` docstring gives the construction and the argument.
"""

import itertools
import time

from symbreak import (
    DomainSet,
    Problem,
    Strategy,
    brute_force_gac,
    canonical_form,
    chained_pairs_family,
    enforce_sac,
    enumerate_solutions,
    is_k_consistent,
    is_strongly_k_consistent,
    pigeonhole_model,
    propagate_fixpoint,
    reduce_3sat,
    solve,
    staircase_fixture,
    surjection_fixture,
)
from symbreak.breaking import (
    ClassCanonical,
    SymmetrySet,
    ValueClassPartition,
    adjacent_generators,
    build_generator_lex,
    build_precedence,
    build_puget,
    full_group,
    is_class_canonical,
    lex_constraints,
    valsymbreak_holds,
)
from symbreak.constraints import ParityLink, Permutation, Precedence
from symbreak.engine import PropagationEngine
from symbreak.instances import CNFFormula

from conftest import (
    decomposed_lex_filter,
    make_rng,
    random_binary_constraint,
    random_domains,
    random_symmetric_problem,
    support_marking_gac,
)


def check(label, ok, detail=""):
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}{(' - ' + detail) if detail else ''}")
    assert ok, f"{label}: {detail}"


def test_static_dynamic_pigeonhole_separation():
    started = time.perf_counter()
    ok = True
    detail = ""
    previous = {"lex": None, "min-domain": None}
    for n in range(4, 13):
        prob = pigeonhole_model(n)
        posted = prob.with_constraints(build_precedence(prob))
        _, static = solve(posted, goal="count")
        if static.branches != 0 or static.nodes != 0 or static.solutions != 0:
            ok, detail = False, f"n={n}: static run did not fail at the root"
            break
        outcome = propagate_fixpoint(posted)
        overflow_prunings = sum(1 for p in outcome.prunings if p.value == n + 1)
        if overflow_prunings != n:
            ok, detail = False, f"n={n}: value {n + 1} pruned {overflow_prunings} times, expected {n}"
            break
        if not outcome.wipeout or static.prunings > 3 * n * n:
            ok, detail = False, f"n={n}: root filtering off (prunings={static.prunings})"
            break
        for order in ("lex", "min-domain"):
            _, dyn = solve(prob, strategy=Strategy(mode="ge-tree", var_order=order), goal="count")
            if dyn.solutions != 0:
                ok, detail = False, f"n={n}: ge-tree found spurious solutions"
                break
            prev = previous[order]
            if prev is not None and not dyn.branches > 2 * prev:
                ok, detail = False, f"n={n} {order}: branches {dyn.branches} vs previous {prev}"
                break
            previous[order] = dyn.branches
        if not ok:
            break
    elapsed = time.perf_counter() - started
    if ok and elapsed >= 60.0:
        ok, detail = False, f"took {elapsed:.1f}s, budget is 60s"
    check("pigeonhole-separation", ok, detail or f"{elapsed:.1f}s, branches(12)={previous['lex']}")


def test_full_group_filtering_beats_adjacent_generators_on_staircase():
    prob = staircase_fixture()
    group = full_group(prob.partition, prob.num_values)
    conjunction = lex_constraints(group.perms, range(prob.num_vars))
    oracle = brute_force_gac(conjunction, prob.domains)
    exact = oracle.pruned_pairs() == {(1, 1), (2, 1), (3, 1)} and not oracle.wipeout
    quiet = all(c.propagate(prob.domains.copy()) == [] for c in build_generator_lex(prob))
    check(
        "staircase-group-vs-generators",
        exact and quiet,
        f"oracle={sorted(oracle.pruned_pairs())}, generators quiet={quiet}",
    )


def test_dual_encoding_ac_blind_spot_on_surjection_fixture():
    prob = surjection_fixture()
    enc = build_puget(prob)
    ac = propagate_fixpoint(enc.problem)
    x_prunings = enc.x_pairs(ac.pruned_pairs())
    oracle = brute_force_gac([ClassCanonical(prob.partition, range(7))], prob.domains)
    ok = (
        not ac.wipeout
        and (1, 1) not in x_prunings
        and not x_prunings
        and oracle.pruned_pairs() == {(1, 1)}
    )
    check(
        "surjection-ac-blind-spot",
        ok,
        f"ac-x-prunings={sorted(x_prunings)}, oracle={sorted(oracle.pruned_pairs())}",
    )


def test_dual_encoding_ac_dominates_adjacent_generators():
    prob = staircase_fixture()
    enc = build_puget(prob)
    ac = propagate_fixpoint(enc.problem)
    fixture_ok = enc.x_pairs(ac.pruned_pairs()) == {(1, 1), (2, 1), (3, 1)}

    rng = make_rng(201)
    violations = 0
    compared = 0
    for _ in range(200):
        n, m = rng.randint(2, 6), rng.randint(2, 5)
        part = ValueClassPartition.of([range(1, m + 1)])
        base = Problem(n, m, random_domains(rng, n, m), partition=part)
        encoding = build_puget(base)
        ac_out = propagate_fixpoint(encoding.problem)
        lex_out = propagate_fixpoint(base.with_constraints(build_generator_lex(base)))
        if lex_out.wipeout:
            if not ac_out.wipeout:
                violations += 1
        elif not ac_out.wipeout:
            compared += 1
            if not lex_out.pruned_pairs() <= encoding.x_pairs(ac_out.pruned_pairs()):
                violations += 1
    check(
        "dual-encoding-dominates-generators",
        fixture_ok and violations == 0 and compared > 0,
        f"fixture={fixture_ok}, violations={violations}, set-compared={compared}",
    )


def test_sac_on_dual_encoding_equals_group_filtering_when_one_class():
    rng = make_rng(202)
    disagreements = 0
    exact = 0
    for _ in range(200):
        n, m = rng.randint(2, 6), rng.randint(2, 5)
        part = ValueClassPartition.of([range(1, m + 1)])
        base = Problem(n, m, random_domains(rng, n, m), partition=part)
        encoding = build_puget(base)
        sac = enforce_sac(encoding.problem)
        oracle = brute_force_gac([ClassCanonical(part, range(n))], base.domains)
        if sac.wipeout or oracle.wipeout:
            if sac.wipeout != oracle.wipeout:
                disagreements += 1
        else:
            exact += 1
            if encoding.x_pairs(sac.pruned_pairs()) != oracle.pruned_pairs():
                disagreements += 1
    check(
        "sac-equals-group-filtering",
        disagreements == 0 and exact > 0,
        f"disagreements={disagreements}, exact-comparisons={exact}",
    )


def test_adjacent_generators_eliminate_exactly_the_full_group():
    cases = [
        (5, 5, [[1, 2, 3, 4, 5]]),
        (5, 5, [[1, 2], [3, 4, 5]]),
        (4, 4, [[1, 2], [3, 4]]),
        (5, 4, [[1, 2, 3], [4]]),
        (3, 5, [[1, 3, 5]]),
        (4, 3, [[2, 3]]),
    ]
    ok = True
    detail = ""
    for n, m, classes in cases:
        part = ValueClassPartition.of(classes)
        gens = adjacent_generators(part, m)
        group = full_group(part, m)
        for vec in itertools.product(range(1, m + 1), repeat=n):
            if valsymbreak_holds(vec, gens) != valsymbreak_holds(vec, group):
                ok, detail = False, f"disagreement at {vec} for classes {classes}"
                break
        if not ok:
            break
    # a generator set that swaps the first value with each other one keeps
    # two symmetric assignments
    weak = SymmetrySet(
        (Permutation.transposition(3, 1, 2), Permutation.transposition(3, 1, 3)), "custom"
    )
    keeps_both = valsymbreak_holds([1, 2], weak) and valsymbreak_holds([1, 3], weak)
    part3 = ValueClassPartition.of([[1, 2, 3]])
    symmetric_pair = canonical_form([1, 3], part3) == (1, 2)
    check(
        "adjacent-generators-complete",
        ok and keeps_both and symmetric_pair,
        detail or "all assignment spaces agree; weak generator set keeps both symmetric assignments",
    )


def test_chained_pairs_consistency_levels():
    ok = True
    detail = ""
    for k in (2, 3, 4):
        started = time.perf_counter()
        prob = chained_pairs_family(k)
        strong = is_strongly_k_consistent(prob, k)
        beyond = is_k_consistent(prob, k + 1)
        elapsed = time.perf_counter() - started
        if elapsed >= 30.0:
            ok, detail = False, f"k={k} took {elapsed:.1f}s, budget is 30s"
            break
        if not strong.holds:
            w = strong.witness
            ok = False
            detail = (
                f"k={k}: not strongly {k}-consistent; level {w.level} witness "
                f"{w.assignment} cannot extend to X{w.variable} (the encoding is "
                f"refuted by arc consistency, so no domains make it 2-consistent)"
            )
            break
        if beyond.holds:
            ok, detail = False, f"k={k}: unexpectedly {k + 1}-consistent"
            break
    check("chained-pairs-consistency-levels", ok, detail)


def test_reduction_support_agreement_with_sat():
    rng = make_rng(203)
    formulas = [
        CNFFormula(1, ((1, 1, 1), (-1, -1, -1))),
        CNFFormula(2, ((1, 2, 2), (1, -2, -2), (-1, 2, 2), (-1, -2, -2))),
        CNFFormula(3, ((1, 2, 3),)),
    ]
    while len(formulas) < 500:
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        clauses = tuple(
            tuple(rng.choice([-1, 1]) * rng.randint(1, n) for _ in range(3)) for _ in range(m)
        )
        formulas.append(CNFFormula(n, clauses))

    def brute_sat(f):
        return any(
            all(any((lit > 0) == bits[abs(lit) - 1] for lit in c) for c in f.clauses)
            for bits in itertools.product((False, True), repeat=f.num_vars)
        )

    agree = 0
    verdicts = set()
    for f in formulas:
        prob = reduce_3sat(f)
        switch = prob.num_vars - 1
        odd = 4 * f.num_vars + 1
        dom = prob.domains.copy()
        dom.assign(switch, odd)
        binaries = [c for c in prob.constraints if isinstance(c, ParityLink)]
        PropagationEngine(binaries, prob.num_vars).run(dom)
        from symbreak import has_support

        support = has_support(build_precedence(prob), dom, switch, odd)
        sat = brute_sat(f)
        verdicts.add(sat)
        agree += support == sat
    check(
        "reduction-support-tracks-sat",
        agree == len(formulas) and verdicts == {True, False},
        f"{agree}/{len(formulas)} agree, both verdicts seen={verdicts == {True, False}}",
    )


def test_propagators_match_brute_force_filtering():
    rng = make_rng(204)
    mismatches = 0

    for _ in range(500):  # value precedence
        n, m = rng.randint(1, 6), rng.randint(2, 6)
        dom = random_domains(rng, n, m)
        cls = sorted(rng.sample(range(1, m + 1), rng.randint(2, m)))
        c = Precedence(cls, range(n))
        mine = dom.copy()
        got = set(c.propagate(mine))
        want, wiped = support_marking_gac([c], dom)
        mismatches += got != want or mine.has_wipeout() != wiped

    from symbreak.constraints import DisjunctionEq, LexLeqPermuted

    for _ in range(500):  # lex under a value permutation, decomposition level
        n, m = rng.randint(1, 6), rng.randint(2, 6)
        dom = random_domains(rng, n, m)
        img = list(range(1, m + 1))
        rng.shuffle(img)
        perm = Permutation(img)
        c = LexLeqPermuted(perm, range(n))
        mine = dom.copy()
        got = set(c.propagate(mine))
        want, final, _ = decomposed_lex_filter(perm, list(range(n)), dom)
        mismatches += got != want or mine != final

    for _ in range(500):  # disjunction of equalities
        n, m = rng.randint(1, 6), rng.randint(2, 6)
        dom = random_domains(rng, n, m)
        c = DisjunctionEq(rng.randint(1, m), range(n))
        mine = dom.copy()
        got = set(c.propagate(mine))
        want, wiped = support_marking_gac([c], dom)
        mismatches += got != want or mine.has_wipeout() != wiped

    for _ in range(500):  # binary constraints
        m = rng.randint(2, 6)
        dom = random_domains(rng, 2, m)
        c = random_binary_constraint(rng, 2, m)
        mine = dom.copy()
        got = set(c.propagate(mine))
        want, wiped = support_marking_gac([c], dom)
        mismatches += got != want or mine.has_wipeout() != wiped

    # wall time of the precedence filter tracks domain cells with 3x slack
    m = 8
    timings = {}
    for n in (2500, 5000, 10000):
        dom = DomainSet.from_values([list(range(1, m + 1))] * n)
        c = Precedence(list(range(1, m + 1)), range(n))
        best = float("inf")
        for _ in range(3):
            work = dom.copy()
            t0 = time.perf_counter()
            c.propagate(work)
            best = min(best, time.perf_counter() - t0)
        timings[n] = best
    unit = timings[2500] / (2500 * m)
    linear = all(timings[n] <= 3.0 * unit * n * m for n in (5000, 10000))
    check(
        "propagators-match-oracles",
        mismatches == 0 and linear,
        f"mismatches={mismatches}, timings={ {n: round(t * 1000, 1) for n, t in timings.items()} }ms",
    )


def test_every_static_and_dynamic_method_agrees_on_solutions():
    rng = make_rng(205)
    ok = True
    detail = ""
    for trial in range(100):
        prob = random_symmetric_problem(rng)
        part = prob.partition
        base = enumerate_solutions(prob)
        expected = sorted({canonical_form(v, part) for v in base})

        via_precedence = enumerate_solutions(prob.with_constraints(build_precedence(prob)))
        via_generators = enumerate_solutions(prob.with_constraints(build_generator_lex(prob)))
        encoding = build_puget(prob)
        via_encoding = sorted(
            v[:prob.num_vars] for v in enumerate_solutions(encoding.problem, budget=10**8)
        )
        via_search, _ = solve(prob, strategy=Strategy(mode="ge-tree"))

        if not (expected == via_precedence == via_generators == via_encoding == sorted(via_search)):
            ok = False
            detail = f"trial {trial}: method solution sets diverge"
            break
    check("method-solution-set-agreement", ok, detail or "100 problems agree")
