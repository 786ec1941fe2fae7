import itertools
import sys
import time
from dataclasses import replace

import pytest

from symbreak import (
    BudgetExceeded,
    ConsistencyWitness,
    DomainSet,
    Problem,
    PropagationEngine,
    Pruning,
    SacTimeout,
    brute_force_gac,
    enforce_sac,
    enumerate_solutions,
    filter_level,
    has_support,
    is_k_consistent,
    is_strongly_k_consistent,
    pigeonhole_model,
    propagate_fixpoint,
)
from symbreak.breaking import ClassCanonical, ValueClassPartition, build_puget
from symbreak.constraints import (
    Conditional,
    DisjunctionEq,
    EqImpliesEq,
    EqImpliesLeq,
    LexLeqPermuted,
    ParityLink,
    Permutation,
    Precedence,
    StrictLess,
)
from symbreak.consistency import LEVELS
from symbreak.instances import staircase_fixture, surjection_fixture

from conftest import (
    EntailmentProxy,
    brute_solutions,
    make_rng,
    random_binary_constraint,
    random_binary_problem,
    random_domains,
    random_mixed_problem,
    random_partition,
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
    prob = staircase_fixture()
    out = brute_force_gac([ClassCanonical(prob.partition, range(5))], prob.domains)
    assert out.pruned_pairs() == {(1, 1), (2, 1), (3, 1)}
    assert not out.wipeout


def test_oracle_full_group_on_surjection_fixture():
    prob = surjection_fixture()
    out = brute_force_gac([ClassCanonical(prob.partition, range(7))], prob.domains)
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


def prefix_checked_problem(rng):
    """Precedence constraints over shuffled scopes (so scope order differs
    from the enumerators' ascending order) and a class-canonicity constraint
    over a shuffled scope, mixed with binary constraints and a disjunction."""
    n, m = rng.randint(2, 5), rng.randint(2, 4)
    part = random_partition(rng, m, max_classes=3)
    cons = []
    for cls in part.nontrivial_classes():
        scope = rng.sample(range(n), rng.randint(1, n))
        cons.append(Precedence(cls, scope))
    if rng.random() < 0.5:
        cons.append(ClassCanonical(part, rng.sample(range(n), n)))
    cons += [random_binary_constraint(rng, n, m) for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.3:
        cons.append(DisjunctionEq(rng.randint(1, m), rng.sample(range(n), rng.randint(1, n))))
    rng.shuffle(cons)
    return Problem(n, m, random_domains(rng, n, m), tuple(cons))


def test_prefix_pruned_oracles_match_the_product_oracles():
    # The oracles cut prefixes that a checks_partial constraint rejects; the
    # conftest oracles check total assignments of the full product only.
    rng = make_rng(2004)
    for _ in range(400):
        prob = prefix_checked_problem(rng)
        cons, dom = list(prob.constraints), prob.domains
        solutions = brute_solutions(prob)
        assert enumerate_solutions(prob) == sorted(solutions)
        if cons:
            out = brute_force_gac(cons, dom)
            want, wiped = support_marking_gac(cons, dom)
            assert out.pruned_pairs() == want
            assert out.wipeout == wiped
        for var in range(prob.num_vars):
            for value in range(1, prob.num_values + 1):
                want = any(vec[var] == value for vec in solutions)
                assert has_support(cons, dom, var, value) == want


def test_oracle_budgets_count_the_full_product():
    # 8 variables over one class of 4 values: 4**8 = 65,536 assignments, of
    # which only 2,795 are canonical; the cut walk visits far fewer than the
    # product, but the budget is still checked against the product.
    n, m = 8, 4
    part = ValueClassPartition.of([range(1, m + 1)])
    dom = DomainSet.full(n, m)
    product = m**n
    canonical = [ClassCanonical(part, range(n))]
    with pytest.raises(BudgetExceeded):
        brute_force_gac(canonical, dom, budget=product - 1)
    with pytest.raises(BudgetExceeded):
        enumerate_solutions(Problem(n, m, dom, tuple(canonical)), budget=product - 1)
    with pytest.raises(BudgetExceeded):
        has_support(canonical, dom, 0, 1, budget=m ** (n - 1) - 1)
    assert not brute_force_gac(canonical, dom, budget=product).wipeout
    assert len(enumerate_solutions(Problem(n, m, dom, tuple(canonical)), budget=product)) == 2795
    assert has_support(canonical, dom, 0, 1, budget=m ** (n - 1))


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


def test_sac_deadline_is_checked_per_probe():
    enc = build_puget(staircase_fixture())
    plain = enforce_sac(enc.problem)
    late = enforce_sac(enc.problem, deadline=time.perf_counter() + 3600)
    assert late.prunings == plain.prunings and late.wipeout == plain.wipeout
    assert late.final_domains == plain.final_domains
    with pytest.raises(SacTimeout):
        enforce_sac(enc.problem, deadline=time.perf_counter() - 1)


def sac1_probing_every_pair(prob):
    """SAC-1 that probes every candidate pair, in enforce_sac's order, and
    skips none. A probe's verdict comes from a from-scratch fixpoint; the
    re-run after a removal uses an engine seeded as enforce_sac seeds it, so
    the causes in the log are comparable. Returns (log, wipeout, domains,
    probes made)."""
    dom = prob.domains.copy()
    engine = PropagationEngine(prob.constraints, prob.num_vars)
    log = []
    probes = 0
    if engine.run(dom, log=log)[1]:
        return log, True, dom, probes
    changed = True
    while changed:
        changed = False
        for var in range(prob.num_vars):
            for value in dom.values(var):
                if not dom.contains(var, value):
                    continue
                probe = dom.copy()
                probe.assign(var, value)
                probes += 1
                if not propagate_fixpoint(prob, probe).wipeout:
                    continue
                dom.remove(var, value)
                log.append(Pruning(var, value, "sac-probe"))
                changed = True
                if dom.is_empty(var) or engine.run(dom, changed=[var], log=log)[1]:
                    return log, True, dom, probes
    return log, False, dom, probes


def random_guarded_binary_problem(rng):
    """A random binary problem plus binary constraints guarded by the
    parity of one of their own variables (Conditional)."""
    prob = random_binary_problem(rng)
    guarded = []
    for _ in range(rng.randint(0, 3)):
        inner = random_binary_constraint(rng, prob.num_vars, prob.num_values)
        guarded.append(Conditional(rng.choice(inner.scope), rng.choice(["odd", "even"]), inner))
    return prob.with_constraints(guarded)


def compare_small_encoding(rng, force_surjection):
    """The dual encoding of a base shaped like the benchmark's compare-small
    files: n 6..8, m 4..5, one class or the classes {1, 2} and {3..m}, and
    domain sizes spread evenly over 1..m."""
    n, m = rng.randint(6, 8), rng.randint(4, 5)
    classes = [range(1, m + 1)] if rng.random() < 0.5 else [range(1, 3), range(3, m + 1)]
    sizes = [1 + i * m // n for i in range(n)]
    rng.shuffle(sizes)
    lists = [sorted(rng.sample(range(1, m + 1), k)) for k in sizes]
    base = Problem(n, m, DomainSet.from_values(lists), partition=ValueClassPartition.of(classes))
    return build_puget(base, force_surjection=force_surjection).problem


def stale_witness_problem():
    """A problem on which a witness goes stale. In the first pass the probe
    X0=4 survives with X1 in {2, 3}, a fixpoint that vouches for X0=4; the
    probe X1=2 then removes X1=2, so that fixpoint leaves the domains. In
    the second pass X0=4 wipes out: X1=1 goes (X1=1 needs X0<=3), and X1=3,
    now odd and entailed, needs X0<=3 too."""
    return Problem(2, 4, DomainSet.from_values([[1, 2, 4], [1, 2, 3]]), (
        ParityLink(1, "even", 0, "even"),
        EqImpliesEq(0, 2, 1, 3),
        EqImpliesLeq(1, 1, 0, 3),
        Conditional(1, "even", ParityLink(1, "even", 0, "odd")),
        Conditional(1, "odd", EqImpliesLeq(1, 3, 0, 3)),
    ))


def test_sac_skips_no_probe_that_would_remove(monkeypatch):
    # enforce_sac skips a probe only when it provably survives, so its log
    # (pairs, order, causes), wipeout flag and domains are those of SAC-1
    # probing every pair; and it skips some, so it makes fewer probe runs.
    # Only its probes run the engine seeded by variable and without a log.
    probe_runs = []
    real_run = PropagationEngine.run

    def counting_run(self, dom, changed=None, log=None, entailed=None):
        if changed is not None and log is None:
            probe_runs.append(1)
        return real_run(self, dom, changed, log, entailed)

    monkeypatch.setattr(PropagationEngine, "run", counting_run)

    rng = make_rng(70)
    problems = [stale_witness_problem()]
    problems += [random_binary_problem(rng) for _ in range(150)]
    problems += [random_guarded_binary_problem(rng) for _ in range(150)]
    problems += [compare_small_encoding(rng, tail) for tail in (False, True) for _ in range(40)]
    candidates = probe_removals = wipeouts = 0
    for prob in problems:
        log, wipeout, dom, probes = sac1_probing_every_pair(prob)
        sac = enforce_sac(prob)
        assert [(p.var, p.value, str(p.cause)) for p in sac.prunings] == [
            (p.var, p.value, str(p.cause)) for p in log
        ]
        assert sac.wipeout == wipeout
        assert sac.final_domains == dom
        candidates += probes
        probe_removals += sum(p.cause == "sac-probe" for p in log)
        wipeouts += wipeout
    assert probe_removals and wipeouts and wipeouts < len(problems)
    assert len(probe_runs) < candidates


def test_sac_probes_start_from_the_ac_flags(monkeypatch):
    # Probes and removal re-runs inherit the entailment flags of the
    # fixpoint they start inside, which must be invisible: against the same
    # problem behind blind proxies, the log (pairs, order, causes), the
    # wipeout flag and the domains match, while the plain side makes far
    # fewer filter calls inside its probes (engine runs seeded by variable
    # and without a log).
    probe_calls = {False: 0, True: 0}
    real_run = PropagationEngine.run

    def counting_run(self, dom, changed=None, log=None, entailed=None):
        if changed is None or log is not None or not self.constraints:
            return real_run(self, dom, changed, log, entailed)
        proxy = self.constraints[0]
        before = proxy.calls[0]
        result = real_run(self, dom, changed, log, entailed)
        probe_calls[proxy.blind] += proxy.calls[0] - before
        return result

    monkeypatch.setattr(PropagationEngine, "run", counting_run)

    rng = make_rng(72)
    problems = [random_binary_problem(rng) for _ in range(150)]
    problems += [compare_small_encoding(rng, tail) for tail in (False, True) for _ in range(40)]
    probe_removals = wipeouts = 0
    for prob in problems:
        seen = {}
        for blind in (False, True):
            counter = [0]
            proxies = tuple(EntailmentProxy(c, counter, blind) for c in prob.constraints)
            sac = enforce_sac(replace(prob, constraints=proxies))
            seen[blind] = ([(p.var, p.value, str(p.cause)) for p in sac.prunings],
                           sac.wipeout, sac.final_domains)
        assert seen[False] == seen[True], prob.constraints
        probe_removals += sum(cause == "sac-probe" for _, _, cause in seen[False][0])
        wipeouts += seen[False][1]
    assert probe_removals and 0 < wipeouts < len(problems)
    # About a third here; 0.91 when each probe starts with no flags set.
    assert 2 * probe_calls[False] < probe_calls[True], probe_calls


def test_sac_log_opens_with_the_ac_log():
    # compare reads its AC result off enforce_sac's log: the entries before
    # the first "sac-probe" cause are propagate_fixpoint's log, and AC wipes
    # out iff SAC does with no "sac-probe" entry.
    # Two-colouring a triangle: AC keeps every value and SAC wipes out.
    triangle = Problem(3, 2, DomainSet.full(3, 2), tuple(
        EqImpliesEq(a, v, b, 3 - v) for a, b in ((0, 1), (1, 2), (2, 0)) for v in (1, 2)
    ))
    rng = make_rng(71)
    problems = [triangle] + [random_binary_problem(rng) for _ in range(150)]
    problems += [compare_small_encoding(rng, tail) for tail in (False, True) for _ in range(40)]
    ac_wipeouts = sac_only_wipeouts = quiet = 0
    for prob in problems:
        ac = propagate_fixpoint(prob)
        sac = enforce_sac(prob)
        triples = [(p.var, p.value, str(p.cause)) for p in sac.prunings]
        first_probe = next((i for i, t in enumerate(triples) if t[2] == "sac-probe"), len(triples))
        assert triples[:first_probe] == [(p.var, p.value, str(p.cause)) for p in ac.prunings]
        probed = first_probe < len(triples)
        assert ac.wipeout == (sac.wipeout and not probed)
        ac_wipeouts += ac.wipeout
        sac_only_wipeouts += sac.wipeout and probed
        quiet += not sac.wipeout and not probed
    assert ac_wipeouts and sac_only_wipeouts and quiet


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


def brute_k_witness(problem, k):
    """The first (assignment, variable) that breaks k-consistency, straight
    from the definition, or None when k-consistency holds. Subsets, their
    value tuples and the variables an assignment must extend to are tried in
    ascending order. An assignment is consistent when it satisfies every
    constraint whose scope it assigns, unary ones included."""
    n, dom = problem.num_vars, problem.domains

    def consistent(partial):
        vec = [partial.get(v) for v in range(n)]
        return all(c.check(vec) for c in problem.constraints if all(v in partial for v in c.scope))

    for subset in itertools.combinations(range(n), k - 1):
        for values in itertools.product(*[dom.values(v) for v in subset]):
            partial = dict(zip(subset, values))
            if not consistent(partial):
                continue
            for other in range(n):
                if other not in partial and not any(
                    consistent({**partial, other: w}) for w in dom.values(other)
                ):
                    return partial, other
    return None


def random_unary_constraint(rng, n, m):
    """A one-variable disjunction or precedence, possibly behind a guard on
    the same variable."""
    var = rng.randrange(n)
    if rng.random() < 0.5:
        inner = DisjunctionEq(rng.randint(1, m), [var])
    else:
        inner = Precedence(sorted(rng.sample(range(1, m + 1), rng.randint(2, m))), [var])
    if rng.random() < 0.3:
        return Conditional(var, rng.choice(["odd", "even"]), inner)
    return inner


def test_k_consistency_matches_the_definition_with_unary_constraints():
    # Two cases a checker that ignores unary constraints gets wrong: a value
    # they reject counted as consistent (a false witness) and as an
    # extension (a later witness reported first).
    only_two = Problem(2, 2, DomainSet.from_values([[1, 2], [1]]), (DisjunctionEq(2, [0]), StrictLess(1, 0)))
    assert is_k_consistent(only_two, 2).holds
    first_one = Problem(2, 2, DomainSet.full(2, 2), (DisjunctionEq(1, [1]), StrictLess(0, 1)))
    assert is_k_consistent(first_one, 2).witness == ConsistencyWitness({0: 1}, 1, 2)

    rng = make_rng(9)
    failing = unary = 0
    for _ in range(2000):
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        cons = [random_binary_constraint(rng, n, m) for _ in range(rng.randint(0, 4))]
        cons += [random_unary_constraint(rng, n, m) for _ in range(rng.randint(0, 2))]
        rng.shuffle(cons)
        prob = Problem(n, m, random_domains(rng, n, m), tuple(cons))
        unary += any(len(c.scope) == 1 for c in cons)
        for k in (1, 2, 3):
            expected = brute_k_witness(prob, k)
            report = is_k_consistent(prob, k)
            assert report.holds == (expected is None), (prob.constraints, k)
            if expected is not None:
                failing += 1
                assert (report.witness.assignment, report.witness.variable) == expected, (prob.constraints, k)
    assert unary > 1000 and 1000 < failing < 5000


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


def random_two_variable_constraint(rng, n, m):
    """A constraint on two variables that is not a BinaryConstraint: a
    disjunction, a precedence, a lex constraint, or a guard on one variable
    over a constraint on the other or on both."""
    x, y = rng.sample(range(n), 2)
    roll = rng.randrange(4)
    if roll == 0:
        return DisjunctionEq(rng.randint(1, m), [x, y])
    if roll == 1:
        return Precedence(sorted(rng.sample(range(1, m + 1), rng.randint(2, m))), [x, y])
    if roll == 2:
        image = list(range(1, m + 1))
        rng.shuffle(image)
        return LexLeqPermuted(Permutation(image), [x, y])
    inner = rng.choice([
        StrictLess(x, y),
        StrictLess(y, x),
        DisjunctionEq(rng.randint(1, m), [y]),
        ParityLink(y, rng.choice(["odd", "even"]), x, rng.choice(["odd", "even"])),
    ])
    return Conditional(x, rng.choice(["odd", "even"]), inner)


def test_k_consistency_reads_two_variable_constraints_of_any_kind():
    # Only the binary kinds have closed-form support masks; a two-variable
    # disjunction, precedence, lex or guarded constraint is read through its
    # check, and both agree with the definition.
    either = Problem(2, 2, DomainSet.full(2, 2), (DisjunctionEq(1, [0, 1]),))
    assert is_k_consistent(either, 2).holds
    ordered = Problem(2, 3, DomainSet.full(2, 3), (Precedence([1, 2, 3], [0, 1]),))
    assert is_k_consistent(ordered, 2).witness == ConsistencyWitness({0: 2}, 1, 2)

    rng = make_rng(73)
    failing = 0
    for _ in range(1000):
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        cons = [random_binary_constraint(rng, n, m) for _ in range(rng.randint(0, 2))]
        cons += [random_two_variable_constraint(rng, n, m) for _ in range(rng.randint(1, 3))]
        cons += [random_unary_constraint(rng, n, m) for _ in range(rng.randint(0, 1))]
        rng.shuffle(cons)
        prob = Problem(n, m, random_domains(rng, n, m), tuple(cons))
        first_failing = None
        for k in (1, 2, 3):
            expected = brute_k_witness(prob, k)
            report = is_k_consistent(prob, k)
            assert report.holds == (expected is None), (prob.constraints, k)
            if expected is not None:
                failing += 1
                first_failing = first_failing or k
                assert (report.witness.assignment, report.witness.variable) == expected, (prob.constraints, k)
        strong = is_strongly_k_consistent(prob, 3)
        assert strong.holds == (first_failing is None), prob.constraints
        if first_failing is not None:
            assert strong.witness.level == first_failing
    assert 500 < failing < 2500, failing


def test_filter_level_rejects_an_unknown_level_or_method():
    problem = staircase_fixture()
    with pytest.raises(ValueError, match="unknown level 'pc'"):
        filter_level(problem, "none", "pc")
    for level in LEVELS:
        with pytest.raises(ValueError, match="unknown method 'lex'"):
            filter_level(problem, "lex", level)
        assert not filter_level(problem, "puget", level).wipeout  # staircase has solutions


def test_filter_level_rejects_ge_tree_at_every_level():
    # ge-tree breaks symmetry during search and posts nothing to filter with.
    problem = staircase_fixture()
    for level in LEVELS:
        with pytest.raises(ValueError, match="method 'ge-tree' does not filter"):
            filter_level(problem, "ge-tree", level)
