import hashlib
import time
from dataclasses import replace

import pytest

from symbreak import (
    DomainSet,
    Problem,
    Strategy,
    is_solution,
    pigeonhole_model,
    propagate_fixpoint,
    solve,
)
from symbreak.breaking import ValueClassPartition, adjacent_generators, build_puget, full_group, lex_constraints
from symbreak.engine import PropagationEngine, Pruning, bits_of, full_mask, mask_of
from symbreak.constraints import Conditional, DisjunctionEq, Precedence, StrictLess

from conftest import (
    CallRecorder,
    EntailmentProxy,
    brute_solutions,
    make_rng,
    random_binary_constraint,
    random_binary_problem,
    random_domains,
    random_partition,
    reference_run,
)


def test_domainset_basics():
    dom = DomainSet.from_values([[1, 3], [2]])
    assert dom.contains(0, 1) and dom.contains(0, 3) and not dom.contains(0, 2)
    assert dom.values(1) == [2]
    assert dom.size(0) == 2
    dom.remove(0, 3)
    assert dom.values(0) == [1]
    with pytest.raises(ValueError):
        dom.remove(0, 3)
    dom2 = dom.copy()
    dom2.remove(1, 2)
    assert dom.contains(1, 2)
    assert dom2.is_empty(1) and dom2.has_wipeout()
    assert dom2.is_subset_of(dom)


def test_domainset_rejects_nonpositive_values():
    with pytest.raises(ValueError):
        DomainSet.from_values([[0, 1]])


def test_full_mask_is_the_mask_of_the_whole_range():
    for m in range(65):
        assert full_mask(m) == mask_of(range(1, m + 1)), m
    assert DomainSet.full(2, 5).masks == [mask_of(range(1, 6))] * 2


def test_bits_of_and_mask_of_match_an_expansion_by_value():
    # Masks of every width up to 300 bits, dense and sparse, so both the
    # narrow and the wide paths of each function are taken.
    rng = make_rng(107)
    for _ in range(600):
        width = rng.randint(0, 300)
        density = rng.choice([0.02, 0.3, 1.0])
        values = [v for v in range(1, width + 1) if rng.random() < density]
        mask = sum(2 ** v for v in values)
        assert bits_of(mask) == values, width
        shuffled = values + values[: len(values) // 3]
        rng.shuffle(shuffled)
        assert mask_of(shuffled) == mask, width
        assert mask_of(iter(shuffled)) == mask, width
    for bad in ([0], [5, 200, -1], [300, 0]):
        with pytest.raises(ValueError):
            mask_of(bad)


def test_wide_wipeout_log_is_built_in_linear_time():
    # Expanding the log one bit at a time costs time quadratic in the width
    # of a write: this 100,000-value wipeout took a second that way.
    width = 100_000
    prob = Problem(2, width, DomainSet([full_mask(width), 0b10]), (StrictLess(0, 1),))
    started = time.perf_counter()
    out = propagate_fixpoint(prob)
    elapsed = time.perf_counter() - started
    assert out.wipeout
    expected = [(0, v) for v in range(1, width + 1)] + [(1, 1)]
    assert [(p.var, p.value) for p in out.prunings] == expected
    assert elapsed < 0.5, f"took {elapsed:.2f}s"


def test_sparse_wide_masks_are_expanded_bit_by_bit_in_linear_time():
    # A mask with at most 64 bits set takes the one-bit loop however wide it
    # is, and one with more takes the string pass; both expand ascending.
    # Expanding each one-value write of this 1,000-write run through a
    # string as wide as its mask took about 4 s.
    for values in ([10_000], list(range(100, 164)), list(range(100, 163)) + [10_000],
                   list(range(100, 164)) + [10_000]):
        mask = sum(1 << v for v in values)
        assert bits_of(mask) == values
        prob = Problem(2, 10_000, DomainSet([mask | 0b10, 0b100]), (StrictLess(0, 1),))
        out = propagate_fixpoint(prob)
        assert [(p.var, p.value) for p in out.prunings] == [(0, v) for v in values]

    width, n = 100_000, 1000
    prob = Problem(n + 1, width, DomainSet([0b10 | 1 << width] * n + [0b100]),
                   tuple(StrictLess(var, n) for var in range(n)))
    started = time.perf_counter()
    out = propagate_fixpoint(prob)
    elapsed = time.perf_counter() - started
    assert not out.wipeout
    assert [(p.var, p.value) for p in out.prunings] == [(var, width) for var in range(n)]
    assert elapsed < 0.5, f"took {elapsed:.2f}s"


def test_problem_validates_scopes_and_domains():
    with pytest.raises(ValueError):
        Problem(2, 3, DomainSet.from_values([[1], [4]]))
    with pytest.raises(ValueError):
        Problem(1, 3, DomainSet.full(1, 3), (StrictLess(0, 1),))


def test_problem_checks_its_domain_count_and_partition_values():
    with pytest.raises(ValueError, match="domain set covers 2 variables, expected 3"):
        Problem(3, 3, DomainSet.full(2, 3))
    with pytest.raises(ValueError, match="partition value 4 outside 1..3"):
        Problem(2, 3, DomainSet.full(2, 3), partition=ValueClassPartition.of([[1, 2], [3, 4]]))


def test_fixpoint_no_constraints_is_identity():
    prob = Problem(3, 3, DomainSet.full(3, 3))
    out = propagate_fixpoint(prob)
    assert out.prunings == [] and not out.wipeout
    assert out.final_domains == prob.domains


def test_fixpoint_wipeout_when_disjunction_value_gone():
    prob = pigeonhole_model(3)
    dom = prob.domains.copy()
    for var in range(3):
        dom.remove(var, 4)
    out = propagate_fixpoint(prob, dom)
    assert out.wipeout
    assert out.final_domains.has_wipeout()


def test_fixpoint_confluence_under_constraint_reordering():
    rng = make_rng(101)
    for _ in range(60):
        prob = random_binary_problem(rng)
        base = propagate_fixpoint(prob)
        shuffled = list(prob.constraints)
        rng.shuffle(shuffled)
        again = propagate_fixpoint(Problem(prob.num_vars, prob.num_values, prob.domains, tuple(shuffled)))
        assert base.wipeout == again.wipeout
        if not base.wipeout:
            assert base.final_domains == again.final_domains


def test_fixpoint_equals_iterated_single_constraint_filtering():
    rng = make_rng(102)
    for _ in range(40):
        prob = random_binary_problem(rng, n_max=4, m_max=4)
        out = propagate_fixpoint(prob)
        if out.wipeout:
            continue
        # saturate by hand: run every propagator until nothing changes
        dom = prob.domains.copy()
        changed = True
        while changed:
            changed = False
            for c in prob.constraints:
                if c.propagate(dom):
                    changed = True
        assert dom == out.final_domains


def test_fixpoint_monotone_in_domains():
    rng = make_rng(103)
    for _ in range(60):
        prob = random_binary_problem(rng)
        big = propagate_fixpoint(prob)
        small_dom = prob.domains.copy()
        for var in range(prob.num_vars):
            values = small_dom.values(var)
            if len(values) > 1 and rng.random() < 0.6:
                small_dom.remove(var, rng.choice(values))
        small = propagate_fixpoint(prob, small_dom)
        if big.wipeout:
            assert small.wipeout
        elif not small.wipeout:
            assert small.final_domains.is_subset_of(big.final_domains)


def test_pruning_log_replays_to_final_domains():
    rng = make_rng(104)
    for _ in range(60):
        prob = random_binary_problem(rng)
        out = propagate_fixpoint(prob)
        replay = prob.domains.copy()
        for p in out.prunings:
            replay.remove(p.var, p.value)
        assert replay == out.final_domains


def test_pruning_log_is_sound():
    # every removal had no support in its causing constraint at removal time
    rng = make_rng(105)
    for _ in range(40):
        prob = random_binary_problem(rng, n_max=4, m_max=4)
        out = propagate_fixpoint(prob)
        current = prob.domains.copy()
        for p in out.prunings:
            cause = p.cause
            a, b = cause.scope
            other = b if p.var == a else a
            if p.var == a:
                witnesses = [w for w in current.values(other) if cause.allows(p.value, w)]
            else:
                witnesses = [w for w in current.values(other) if cause.allows(w, p.value)]
            assert not witnesses
            current.remove(p.var, p.value)


def test_is_solution_pigeonhole_counterexample():
    prob = pigeonhole_model(2)
    assert not is_solution(prob, [1, 2])  # value 3 never used
    assert not is_solution(prob, {0: 1, 1: 2})


def test_is_solution_no_constraints_and_partial_rejection():
    prob = Problem(2, 2, DomainSet.full(2, 2))
    assert is_solution(prob, [2, 1])
    with pytest.raises(ValueError):
        is_solution(prob, {0: 1})


def test_is_solution_matches_checker_conjunction():
    rng = make_rng(106)
    for _ in range(20):
        prob = random_binary_problem(rng, n_max=4, m_max=4)
        sols = set(brute_solutions(prob))
        dom = prob.domains
        for _ in range(20):
            vec = tuple(rng.choice(dom.values(v)) for v in range(prob.num_vars))
            assert is_solution(prob, vec) == (vec in sols)


def wake_order_problem(rng):
    """Binary constraints, disjunctions over shuffled parts of the scope and,
    for two problems in three, lex or precedence constraints over a shuffled
    variable order: filters whose records write several variables out of
    ascending order, so the wake order shows in the log and the counters."""
    n, m = rng.randint(3, 7), rng.randint(2, 4)
    cons = [random_binary_constraint(rng, n, m) for _ in range(rng.randint(2, 8))]
    for _ in range(rng.randint(1, 3)):
        cons.append(DisjunctionEq(rng.randint(1, m), rng.sample(range(n), rng.randint(2, n))))
    part = random_partition(rng, m)
    order = rng.sample(range(n), n)
    roll = rng.randrange(3)
    if roll == 1:
        cons += lex_constraints(adjacent_generators(part, m).perms, order)
    elif roll == 2:
        cons += [Precedence(cls, order) for cls in part.nontrivial_classes()]
    return Problem(n, m, random_domains(rng, n, m), tuple(cons), part)


def wake_order_digest(seeds):
    digest = hashlib.sha256()
    for seed in seeds:
        prob = wake_order_problem(make_rng(seed))
        out = propagate_fixpoint(prob)
        digest.update(repr([(p.var, p.value, p.cause.describe()) for p in out.prunings]).encode())
        for mode in ("static", "ge-tree"):
            for order in ("lex", "min-domain"):
                _, stats = solve(prob, strategy=Strategy(var_order=order, mode=mode), goal="count")
                digest.update(repr(stats.as_record()).encode())
    return digest.hexdigest()


# The engine's queue order fixes which constraint removes a value, so it
# shows in the log's cause column and in the prunings counted before a
# wipeout. Recorded at commit 959648d by running
# wake_order_digest(range(100, 400)) there. Seeds 134 and 190 tell the
# engine's wake order (the distinct written variables, as a set) from waking
# in write order, so a change to either order fails the test.
WAKE_ORDER_DIGEST = "47f6762c4118d32914f535ea4985ced45ed453a8ef5f63d12b8d5896a1bb16ae"


def test_wake_order_keeps_logs_and_counters():
    assert wake_order_digest(range(100, 400)) == WAKE_ORDER_DIGEST


def entailment_problem(rng):
    """One time in four, the dual encoding of a small partitioned base (with
    the base's partition, so ge-tree mode can run). Otherwise the shape of
    wake_order_problem, with fewer binaries so that fewer problems wipe out
    at the root, plus Conditional-guarded binaries and disjunctions."""
    if rng.randrange(4) == 0:
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        part = random_partition(rng, m)
        base = Problem(n, m, random_domains(rng, n, m), partition=part)
        return replace(build_puget(base, force_surjection=rng.random() < 0.5).problem, partition=part)
    n, m = rng.randint(3, 7), rng.randint(2, 4)

    def disjunction():
        return DisjunctionEq(rng.randint(1, m), rng.sample(range(n), rng.randint(2, n)))

    cons = [random_binary_constraint(rng, n, m) for _ in range(rng.randint(0, 4))]
    cons += [disjunction() for _ in range(rng.randint(1, 3))]
    for _ in range(rng.randint(0, 3)):
        inner = random_binary_constraint(rng, n, m) if rng.random() < 0.5 else disjunction()
        cons.append(Conditional(rng.randrange(n), rng.choice(["odd", "even"]), inner))
    part = random_partition(rng, m)
    order = rng.sample(range(n), n)
    roll = rng.randrange(3)
    if roll == 1:
        cons += lex_constraints(adjacent_generators(part, m).perms, order)
    elif roll == 2:
        cons += [Precedence(cls, order) for cls in part.nontrivial_classes()]
    return Problem(n, m, random_domains(rng, n, m), tuple(cons), part)


def test_entailment_changes_no_log_and_no_search_result():
    # Retiring entailed constraints must be invisible: against the same
    # problem behind blind proxies, the fixpoint log (pairs, order, causes),
    # the wipeout flag, the domains, and every search's solutions and
    # counters match, while the plain side makes fewer filter calls. The
    # flags a full run leaves mark constraints that remove nothing there.
    rng = make_rng(15)
    calls = {False: [0], True: [0]}
    wipeouts = 0
    for _ in range(300):
        prob = entailment_problem(rng)
        seen = {}
        for blind, counter in calls.items():
            proxies = tuple(EntailmentProxy(c, counter, blind) for c in prob.constraints)
            wrapped = replace(prob, constraints=proxies)
            out = propagate_fixpoint(wrapped)
            record = [[(p.var, p.value, str(p.cause)) for p in out.prunings],
                      out.wipeout, out.final_domains]
            for mode in ("static", "ge-tree"):
                for order in ("lex", "min-domain"):
                    for goal in ("first", "all", "count"):
                        strategy = Strategy(var_order=order, mode=mode)
                        sols, stats = solve(wrapped, strategy=strategy, goal=goal)
                        record.append((sols, stats.as_record()))
            seen[blind] = record
        assert seen[False] == seen[True], prob.constraints
        wipeouts += seen[False][1]

        dom, flags = prob.domains.copy(), [True, False]
        _, wiped = PropagationEngine(prob.constraints, prob.num_vars).run(dom, entailed=flags)
        if not wiped:
            assert len(flags) == len(prob.constraints)
            for c, flag in zip(prob.constraints, flags):
                assert not flag or c.propagate(dom.copy()) == [], c
    assert 0 < wipeouts < 300
    assert calls[False][0] < calls[True][0]


def ordered_symmetry_problem(rng):
    """Lex constraints over one shuffled variable order and precedence over
    another, on random domains: filters that write several variables per
    call, out of ascending order."""
    n, m = rng.randint(3, 7), rng.randint(2, 5)
    part = random_partition(rng, m)
    perms = (full_group if rng.random() < 0.3 else adjacent_generators)(part, m).perms
    cons = lex_constraints(perms, rng.sample(range(n), n))
    cons += [Precedence(cls, rng.sample(range(n), n)) for cls in part.nontrivial_classes()]
    rng.shuffle(cons)
    return Problem(n, m, random_domains(rng, n, m), tuple(cons), part)


def engine_agreement_problems(rng):
    for _ in range(60):
        n, m = rng.randint(2, 7), rng.randint(2, 5)
        masks = random_domains(rng, n, m).masks
        masks[0] = full_mask(m)
        base = Problem(n, m, DomainSet(masks), partition=random_partition(rng, m))
        for force_surjection in (False, True):
            yield build_puget(base, force_surjection=force_surjection).problem
    for _ in range(120):
        yield wake_order_problem(rng)
    for _ in range(120):
        yield ordered_symmetry_problem(rng)


def test_engine_matches_the_reference_schedule():
    # The engine's full runs sweep the seeded constraints before they drain
    # the queue, and a wake during the sweep scans only the watchers it has
    # not scanned yet below the cursor. None of that may show: against the
    # plain FIFO loop in conftest, the filter calls, the log (pairs, order,
    # causes), the count, the wipeout flag, the domains and the flags left
    # behind match, for full runs with and without caller-owned flags and
    # for an incremental run seeded with a copy of the flags, as SAC seeds
    # its probes.
    rng = make_rng(33)
    problems = full_fixpoints = incremental = 0
    for prob in engine_agreement_problems(rng):
        problems += 1
        calls = []
        cons = [CallRecorder(c, ci, calls) for ci, c in enumerate(prob.constraints)]
        engine = PropagationEngine(cons, prob.num_vars)

        def both(dom, changed=None, entailed=None):
            seen, logs = [], []
            for run in (engine.run, lambda *args, **kw: reference_run(cons, prob.num_vars, *args, **kw)):
                calls.clear()
                d, log = dom.copy(), []
                flags = None if entailed is None else list(entailed)
                count, wiped = run(d, changed=changed, log=log, entailed=flags)
                seen.append((calls[:], [(p.var, p.value, p.cause.index) for p in log],
                             count, wiped, d.masks, None if wiped else flags))
                logs.append(log)
            assert seen[0] == seen[1], prob.constraints
            assert all(type(p) is Pruning for p in logs[0])
            return seen[0]

        both(prob.domains)
        _, _, _, wiped, masks, flags = both(prob.domains, entailed=[True, False])
        if wiped:
            continue
        full_fixpoints += 1
        free = [var for var, mask in enumerate(masks) if mask & (mask - 1)]
        if not free:
            continue
        var = rng.choice(free)
        dom = DomainSet(masks)
        dom.assign(var, rng.choice(dom.values(var)))
        for seed_flags in (flags, None):
            both(dom, changed=[var], entailed=seed_flags)
        incremental += 1
    assert problems >= 300
    assert full_fixpoints >= 100 and incremental >= 50, (full_fixpoints, incremental)
