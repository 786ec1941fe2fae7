import itertools
import json
import time
from collections import Counter

import pytest

from symbreak import DomainSet, PropagationEngine, brute_force_gac, staircase_fixture
from symbreak.breaking import build_generator_lex, build_precedence
from symbreak.constraints import (
    AtLeastNValues,
    BinaryConstraint,
    Conditional,
    DisjunctionEq,
    EqImpliesEq,
    EqImpliesLeq,
    LexLeqPermuted,
    ParityLink,
    Permutation,
    Precedence,
    StrictLess,
    ValueCover,
    _narrow,
    _wipe_scope,
)
from symbreak.engine import ENTAILED
from symbreak.problem_io import dumps, problem_from_dict, problem_to_dict

from conftest import (
    decomposed_lex_filter,
    make_rng,
    random_domain_lists,
    random_domains,
    support_marking_gac,
)


# ---------------------------------------------------------------- permutation

def test_permutation_composition_and_inverse():
    rng = make_rng(1)
    for _ in range(100):
        m = rng.randint(1, 7)
        img = list(range(1, m + 1))
        rng.shuffle(img)
        p = Permutation(img)
        assert p.image == tuple(img)
        assert p.compose(p.inverse()).is_identity()
        assert p.inverse().compose(p).is_identity()
        # q may act on fewer or more values than p
        q_size = rng.randint(1, 7)
        q_img = list(range(1, q_size + 1))
        rng.shuffle(q_img)
        q = Permutation(q_img)
        for r in (p.compose(q), q.compose(p)):
            assert r.size == max(m, q_size)
            assert sorted(r.image) == list(range(1, r.size + 1))
        for v in range(1, max(m, q_size) + 2):
            assert p.compose(q)(v) == p(q(v))
            assert q.inverse()(q(v)) == v
        a, b = rng.randint(1, m), rng.randint(1, m)
        swapped = list(range(1, m + 1))
        swapped[a - 1], swapped[b - 1] = b, a
        t = Permutation.transposition(m, a, b)
        assert t == Permutation(swapped) and hash(t) == hash(Permutation(swapped))
        assert t.image == tuple(swapped)
        assert t.is_identity() == (a == b)
    assert Permutation.identity(3) != Permutation.identity(5)
    assert Permutation.identity(4).image == (1, 2, 3, 4)
    # a sigma shorter than the value range writes back as it was read
    doc = {
        "format": 1, "variables": 2, "values": 4,
        "constraints": [{"type": "lex_leq_permuted", "sigma": [3, 1, 2], "order": [1, 0]}],
    }
    written = problem_to_dict(problem_from_dict(doc))
    assert written["constraints"] == doc["constraints"]
    text = dumps(written)
    assert dumps(problem_to_dict(problem_from_dict(json.loads(text)))) == text


def test_permutation_identity_off_range():
    p = Permutation.transposition(3, 1, 2)
    assert p(7) == 7


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation([1, 1, 3])


# -------------------------------------------------------------------- checks

def test_precedence_check_examples():
    c = Precedence([1, 2, 3, 4, 5], range(5))
    assert c.check([1, 2, 2, 3, 1])
    assert not c.check([2, 1, 1, 1, 1])  # value 1 must be used first


def test_lex_check_examples():
    swap = Permutation.transposition(2, 1, 2)
    c = LexLeqPermuted(swap, [0, 1])
    assert c.check([1, 2])
    assert not c.check([2, 1])


def test_lex_describe_names_every_moved_point():
    # propagate prints this label as a cause: an involution as its swaps,
    # any other sigma as each moved value with its image
    def label(img):
        return LexLeqPermuted(Permutation(img), [0]).describe()

    assert label([1, 2]) == "lex_leq_permuted(id)"
    assert label([2, 1, 3]) == "lex_leq_permuted(1<->2)"
    assert label([4, 3, 2, 1]) == "lex_leq_permuted(1<->4,2<->3)"
    assert label([2, 3, 1]) == "lex_leq_permuted(1>2,2>3,3>1)"
    assert label([3, 1, 2]) == "lex_leq_permuted(1>3,2>1,3>2)"
    assert label([2, 1, 4, 5, 3]) == "lex_leq_permuted(1>2,2>1,3>4,4>5,5>3)"


def test_at_least_n_values_overloaded_prefix_is_unsatisfiable():
    import itertools

    n = 3
    c = AtLeastNValues(n, n + 1)
    for vec in itertools.product(range(1, n + 2), repeat=n):
        assert not c.check(list(vec))


def test_at_least_n_values_counts_distinct():
    c = AtLeastNValues(3, 3)
    assert c.check([1, 2, 3])
    assert not c.check([1, 1, 2])


# ----------------------------------------------------------------- lex filter

def test_lex_filter_leaves_staircase_untouched():
    prob = staircase_fixture()
    for c in build_generator_lex(prob):
        assert c.propagate(prob.domains.copy()) == []


def test_lex_filter_identity_never_prunes():
    rng = make_rng(2)
    for _ in range(50):
        n, m = rng.randint(1, 5), rng.randint(2, 5)
        dom = random_domains(rng, n, m)
        c = LexLeqPermuted(Permutation.identity(m), range(n))
        assert c.propagate(dom.copy()) == []


def test_lex_filter_matches_decomposition_oracle():
    rng = make_rng(3)
    for _ in range(600):
        n, m = rng.randint(1, 5), rng.randint(2, 6)
        lists = random_domain_lists(rng, n, m)
        img = list(range(1, m + 1))
        rng.shuffle(img)
        perm = Permutation(img)
        dom = DomainSet.from_values(lists)
        c = LexLeqPermuted(perm, range(n))
        mine = dom.copy()
        got = set(c.propagate(mine))
        want, final, _ = decomposed_lex_filter(perm, list(range(n)), dom)
        assert got == want and mine == final


def test_lex_filter_matches_decomposition_oracle_on_wider_cases():
    # scopes in shuffled order over more variables than they cover, values
    # above perm.size (fixed by the map), the adjacent transpositions that
    # build_generator_lex posts, empty positions, and n up to 10; the engine
    # counts prunings as len(removed), so no pair may be reported twice
    rng = make_rng(11)
    for trial in range(3000):
        m = rng.randint(2, 6)
        n = rng.randint(1, 10)
        num_vars = n + rng.randint(0, 3)
        order = rng.sample(range(num_vars), n)
        img = list(range(1, m + 1))
        if trial % 2:
            a = rng.randint(1, m - 1)
            img[a - 1], img[a] = img[a], img[a - 1]
        else:
            rng.shuffle(img)
        perm = Permutation(img)
        top = m + rng.randint(0, 2)
        lists = []
        for _ in range(num_vars):
            roll = rng.random()
            if roll < 0.03:
                lists.append([])
            elif roll < 0.4:
                lists.append([rng.randint(1, top)])
            else:
                lists.append(sorted(rng.sample(range(1, top + 1), rng.randint(2, top))))
        dom = DomainSet.from_values(lists)
        mine = dom.copy()
        removed = LexLeqPermuted(perm, order).propagate(mine)
        want, final, _ = decomposed_lex_filter(perm, order, dom)
        assert len(removed) == len(set(removed)), (img, order, lists)
        assert set(removed) == want and mine == final, (img, order, lists)


def test_lex_filter_sound_for_shared_assignment_semantics():
    # the decomposition never removes a value that the exact constraint keeps
    rng = make_rng(4)
    for _ in range(200):
        n, m = rng.randint(1, 4), rng.randint(2, 4)
        dom = random_domains(rng, n, m)
        img = list(range(1, m + 1))
        rng.shuffle(img)
        c = LexLeqPermuted(Permutation(img), range(n))
        got = set(c.propagate(dom.copy()))
        exact = brute_force_gac([c], dom)
        assert got <= exact.pruned_pairs()


# ---------------------------------------------------------- precedence filter

def test_precedence_filter_on_staircase():
    prob = staircase_fixture()
    (c,) = build_precedence(prob)
    assert sorted(c.propagate(prob.domains.copy())) == [(1, 1), (2, 1), (3, 1)]


def test_precedence_filter_single_variable():
    dom = DomainSet.from_values([[1, 2]])
    c = Precedence([1, 2], [0])
    assert c.propagate(dom) == [(0, 2)]
    assert dom.values(0) == [1]


def test_precedence_filter_matches_support_enumeration():
    rng = make_rng(5)
    for _ in range(300):
        n, m = rng.randint(1, 6), rng.randint(2, 5)
        dom = random_domains(rng, n, m)
        cls = sorted(rng.sample(range(1, m + 1), rng.randint(2, m)))
        c = Precedence(cls, range(n))
        mine = dom.copy()
        got = c.propagate(mine)
        want, wiped = support_marking_gac([c], dom)
        # scope order, ascending values, no pair twice
        assert got == sorted(want)
        assert mine.has_wipeout() == wiped


def test_single_class_precedence_equals_full_group_lex_conjunction():
    # with one class of interchangeable values, the precedence filter removes
    # exactly what brute-force filtering of the whole lex conjunction removes
    from symbreak.breaking import ValueClassPartition, full_group, lex_constraints

    rng = make_rng(55)
    for _ in range(60):
        n, m = rng.randint(1, 6), rng.randint(2, 4)
        dom = random_domains(rng, n, m)
        part = ValueClassPartition.of([range(1, m + 1)])
        conjunction = lex_constraints(full_group(part, m).perms, range(n))
        oracle = brute_force_gac(conjunction, dom)
        c = Precedence(list(range(1, m + 1)), range(n))
        mine = dom.copy()
        got = set(c.propagate(mine))
        if oracle.wipeout:
            assert mine.has_wipeout()
        else:
            assert got == oracle.pruned_pairs()
            assert mine == oracle.final_domains


def test_multi_class_precedence_fixpoint_is_sound():
    from symbreak import Problem, propagate_fixpoint
    from symbreak.breaking import ClassCanonical, ValueClassPartition

    rng = make_rng(6)
    for _ in range(100):
        n, m = rng.randint(2, 5), 4
        dom = random_domains(rng, n, m)
        part = ValueClassPartition.of([[1, 2], [3, 4]])
        cons = tuple(Precedence(cls, range(n)) for cls in part.classes)
        out = propagate_fixpoint(Problem(n, m, dom, cons))
        oracle = brute_force_gac([ClassCanonical(part, range(n))], dom)
        if out.wipeout:
            assert oracle.wipeout
        elif not oracle.wipeout:
            assert out.pruned_pairs() <= oracle.pruned_pairs()


# -------------------------------------------------------------- binary filter

def test_strict_less_bounds():
    dom = DomainSet.from_values([[3], [1, 2, 3, 4, 5]])
    c = StrictLess(0, 1)
    assert sorted(c.propagate(dom)) == [(1, 1), (1, 2), (1, 3)]
    assert dom.values(1) == [4, 5]


def test_parity_link_prunes_to_matching_parity():
    # switch fixed odd forces the target onto its odd values
    dom = DomainSet.from_values([[9], [1, 2, 3, 4]])
    c = ParityLink(0, "odd", 1, "odd")
    got = sorted(c.propagate(dom))
    assert got == [(1, 2), (1, 4)]
    assert dom.values(1) == [1, 3]


def test_eq_implies_constraints():
    dom = DomainSet.from_values([[2], [1, 2, 3]])
    assert sorted(EqImpliesLeq(0, 2, 1, 1).propagate(dom.copy())) == [(1, 2), (1, 3)]
    assert sorted(EqImpliesEq(0, 2, 1, 3).propagate(dom.copy())) == [(1, 1), (1, 2)]


# each binary kind over scope (a, b) with every parameter value in 1..m
BINARY_KINDS = (
    lambda a, b, m: [EqImpliesLeq(a, v, b, k) for v in range(1, m + 1) for k in range(1, m + 1)],
    lambda a, b, m: [EqImpliesEq(a, v, b, w) for v in range(1, m + 1) for w in range(1, m + 1)],
    lambda a, b, m: [StrictLess(a, b)],
    lambda a, b, m: [ParityLink(a, p, b, q) for p in ("odd", "even") for q in ("odd", "even")],
)


def revise_by_allows(c, values):
    """Expected removal list of one binary filter call: a's values without a
    support in b, ascending, then b's values without a support in what is
    left of a, ascending. Built on allows() over explicit value lists."""
    a, b = c.scope
    a_gone = [va for va in values[a] if not any(c.allows(va, vb) for vb in values[b])]
    a_left = [va for va in values[a] if va not in a_gone]
    b_gone = [vb for vb in values[b] if not any(c.allows(va, vb) for va in a_left)]
    return [(a, v) for v in a_gone] + [(b, v) for v in b_gone]


def test_binary_filters_match_support_enumeration():
    # every kind, every parameter value and every pair of domains over 1..5,
    # empty ones included, in both scope orientations
    m = 5
    subsets = [[v for v in range(1, m + 1) if bits >> (v - 1) & 1] for bits in range(1 << m)]
    for kind, (a, b) in itertools.product(BINARY_KINDS, ((0, 1), (1, 0))):
        for c in kind(a, b, m):
            for first in subsets:
                for second in subsets:
                    dom = DomainSet.from_values([first, second])
                    mine = dom.copy()
                    got = c.propagate(mine)
                    assert got == revise_by_allows(c, [first, second]), (c, first, second)
                    want, wiped = support_marking_gac([c], dom)
                    assert set(got) == want
                    assert mine.has_wipeout() == wiped


def record_shape(removed):
    """A filter's return as data: [] for none, else (writes, count)."""
    return [] if removed.__class__ is list else (removed.writes, removed.count)


def test_binary_kinds_match_the_shared_two_revise_filter():
    # A kind's own propagate (the EqImplies no-op test first) must write what
    # the shared BinaryConstraint filter writes: the same final masks, the
    # same (var, lost mask) writes in the same order and the same count,
    # and [] exactly when it removes nothing.
    m = 5
    for kind, (a, b) in itertools.product(BINARY_KINDS, ((0, 1), (1, 0))):
        for c in kind(a, b, m):
            for ma in range(0, 1 << (m + 1), 2):
                for mb in range(0, 1 << (m + 1), 2):
                    own, shared = DomainSet([ma, mb]), DomainSet([ma, mb])
                    got = record_shape(c.propagate(own))
                    want = record_shape(BinaryConstraint.propagate(c, shared))
                    assert got == want and own.masks == shared.masks, (c, ma, mb)


def test_binary_constraint_rejects_repeated_variable():
    # X0 < X0 has no support at all, yet a two-sided revise would keep a value
    for kind in BINARY_KINDS:
        with pytest.raises(ValueError, match="distinct"):
            kind(2, 2, 3)


# --------------------------------------------------------- disjunction filter

def test_disjunction_wipes_when_value_unreachable():
    dom = DomainSet.from_values([[1, 2], [2, 3]])
    c = DisjunctionEq(4, [0, 1])
    removed = c.propagate(dom)
    assert set(removed) == {(0, 1), (0, 2), (1, 2), (1, 3)}
    assert dom.has_wipeout()


def test_disjunction_satisfied_leaves_domains_alone():
    dom = DomainSet.from_values([[2], [1, 2, 3]])
    assert DisjunctionEq(2, [0, 1]).propagate(dom) == []


def test_disjunction_pins_last_candidate():
    dom = DomainSet.from_values([[1, 2], [1, 3]])
    c = DisjunctionEq(3, [0, 1])
    assert c.propagate(dom) == [(1, 1)]
    assert dom.values(1) == [3]


def test_disjunction_matches_support_enumeration():
    rng = make_rng(8)
    for _ in range(300):
        n, m = rng.randint(1, 6), rng.randint(2, 5)
        dom = random_domains(rng, n, m)
        c = DisjunctionEq(rng.randint(1, m), range(n))
        mine = dom.copy()
        got = c.propagate(mine)
        want, wiped = support_marking_gac([c], dom)
        # scope order, ascending values, no pair twice
        assert got == sorted(want)
        assert mine.has_wipeout() == wiped


def test_disjunction_is_entailed_wherever_its_singleton_sits():
    # A scope variable that is exactly {value} satisfies the constraint on
    # every subdomain, also when other candidates come before it in the scope.
    dom = DomainSet.from_values([[1, 2], [1, 2], [1]])
    assert DisjunctionEq(1, [0, 1, 2]).propagate(dom) is ENTAILED
    assert dom == DomainSet.from_values([[1, 2], [1, 2], [1]])
    rng = make_rng(41)
    for _ in range(300):
        n, m = rng.randint(2, 6), rng.randint(2, 5)
        value = rng.randint(1, m)
        lists = random_domain_lists(rng, n, m)
        at = rng.randrange(1, n)
        lists[at] = [value]
        for var in rng.sample(range(at), rng.randint(1, at)):
            lists[var] = sorted(set(lists[var]) | {value})
        scope = rng.sample(range(n), n)
        scope.sort(key=lambda var: var == at)  # candidates first, singleton last
        dom = DomainSet.from_values(lists)
        before = dom.copy()
        assert DisjunctionEq(value, scope).propagate(dom) is ENTAILED, (lists, scope)
        assert dom == before


def cover_of(members):
    """The value-cover kernel of `DisjunctionEq` members over one variable
    set, in the first member's scope order."""
    return ValueCover([c.value for c in members], members[0].scope)


def test_value_cover_checks_and_describes_its_values():
    # The kernel holds exactly when each of its disjunctions holds, and it
    # prints its values in the order given, repeats included.
    rng = make_rng(31)
    for _ in range(300):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        scope = rng.sample(range(n), rng.randint(1, n))
        values = [rng.randint(1, m + 1) for _ in range(rng.randint(1, m + 1))]
        cover = ValueCover(values, scope)
        for _ in range(8):
            vec = [rng.randint(1, m) for _ in range(n)]
            assert cover.check(vec) == all(DisjunctionEq(v, scope).check(vec) for v in values), (values, vec)
        assert cover.describe() == f"value_cover(values={','.join(map(str, values))})"
    with pytest.raises(ValueError, match="at least one value"):
        ValueCover([], [0, 1])
    with pytest.raises(ValueError, match="repeats a variable"):
        ValueCover([1], [0, 0])


def test_value_cover_is_the_decomposition_fixpoint():
    # The kernel computes what the engine reaches over its member
    # disjunctions, not GAC on their conjunction (which would refute the
    # pigeonhole at the root): the same final masks, wipeout flag, count
    # and removed pairs, on domains with empty and singleton variables,
    # with repeated and unreachable values and shuffled member scopes.
    rng = make_rng(14)
    outcomes = {"wiped": 0, "pinned": 0, "entailed": 0}
    for _ in range(3000):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        dom = random_domains(rng, n, m)
        for var in range(n):
            roll = rng.random()
            if roll < 0.1:
                dom.masks[var] = 0
            elif roll < 0.4:
                dom.assign(var, rng.choice(dom.values(var)))
        scope = rng.sample(range(n), rng.randint(1, n))
        values = [m + 1 if rng.random() < 0.05 else rng.randint(1, m)
                  for _ in range(rng.randint(1, m + 1))]
        members = [DisjunctionEq(value, rng.sample(scope, len(scope))) for value in values]
        cover = cover_of(members)

        want = dom.copy()
        want_count, want_wiped = PropagationEngine(members, n).run(want)
        via_engine = dom.copy()
        assert PropagationEngine([cover], n).run(via_engine) == (want_count, want_wiped)
        got = dom.copy()
        removed = cover.propagate(got)
        assert got == want == via_engine, (members, dom)
        gone = {(var, value) for var in range(n) for value in range(1, m + 1)
                if dom.contains(var, value) and not got.contains(var, value)}
        pairs = list(removed)
        assert len(removed) == len(pairs) == len(set(pairs)) == want_count, (members, dom)
        assert set(pairs) == gone, (members, dom)
        if pairs:
            in_writes = [(var, value) for var, lost in removed.writes
                         for value in range(lost.bit_length()) if lost >> value & 1]
            assert pairs == in_writes, (members, dom)
            outcomes["wiped" if want_wiped else "pinned"] += 1
        else:
            assert removed.__class__ is list, (members, dom)
        assert cover.propagate(got) == [] and got == want, (members, dom)

        if removed is ENTAILED:
            outcomes["entailed"] += 1
            for _ in range(8):
                sub = random_subdomain(rng, got)
                before = sub.copy()
                assert cover.propagate(sub) == [] and sub == before, (members, dom, before)
    assert min(outcomes.values()) >= 100, outcomes


def first_round_wipes(cover, masks):
    """The two ways the kernel's first round empties its scope, stated on
    the child's masks by listing each needed value's candidates."""
    holders = {value: [v for v in cover.scope if masks[v] >> value & 1]
               for value in set(cover.values)}
    if any(not hs for hs in holders.values()):
        return True  # a needed value has no candidate
    lone = [hs[0] for value, hs in holders.items()
            if len(hs) == 1 and not any(masks[v] == 1 << value for v in cover.scope)]
    return len(lone) != len(set(lone))  # one variable is the only candidate of two


def full_lookahead(cover, masks, var):
    """The kernel's lookahead with every other scope variable scanned and
    an empty summary."""
    return cover.lookahead(masks, var, [v for v in cover.scope if v != var], (0, 0, 0))


def test_value_cover_lookahead_names_the_children_its_first_round_wipes():
    # The full lookahead's doomed mask answers for every value b of var at once: b is in
    # the mask iff the first round on var = {b} wipes the scope, and then
    # propagate removes every value the child's scope holds.
    rng = make_rng(24)
    outcomes = {"doomed": 0, "spared": 0, "outside": 0}
    for _ in range(3000):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        dom = random_domains(rng, n, m)
        for var in range(n):
            roll = rng.random()
            if roll < 0.1:
                dom.masks[var] = 0
            elif roll < 0.4:
                dom.assign(var, rng.choice(dom.values(var)))
        scope = rng.sample(range(n), rng.randint(1, n))
        values = [m + 1 if rng.random() < 0.05 else rng.randint(1, m)
                  for _ in range(rng.randint(1, m + 1))]
        cover = cover_of([DisjunctionEq(value, rng.sample(scope, len(scope)))
                          for value in values])
        for var in range(n):
            before = dom.copy()
            doomed, count, _ = full_lookahead(cover, dom.masks, var)
            assert dom == before
            if var not in scope:
                assert (doomed, count) == (0, 0)
                outcomes["outside"] += 1
                continue
            assert doomed & ~dom.masks[var] == 0, (cover, dom, var)
            for b in dom.values(var):
                child = dom.copy()
                child.assign(var, b)
                wiped = first_round_wipes(cover, child.masks)
                assert bool(doomed >> b & 1) == wiped, (cover, dom, var, b)
                if wiped:
                    held = sum(child.size(v) for v in scope)
                    removed = cover.propagate(child)
                    assert len(removed) == count == held, (cover, dom, var, b)
                    assert all(child.is_empty(v) for v in scope), (cover, dom, var, b)
                    outcomes["doomed"] += 1
                else:
                    outcomes["spared"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_value_cover_lookahead_names_exactly_the_quiet_children():
    # The full lookahead's quiet mask holds exactly the values b whose
    # child, var = {b}, propagate leaves as it is with a plain [], not
    # ENTAILED; a child that some variable's singleton or b itself covers
    # completely is entailed, not quiet. A var outside the scope gives 0,
    # and no value is both quiet and doomed.
    rng = make_rng(29)
    outcomes = {"quiet": 0, "entailed": 0, "removes": 0, "outside": 0}
    for _ in range(3000):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        dom = random_domains(rng, n, m)
        scope = rng.sample(range(n), rng.randint(1, n))
        values = rng.sample(range(1, m + 2), rng.randint(1, min(m + 1, len(scope) + 1)))
        for var in range(n):
            roll = rng.random()
            if roll < 0.05:
                dom.masks[var] = 0
            elif roll < 0.5:
                dom.masks[var] = 1 << rng.choice(values + dom.values(var))
        cover = cover_of([DisjunctionEq(value, rng.sample(scope, len(scope)))
                          for value in values])
        for var in range(n):
            before = dom.copy()
            doomed, _, quiet = full_lookahead(cover, dom.masks, var)
            assert dom == before
            if var not in scope:
                assert quiet == 0
                outcomes["outside"] += 1
                continue
            assert quiet & ~dom.masks[var] == 0 and quiet & doomed == 0, (cover, dom, var)
            for b in dom.values(var):
                child = dom.copy()
                child.assign(var, b)
                entered = child.copy()
                removed = cover.propagate(child)
                is_quiet = not removed and removed is not ENTAILED and child == entered
                assert bool(quiet >> b & 1) == is_quiet, (cover, dom, var, b)
                if is_quiet:
                    outcomes["quiet"] += 1
                elif removed is ENTAILED:
                    outcomes["entailed"] += 1
                else:
                    outcomes["removes"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_value_cover_lookahead_reads_assigned_variables_from_a_summary():
    # Any singleton scope variables other than var (the assigned ones) may
    # be passed as a summary, (the union of their values, the values two or
    # more of them take, how many they are), and the rest scanned in any
    # order: the answer is exactly the full scan's. Scopes cover part of
    # the variables in shuffled order, summarised values repeat, free
    # variables may be singletons too, and var may lie outside the scope.
    rng = make_rng(30)
    outcomes = {"summarised": 0, "repeats": 0, "free_singleton": 0, "outside": 0,
                "doomed": 0, "quiet": 0}
    for _ in range(3000):
        n, m = rng.randint(2, 8), rng.randint(1, 6)
        dom = random_domains(rng, n, m)
        scope = rng.sample(range(n), rng.randint(1, n))
        values = rng.sample(range(1, m + 2), rng.randint(1, min(m + 1, len(scope) + 1)))
        cover = cover_of([DisjunctionEq(value, rng.sample(scope, len(scope)))
                          for value in values])
        assigned = set()
        for var in range(n):
            roll = rng.random()
            if roll < 0.05:
                dom.masks[var] = 0
            elif roll < 0.7:
                dom.masks[var] = 1 << rng.choice(values + dom.values(var))
                if rng.random() < 0.7:
                    assigned.add(var)
        for var in range(n):
            others = [v for v in cover.scope if v != var]
            summarised = [v for v in others if v in assigned]
            taken = Counter(dom.values(v)[0] for v in summarised)
            summary = (sum(1 << value for value in taken),
                       sum(1 << value for value, k in taken.items() if k > 1),
                       len(summarised))
            scan = [v for v in others if v not in assigned]
            rng.shuffle(scan)
            before = dom.copy()
            got = cover.lookahead(dom.masks, var, scan, summary)
            assert dom == before
            assert got == full_lookahead(cover, dom.masks, var), (cover, dom, var, summarised)
            outcomes["summarised"] += bool(summarised)
            outcomes["repeats"] += bool(summary[1])
            outcomes["free_singleton"] += any(dom.size(v) == 1 for v in scan)
            outcomes["outside"] += var not in scope
            outcomes["doomed"] += bool(got[0])
            outcomes["quiet"] += bool(got[2])
    assert min(outcomes.values()) >= 100, outcomes


def test_lex_lookahead_names_only_children_the_filter_wipes():
    # doomed(masks, var) may miss values, but every value it names must
    # wipe the filter's call on var = {b}, and on any subdomain of that
    # child, with the count that the kernel's lookahead over the same
    # variable set gives. When every position before var is a singleton its
    # permutation fixes, each b with sigma(b) < b is named.
    rng = make_rng(28)
    outcomes = {"doomed": 0, "prefix": 0, "outside": 0}
    for _ in range(3000):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        size = rng.randint(1, m)
        img = list(range(1, size + 1))
        rng.shuffle(img)
        perm = Permutation(img)
        dom = DomainSet.from_values(
            [rng.sample(range(1, m + 3), rng.randint(1, m + 2)) for _ in range(n)])
        scope = rng.sample(range(n), rng.randint(1, n))
        lex = LexLeqPermuted(perm, scope)
        fixed = [v for v in range(1, m + 3) if perm(v) == v]
        if fixed:
            for var in scope[:rng.randint(0, len(scope))]:
                dom.masks[var] = 1 << rng.choice(fixed)
        cover = cover_of([DisjunctionEq(rng.randint(1, m + 2), rng.sample(scope, len(scope)))
                          for _ in range(rng.randint(1, m))])
        for var in range(n):
            before = dom.copy()
            doomed = lex.doomed(dom.masks, var)
            assert dom == before
            if var not in scope:
                assert doomed == 0
                outcomes["outside"] += 1
                continue
            count = full_lookahead(cover, dom.masks, var)[1]
            assert doomed & ~dom.masks[var] == 0, (lex, dom, var)
            prefix = scope[:scope.index(var)]
            if all(dom.size(v) == 1 and perm(dom.values(v)[0]) == dom.values(v)[0] for v in prefix):
                outcomes["prefix"] += 1
                assert doomed == sum(1 << b for b in dom.values(var) if perm(b) < b), (lex, dom, var)
            for b in dom.values(var):
                if not doomed >> b & 1:
                    continue
                child = dom.copy()
                child.assign(var, b)
                held = sum(child.size(v) for v in scope)
                sub = random_subdomain(rng, child)
                removed = lex.propagate(child)
                assert len(removed) == count == held, (lex, dom, var, b)
                assert all(child.is_empty(v) for v in scope), (lex, dom, var, b)
                lex.propagate(sub)
                assert all(sub.is_empty(v) for v in scope), (lex, dom, var, b)
                outcomes["doomed"] += 1
    assert min(outcomes.values()) >= 100, outcomes


# ------------------------------------------------------------------ guarded

def test_conditional_fires_only_when_parity_entailed():
    inner = DisjunctionEq(4, [1, 2])
    dormant = DomainSet.from_values([[9, 10], [1, 2], [1, 2]])
    assert Conditional(0, "odd", inner).propagate(dormant) == []

    active = DomainSet.from_values([[9], [1, 2], [1, 2]])
    c = Conditional(0, "odd", inner)
    removed = c.propagate(active)
    assert active.has_wipeout() and removed


def test_conditional_check_semantics():
    c = Conditional(3, "odd", AtLeastNValues(3, 3))
    assert c.check([1, 2, 3, 9])
    assert not c.check([1, 1, 2, 9])
    assert c.check([1, 1, 2, 8])  # guard fails, constraint holds


def test_checker_only_constraint_never_prunes():
    dom = DomainSet.from_values([[1, 2], [1, 2], [1, 2]])
    assert AtLeastNValues(3, 3).propagate(dom) == []


# -------------------------------------------------------------- idempotence

def random_filters(rng, n, m):
    """One filter of each kind over n variables and values 1..m."""
    img = list(range(1, m + 1))
    rng.shuffle(img)
    cls = sorted(rng.sample(range(1, m + 1), rng.randint(2, m)))
    binaries = [rng.choice(kind(*rng.sample(range(n), 2), m)) for kind in BINARY_KINDS]
    inner = rng.choice(binaries + [DisjunctionEq(rng.randint(1, m), range(1, n))])
    return [
        Precedence(cls, range(n)),
        LexLeqPermuted(Permutation(img), range(n)),
        DisjunctionEq(rng.randint(1, m), range(n)),
        *binaries,
        Conditional(0, rng.choice(["odd", "even"]), inner),
    ]


def test_filters_are_idempotent():
    # PropagationEngine does not re-queue a constraint after its own
    # removals; that is sound only if a second call removes nothing
    rng = make_rng(9)
    for _ in range(400):
        n, m = rng.randint(2, 6), rng.randint(2, 6)
        dom = random_domains(rng, n, m)
        for c in random_filters(rng, n, m):
            once = dom.copy()
            c.propagate(once)
            assert c.propagate(once) == [], (c, dom)


def random_subdomain(rng, dom):
    """A domain inside dom that keeps at least one value of every non-empty
    variable."""
    lists = []
    for var in range(len(dom)):
        values = dom.values(var)
        lists.append(rng.sample(values, rng.randint(1, len(values))) if values else [])
    return DomainSet.from_values(lists)


def test_entailed_filters_stay_noops_on_subdomains():
    # A filter returns ENTAILED only when its constraint holds on every
    # non-empty subdomain of what it leaves, so that no later call can
    # remove anything: the engine never wakes it again. Every kind that
    # reports it must be seen doing so, including through Conditional.
    rng = make_rng(12)
    seen = set()
    for _ in range(400):
        n, m = rng.randint(2, 6), rng.randint(2, 6)
        dom = random_domains(rng, n, m)
        for c in random_filters(rng, n, m):
            after = dom.copy()
            if c.propagate(after) is not ENTAILED:
                continue
            assert after == dom, (c, dom)
            seen.add(type(c))
            for _ in range(8):
                sub = random_subdomain(rng, after)
                before = sub.copy()
                assert c.propagate(sub) == [] and sub == before, (c, dom, before)
    assert seen == {Precedence, LexLeqPermuted, DisjunctionEq, EqImpliesLeq, EqImpliesEq, Conditional}
    assert ENTAILED == [] and ENTAILED.__class__ is list


def test_filters_are_monotone():
    # On D' inside D, a filter leaves D' inside what it leaves of D. The
    # engine's unique fixpoint, and each reuse of a fixpoint's flags on a
    # subdomain, rests on this.
    rng = make_rng(13)
    checks = wiped = 0
    for _ in range(1000):
        n, m = rng.randint(2, 6), rng.randint(2, 6)
        dom = random_domains(rng, n, m)
        cover = cover_of([DisjunctionEq(rng.randint(1, m), rng.sample(range(n), n))
                          for _ in range(rng.randint(1, m))])
        for c in random_filters(rng, n, m) + [cover]:
            sub = random_subdomain(rng, dom)
            if rng.random() < 0.5:
                sub = random_subdomain(rng, sub)
            big, small = dom.copy(), sub.copy()
            c.propagate(big)
            c.propagate(small)
            assert all(s & ~b == 0 for s, b in zip(small.masks, big.masks)), (c, dom, sub)
            checks += 1
            wiped += small.has_wipeout()
    assert checks >= 9000 and wiped >= 100, (checks, wiped)


def test_removal_records_keep_the_removal_list_contract():
    # What a filter returns stands for the list of removed (var, value)
    # pairs: its length, its pairs (write order, ascending within a write,
    # none twice) and the domain it lost must all agree, and the engine must
    # count the same removals with and without a log. One variable can take
    # several writes in a call (the lex filter channels bit by bit), so the
    # pairs need not ascend across a run of one variable.
    rng = make_rng(10)
    for _ in range(300):
        n, m = rng.randint(2, 6), rng.randint(2, 6)
        dom = random_domains(rng, n, m)
        for c in random_filters(rng, n, m):
            after = dom.copy()
            removed = c.propagate(after)
            pairs = list(removed)
            assert len(removed) == len(pairs), (c, dom)
            assert len(set(pairs)) == len(pairs), (c, dom, pairs)
            if pairs:
                in_writes = [(var, value) for var, lost in removed.writes
                             for value in range(lost.bit_length()) if lost >> value & 1]
                assert all(lost for _, lost in removed.writes) and pairs == in_writes, (c, dom)
            else:
                assert removed.__class__ is list, (c, dom)
            gone = {(var, value)
                    for var in range(n) for value in range(1, m + 1)
                    if dom.contains(var, value) and not after.contains(var, value)}
            assert set(pairs) == gone, (c, dom, pairs)
            assert removed == pairs and (removed == []) == (not pairs)

            engine = PropagationEngine([c], n)
            logged, unlogged, log = dom.copy(), dom.copy(), []
            count, wiped = engine.run(logged, log=log)
            assert count == len(log), (c, dom)
            assert engine.run(unlogged) == (count, wiped) and unlogged == logged, (c, dom)


def test_wipe_scope_records_every_remaining_value_in_scope_order():
    # Expanded here from the domains before the call: one write per
    # non-empty scope variable, in scope order, values ascending.
    rng = make_rng(11)
    for _ in range(300):
        n, m = rng.randint(1, 7), rng.randint(1, 6)
        dom = random_domains(rng, n, m)
        for var in range(n):
            if rng.random() < 0.25:
                dom.masks[var] = 0
        scope = rng.sample(range(n), rng.randint(1, n))
        expected = [(var, value) for var in scope for value in range(1, m + 1)
                    if dom.contains(var, value)]
        masks = list(dom.masks)
        removed = _wipe_scope(masks, scope, [])
        assert list(removed) == expected, (scope, dom)
        if expected:
            assert removed.count == len(list(removed))
        else:
            assert removed.__class__ is list
        assert all(masks[var] == 0 for var in scope)
        assert all(masks[var] == dom.masks[var] for var in range(n) if var not in scope)

        masks = list(dom.masks)
        outside = [var for var in range(n) if var not in scope and masks[var]]
        if not outside:
            continue
        head = _narrow(masks, outside[0], 0, [])
        prior = list(head)
        removed = _wipe_scope(masks, scope, head)
        assert removed is head and list(removed) == prior + expected, (scope, dom)
        assert removed.count == len(list(removed))
        assert all(masks[var] == 0 for var in scope)


# ------------------------------------------------------------ precedence cost

def test_precedence_filter_cost_scales_linearly():
    # wall time across one class should track n*m: factor 3 slack on the
    # per-cell cost fitted at the smallest size
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
    for n in (5000, 10000):
        assert timings[n] <= 3.0 * unit * n * m, timings
