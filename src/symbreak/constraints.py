"""Constraint checkers and domain filters.

Every constraint knows its scope, can test a total assignment of its scope,
and can filter a DomainSet to the consistency level stated in its docstring:
generalized arc consistency for the global constraints, arc consistency for
the binary ones. A filter call returns what it removed as an
`engine.Removals` record, or a plain `[]` when it removed nothing. The record
holds one (var, lost mask) write per narrowing plus the number of removed
values; it behaves as the list of removed (var, value) pairs (length,
iteration, equality with a list), but those pairs are only built when someone
iterates it, which the propagation engine does only to fill a log.

Filters remove exactly the values that have no support, including the case
where the constraint has become unsatisfiable: then every remaining value of
every scope variable is unsupported and all of them are removed. This keeps
each filter's output identical to the brute-force support enumeration across
the whole domain lattice, wipeouts included.

Every filter writes domains through two helpers, the only places in this
module that clear domain bits and record removals: `_narrow` keeps part of
one variable's domain, and `_wipe_scope` empties a whole scope. A removal
record therefore yields its pairs in write order, ascending by value within
each write, and no pair twice, since a cleared value never returns.

Most filter calls remove nothing. `_EqImplies`, the channelling kind the
dual (Puget) encoding posts 2nm times, therefore tests for that first and
returns `[]` before any revise when its two masks show that both sides keep
everything: the test holds exactly when `keep_a` and `keep_b` would keep
both masks, so it skips no call that removes something.

`StrictLess` and `ParityLink` make the same kind of exact no-op test before
their revises: for `StrictLess(a<b)` nothing goes when max a < max b and
min b > min a, which on masks read `ma < 1 << (mb.bit_length() - 1)` and
`mb & -mb > ma & -ma`.

A filter that removes nothing may return `engine.ENTAILED` instead of a fresh
`[]`: its constraint then holds on every non-empty subdomain of the domain it
saw, so no later call can remove anything, and the engine never wakes it
again in that run (nor `solve` below that search node, nor a SAC probe below
the fixpoint that found it). Every kind with a filter reports it, each only
where that is exact, and each from what its own no-op test or sweep already
reads, without a further pass over its scope:

- `DisjunctionEq`, when a scope variable is exactly {value}: that variable
  keeps the value on every non-empty subdomain.
- `ValueCover`, when that holds for every needed value, as it then does
  for every member.
- `_EqImplies`, inside its no-op test, when `a` lacks the trigger (the
  implication holds vacuously) or every value of `b` is in the target (it
  holds whatever `a` takes): on a non-empty subdomain the no-op test still
  holds, so neither revise removes anything.
- `ParityLink`, in the same shape, when `a` has no value of the condition
  parity or `b` holds only values of the target parity.
- `StrictLess(a<b)`, when both masks are non-empty and max a < min b, that
  is `ma < mb & -mb`: every value of a subdomain of `a` stays below every
  value of a subdomain of `b`.
- `LexLeqPermuted`, only on a call that removed nothing, in two cases. At
  beta, when every earlier position is a singleton tie (a fixed point of
  the permutation) and max L < min image(L): on a subdomain L' of L,
  image(L') lies inside image(L), so every value of L' falls strictly below
  its own image and the comparison settles there; the filter, which meets
  the same case at the same beta, removes nothing. And when every position
  is a singleton tie: the vector equals its image on the only subdomain.
- `Precedence`, when the leading singleton positions of its scope reach
  class level s (a singleton prefix that passes the forward sweep is a
  valid restricted-growth prefix) and no later position holds a class value
  above level s+1: whatever the later positions take, each class value is
  at most one level above the levels already used, so the constraint holds
  on every assignment. The forward sweep reads both facts, and the filter
  returns before the backward sweep, which would keep every value.
- `Conditional`, by passing on its inner filter's return: a guard that holds
  on every remaining value of its variable holds on every non-empty subset.
  And when the guard holds on no remaining value: the constraint then holds
  vacuously on every subdomain.

`ENTAILED` is a plain empty list shared by every caller, so never mutate a
filter's return.

Constraints are immutable after construction and keep no state between calls.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from .engine import ENTAILED, DomainSet, Removals, bits_of, mask_of

Removed = Union[Removals, list]  # a filter's return: a record, or [] for none


def _narrow(masks: list[int], var: int, kept: int, removed: Removed) -> Removed:
    """Clear the bits of masks[var] outside kept and return removed with the
    write recorded. removed is [] until the first removal, which returns a
    new Removals record instead; a write that clears nothing records nothing."""
    lost = masks[var] & ~kept
    if not lost:
        return removed
    masks[var] ^= lost
    if removed.__class__ is list:
        removed = Removals()
        removed.writes = [(var, lost)]
        removed.count = lost.bit_count()
    else:
        removed.writes.append((var, lost))
        removed.count += lost.bit_count()
    return removed


def _wipe_scope(masks: list[int], scope: Sequence[int], removed: Removed) -> Removed:
    """Empty every scope variable, in one pass: the constraint has no support
    at all. Records the same writes, in scope order, as one `_narrow(masks,
    var, 0, removed)` per scope variable would."""
    writes = []
    count = 0
    for var in scope:
        lost = masks[var]
        if lost:
            writes.append((var, lost))
            count += lost.bit_count()
            masks[var] = 0
    if not writes:
        return removed
    if removed.__class__ is list:
        removed = Removals()
        removed.writes = writes
        removed.count = count
    else:
        removed.writes += writes
        removed.count += count
    return removed


def _distinct_scope(scope: Sequence[int]) -> tuple[int, ...]:
    # A repeated variable would break the filters' strength and idempotence.
    scope = tuple(scope)
    if len(set(scope)) != len(scope):
        raise ValueError(f"scope {list(scope)} repeats a variable")
    return scope


def value_parity(value: int) -> str:
    return "odd" if value & 1 else "even"


def _parity_mask(parity: str, width: int) -> int:
    """The values of the given parity below `width`, and perhaps a few
    above. The parity classes are infinite bit patterns, so they are cut to
    cover the masks in play: (4**k - 1) // 3 sets bits 0, 2, ..., 2k - 2."""
    even = (4 ** (width // 2 + 1) - 1) // 3
    return even << 1 if parity == "odd" else even


class Permutation:
    """A bijection on the values 1..size; identity outside the points it moves."""

    __slots__ = ("size", "image")

    def __init__(self, image: Sequence[int]):
        img = tuple(image)
        if sorted(img) != list(range(1, len(img) + 1)):
            raise ValueError(f"image {list(img)} is not a permutation of 1..{len(img)}")
        self.size = len(img)
        self.image = img

    @classmethod
    def identity(cls, size: int) -> "Permutation":
        return cls(tuple(range(1, size + 1)))

    @classmethod
    def transposition(cls, size: int, a: int, b: int) -> "Permutation":
        if not (1 <= a <= size and 1 <= b <= size):
            raise ValueError(f"transposition ({a} {b}) outside 1..{size}")
        img = list(range(1, size + 1))
        img[a - 1], img[b - 1] = b, a
        return cls(img)

    def __call__(self, value: int) -> int:
        if 1 <= value <= self.size:
            return self.image[value - 1]
        return value

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(v) == self(other(v))."""
        size = max(self.size, other.size)
        return Permutation(tuple(self(other(v)) for v in range(1, size + 1)))

    def inverse(self) -> "Permutation":
        img = [0] * self.size
        for v, s in enumerate(self.image, start=1):
            img[s - 1] = v
        return Permutation(img)

    def is_identity(self) -> bool:
        return all(s == v for v, s in enumerate(self.image, start=1))

    def moved_points(self) -> list[tuple[int, int]]:
        return [(v, s) for v, s in enumerate(self.image, start=1) if v != s]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __repr__(self) -> str:
        moved = ",".join(f"{v}>{s}" for v, s in self.moved_points())
        return f"Permutation({moved or 'id'})"


class Constraint:
    """Base class: subclasses set `scope` and implement check and propagate.

    It has no instance fields of its own (empty `__slots__`), so a subclass
    that declares its fields in `__slots__` gets instances without a dict.

    `checks_partial` is True for a kind whose `check` accepts a vector with
    None for unassigned variables and returns False only when no completion
    of those None entries satisfies the constraint. The enumeration oracles
    then check it on every prefix of their assignment order and stop
    extending a prefix it rejects; their budgets still count the full domain
    product. Every other kind is checked only once its scope is assigned.
    """

    __slots__ = ()
    scope: tuple[int, ...] = ()
    checks_partial = False

    def check(self, assignment: Sequence[Optional[int]]) -> bool:
        raise NotImplementedError

    def propagate(self, dom: DomainSet) -> Removed:
        """Filter dom in place. Return a `Removals` record of what was
        removed, or [] when nothing was: its length is the number of removed
        (var, value) pairs, iterating it yields them (write order, ascending
        within a write) and it compares equal to the list of them."""
        return []

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.describe()


class LexLeqPermuted(Constraint):
    """The assignment vector is lexicographically at most its image under a
    value permutation.

    Satisfaction reads one shared assignment: position i compares the value
    against its own image, and the first position where they differ must fall
    below it. The filter, though, works at the strength of the usual
    decomposition into a lex ordering over two vectors: the image side is
    treated as an independent vector ranging over the mapped domains, and
    removals on it channel back through the value map. That is deliberately
    weaker than support enumeration over the shared assignment; the gap is
    the price the decomposition pays, and several comparison experiments in
    this package measure exactly that gap.
    """

    def __init__(self, perm: Permutation, order: Sequence[int]):
        self.perm = perm
        self.order = self.scope = _distinct_scope(order)
        # The image of a domain mask moves only the bits of the moved points
        # (two for a transposition); every other bit, including values above
        # perm.size, maps to itself.
        moved = perm.moved_points()
        self._fixed = ~mask_of(v for v, _ in moved)
        self._moved = tuple((1 << v, 1 << s) for v, s in moved)
        self._preimage = {s: v for v, s in moved}

    def check(self, assignment) -> bool:
        perm = self.perm
        for var in self.order:
            v = assignment[var]
            s = perm(v)
            if v < s:
                return True
            if v > s:
                return False
        return True

    def _image(self, mask: int) -> int:
        image = mask & self._fixed
        for src, dst in self._moved:
            if mask & src:
                image |= dst
        return image

    def _can_settle(self, masks: list[int], p: int) -> bool:
        """Whether positions p.. can still settle the comparison as <=: the
        first position that can fall strictly below its image comes before
        the first one that cannot tie (or every position can tie)."""
        order = self.order
        image = self._image
        for var in order[p:]:
            left = masks[var]
            right = image(left)
            if (left & -left) << 1 <= right:
                return True
            if not left & right:
                return False
        return True

    def propagate(self, dom: DomainSet) -> Removed:
        # Frisch et al.'s alpha/beta scheme on masks. Position p holds the
        # left mask L (the domain) and the right mask R (its image). It can
        # fall strictly below iff min L < max R, which for masks reads
        # 2 * lowbit(L) <= R; it can tie iff L & R. Scanning forward, the
        # first position that can fall below is beta; meeting a position that
        # can do neither first means no support. Positions before beta can
        # only tie, at the one common value c = min L = max R, so they keep c
        # on both sides; beta keeps left values below max R and right values
        # above min L, plus the tie values when the tail can settle the
        # comparison. A removal at p changes only position p, and the
        # positions before it keep nothing but c, so the scan resumes at p.
        masks = dom.masks
        order = self.order
        n = len(order)
        image = self._image
        preimage = self._preimage
        removed: Removed = []
        if not all(map(masks.__getitem__, order)):
            return _wipe_scope(masks, order, removed)  # an empty position has no support
        start = 0
        while True:
            dirty = -1
            p = start
            while p < n:
                left = masks[order[p]]
                right = image(left)
                low = left & -left
                if low << 1 <= right:
                    break  # beta
                if not left & right:
                    # Nothing so far can fall below, and this cannot tie.
                    return _wipe_scope(masks, order, removed)
                if dirty < 0 and left != right:
                    dirty, dirty_left, dirty_right = p, left, right
                p += 1
            if dirty >= 0:
                # A tie-only position holding more than c; the tail after it
                # can always settle, since it ties up to beta or to the end.
                p, left, right = dirty, dirty_left, dirty_right
                low = left & -left
            elif p == n:
                # Every position ties at its c already, on its only subdomain.
                return removed or ENTAILED
            elif left < right & -right and not removed:
                return ENTAILED  # singleton ties, then max L < min image(L)
            high = 1 << (right.bit_length() - 1)
            left_out = left & -(high << 1)  # above max R
            right_out = right & (low - 1)  # below min L
            if dirty < 0 and (left & high or right & low) and not self._can_settle(masks, p + 1):
                left_out |= left & high
                right_out |= right & low
            if not (left_out or right_out):
                return removed
            var = order[p]
            removed = _narrow(masks, var, ~left_out, removed)
            for w in bits_of(right_out):
                removed = _narrow(masks, var, ~(1 << preimage.get(w, w)), removed)
            if not masks[var]:
                # Channelling emptied the position: the decomposition has
                # no support left anywhere.
                return _wipe_scope(masks, order, removed)
            start = p

    def describe(self) -> str:
        moved = ",".join(f"{a}<->{b}" for a, b in self.perm.moved_points() if a < b)
        tag = moved or "id"
        return f"lex_leq_permuted({tag})"


class Precedence(Constraint):
    """Within one class of interchangeable values, the k-th class value may be
    used only after the first k-1 have appeared, scanning the scope in order.

    Equivalently the class-value subsequence is a restricted-growth string
    over the class. The filter achieves GAC in O(n*m): a forward sweep finds
    the highest reachable first-use level before each position, a backward
    sweep the minimum level each suffix demands, and a value survives iff the
    two meet.

    `check` scans the scope up to the first unassigned (None) variable: a
    violation before it holds in every completion, whatever the scope order.
    """

    checks_partial = True

    def __init__(self, class_values: Sequence[int], scope: Sequence[int]):
        values = tuple(class_values)
        if list(values) != sorted(set(values)):
            raise ValueError("class values must be strictly ascending")
        self.class_values = values
        self.scope = _distinct_scope(scope)
        self.level_of = {v: t for t, v in enumerate(values, start=1)}
        self.class_mask = mask_of(values)
        # prefix_masks[k] covers the first k class values
        masks = [0]
        for v in values:
            masks.append(masks[-1] | (1 << v))
        self.prefix_masks = masks

    def check(self, assignment) -> bool:
        seen = 0
        level_of = self.level_of
        for var in self.scope:
            value = assignment[var]
            if value is None:
                return True
            t = level_of.get(value)
            if t is None:
                continue
            if t == seen + 1:
                seen += 1
            elif t > seen:
                return False
        return True

    def propagate(self, dom: DomainSet) -> Removed:
        scope = self.scope
        values = self.class_values
        c = len(values)
        class_mask = self.class_mask
        prefix_masks = self.prefix_masks
        masks = dom.masks

        # Forward: highest first-use level reachable before each position,
        # while checking that every position keeps at least one usable value.
        # lead is the level the leading singleton positions reach, set at the
        # first wider position; later is the union of the masks from there.
        n = len(scope)
        reach_before = [0] * n
        reach = 0
        lead = -1
        later = 0
        for p, var in enumerate(scope):
            reach_before[p] = reach
            m = masks[var]
            if not m & (~class_mask | prefix_masks[min(reach + 1, c)]):
                return _wipe_scope(masks, scope, [])
            if lead >= 0:
                later |= m
            elif m & (m - 1):
                lead = reach
                later = m
            if reach < c and m >> values[reach] & 1:
                reach += 1
        if lead < 0 or not later & class_mask & ~prefix_masks[min(lead + 1, c)]:
            return ENTAILED  # no later value can open a level out of turn

        # Backward: minimum level needed before each position so that the
        # suffix can still be completed.
        need = [0] * (n + 1)
        for p in range(n - 1, -1, -1):
            m = masks[scope[p]]
            if m & ~class_mask:
                minfeas = 0
            else:
                lowest = (m & class_mask) & -(m & class_mask)
                minfeas = self.level_of[lowest.bit_length() - 1] - 1
            nxt = need[p + 1]
            if nxt >= 1 and m >> values[nxt - 1] & 1:
                cand = nxt - 1
            else:
                cand = nxt
            need[p] = max(minfeas, cand)

        # A class value of level t survives iff t <= rb + 1 and max(rb, t) >= gn,
        # any other value iff rb >= gn; so with rb < gn only level gn == rb + 1.
        removed: Removed = []
        for p, var in enumerate(scope):
            rb = reach_before[p]
            gn = need[p + 1]
            usable = prefix_masks[min(rb + 1, c)]
            if rb >= gn:
                kept = usable | ~class_mask
            else:
                kept = usable & ~prefix_masks[gn - 1]
            removed = _narrow(masks, var, kept, removed)
        return removed

    def describe(self) -> str:
        return f"precedence({','.join(map(str, self.class_values))})"


class BinaryConstraint(Constraint):
    """Shared arc-consistency filter for two distinct variables a and b.

    Subclasses define allows(a_value, b_value) for the checker, and two
    closed-form support masks for the filter: keep_a(ma, mb) is the part of
    a's domain mask ma with a support in b's mask mb, and keep_b(mb, ma) the
    part of mb with a support in ma. Either is empty when the other side is.
    One revise of each side (the second against the already revised first)
    reaches AC for a single binary constraint; if one side empties, the other
    follows, matching support enumeration exactly. Each revise costs a few
    integer operations, whatever the domain sizes.
    """

    __slots__ = ("scope",)

    def __init__(self, a: int, b: int):
        if a == b:
            raise ValueError(f"binary constraint needs two distinct variables, got X{a} twice")
        self.scope = (a, b)

    def allows(self, va: int, vb: int) -> bool:
        raise NotImplementedError

    def keep_a(self, ma: int, mb: int) -> int:
        raise NotImplementedError

    def keep_b(self, mb: int, ma: int) -> int:
        raise NotImplementedError

    def check(self, assignment) -> bool:
        a, b = self.scope
        return self.allows(assignment[a], assignment[b])

    def propagate(self, dom: DomainSet) -> Removed:
        a, b = self.scope
        masks = dom.masks
        removed: Removed = []
        ma = masks[a]
        kept = self.keep_a(ma, masks[b])
        if kept != ma:
            removed = _narrow(masks, a, kept, removed)
        mb = masks[b]
        kept = self.keep_b(mb, masks[a])
        if kept != mb:
            removed = _narrow(masks, b, kept, removed)
        return removed


class _EqImplies(BinaryConstraint):
    """a == value implies b in the target mask: every other value of a is
    supported by any value of b, and every value of b by any other value of a.

    The target is the values up to other_value (`_up_to`) or other_value
    alone; either way other_value is the target's top bit.
    """

    __slots__ = ("value", "_trigger", "_target")
    _up_to = False

    def __init__(self, var: int, value: int, other_var: int, other_value: int):
        # One frame, no super() call: the Puget encoding builds 2nm of these.
        if var == other_var:
            raise ValueError(f"binary constraint needs two distinct variables, got X{var} twice")
        self.scope = (var, other_var)
        self.value = value
        self._trigger = 1 << value
        self._target = (2 << other_value) - 1 if self._up_to else 1 << other_value

    def allows(self, va: int, vb: int) -> bool:
        return va != self.value or self._target >> vb & 1 == 1

    def keep_a(self, ma: int, mb: int) -> int:
        if mb & self._target:
            return ma
        return ma & ~self._trigger if mb else 0

    def keep_b(self, mb: int, ma: int) -> int:
        if ma & ~self._trigger:
            return mb
        return mb & self._target if ma else 0

    def propagate(self, dom: DomainSet) -> Removed:
        # Exact no-op test: a keeps a value other than the trigger, so b
        # keeps all of mb; and a keeps all of ma when b is non-empty and
        # either reaches the target or a lacks the trigger. Only a call that
        # may remove something pays for the two revises.
        a, b = self.scope
        masks = dom.masks
        ma = masks[a]
        mb = masks[b]
        # Within that test the constraint is entailed when a lacks the
        # trigger or b keeps only target values: it then holds, and the test
        # stays true, on every non-empty subdomain.
        trigger = self._trigger
        if ma & ~trigger and mb:
            target = self._target
            if not ma & trigger or not mb & ~target:
                return ENTAILED
            if mb & target:
                return []
        return BinaryConstraint.propagate(self, dom)


class EqImpliesLeq(_EqImplies):
    """If the first variable takes the trigger value, the second stays at or
    below the bound."""

    __slots__ = ()
    _up_to = True

    @property
    def bound(self) -> int:
        return self._target.bit_length() - 1

    def describe(self) -> str:
        a, b = self.scope
        return f"eq_implies_leq(X{a}={self.value} -> X{b}<={self.bound})"


class EqImpliesEq(_EqImplies):
    """If the first variable takes the trigger value, the second is pinned."""

    __slots__ = ()

    @property
    def other_value(self) -> int:
        return self._target.bit_length() - 1

    def describe(self) -> str:
        a, b = self.scope
        return f"eq_implies_eq(X{a}={self.value} -> X{b}={self.other_value})"


class StrictLess(BinaryConstraint):
    """The first variable is strictly below the second."""

    __slots__ = ()

    def allows(self, va: int, vb: int) -> bool:
        return va < vb

    def keep_a(self, ma: int, mb: int) -> int:
        # values below b's largest
        return ma & ((1 << (mb.bit_length() - 1)) - 1) if mb else 0

    def keep_b(self, mb: int, ma: int) -> int:
        # values above a's smallest; ma == 0 gives the empty mask
        return mb & -((ma & -ma) << 1)

    def propagate(self, dom: DomainSet) -> Removed:
        # Entailed when all of a lies below b's smallest; otherwise an exact
        # no-op test: a keeps all of ma when it lies below b's largest, and
        # b all of mb when it lies above a's smallest. The lowbit comparison
        # comes first, since it implies mb != 0.
        a, b = self.scope
        masks = dom.masks
        ma = masks[a]
        if ma:
            mb = masks[b]
            low = mb & -mb
            if ma < low:
                return ENTAILED
            if low > ma & -ma and ma < 1 << (mb.bit_length() - 1):
                return []
        return BinaryConstraint.propagate(self, dom)

    def describe(self) -> str:
        a, b = self.scope
        return f"strict_less(X{a}<X{b})"


class ParityLink(BinaryConstraint):
    """If the condition variable's value has the given parity, the target
    variable's value has the target parity."""

    __slots__ = ("cond_parity", "target_parity")

    def __init__(self, cond_var: int, cond_parity: str, target_var: int, target_parity: str):
        super().__init__(cond_var, target_var)
        if cond_parity not in ("odd", "even") or target_parity not in ("odd", "even"):
            raise ValueError("parity must be 'odd' or 'even'")
        self.cond_parity = cond_parity
        self.target_parity = target_parity

    def allows(self, va: int, vb: int) -> bool:
        return value_parity(va) != self.cond_parity or value_parity(vb) == self.target_parity

    def _parity_masks(self, width: int) -> tuple[int, int]:
        return _parity_mask(self.cond_parity, width), _parity_mask(self.target_parity, width)

    def keep_a(self, ma: int, mb: int) -> int:
        cond, target = self._parity_masks((ma | mb).bit_length())
        if mb & target:
            return ma
        return ma & ~cond if mb else 0

    def keep_b(self, mb: int, ma: int) -> int:
        cond, target = self._parity_masks((ma | mb).bit_length())
        if ma & ~cond:
            return mb
        return mb & target if ma else 0

    def propagate(self, dom: DomainSet) -> Removed:
        # The no-op test and entailment of _EqImplies.propagate, with the
        # condition parity as the trigger and the target parity as the target.
        a, b = self.scope
        masks = dom.masks
        ma = masks[a]
        mb = masks[b]
        cond, target = self._parity_masks((ma | mb).bit_length())
        if ma & ~cond and mb:
            if not ma & cond or not mb & ~target:
                return ENTAILED
            if mb & target:
                return []
        return BinaryConstraint.propagate(self, dom)

    def describe(self) -> str:
        a, b = self.scope
        return f"parity_link({self.cond_parity}(X{a}) -> {self.target_parity}(X{b}))"


class DisjunctionEq(Constraint):
    """At least one scope variable takes the given value.

    GAC: with no candidate the constraint has no support and the whole scope
    wipes; with exactly one candidate that variable is pinned; with two or
    more, or one already assigned, every value everywhere is supported.
    """

    def __init__(self, value: int, scope: Sequence[int]):
        self.value = value
        self.scope = _distinct_scope(scope)

    def check(self, assignment) -> bool:
        value = self.value
        return any(assignment[var] == value for var in self.scope)

    def propagate(self, dom: DomainSet) -> Removed:
        bit = 1 << self.value
        masks = dom.masks
        first = -1
        for var in self.scope:
            m = masks[var]
            if m & bit:
                if m == bit:
                    return ENTAILED  # assigned the value: satisfied for good
                if first >= 0:
                    return []  # two candidates: nothing to prune
                first = var
        if first < 0:
            return _wipe_scope(masks, self.scope, [])
        return _narrow(masks, first, bit, [])

    def describe(self) -> str:
        return f"disjunction_eq(value={self.value})"


class ValueCover(Constraint):
    """The conjunction of `DisjunctionEq` members over one variable set: every
    member's value is taken somewhere in the scope.

    The filter computes the fixpoint of the members' filters, not GAC on the
    conjunction: a needed value with no candidate wipes the scope, a needed
    value with exactly one candidate pins that variable, and it repeats until
    no pin is left. Two needed values whose only candidate is the same
    variable cannot both be pinned, so that wipes the scope too, as the
    member of the value that loses its candidate would. Each round reads the
    scope once for a `seen` mask (values with a candidate) and a `twice`
    mask (values with two or more); a value is already covered when some
    variable is exactly {value}. The call is idempotent, since it stops only
    when nothing is left to pin, and it returns `ENTAILED` when every needed
    value is covered, the case where every member reports it.
    """

    def __init__(self, members: Sequence[DisjunctionEq]):
        members = tuple(members)
        if not members:
            raise ValueError("a value cover needs at least one disjunction")
        self.scope = members[0].scope
        if any(set(c.scope) != set(self.scope) for c in members):
            raise ValueError("value cover members must share one variable set")
        self.members = members
        self.needed = mask_of(c.value for c in members)

    def check(self, assignment) -> bool:
        return all(c.check(assignment) for c in self.members)

    def propagate(self, dom: DomainSet) -> Removed:
        masks = dom.masks
        scope = self.scope
        needed = self.needed
        removed: Removed = []
        while True:
            seen = twice = covered = 0
            for var in scope:
                m = masks[var]
                twice |= seen & m
                seen |= m
                if not m & (m - 1):
                    covered |= m
            if needed & ~seen:
                return _wipe_scope(masks, scope, removed)
            pins = needed & ~twice & ~covered
            if not pins:
                return removed if removed or needed & ~covered else ENTAILED
            for var in scope:
                hit = masks[var] & pins
                if hit:
                    if hit & (hit - 1):
                        return _wipe_scope(masks, scope, removed)
                    removed = _narrow(masks, var, hit, removed)

    def describe(self) -> str:
        return f"value_cover(values={','.join(str(c.value) for c in self.members)})"


class AtLeastNValues(Constraint):
    """The first prefix_length variables take at least distinct_count distinct
    values. Checker only; it deliberately has no filter."""

    def __init__(self, prefix_length: int, distinct_count: int):
        self.prefix_length = prefix_length
        self.distinct_count = distinct_count
        self.scope = tuple(range(prefix_length))

    def check(self, assignment) -> bool:
        return len({assignment[var] for var in self.scope}) >= self.distinct_count

    def describe(self) -> str:
        return f"at_least_n_values(prefix={self.prefix_length}, distinct={self.distinct_count})"


class Conditional(Constraint):
    """Guard a constraint behind the parity of one variable.

    Holds when the guard fails or the inner constraint holds. The filter runs
    the inner filter only once the guard is entailed, which here means every
    remaining value of the condition variable has the guard parity; when no
    remaining value has it, the constraint holds vacuously and is entailed.
    """

    def __init__(self, cond_var: int, cond_parity: str, inner: Constraint):
        if cond_parity not in ("odd", "even"):
            raise ValueError("parity must be 'odd' or 'even'")
        self.cond_var = cond_var
        self.cond_parity = cond_parity
        self.inner = inner
        extra = tuple(v for v in inner.scope if v != cond_var)
        self.scope = (cond_var,) + extra

    def check(self, assignment) -> bool:
        if value_parity(assignment[self.cond_var]) != self.cond_parity:
            return True
        return self.inner.check(assignment)

    def propagate(self, dom: DomainSet) -> Removed:
        m = dom.masks[self.cond_var]
        guard = _parity_mask(self.cond_parity, m.bit_length())
        if m & ~guard:
            return [] if m & guard else ENTAILED
        return self.inner.propagate(dom)

    def describe(self) -> str:
        return f"conditional({self.cond_parity}(X{self.cond_var}) -> {self.inner.describe()})"
