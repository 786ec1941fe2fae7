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
both masks, so it skips no call that removes something. `StrictLess` and
`ParityLink` make no such test: they run `BinaryConstraint.propagate` as it
is, since no workload of the lab calls them often.

A filter that removes nothing may return `engine.ENTAILED` instead of a fresh
`[]`: its constraint then holds on every non-empty subdomain of the domain it
saw, so no later call can remove anything, and the engine never wakes it
again in that run (nor `solve` below that search node, nor a SAC probe below
the fixpoint that found it). Every kind with a filter but `StrictLess` and
`ParityLink` reports it, each only where that is exact, and each from what
its own no-op test or sweep already reads, without a further pass over its
scope:

- The value-cover kernel (`ValueCover`, and `DisjunctionEq` as a cover
  with one needed value), when every needed value has a scope variable
  that is exactly {value}: that variable keeps the value on every
  non-empty subdomain.
- `_EqImplies`, inside its no-op test, when `a` lacks the trigger (the
  implication holds vacuously) or every value of `b` is in the target (it
  holds whatever `a` takes): on a non-empty subdomain the no-op test still
  holds, so neither revise removes anything.
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


# The last scope tuple `_distinct_scope` accepted, so that a tuple the builders
# pass to many constraints is checked once. It only ever holds a checked tuple,
# so threads that race on it at worst check a scope again.
_checked_scope: tuple[int, ...] = ()


def _distinct_scope(scope: Sequence[int]) -> tuple[int, ...]:
    # A repeated variable would break the filters' strength and idempotence.
    global _checked_scope
    if scope is _checked_scope:
        return scope
    scope = tuple(scope)
    if len(set(scope)) != len(scope):
        raise ValueError(f"scope {list(scope)} repeats a variable")
    _checked_scope = scope
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
    """A bijection on the values 1..size; identity outside the points it moves.

    It keeps only `size` and its moved points, as a dict value -> image, so a
    transposition costs O(1) whatever its size; `image` lists every value's
    image on demand."""

    __slots__ = ("size", "_points")

    def __init__(self, image: Sequence[int]):
        img = tuple(image)
        if sorted(img) != list(range(1, len(img) + 1)):
            raise ValueError(f"image {list(img)} is not a permutation of 1..{len(img)}")
        self.size = len(img)
        self._points = {v: s for v, s in enumerate(img, start=1) if v != s}

    @classmethod
    def _of(cls, size: int, points: dict) -> "Permutation":
        perm = cls.__new__(cls)
        perm.size = size
        perm._points = points
        return perm

    @classmethod
    def identity(cls, size: int) -> "Permutation":
        return cls._of(size, {})

    @classmethod
    def transposition(cls, size: int, a: int, b: int) -> "Permutation":
        if not (1 <= a <= size and 1 <= b <= size):
            raise ValueError(f"transposition ({a} {b}) outside 1..{size}")
        return cls._of(size, {a: b, b: a} if a != b else {})

    @property
    def image(self) -> tuple[int, ...]:
        """The images of 1..size, in order."""
        get = self._points.get
        return tuple(get(v, v) for v in range(1, self.size + 1))

    def __call__(self, value: int) -> int:
        return self._points.get(value, value)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(v) == self(other(v))."""
        points = {v: self(other(v)) for v in self._points.keys() | other._points.keys()}
        return Permutation._of(max(self.size, other.size), {v: s for v, s in points.items() if v != s})

    def inverse(self) -> "Permutation":
        return Permutation._of(self.size, {s: v for v, s in self._points.items()})

    def is_identity(self) -> bool:
        return not self._points

    def moved_points(self) -> list[tuple[int, int]]:
        return sorted(self._points.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and (self.size, self._points) == (other.size, other._points)

    def __hash__(self) -> int:
        return hash((self.size, frozenset(self._points.items())))

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
        self._moved_mask = mask_of(v for v, _ in moved)
        self._fixed = ~self._moved_mask
        self._moved = tuple((1 << v, 1 << s) for v, s in moved)
        self._preimage = {s: v for v, s in moved}
        self._descending = mask_of(v for v, s in moved if s < v)  # sigma(v) < v

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
        image = self._image
        moved = self._moved_mask
        for var in self.order[p:]:
            left = masks[var]
            if not (left & (left - 1) or left & moved):
                continue  # a fixed singleton ties
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
        moved = self._moved_mask
        removed: Removed = []
        if not all(map(masks.__getitem__, order)):
            return _wipe_scope(masks, order, removed)  # an empty position has no support
        start = 0
        while True:
            dirty = -1
            p = start
            while p < n:
                left = masks[order[p]]
                if not (left & (left - 1) or left & moved):
                    p += 1  # a fixed singleton: a tie at c = left, nothing dirty
                    continue
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

    def doomed(self, masks: list[int], var: int) -> int:
        """Values b of var whose child, masks with var set to {b}, this
        filter wipes out, as a submask of masks[var]. It names values only:
        the count such a wipeout removes is every value the child's scope
        holds, which `ValueCover.lookahead` gives over the same variable
        set. It may miss doomed values, never names a value that is not:
        when every position before var's is a singleton that the permutation
        fixes, it names the values b with sigma(b) < b. The scan ties at
        each of those positions and meets {b} against {sigma(b)} at var's,
        which can neither fall below nor tie, so the scope wipes. 0 when the
        prefix holds anything else, or when var is not in the scope.
        """
        moved = self._moved_mask
        for v in self.order:
            if v == var:
                return masks[var] & self._descending
            m = masks[v]
            if m & (m - 1) or m & moved:
                return 0
        return 0

    def describe(self) -> str:
        # An involution prints as its swaps, any other sigma as its moved
        # points, each value with its image.
        moved = self.perm.moved_points()
        if all(self.perm(s) == v for v, s in moved):
            tag = ",".join(f"{a}<->{b}" for a, b in moved if a < b)
        else:
            tag = ",".join(f"{v}>{s}" for v, s in moved)
        return f"lex_leq_permuted({tag or 'id'})"


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

    def describe(self) -> str:
        a, b = self.scope
        return f"parity_link({self.cond_parity}(X{a}) -> {self.target_parity}(X{b}))"


class ValueCover(Constraint):
    """The conjunction of one `DisjunctionEq` per value, its members, all
    over the variable set of scope: every value is taken somewhere in the
    scope.

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
    value is covered. `DisjunctionEq` runs this same kernel with one needed
    value.
    """

    def __init__(self, values: Sequence[int], scope: Sequence[int]):
        self.values = tuple(values)
        if not self.values:
            raise ValueError("a value cover needs at least one value")
        self.scope = _distinct_scope(scope)
        self.scope_set = frozenset(self.scope)
        self.needed = mask_of(self.values)

    def check(self, assignment) -> bool:
        return not self.needed & ~mask_of(assignment[var] for var in self.scope)

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

    def lookahead(
        self, masks: list[int], var: int, scan: Sequence[int], summary: tuple[int, int, int]
    ) -> tuple[int, int, int]:
        """What the first round of `propagate` does to each child of var,
        masks with var set to {b}, for every b in masks[var] at once:
        (doomed, count, quiet). doomed holds the values whose child the
        round wipes out, and count is what that call removes, which is every
        value the child's scope holds: the other scope variables' bits plus
        1. Under `solve`'s fusion guard it is the frame's count, also for a
        lex filter's doomed child and where the kernel is entailed. quiet
        holds the values whose child the call leaves as it is: it pins
        nothing, wipes nothing and does not return `ENTAILED`, so it
        returns a plain `[]`. Both are submasks of masks[var], and (0, 0, 0)
        is the answer when var is not in the scope.

        The call reads the other scope variables in two parts. scan lists
        those it reads from masks. summary is (seen, twice, count) of the
        rest, each of which must be a singleton: the union of their values,
        the values two or more of them take, and how many they are. So
        passing every other scope variable in scan with summary (0, 0, 0)
        is the full scan; `solve` passes the assigned ones as a summary.

        Take seen, twice and covered over the scope without var. On the
        child, b is covered and every other value keeps its candidates, so
        the round wipes iff a needed value other than b has no candidate, or
        some other variable is the only candidate of two needed values that
        are not b (call such values lone). That variable holds two values,
        so no singleton covers them: covered drops out, and the pair search
        reads scan alone. A lone value has one holder, so one b can spare at
        most one variable from holding two: one missing value or one
        variable with exactly two lone values leaves only those values
        undoomed, and anything more dooms all.

        Call unmet the needed values that are missing or lone and not
        covered. On the child, an unmet value other than b has no candidate,
        or one candidate that is not exactly {it}, so the round wipes or
        pins. Every other needed value is covered or has two candidates, so
        the child is quiet iff unmet lies inside {b} and a needed value other
        than b is uncovered; when none is, the call returns `ENTAILED`.
        """
        if var not in self.scope_set:
            return 0, 0, 0
        seen, twice, count = summary
        covered = seen  # each summarised variable is the singleton of its value
        count += 1
        for v in scan:
            m = masks[v]
            twice |= seen & m
            seen |= m
            size = m.bit_count()
            count += size
            if size == 1:
                covered |= m
        mask = masks[var]
        needed = self.needed
        missing = needed & ~seen
        if missing & (missing - 1):
            return mask, count, 0
        spare = missing or -1
        lone = needed & seen & ~twice
        if lone & (lone - 1):
            pair = 0
            for v in scan:
                held = masks[v] & lone
                if held & (held - 1):
                    if pair or held.bit_count() > 2:
                        return mask, count, 0
                    pair = held
            spare &= pair or -1
        unmet = (missing | lone) & ~covered
        uncovered = needed & ~covered
        quiet = 0
        if uncovered and not unmet & (unmet - 1):
            quiet = mask & (unmet or -1)
            if not uncovered & (uncovered - 1):
                quiet &= ~uncovered  # that child covers every needed value
        return mask & ~spare, count, quiet

    def describe(self) -> str:
        return f"value_cover(values={','.join(map(str, self.values))})"


class DisjunctionEq(Constraint):
    """At least one scope variable takes the given value.

    The filter is the `ValueCover` kernel with one needed value, which is
    GAC for this constraint: with no candidate the constraint has no support
    and the whole scope wipes; with exactly one candidate that variable is
    pinned; with two or more, or one already assigned, every value everywhere
    is supported.
    """

    def __init__(self, value: int, scope: Sequence[int]):
        self.value = value
        self.needed = 1 << value
        self.scope = _distinct_scope(scope)

    def check(self, assignment) -> bool:
        value = self.value
        return any(assignment[var] == value for var in self.scope)

    propagate = ValueCover.propagate

    def describe(self) -> str:
        return f"disjunction_eq(value={self.value})"


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
