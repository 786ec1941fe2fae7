"""Constraint checkers and domain filters.

Every constraint knows its scope, can test a total assignment of its scope,
and can filter a DomainSet to the consistency level stated in its docstring:
generalized arc consistency for the global constraints, arc consistency for
the binary ones. A filter call returns the (var, value) pairs it removed.

Filters remove exactly the values that have no support, including the case
where the constraint has become unsatisfiable: then every remaining value of
every scope variable is unsupported and all of them are removed. This keeps
each filter's output identical to the brute-force support enumeration across
the whole domain lattice, wipeouts included.

Constraints are immutable after construction and keep no state between calls.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .engine import DomainSet, bits_of, mask_of


def value_parity(value: int) -> str:
    return "odd" if value & 1 else "even"


class Permutation:
    """A bijection on the values 1..size; identity outside the points it moves."""

    __slots__ = ("size", "image")

    def __init__(self, image: Sequence[int]):
        img = tuple(image)
        if sorted(img) != list(range(1, len(img) + 1)):
            raise ValueError("image is not a permutation of 1..m")
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
    """Base class: subclasses set `scope` and implement check and propagate."""

    scope: tuple[int, ...] = ()

    def check(self, assignment: Sequence[Optional[int]]) -> bool:
        raise NotImplementedError

    def propagate(self, dom: DomainSet) -> list[tuple[int, int]]:
        """Filter dom in place; return the removed (var, value) pairs."""
        return []

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.describe()

    def _wipe_scope(self, dom: DomainSet, removed: list[tuple[int, int]]) -> list[tuple[int, int]]:
        # No support exists at all: every remaining scope value goes.
        masks = dom.masks
        for var in self.scope:
            mask = masks[var]
            masks[var] = 0
            while mask:
                low = mask & -mask
                removed.append((var, low.bit_length() - 1))
                mask ^= low
        return removed


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
        self.order = tuple(order)
        if len(set(self.order)) != len(self.order):
            raise ValueError("variable order contains duplicates")
        self.scope = self.order

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

    def propagate(self, dom: DomainSet) -> list[tuple[int, int]]:
        perm = self.perm
        inverse = perm.inverse()
        order = self.order
        n = len(order)
        removed: list[tuple[int, int]] = []

        changed = True
        while changed:
            changed = False
            left = [dom.values(var) for var in order]
            if not all(left):
                return self._wipe_scope(dom, removed)  # an empty position has no support
            right = [sorted(perm(v) for v in vals) for vals in left]

            # alpha: first position where the two sides cannot tie.
            alpha = n
            for p in range(n):
                if not set(left[p]) & set(right[p]):
                    alpha = p
                    break
            # beta: first position up to alpha that can decide strictly-less.
            beta = None
            for p in range(min(alpha, n - 1) + 1):
                if p < n and left[p][0] < right[p][-1]:
                    beta = p
                    break
            if beta is None and alpha < n:
                # Some prefix position must decide, and only as greater.
                return self._wipe_scope(dom, removed)

            # suffix_ok[p]: positions p.. can settle the comparison as <= .
            suffix_ok = [False] * (n + 1)
            suffix_ok[n] = True
            for p in range(n - 1, -1, -1):
                ties = bool(set(left[p]) & set(right[p]))
                suffix_ok[p] = left[p][0] < right[p][-1] or (ties and suffix_ok[p + 1])

            for p, var in enumerate(order):
                if beta is not None and beta < p:
                    break  # an earlier position decides: everything supported
                max_right = right[p][-1]
                min_left = left[p][0]
                right_set = set(right[p])
                left_set = set(left[p])
                keep_tail = suffix_ok[p + 1]
                for v in left[p]:
                    if v < max_right or (v in right_set and keep_tail):
                        continue
                    dom.remove(var, v)
                    removed.append((var, v))
                    changed = True
                for w in right[p]:
                    if w > min_left or (w in left_set and keep_tail):
                        continue
                    v = inverse(w)
                    if dom.contains(var, v):
                        dom.remove(var, v)
                        removed.append((var, v))
                        changed = True
                if dom.is_empty(var):
                    # Channelling emptied the position: the decomposition has
                    # no support left anywhere.
                    return self._wipe_scope(dom, removed)
                if changed:
                    break  # flag arrays are stale; recompute
        return removed

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
    """

    def __init__(self, class_values: Sequence[int], scope: Sequence[int]):
        values = tuple(class_values)
        if list(values) != sorted(set(values)):
            raise ValueError("class values must be strictly ascending")
        self.class_values = values
        self.scope = tuple(scope)
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
            t = level_of.get(assignment[var])
            if t is None:
                continue
            if t == seen + 1:
                seen += 1
            elif t > seen:
                return False
        return True

    def propagate(self, dom: DomainSet) -> list[tuple[int, int]]:
        scope = self.scope
        values = self.class_values
        c = len(values)
        class_mask = self.class_mask
        prefix_masks = self.prefix_masks
        masks = dom.masks

        # Forward: highest first-use level reachable before each position,
        # while checking that every position keeps at least one usable value.
        n = len(scope)
        reach_before = [0] * n
        reach = 0
        for p, var in enumerate(scope):
            reach_before[p] = reach
            m = masks[var]
            allowed = min(reach + 1, c)
            if not (m & ~class_mask) and not (m & prefix_masks[allowed]):
                return self._wipe_scope(dom, [])
            if reach < c and m >> values[reach] & 1:
                reach += 1

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

        removed: list[tuple[int, int]] = []
        level_of = self.level_of
        for p, var in enumerate(scope):
            rb = reach_before[p]
            gn = need[p + 1]
            for v in dom.values(var):
                t = level_of.get(v)
                if t is None:
                    ok = rb >= gn
                else:
                    ok = rb >= t - 1 and max(rb, t) >= gn
                if not ok:
                    dom.remove(var, v)
                    removed.append((var, v))
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

    def propagate(self, dom: DomainSet) -> list[tuple[int, int]]:
        a, b = self.scope
        masks = dom.masks
        removed: list[tuple[int, int]] = []
        ma = masks[a]
        kept = self.keep_a(ma, masks[b])
        if kept != ma:
            masks[a] = kept
            removed += [(a, v) for v in bits_of(ma ^ kept)]
        mb = masks[b]
        kept = self.keep_b(mb, masks[a])
        if kept != mb:
            masks[b] = kept
            removed += [(b, v) for v in bits_of(mb ^ kept)]
        return removed


class _EqImplies(BinaryConstraint):
    """a == value implies b in the target mask: every other value of a is
    supported by any value of b, and every value of b by any other value of a.
    """

    def __init__(self, var: int, value: int, other_var: int, target: int):
        super().__init__(var, other_var)
        self.value = value
        self._trigger = 1 << value
        self._target = target

    def keep_a(self, ma: int, mb: int) -> int:
        if mb & self._target:
            return ma
        return ma & ~self._trigger if mb else 0

    def keep_b(self, mb: int, ma: int) -> int:
        if ma & ~self._trigger:
            return mb
        return mb & self._target if ma else 0


class EqImpliesLeq(_EqImplies):
    """If the first variable takes the trigger value, the second stays at or
    below the bound."""

    def __init__(self, var: int, value: int, bound_var: int, bound: int):
        super().__init__(var, value, bound_var, (2 << bound) - 1)
        self.bound = bound

    def allows(self, va: int, vb: int) -> bool:
        return va != self.value or vb <= self.bound

    def describe(self) -> str:
        a, b = self.scope
        return f"eq_implies_leq(X{a}={self.value} -> X{b}<={self.bound})"


class EqImpliesEq(_EqImplies):
    """If the first variable takes the trigger value, the second is pinned."""

    def __init__(self, var: int, value: int, other_var: int, other_value: int):
        super().__init__(var, value, other_var, 1 << other_value)
        self.other_value = other_value

    def allows(self, va: int, vb: int) -> bool:
        return va != self.value or vb == self.other_value

    def describe(self) -> str:
        a, b = self.scope
        return f"eq_implies_eq(X{a}={self.value} -> X{b}={self.other_value})"


class StrictLess(BinaryConstraint):
    """The first variable is strictly below the second."""

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

    def __init__(self, cond_var: int, cond_parity: str, target_var: int, target_parity: str):
        super().__init__(cond_var, target_var)
        if cond_parity not in ("odd", "even") or target_parity not in ("odd", "even"):
            raise ValueError("parity must be 'odd' or 'even'")
        self.cond_parity = cond_parity
        self.target_parity = target_parity

    def allows(self, va: int, vb: int) -> bool:
        return value_parity(va) != self.cond_parity or value_parity(vb) == self.target_parity

    def _parity_masks(self, width: int) -> tuple[int, int]:
        # The parity classes are infinite bit patterns, so they are cut to
        # cover the masks in play: (4**k - 1) // 3 sets bits 0, 2, ..., 2k - 2.
        even = (4 ** (width // 2 + 1) - 1) // 3
        odd = even << 1
        return (odd if self.cond_parity == "odd" else even,
                odd if self.target_parity == "odd" else even)

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


class DisjunctionEq(Constraint):
    """At least one scope variable takes the given value.

    GAC: with no candidate the constraint has no support and the whole scope
    wipes; with exactly one candidate that variable is pinned; with two or
    more, or one already assigned, every value everywhere is supported.
    """

    def __init__(self, value: int, scope: Sequence[int]):
        self.value = value
        self.scope = tuple(scope)

    def check(self, assignment) -> bool:
        value = self.value
        return any(assignment[var] == value for var in self.scope)

    def propagate(self, dom: DomainSet) -> list[tuple[int, int]]:
        bit = 1 << self.value
        masks = dom.masks
        first = -1
        for var in self.scope:
            m = masks[var]
            if m & bit:
                if m == bit:
                    return []  # already satisfied
                if first >= 0:
                    return []  # two candidates: nothing to prune
                first = var
        if first < 0:
            return self._wipe_scope(dom, [])
        removed = [(first, v) for v in bits_of(masks[first] ^ bit)]
        masks[first] = bit
        return removed

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
    remaining value of the condition variable has the guard parity.
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

    def _entailed(self, dom: DomainSet) -> bool:
        parity = self.cond_parity
        return all(value_parity(v) == parity for v in dom.values(self.cond_var))

    def propagate(self, dom: DomainSet) -> list[tuple[int, int]]:
        if not self._entailed(dom):
            return []
        return self.inner.propagate(dom)

    def describe(self) -> str:
        return f"conditional({self.cond_parity}(X{self.cond_var}) -> {self.inner.describe()})"
