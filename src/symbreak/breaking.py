"""Builders that turn a partition of interchangeable values into each static
symmetry-breaking form: adjacent-transposition lex constraints, the dual
first-use encoding, and per-class precedence constraints, plus the semantic
checker and canonicalizer used to count symmetry classes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

from .constraints import (
    Constraint,
    EqImpliesEq,
    EqImpliesLeq,
    LexLeqPermuted,
    Permutation,
    Precedence,
    StrictLess,
)
from .engine import DomainSet, Problem, full_mask, mask_of


@dataclass(frozen=True)
class ValueClassPartition:
    """Ordered disjoint classes of interchangeable values, each ascending."""

    classes: tuple[tuple[int, ...], ...]
    # Derived in __post_init__: one value mask per class, and their union.
    class_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    classed_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = set()
        for cls in self.classes:
            if list(cls) != sorted(cls):
                raise ValueError(f"class {cls} is not strictly ascending")
            for v in cls:
                if v < 1:
                    raise ValueError(f"partition value {v} is not positive")
                if v in seen:
                    raise ValueError(f"value {v} appears in two classes")
                seen.add(v)
        class_masks = tuple(mask_of(cls) for cls in self.classes)
        object.__setattr__(self, "class_masks", class_masks)
        object.__setattr__(self, "classed_mask", mask_of(seen))

    @classmethod
    def of(cls, classes: Sequence[Sequence[int]]) -> "ValueClassPartition":
        return cls(tuple(tuple(c) for c in classes))

    def nontrivial_classes(self) -> list[tuple[int, ...]]:
        return [cls for cls in self.classes if len(cls) >= 2]


@dataclass(frozen=True)
class SymmetrySet:
    """A list of value permutations with a tag saying how it was built."""

    perms: tuple[Permutation, ...]
    tag: str  # "adjacent-generators" | "full-group" | "custom"


def adjacent_generators(partition: ValueClassPartition, num_values: int) -> SymmetrySet:
    """One transposition per adjacent within-class value pair; with m classed
    values in k classes that is exactly m-k permutations."""
    perms = []
    for cls in partition.classes:
        for a, b in zip(cls, cls[1:]):
            perms.append(Permutation.transposition(num_values, a, b))
    return SymmetrySet(tuple(perms), "adjacent-generators")


def full_group(partition: ValueClassPartition, num_values: int, limit: int = 100_000) -> SymmetrySet:
    """Materialize every permutation the partition induces. Guarded by a hard
    size limit: the group has prod(|class|!) elements."""
    size = 1
    for cls in partition.classes:
        size *= math.factorial(len(cls))
    if size > limit:
        raise ValueError(f"full group has {size} permutations, over the limit of {limit}")
    perms = []
    per_class = [list(itertools.permutations(cls)) for cls in partition.classes]
    for combo in itertools.product(*per_class):
        image = list(range(1, num_values + 1))
        for cls, perm_cls in zip(partition.classes, combo):
            for src, dst in zip(cls, perm_cls):
                image[src - 1] = dst
        perms.append(Permutation(image))
    return SymmetrySet(tuple(perms), "full-group")


def apply_permutation(perm: Permutation, vector: Sequence[int]) -> tuple[int, ...]:
    return tuple(perm(v) for v in vector)


def is_class_canonical(vector: Sequence[int], partition: ValueClassPartition) -> bool:
    """True iff within every class the used values are a prefix of the class
    and first occurrences appear in class order."""
    return ClassCanonical(partition, range(len(vector))).check(vector)


def valsymbreak_holds(vector: Sequence[int], symmetries) -> bool:
    """The vector is lex-at-most each of its images.

    Pass a SymmetrySet to check the listed permutations, or a
    ValueClassPartition to check against its full group, which reduces to the
    first-occurrence canonicity test.
    """
    if isinstance(symmetries, ValueClassPartition):
        return is_class_canonical(vector, symmetries)
    return all(LexLeqPermuted(perm, range(len(vector))).check(vector) for perm in symmetries.perms)


def canonical_form(vector: Sequence[int], partition: ValueClassPartition) -> tuple[int, ...]:
    """Relabel each class by order of first occurrence; unused class values
    keep their relative order after the used ones. Idempotent, and constant
    on each orbit of the class group."""
    relabel = {}
    for cls in partition.classes:
        used = []
        seen = set()
        for value in vector:
            if value in seen or value not in cls:
                continue
            seen.add(value)
            used.append(value)
        unused = [v for v in cls if v not in seen]
        for old, new in zip(used + unused, cls):
            relabel[old] = new
    return tuple(relabel.get(v, v) for v in vector)


def lex_constraints(perms: Sequence[Permutation], order: Sequence[int]) -> list[LexLeqPermuted]:
    """One lex constraint per permutation over the given variable order; all
    of them share one scope tuple."""
    order = tuple(order)
    return [LexLeqPermuted(p, order) for p in perms]


def build_generator_lex(problem: Problem) -> list[LexLeqPermuted]:
    """Lex constraints for the adjacent-transposition generators of
    `problem.partition`, over the natural variable order."""
    gens = adjacent_generators(problem.partition, problem.num_values)
    return lex_constraints(gens.perms, range(problem.num_vars))


def build_precedence(problem: Problem) -> list[Precedence]:
    """One precedence constraint per class of `problem.partition` with at
    least two values; all of them share one scope tuple."""
    scope = tuple(range(problem.num_vars))
    return [Precedence(cls, scope) for cls in problem.partition.nontrivial_classes()]


class ClassCanonical(Constraint):
    """Checker-only form of the full-group lex conjunction: a total assignment
    passes iff it is the canonical member of its orbit. Used as the oracle's
    semantic constraint where materializing the group would be wasteful.

    Canonicity under the full value group is per-class value precedence
    (Law & Lee, CP 2004), so the check is the conjunction of one
    `Precedence` per class with at least two values, and like those it
    `checks_partial`: a prefix is rejected only when no completion is
    canonical."""

    checks_partial = True

    def __init__(self, partition: ValueClassPartition, scope: Sequence[int]):
        self.partition = partition
        self.scope = tuple(scope)
        self._precedences = [Precedence(cls, self.scope) for cls in partition.nontrivial_classes()]

    def check(self, assignment) -> bool:
        for p in self._precedences:
            if not p.check(assignment):
                return False
        return True

    def describe(self) -> str:
        classes = ";".join(",".join(map(str, c)) for c in self.partition.classes)
        return f"class_canonical({classes})"


@dataclass(frozen=True)
class PugetEncoding:
    """The dual first-use encoding of a problem.

    One extra variable per value records the first index using that value,
    counted 1-based over the original variables. Its domain is {1..n} plus a
    per-value dummy n+j meaning the value goes unused; dummies are distinct
    and ascend with the value, so the within-class strict ordering chain also
    forces used values to form a prefix of each class. With
    `force_surjection` the dummies are replaced by a tail of fixed variables
    that use every value once.
    """

    problem: Problem
    num_original_vars: int
    first_use_var: dict  # value -> index of its first-use variable
    dummy_value: dict  # value -> dummy index, empty when surjection is forced
    generated: tuple[Constraint, ...]

    def x_pairs(self, pairs) -> set[tuple[int, int]]:
        """Restrict (var, value) pairs to the original variables."""
        return {(var, val) for var, val in pairs if var < self.num_original_vars}


def build_puget(problem: Problem, force_surjection: bool = False) -> PugetEncoding:
    """The dual first-use encoding of problem, with one strict ordering chain
    per class of `problem.partition` over the first-use variables."""
    n, m = problem.num_vars, problem.num_values

    x_masks = list(problem.domains.masks)
    if force_surjection:
        # A tail of fixed variables guarantees every value is used once.
        x_masks += [1 << j for j in range(1, m + 1)]
    num_x = len(x_masks)

    first_use_var = {}
    dummy_value = {}
    z_masks = []
    positions_mask = full_mask(num_x)
    for j in range(1, m + 1):
        first_use_var[j] = num_x + len(z_masks)
        if force_surjection:
            z_masks.append(positions_mask)
        else:
            dummy_value[j] = n + j
            z_masks.append(positions_mask | (1 << (n + j)))

    generated: list[Constraint] = []
    for pos in range(num_x):
        for j in range(1, m + 1):
            z = first_use_var[j]
            generated.append(EqImpliesLeq(pos, j, z, pos + 1))
            generated.append(EqImpliesEq(z, pos + 1, pos, j))
    for cls in problem.partition.nontrivial_classes():
        for a, b in zip(cls, cls[1:]):
            generated.append(StrictLess(first_use_var[a], first_use_var[b]))

    capacity = max(m, num_x if force_surjection else n + m)
    extended = Problem(
        num_vars=num_x + m,
        num_values=capacity,
        domains=DomainSet(x_masks + z_masks),
        constraints=problem.constraints + tuple(generated),
        partition=None,
    )
    return PugetEncoding(
        problem=extended,
        num_original_vars=n,
        first_use_var=first_use_var,
        dummy_value=dummy_value,
        generated=tuple(generated),
    )


METHODS = ("none", "precedence", "generator-lex", "puget", "ge-tree")


def apply_method(problem: Problem, method: str) -> Problem:
    """The problem with a symmetry-breaking method posted; "ge-tree" posts
    nothing, as it breaks symmetry during search. Puget's first-use variables
    come after the problem's own, so `var < problem.num_vars` picks the
    problem's pairs and `vec[:problem.num_vars]` its solution."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method != "none" and problem.partition is None:
        raise ValueError(f"method {method!r} requires 'classes' in the problem")
    if method == "precedence":
        return problem.with_constraints(build_precedence(problem))
    if method == "generator-lex":
        return problem.with_constraints(build_generator_lex(problem))
    if method == "puget":
        return build_puget(problem).problem
    return problem
