"""symbreak: a finite-domain constraint lab for breaking value symmetry."""

from .breaking import (
    ClassCanonical,
    PugetEncoding,
    SymmetrySet,
    ValueClassPartition,
    adjacent_generators,
    build_generator_lex,
    build_precedence,
    build_puget,
    canonical_form,
    full_group,
    is_class_canonical,
    lex_constraints,
    valsymbreak_holds,
)
from .consistency import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    ConsistencyReport,
    ConsistencyWitness,
    SacTimeout,
    brute_force_gac,
    enforce_sac,
    enumerate_solutions,
    has_support,
    is_k_consistent,
    is_strongly_k_consistent,
)
from .constraints import (
    AtLeastNValues,
    Conditional,
    Constraint,
    DisjunctionEq,
    EqImpliesEq,
    EqImpliesLeq,
    LexLeqPermuted,
    ParityLink,
    Permutation,
    Precedence,
    StrictLess,
    ValueCover,
)
from .engine import (
    DomainSet,
    Problem,
    PropagationEngine,
    PropagationOutcome,
    Pruning,
    Removals,
    is_solution,
    propagate_fixpoint,
)
from .instances import (
    CNFFormula,
    DimacsError,
    chained_pairs_base,
    chained_pairs_family,
    format_dimacs,
    parse_dimacs,
    pigeonhole_model,
    reduce_3sat,
    staircase_fixture,
    surjection_fixture,
)
from .search import SearchStats, SearchTimeout, Strategy, ge_tree_candidates, solve

__version__ = "0.1.0"
