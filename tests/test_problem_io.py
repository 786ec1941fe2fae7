import json

import pytest

from symbreak import pigeonhole_model, reduce_3sat, staircase_fixture, CNFFormula, DomainSet, Problem
from symbreak.breaking import ValueClassPartition
from symbreak.constraints import (
    AtLeastNValues,
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
from symbreak.problem_io import (
    ProblemFormatError,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
)


def minimal_doc():
    return {
        "format": 1,
        "variables": 2,
        "values": 3,
        "domains": [[1, 2], [2, 3]],
        "classes": [[1, 2, 3]],
        "constraints": [{"type": "disjunction_eq", "value": 3, "scope": [0, 1]}],
    }


def test_round_trip_through_dict():
    for prob in (pigeonhole_model(3), staircase_fixture(), reduce_3sat(CNFFormula(2, ((1, -2, 2),)))):
        doc = problem_to_dict(prob)
        again = problem_from_dict(doc)
        assert problem_to_dict(again) == doc


def test_round_trip_through_file(tmp_path):
    path = tmp_path / "prob.json"
    prob = pigeonhole_model(3)
    save_problem(prob, str(path))
    loaded = load_problem(str(path))
    assert problem_to_dict(loaded) == problem_to_dict(prob)
    # file is stable json
    doc = json.loads(path.read_text())
    assert doc["format"] == 1


def test_defaults_full_domains_no_classes():
    prob = problem_from_dict({"format": 1, "variables": 2, "values": 2})
    assert prob.domains.as_lists() == [[1, 2], [1, 2]]
    assert prob.partition is None


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("format"),
        lambda d: d.update(format=2),
        lambda d: d.update(variables=0),
        lambda d: d.update(domains=[[1, 2]]),
        lambda d: d.update(domains=[[1, 9], [2]]),
        lambda d: d.update(classes=[[1, 1]]),
        lambda d: d.update(constraints=[{"type": "nope"}]),
        lambda d: d.update(constraints=[{"type": "disjunction_eq", "value": 9, "scope": [0]}]),
        lambda d: d.update(constraints=[{"type": "disjunction_eq", "value": 1, "scope": [5]}]),
        lambda d: d.update(constraints=[{"type": "strict_less", "less_var": 0}]),
        lambda d: d.update(
            constraints=[{"type": "lex_leq_permuted", "sigma": [1, 1, 2], "order": [0, 1]}]
        ),
        lambda d: d.update(constraints=[{"type": "strict_less", "less_var": 1, "greater_var": 1}]),
        lambda d: d.update(
            constraints=[{"type": "conditional", "cond_var": 0, "cond_parity": "odd", "inner": {
                "type": "eq_implies_eq", "var": 1, "value": 1, "other_var": 1, "other_value": 2}}]
        ),
        lambda d: d.update(
            constraints=[{"type": "at_least_n_values", "prefix_length": True, "distinct_count": 1}]
        ),
        lambda d: d.update(
            constraints=[{"type": "at_least_n_values", "prefix_length": 2, "distinct_count": False}]
        ),
        lambda d: d.update(constraints=[{"type": "precedence", "values": [1, 2], "scope": [1, 1, 0]}]),
        lambda d: d.update(constraints=[{"type": "disjunction_eq", "value": 3, "scope": [0, 0, 1]}]),
    ],
)
def test_schema_violations_rejected(mutate):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(ProblemFormatError):
        problem_from_dict(doc)


def test_conditional_round_trips():
    doc = {
        "format": 1,
        "variables": 3,
        "values": 4,
        "constraints": [
            {
                "type": "conditional",
                "cond_var": 2,
                "cond_parity": "odd",
                "inner": {"type": "at_least_n_values", "prefix_length": 2, "distinct_count": 2},
            }
        ],
    }
    prob = problem_from_dict(doc)
    assert problem_to_dict(prob)["constraints"] == doc["constraints"]


def test_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ProblemFormatError):
        load_problem(str(path))


def test_every_constraint_kind_round_trips_and_saves_as_json_dumps(tmp_path):
    constraints = (
        # sigma shorter than the value range: 3 maps to itself
        LexLeqPermuted(Permutation((2, 1)), (2, 0, 1)),
        LexLeqPermuted(Permutation((1, 3, 2)), (0, 1)),
        Precedence((1, 2), (0, 1, 2)),
        EqImpliesLeq(0, 2, 1, 3),
        EqImpliesEq(1, 1, 2, 3),
        StrictLess(2, 0),
        ParityLink(0, "odd", 2, "even"),
        DisjunctionEq(3, (1, 2)),
        AtLeastNValues(2, 2),
        Conditional(1, "even", Conditional(0, "odd", StrictLess(1, 2))),
    )
    prob = Problem(
        3, 3, DomainSet.from_values([[1, 2], [1, 2, 3], [3]]), constraints,
        ValueClassPartition.of([[1, 2]]),
    )
    doc = problem_to_dict(prob)
    assert [c["type"] for c in doc["constraints"]] == [
        "lex_leq_permuted", "lex_leq_permuted", "precedence", "eq_implies_leq", "eq_implies_eq",
        "strict_less", "parity_link", "disjunction_eq", "at_least_n_values", "conditional",
    ]
    assert doc["constraints"][0]["sigma"] == [2, 1]
    assert problem_to_dict(problem_from_dict(doc)) == doc

    path = tmp_path / "every-kind.json"
    save_problem(prob, str(path))
    assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    loaded = load_problem(str(path))
    assert problem_to_dict(loaded) == doc
    assert [c.describe() for c in loaded.constraints] == [c.describe() for c in constraints]
