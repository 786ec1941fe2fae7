"""Reading and writing problems as JSON documents.

The format is versioned and human-writable:

    {
      "format": 1,
      "variables": 3,
      "values": 3,
      "domains": [[1, 2, 3], [1, 2, 3], [1, 2, 3]],
      "classes": [[1, 2, 3]],
      "constraints": [{"type": "disjunction_eq", "value": 3, "scope": [0, 1, 2]}]
    }

Variables are 0-based indices; values are 1-based. "domains" defaults to full
domains and "classes" to no interchangeable values. A "lex_leq_permuted"
constraint's "sigma" lists the images of 1..k and must be a permutation of
them; k may be below "values", and the values above k map to themselves.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .breaking import ValueClassPartition
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
)
from .engine import DomainSet, Problem

FORMAT_VERSION = 1


class ProblemFormatError(ValueError):
    """The document does not follow the problem schema."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ProblemFormatError(message)


def _int_field(doc: dict, key: str, minimum: int) -> int:
    _expect(key in doc, f"missing field {key!r}")
    value = doc[key]
    _expect(isinstance(value, int) and not isinstance(value, bool), f"{key!r} must be an integer")
    _expect(value >= minimum, f"{key!r} must be at least {minimum}")
    return value


def _var_index(value, num_vars: int, where: str) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool), f"{where}: variable index must be an integer")
    _expect(0 <= value < num_vars, f"{where}: variable {value} outside 0..{num_vars - 1}")
    return value


def _value(value, num_values: int, where: str) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool), f"{where}: value must be an integer")
    _expect(1 <= value <= num_values, f"{where}: value {value} outside 1..{num_values}")
    return value


def _scope(raw, num_vars: int, where: str) -> tuple[int, ...]:
    _expect(isinstance(raw, list) and raw, f"{where}: scope must be a non-empty list")
    return tuple(_var_index(v, num_vars, where) for v in raw)


def _parity(raw, where: str) -> str:
    _expect(raw in ("odd", "even"), f"{where}: parity must be 'odd' or 'even'")
    return raw


def constraint_from_json(doc: dict, num_vars: int, num_values: int) -> Constraint:
    _expect(isinstance(doc, dict), "constraint must be an object")
    kind = doc.get("type")
    where = f"constraint {kind!r}"
    if kind == "lex_leq_permuted":
        sigma = doc.get("sigma")
        _expect(isinstance(sigma, list), f"{where}: sigma must be a list of values")
        image = [_value(v, num_values, where) for v in sigma]
        return LexLeqPermuted(Permutation(image), _scope(doc.get("order"), num_vars, where))
    if kind == "precedence":
        values = doc.get("values")
        _expect(isinstance(values, list) and values, f"{where}: values must be a non-empty list")
        return Precedence([_value(v, num_values, where) for v in values],
                          _scope(doc.get("scope"), num_vars, where))
    if kind == "eq_implies_leq":
        return EqImpliesLeq(
            _var_index(doc.get("var"), num_vars, where),
            _value(doc.get("value"), num_values, where),
            _var_index(doc.get("bound_var"), num_vars, where),
            _value(doc.get("bound"), num_values, where),
        )
    if kind == "eq_implies_eq":
        return EqImpliesEq(
            _var_index(doc.get("var"), num_vars, where),
            _value(doc.get("value"), num_values, where),
            _var_index(doc.get("other_var"), num_vars, where),
            _value(doc.get("other_value"), num_values, where),
        )
    if kind == "strict_less":
        return StrictLess(
            _var_index(doc.get("less_var"), num_vars, where),
            _var_index(doc.get("greater_var"), num_vars, where),
        )
    if kind == "parity_link":
        return ParityLink(
            _var_index(doc.get("cond_var"), num_vars, where),
            _parity(doc.get("cond_parity"), where),
            _var_index(doc.get("target_var"), num_vars, where),
            _parity(doc.get("target_parity"), where),
        )
    if kind == "disjunction_eq":
        return DisjunctionEq(
            _value(doc.get("value"), num_values, where),
            _scope(doc.get("scope"), num_vars, where),
        )
    if kind == "at_least_n_values":
        prefix = _int_field(doc, "prefix_length", 1)
        _expect(prefix <= num_vars, f"{where}: prefix_length outside 1..{num_vars}")
        return AtLeastNValues(prefix, _int_field(doc, "distinct_count", 0))
    if kind == "conditional":
        inner = doc.get("inner")
        _expect(isinstance(inner, dict), f"{where}: inner must be a constraint object")
        return Conditional(
            _var_index(doc.get("cond_var"), num_vars, where),
            _parity(doc.get("cond_parity"), where),
            constraint_from_json(inner, num_vars, num_values),
        )
    raise ProblemFormatError(f"unknown constraint type {kind!r}")


def constraint_to_json(c: Constraint) -> dict:
    if isinstance(c, LexLeqPermuted):
        return {"type": "lex_leq_permuted", "sigma": list(c.perm.image), "order": list(c.order)}
    if isinstance(c, Precedence):
        return {"type": "precedence", "values": list(c.class_values), "scope": list(c.scope)}
    if isinstance(c, EqImpliesLeq):
        return {"type": "eq_implies_leq", "var": c.scope[0], "value": c.value,
                "bound_var": c.scope[1], "bound": c.bound}
    if isinstance(c, EqImpliesEq):
        return {"type": "eq_implies_eq", "var": c.scope[0], "value": c.value,
                "other_var": c.scope[1], "other_value": c.other_value}
    if isinstance(c, StrictLess):
        return {"type": "strict_less", "less_var": c.scope[0], "greater_var": c.scope[1]}
    if isinstance(c, ParityLink):
        return {"type": "parity_link", "cond_var": c.scope[0], "cond_parity": c.cond_parity,
                "target_var": c.scope[1], "target_parity": c.target_parity}
    if isinstance(c, DisjunctionEq):
        return {"type": "disjunction_eq", "value": c.value, "scope": list(c.scope)}
    if isinstance(c, AtLeastNValues):
        return {"type": "at_least_n_values", "prefix_length": c.prefix_length,
                "distinct_count": c.distinct_count}
    if isinstance(c, Conditional):
        return {"type": "conditional", "cond_var": c.cond_var, "cond_parity": c.cond_parity,
                "inner": constraint_to_json(c.inner)}
    raise ProblemFormatError(f"constraint {c!r} has no JSON form")


def problem_from_dict(doc: dict) -> Problem:
    _expect(isinstance(doc, dict), "problem document must be an object")
    _expect(doc.get("format") == FORMAT_VERSION, f"'format' must be {FORMAT_VERSION}")
    num_vars = _int_field(doc, "variables", 1)
    num_values = _int_field(doc, "values", 1)

    raw_domains = doc.get("domains")
    if raw_domains is None:
        domains = DomainSet.full(num_vars, num_values)
    else:
        _expect(isinstance(raw_domains, list) and len(raw_domains) == num_vars,
                f"'domains' must list {num_vars} domains")
        lists = []
        for i, dom in enumerate(raw_domains):
            _expect(isinstance(dom, list) and dom, f"domain of variable {i} must be a non-empty list")
            lists.append([_value(v, num_values, f"domain of variable {i}") for v in dom])
        domains = DomainSet.from_values(lists)

    partition = None
    raw_classes = doc.get("classes")
    if raw_classes is not None:
        _expect(isinstance(raw_classes, list), "'classes' must be a list of value lists")
        classes = []
        for cls in raw_classes:
            _expect(isinstance(cls, list) and cls, "each class must be a non-empty list")
            classes.append([_value(v, num_values, "class") for v in cls])
        try:
            partition = ValueClassPartition.of(classes)
        except ValueError as exc:
            raise ProblemFormatError(f"bad classes: {exc}") from None

    raw_constraints = doc.get("constraints", [])
    _expect(isinstance(raw_constraints, list), "'constraints' must be a list")

    try:
        # constructors reject what the schema cannot, e.g. a repeated variable
        constraints = tuple(constraint_from_json(c, num_vars, num_values) for c in raw_constraints)
        return Problem(num_vars, num_values, domains, constraints, partition)
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from None


def problem_to_dict(problem: Problem) -> dict:
    doc = {
        "format": FORMAT_VERSION,
        "variables": problem.num_vars,
        "values": problem.num_values,
        "domains": problem.domains.as_lists(),
        "constraints": [constraint_to_json(c) for c in problem.constraints],
    }
    if problem.partition is not None:
        doc["classes"] = [list(cls) for cls in problem.partition.classes]
    return doc


def load_problem(path: str) -> Problem:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            # both the JSON decoder and nested "conditional" constraints recurse
            return problem_from_dict(json.load(handle))
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"invalid JSON: {exc}") from None
        except RecursionError:
            raise ProblemFormatError("nesting too deep") from None


class _NotPlain(Exception):
    """A value _json_text leaves to json.dumps."""


def _json_text(value, pad: str, out: list) -> None:
    """Append to `out` the text json.dumps(value, indent=2, sort_keys=True)
    gives `value` when it starts on a line indented by `pad`. Takes dicts
    with str keys, lists, str, int, bool and None (by exact type); raises
    _NotPlain on anything else, such as a float, a tuple or an int key."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        if all(type(p) is list and len(p) == 2 and type(p[0]) is int and type(p[1]) is int for p in value):
            # A list of [int, int] pairs, such as a list of prunings.
            item = inner + "  "
            out.append("[\n" + ",\n".join(
                f"{inner}[\n{item}{int.__repr__(a)},\n{item}{int.__repr__(b)}\n{inner}]" for a, b in value
            ) + f"\n{pad}]")
            return
        out.append("[\n" + inner)
        for i, item in enumerate(value):
            if i:
                out.append(",\n" + inner)
            _json_text(item, inner, out)
        out.append("\n" + pad + "]")
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        if any(type(key) is not str for key in value):
            raise _NotPlain
        inner = pad + "  "
        out.append("{\n" + inner)
        for i, key in enumerate(sorted(value)):
            if i:
                out.append(",\n" + inner)
            out.append(encode_basestring_ascii(key) + ": ")
            _json_text(value[key], inner, out)
        out.append("\n" + pad + "}")
    else:
        raise _NotPlain


def dumps(doc) -> str:
    """json.dumps(doc, indent=2, sort_keys=True): the text of every problem
    file and report.

    With `indent` set, json.dumps runs its pure-Python encoder, a large
    share of a small compare request. _json_text writes the same bytes, in
    less than half the time, for the types problems and reports hold; a
    document holding any other type goes to json.dumps whole."""
    out: list[str] = []
    try:
        _json_text(doc, "", out)
    except _NotPlain:
        return json.dumps(doc, indent=2, sort_keys=True)
    return "".join(out)


def save_problem(problem: Problem, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(problem_to_dict(problem)) + "\n")
