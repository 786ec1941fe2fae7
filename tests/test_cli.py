import json
import os
import subprocess
import sys

import symbreak
from symbreak.cli import EXIT_TIMEOUT, main
from symbreak.problem_io import save_problem
from symbreak import surjection_fixture


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_part(out):
    """The JSON document at the top of a report."""
    depth = 0
    for i, ch in enumerate(out):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return json.loads(out[: i + 1])
    raise AssertionError("no JSON document found")


def test_solve_pigeonhole_precedence_fails_at_root(capsys):
    code, out, _ = run_cli(capsys, "solve", "pigeonhole:6", "--method", "precedence", "--goal", "count")
    assert code == 10
    doc = json_part(out)
    assert doc["satisfiable"] is False
    assert doc["stats"]["branches"] == 0


def test_solve_pigeonhole_ge_tree_records_branches(capsys):
    code, out, _ = run_cli(capsys, "solve", "pigeonhole:5", "--method", "ge-tree", "--goal", "count")
    assert code == 10
    assert json_part(out)["stats"]["branches"] == 15


def test_solve_trivial_satisfiable_file(capsys, tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"format": 1, "variables": 1, "values": 1}))
    code, out, _ = run_cli(capsys, "solve", str(path))
    assert code == 0
    assert json_part(out)["solutions"] == [[1]]


def test_solve_puget_reports_original_variables(capsys, tmp_path):
    prob, _ = surjection_fixture()
    path = tmp_path / "surj.json"
    save_problem(prob, str(path))
    code, out, _ = run_cli(capsys, "solve", str(path), "--method", "puget")
    assert code == 0
    doc = json_part(out)
    assert all(len(sol) == 7 for sol in doc["solutions"])


def test_propagate_oracle_vs_generator_lex_differ_exactly_on_staircase(capsys):
    code, out, _ = run_cli(capsys, "propagate", "staircase", "--level", "oracle-gac")
    assert code == 0
    assert json_part(out)["prunings"] == [[1, 1], [2, 1], [3, 1]]
    code, out, _ = run_cli(capsys, "propagate", "staircase", "--level", "gac", "--method", "generator-lex")
    assert code == 0
    assert json_part(out)["prunings"] == []


def test_propagate_puget_ac_empty_on_surjection_fixture(capsys, tmp_path):
    prob, _ = surjection_fixture()
    path = tmp_path / "surj.json"
    save_problem(prob, str(path))
    code, out, _ = run_cli(capsys, "propagate", str(path), "--level", "ac", "--method", "puget")
    assert code == 0
    doc = json_part(out)
    assert doc["prunings"] == [] and doc["wipeout"] is False


def test_propagate_no_constraints_empty_set(capsys, tmp_path):
    path = tmp_path / "plain.json"
    path.write_text(json.dumps({"format": 1, "variables": 2, "values": 2}))
    code, out, _ = run_cli(capsys, "propagate", str(path))
    assert code == 0
    assert json_part(out)["prunings"] == []


def test_propagate_wipeout_exit_code(capsys, tmp_path):
    path = tmp_path / "dead.json"
    path.write_text(
        json.dumps(
            {
                "format": 1,
                "variables": 2,
                "values": 2,
                "constraints": [
                    {"type": "strict_less", "less_var": 0, "greater_var": 1},
                    {"type": "strict_less", "less_var": 1, "greater_var": 0},
                ],
            }
        )
    )
    code, out, _ = run_cli(capsys, "propagate", str(path))
    assert code == 10
    assert json_part(out)["wipeout"] is True


def test_propagate_rejects_repeated_binary_variable(capsys, tmp_path):
    path = tmp_path / "self.json"
    path.write_text(json.dumps({
        "format": 1, "variables": 1, "values": 3,
        "constraints": [{"type": "strict_less", "less_var": 0, "greater_var": 0}],
    }))
    code, out, err = run_cli(capsys, "propagate", str(path))
    assert code == 2
    assert out == ""
    assert "two distinct variables" in err


def test_solve_timeout_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "solve", "pigeonhole:12", "--method", "ge-tree", "--goal", "count", "--timeout", "0.01"
    )
    assert code == EXIT_TIMEOUT
    assert out == ""
    assert "timed out" in err


def test_solve_past_recursion_limit(capsys, tmp_path):
    # search walks an explicit stack, so depth is no longer an error
    n = sys.getrecursionlimit() + 500
    path = tmp_path / "deep.json"
    for extra, method in (({}, "none"), ({"classes": [[1]]}, "ge-tree")):
        path.write_text(json.dumps({"format": 1, "variables": n, "values": 1, **extra}))
        code, out, err = run_cli(capsys, "solve", str(path), "--goal", "first", "--method", method)
        assert code == 0
        assert json_part(out)["solutions"] == [[1] * n]


def test_deeply_nested_input_is_a_usage_error(capsys, tmp_path):
    # the JSON decoder and nested conditionals recurse while loading
    depth = 995
    chain = (
        '{"format": 1, "variables": 2, "values": 2, "constraints": ['
        + '{"type": "conditional", "cond_var": 0, "cond_parity": "odd", "inner": ' * depth
        + '{"type": "strict_less", "less_var": 0, "greater_var": 1}' + "}" * depth + "]}"
    )
    for name, text in (("brackets.json", "[" * 100_000), ("chain.json", chain)):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 2
        assert out == ""
        assert "nesting too deep" in err


def test_oracle_gac_past_recursion_limit(capsys, tmp_path):
    # the oracles walk an explicit stack, so depth is no longer an error
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({
        "format": 1, "variables": sys.getrecursionlimit() + 500, "values": 1, "classes": [[1]],
    }))
    code, out, err = run_cli(capsys, "propagate", str(path), "--level", "oracle-gac")
    assert code == 0
    doc = json_part(out)
    assert doc["prunings"] == [] and doc["wipeout"] is False


def test_budget_below_one_is_a_usage_error(capsys, monkeypatch):
    for flag in ("0", "-5"):
        code, out, err = run_cli(capsys, "compare", "staircase", "--budget", flag)
        assert code == 2
        assert out == ""
        assert "budget must be at least 1" in err
    monkeypatch.setenv("SYMBREAK_BUDGET", "0")
    code, out, err = run_cli(capsys, "propagate", "staircase", "--level", "oracle-gac")
    assert code == 2
    assert out == ""
    assert "budget must be at least 1" in err
    # an explicit --budget still overrides the environment
    code, out, _ = run_cli(capsys, "propagate", "staircase", "--level", "oracle-gac", "--budget", "1000")
    assert code == 0
    assert json_part(out)["prunings"]


def test_compare_staircase_strict_gap_and_order(capsys):
    code, out, _ = run_cli(capsys, "compare", "staircase")
    assert code == 0
    doc = json_part(out)
    assert doc["violations"] == 0
    assert doc["methods"]["generator-lex"]["prunings"] == []
    assert doc["methods"]["puget-ac"]["prunings"] == [[1, 1], [2, 1], [3, 1]]
    assert doc["methods"]["oracle"]["prunings"] == [[1, 1], [2, 1], [3, 1]]


def test_compare_singleton_classes_all_quiet(capsys, tmp_path):
    path = tmp_path / "quiet.json"
    path.write_text(
        json.dumps(
            {"format": 1, "variables": 2, "values": 2, "classes": [[1], [2]]}
        )
    )
    code, out, _ = run_cli(capsys, "compare", str(path))
    assert code == 0
    doc = json_part(out)
    assert all(m["prunings"] == [] for m in doc["methods"].values())


def test_compare_random_seeds_no_order_violations(capsys, tmp_path):
    import random

    from symbreak import DomainSet, Problem
    from symbreak.breaking import ValueClassPartition

    rng = random.Random(77)
    for seed in range(30):
        n, m = rng.randint(2, 5), rng.randint(2, 4)
        lists = [sorted(rng.sample(range(1, m + 1), rng.randint(1, m))) for _ in range(n)]
        prob = Problem(
            n, m, DomainSet.from_values(lists), partition=ValueClassPartition.of([range(1, m + 1)])
        )
        path = tmp_path / f"case{seed}.json"
        save_problem(prob, str(path))
        code, out, _ = run_cli(capsys, "compare", str(path))
        assert code == 0, out
        assert json_part(out)["violations"] == 0


def test_bench_getree_doubling_and_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "bench-getree", "--n-min", "4", "--n-max", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# getree-bench format=1"
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    assert [r["n"] for r in rows] == ["4", "5", "6", "7", "8"]
    for r in rows:
        assert r["status"] == "ok"
        assert r["static_branches"] == "0"
    assert all(r["doubling_ok"] == "yes" for r in rows[1:])
    branches = [int(r["getree_branches"]) for r in rows]
    assert branches == [5, 15, 52, 203, 877]


def test_reduce_check_verdicts(capsys, tmp_path):
    sat = tmp_path / "sat.cnf"
    sat.write_text("p cnf 2 1\n1 -2 0\n")
    code, out, _ = run_cli(capsys, "reduce", "--cnf", str(sat), "--check", "--out", str(tmp_path / "x.json"))
    assert code == 0
    assert "support exists: yes, SAT: yes, agreement: yes" in out

    unsat = tmp_path / "unsat.cnf"
    unsat.write_text("p cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n")
    code, out, _ = run_cli(capsys, "reduce", "--cnf", str(unsat), "--check", "--out", str(tmp_path / "y.json"))
    assert code == 0
    assert "support exists: no, SAT: no, agreement: yes" in out


def test_reduce_rejects_bad_cnf(capsys, tmp_path):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 2 1\n0\n")
    code, _, err = run_cli(capsys, "reduce", "--cnf", str(bad))
    assert code == 2
    assert "line 2" in err


def test_reduce_check_budget_refusal(capsys, tmp_path):
    big = tmp_path / "big.cnf"
    big.write_text("p cnf 4 1\n1 2 3 0\n")
    code, _, err = run_cli(capsys, "reduce", "--cnf", str(big), "--check")
    assert code == 3
    assert "budget" in err


def test_kcheck_output_shape(capsys):
    code, out, _ = run_cli(capsys, "kcheck", "--family", "chained-pairs", "--k", "2")
    assert code == 0
    doc = json_part(out)
    assert [e["level"] for e in doc["levels"]] == [1, 2, 3]
    assert doc["levels"][0]["holds"] is True


def test_kcheck_rejects_bad_k(capsys):
    code, _, err = run_cli(capsys, "kcheck", "--family", "chained-pairs", "--k", "0")
    assert code == 2


def test_schema_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": 1, "variables": 2}))
    code, _, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert "error:" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "solve", "no-such-file.json")
    assert code == 2


def test_usage_error_exit_code(capsys):
    assert main(["solve"]) == 2
    assert main([]) == 2


def test_reports_are_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "compare", "staircase")
    _, out2, _ = run_cli(capsys, "compare", "staircase")
    assert out1 == out2
    _, out1, _ = run_cli(capsys, "solve", "pigeonhole:5", "--method", "ge-tree", "--goal", "count")
    _, out2, _ = run_cli(capsys, "solve", "pigeonhole:5", "--method", "ge-tree", "--goal", "count")
    assert out1 == out2


def test_console_entry_point():
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(symbreak.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "symbreak.cli", "solve", "pigeonhole:4", "--method", "precedence", "--goal", "count"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 10
    assert '"command": "solve"' in proc.stdout
    assert "wall time" in proc.stderr
