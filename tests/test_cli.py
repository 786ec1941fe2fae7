import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest

import symbreak
from symbreak import DomainSet, Problem, cli, instances
from symbreak.breaking import METHODS, ValueClassPartition, build_generator_lex, build_precedence, build_puget
from symbreak.cli import EXIT_TIMEOUT, main
from symbreak.consistency import LEVELS, compare_methods, filter_level
from symbreak.instances import chained_pairs_family, parse_dimacs, pigeonhole_model, reduce_3sat, staircase_fixture
from symbreak.problem_io import problem_to_dict, save_problem
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
    prob = surjection_fixture()
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
    prob = surjection_fixture()
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


def test_propagate_huge_value_range_is_fast(capsys, tmp_path):
    # Full domains are built in closed form; value by value, 400k values
    # took seconds.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"format": 1, "variables": 1, "values": 400000}))
    started = time.perf_counter()
    code, out, _ = run_cli(capsys, "propagate", str(path))
    elapsed = time.perf_counter() - started
    assert code == 0 and json_part(out)["prunings"] == []
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_wide_value_range_solves_and_propagates_fast(capsys, tmp_path):
    # Domains are expanded into values in time linear in their width; one
    # bit at a time, a 3-node search over 100,000 values took seconds.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"format": 1, "variables": 3, "values": 200000}))
    started = time.perf_counter()
    code, out, _ = run_cli(capsys, "solve", str(path), "--goal", "first")
    elapsed = time.perf_counter() - started
    assert code == 0 and json_part(out)["solutions"] == [[1, 1, 1]]
    assert elapsed < 0.5, f"solve took {elapsed:.2f}s"
    started = time.perf_counter()
    code, out, _ = run_cli(capsys, "propagate", str(path))
    elapsed = time.perf_counter() - started
    assert code == 0 and json_part(out)["prunings"] == []
    assert elapsed < 0.5, f"propagate took {elapsed:.2f}s"


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


def test_timeout_counts_the_time_spent_building_the_model(capsys, monkeypatch):
    # --timeout runs from when the command starts, so a slow set-up alone
    # can use it up, although the search after it would be quick.
    def slow(build):
        def built(*args):
            time.sleep(0.2)
            return build(*args)
        return built

    monkeypatch.setattr(cli, "apply_method", slow(cli.apply_method))
    code, out, err = run_cli(capsys, "solve", "pigeonhole:3", "--timeout", "0.1")
    assert code == EXIT_TIMEOUT
    assert out == ""
    assert "timed out" in err

    monkeypatch.setattr(cli, "pigeonhole_model", slow(cli.pigeonhole_model))
    code, out, _ = run_cli(capsys, "bench-getree", "--n-min", "3", "--n-max", "3", "--timeout", "0.1")
    assert code == 0
    assert out.splitlines()[2:] == ["3,,,,,,,,timeout"]


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


def test_timeout_must_be_positive_and_finite(capsys):
    # 0 and nan used to mean "no deadline", -1 an instant timeout
    for value in ("0", "nan", "-1", "inf"):
        code, out, err = run_cli(
            capsys, "solve", "pigeonhole:9", "--method", "ge-tree", "--goal", "count", "--timeout", value
        )
        assert code == 2, value
        assert out == ""
        assert "timeout must be a positive number of seconds" in err
    code, out, err = run_cli(capsys, "bench-getree", "--n-min", "4", "--n-max", "5", "--timeout", "-1")
    assert code == 2
    assert out == ""
    code, out, _ = run_cli(capsys, "solve", "pigeonhole:4", "--method", "ge-tree", "--goal", "count", "--timeout", "30")
    assert code == 10
    assert json_part(out)["stats"]["nodes"] == 8


@pytest.mark.parametrize("sigma", [["a", 1], [1.0, 2.0], [True, 2]], ids=["string", "float", "bool"])
def test_malformed_sigma_is_a_usage_error(capsys, tmp_path, sigma):
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps({
        "format": 1, "variables": 2, "values": 2,
        "constraints": [{"type": "lex_leq_permuted", "sigma": sigma, "order": [0, 1]}],
    }))
    code, out, err = run_cli(capsys, "propagate", str(path))
    assert code == 2
    assert out == ""
    assert "value must be an integer" in err


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


def compare_case(rng, wide):
    """A compare input. The narrow ones have the shape of the benchmark's
    compare-small files: n 6..8, m 4..5, one class or the classes {1, 2} and
    {3..m}, domain sizes spread evenly over 1..m. The wide ones have n 2..7,
    m 2..6, one to three classes of shuffled values and random domains."""
    if wide:
        n, m = rng.randint(2, 7), rng.randint(2, 6)
        values = rng.sample(range(1, m + 1), m)
        cuts = sorted(rng.sample(range(1, m), min(m - 1, rng.randint(0, 2))))
        classes = [sorted(values[a:b]) for a, b in zip([0] + cuts, cuts + [m])]
        sizes = [rng.randint(1, m) for _ in range(n)]
    else:
        n, m = rng.randint(6, 8), rng.randint(4, 5)
        classes = [range(1, m + 1)] if rng.random() < 0.5 else [range(1, 3), range(3, m + 1)]
        sizes = [1 + i * m // n for i in range(n)]
        rng.shuffle(sizes)
    lists = [sorted(rng.sample(range(1, m + 1), k)) for k in sizes]
    return Problem(n, m, DomainSet.from_values(lists), partition=ValueClassPartition.of(classes))


def compare_stdout_digest(capsys, workdir, seeds):
    """SHA-256 over the exit code and stdout of `compare` on one narrow and
    one wide case per seed, and how many of those runs wipe out at puget-ac
    and how many prune more with puget-sac than with puget-ac."""
    digest = hashlib.sha256()
    ac_wipeouts = sac_gains = 0
    for seed in seeds:
        rng = random.Random(seed)
        for wide in (False, True):
            path = workdir / f"case{seed}-{int(wide)}.json"
            save_problem(compare_case(rng, wide), str(path))
            code, out, _ = run_cli(capsys, "compare", str(path))
            digest.update(f"{code}\n{out}".encode())
            methods = json_part(out)["methods"]
            ac_wipeouts += methods["puget-ac"]["wipeout"]
            sac_gains += methods["puget-sac"]["prunings"] != methods["puget-ac"]["prunings"]
    return digest.hexdigest(), ac_wipeouts, sac_gains


# The five methods' prunings and wipeout flags, the relation checks and the
# exit code of compare. Recorded at commit 674bdf8, before the oracle cut
# non-canonical prefixes and SAC started from the AC fixpoint, by running
# compare_stdout_digest(capsys, tmp_path, range(150)) there.
COMPARE_STDOUT_DIGEST = "72a57a2560080bfc2a9c432587d34accaf24b20f6544395fa83e8084b9a2b944"


def test_compare_keeps_its_stdout_digest(capsys, tmp_path):
    digest, ac_wipeouts, sac_gains = compare_stdout_digest(capsys, tmp_path, range(150))
    assert ac_wipeouts and sac_gains
    assert digest == COMPARE_STDOUT_DIGEST


COMPARE_AS_PROPAGATE = {
    "generator-lex": ["--method", "generator-lex"],
    "precedence": ["--method", "precedence"],
    "puget-ac": ["--method", "puget", "--level", "ac"],
    "puget-sac": ["--method", "puget", "--level", "sac"],
    "oracle": ["--level", "oracle-gac"],
}


def test_compare_entries_match_propagate(capsys, tmp_path):
    # Each compare entry is what propagate prints for the same file under
    # the matching method and level. Seed 27's narrow file is one on which
    # SAC prunes more than AC.
    ac_wipeouts = sac_gains = 0
    for seed in range(20, 35):
        rng = random.Random(seed)
        for wide in (False, True):
            path = str(tmp_path / f"case{seed}-{int(wide)}.json")
            save_problem(compare_case(rng, wide), path)
            _, out, _ = run_cli(capsys, "compare", path)
            methods = json_part(out)["methods"]
            assert sorted(methods) == sorted(COMPARE_AS_PROPAGATE)
            for name, flags in COMPARE_AS_PROPAGATE.items():
                code, out, _ = run_cli(capsys, "propagate", path, *flags)
                doc = json_part(out)
                assert code == (10 if doc["wipeout"] else 0), (path, name)
                assert methods[name] == {"wipeout": doc["wipeout"], "prunings": doc["prunings"]}, (path, name)
            ac_wipeouts += methods["puget-ac"]["wipeout"]
            sac_gains += methods["puget-sac"]["prunings"] != methods["puget-ac"]["prunings"]
    assert ac_wipeouts and sac_gains


def test_compare_methods_holds_every_relation_in_process():
    # compare's relations through the library alone, on 150 narrow and 150
    # wide cases. puget-ac, read off SAC's log, is what AC alone prunes.
    ac_wipeouts = sac_gains = 0
    for seed in range(2000, 2150):
        rng = random.Random(seed)
        for wide in (False, True):
            problem = compare_case(rng, wide)
            results, relations = compare_methods(problem)
            assert sorted(results) == sorted(COMPARE_AS_PROPAGATE)
            assert len(relations) == 5 and all(r["holds"] for r in relations), (seed, wide, relations)
            ac = filter_level(problem, "puget", "ac")  # compare cases have no constraints
            ac_pairs = {(p.var, p.value) for p in ac.prunings if p.var < problem.num_vars}
            assert results["puget-ac"] == (ac_pairs, ac.wipeout), (seed, wide)
            ac_wipeouts += ac.wipeout
            sac_gains += results["puget-sac"][0] != ac_pairs
    assert ac_wipeouts and sac_gains


def test_compare_budget_counts_the_full_product(capsys, tmp_path):
    # 4**8 = 65,536 assignments, of which 2,795 are canonical: the oracle's
    # cut walk visits fewer than the product, but the budget counts it all.
    path = tmp_path / "full.json"
    save_problem(
        Problem(8, 4, DomainSet.full(8, 4), partition=ValueClassPartition.of([range(1, 5)])),
        str(path),
    )
    code, _, err = run_cli(capsys, "compare", str(path), "--budget", str(4**8 - 1))
    assert code == 3 and "budget" in err
    code, out, _ = run_cli(capsys, "compare", str(path), "--budget", str(4**8))
    assert code == 0 and json_part(out)["violations"] == 0


def propagate_sac_stdout_digest(capsys, workdir, seeds):
    """SHA-256 over the exit code and stdout of `propagate --level sac
    --method puget` on one narrow and one wide compare case per seed, and how
    many of those runs wipe out and how many print a pair whose cause is a
    singleton probe."""
    digest = hashlib.sha256()
    wipeouts = probe_removals = 0
    for seed in seeds:
        rng = random.Random(seed)
        for wide in (False, True):
            path = workdir / f"sac{seed}-{int(wide)}.json"
            save_problem(compare_case(rng, wide), str(path))
            code, out, _ = run_cli(capsys, "propagate", str(path), "--level", "sac", "--method", "puget")
            digest.update(f"{code}\n{out}".encode())
            wipeouts += json_part(out)["wipeout"]
            probe_removals += "sac-probe" in out
    return digest.hexdigest(), wipeouts, probe_removals


# Every pair SAC prints, with its cause (the filter that removed it or
# "sac-probe"), the wipeout flag and the exit code. Recorded at commit
# cf1a3ab, before SAC skipped probes whose outcome is known, by running
# propagate_sac_stdout_digest(capsys, tmp_path, range(1000, 1075)) there.
PROPAGATE_SAC_STDOUT_DIGEST = "c98fe1bbe7c44ecbee4e4500c080447d321f270ad0929a236029e85b25dd416d"


def test_propagate_sac_keeps_its_stdout_digest(capsys, tmp_path):
    digest, wipeouts, probe_removals = propagate_sac_stdout_digest(capsys, tmp_path, range(1000, 1075))
    assert wipeouts and probe_removals
    assert digest == PROPAGATE_SAC_STDOUT_DIGEST


# The stdout of JSON commands that the golden files above do not cover,
# recorded at commit cf1a3ab, before the report writer stopped calling
# json.dumps: solutions (lists of ints), a witness keyed by str, and a
# problem document (lists of pairs, nested dicts).
GOLDEN_JSON_STDOUT = {
    "solve-surjection-puget-all": ["solve", "surjection", "--method", "puget", "--goal", "all"],
    "kcheck-3": ["kcheck", "--k", "3"],
    "reduce-small": ["reduce", "--cnf", os.path.join(os.path.dirname(__file__), "golden", "reduce-small.cnf")],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_JSON_STDOUT))
def test_json_report_matches_the_golden_file(capsys, name):
    golden = os.path.join(os.path.dirname(__file__), "golden", f"{name}.txt")
    with open(golden, encoding="utf-8") as f:
        expected = f.read()
    code, out, _ = run_cli(capsys, *GOLDEN_JSON_STDOUT[name])
    assert code == 0 and out == expected


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


def test_bench_getree_from_one_leaves_the_ratio_after_zero_branches_empty(capsys):
    # pigeonhole:1 fails at the root with no ge-tree branch, so the next row
    # has no ratio to print, as the first row has none.
    code, out, _ = run_cli(capsys, "bench-getree", "--n-min", "1", "--n-max", "3")
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    assert [(r["n"], r["getree_branches"], r["branch_ratio"], r["doubling_ok"], r["status"])
            for r in rows] == [("1", "0", "", "", "ok"), ("2", "1", "", "", "ok"),
                               ("3", "2", "2.000", "NO", "ok")]


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


def test_reduce_out_file_is_the_stdout_document(capsys, tmp_path):
    cnf = os.path.join(os.path.dirname(__file__), "golden", "reduce-small.cnf")
    code, printed, _ = run_cli(capsys, "reduce", "--cnf", cnf)
    assert code == 0
    out = tmp_path / "problem.json"
    code, stdout, _ = run_cli(capsys, "reduce", "--cnf", cnf, "--out", str(out))
    assert code == 0 and stdout == f"wrote {out}\n"
    assert out.read_bytes() == printed.encode()


def test_level_ac_refuses_a_ternary_constraint(capsys, tmp_path):
    path = tmp_path / "ternary.json"
    path.write_text(json.dumps({
        "format": 1, "variables": 3, "values": 3,
        "constraints": [{"type": "disjunction_eq", "value": 3, "scope": [0, 1, 2]}],
    }))
    code, out, err = run_cli(capsys, "propagate", str(path), "--level", "ac")
    assert (code, out) == (2, "")
    assert "needs binary constraints" in err


def test_methods_needing_classes_refuse_a_file_without_them(capsys, tmp_path):
    path = tmp_path / "classless.json"
    path.write_text(json.dumps({"format": 1, "variables": 2, "values": 2}))
    for argv in (["solve", str(path), "--method", "ge-tree"], ["compare", str(path)]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "requires 'classes'" in err, argv


def test_bench_getree_refuses_an_empty_range(capsys):
    code, out, err = run_cli(capsys, "bench-getree", "--n-min", "3", "--n-max", "2")
    assert (code, out) == (2, "")
    assert "n-min" in err


def test_oracle_gac_without_classes_or_constraints_prunes_nothing(capsys, tmp_path):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"format": 1, "variables": 2, "values": 3, "domains": [[1, 3], [2]]}))
    code, out, _ = run_cli(capsys, "propagate", str(path), "--level", "oracle-gac")
    assert code == 0
    assert json_part(out) == {
        "format": 1, "command": "propagate", "level": "oracle-gac", "method": "oracle",
        "wipeout": False, "prunings": [],
    }


def test_reduce_rejects_bad_cnf(capsys, tmp_path):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 2 1\n0\n")
    code, _, err = run_cli(capsys, "reduce", "--cnf", str(bad))
    assert code == 2
    assert "line 2" in err


def test_reduce_of_formula_without_variables_is_a_usage_error(capsys, tmp_path):
    # "p cnf 0 0" is valid DIMACS, but its encoding is no loadable problem.
    empty = tmp_path / "empty.cnf"
    empty.write_text("p cnf 0 0\n")
    out = tmp_path / "empty.json"
    code, stdout, err = run_cli(capsys, "reduce", "--cnf", str(empty), "--out", str(out))
    assert (code, stdout) == (2, "")
    assert "at least one" in err
    assert not out.exists()


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


def test_kcheck_budget_exit(capsys, monkeypatch):
    # Level 2 of chained-pairs:3 visits more than one assignment, by flag
    # and by environment alike.
    monkeypatch.delenv("SYMBREAK_BUDGET", raising=False)
    code, out, err = run_cli(capsys, "kcheck", "--k", "3", "--budget", "1")
    assert (code, out) == (3, "")
    assert "consistency check visited over 1 assignments" in err
    monkeypatch.setenv("SYMBREAK_BUDGET", "1")
    code, out, err = run_cli(capsys, "kcheck", "--k", "3")
    assert (code, out) == (3, "")
    assert "consistency check visited over 1 assignments" in err


def test_schema_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": 1, "variables": 2}))
    code, _, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert "error:" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "solve", "no-such-file.json")
    assert code == 2


def test_unreadable_path_is_a_usage_error(capsys, tmp_path):
    # a directory where a file is expected used to end in an IsADirectoryError traceback
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    for argv in (
        ["solve", str(tmp_path)],
        ["compare", str(tmp_path)],
        ["reduce", "--cnf", str(tmp_path)],
        ["reduce", "--cnf", str(cnf), "--out", str(tmp_path)],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


# Runs cli.main with its address space capped at 1 GiB, so an allocation of
# a huge domain list or mask fails at once instead of taking real memory.
CAPPED_MAIN = """
import resource, sys
cap = 1 << 30
_, hard = resource.getrlimit(resource.RLIMIT_AS)
if hard != resource.RLIM_INFINITY:
    cap = min(cap, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
from symbreak.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("field,size", [("variables", 10**12), ("values", 10**12),
                                        ("variables", 10**23), ("values", 10**23)])
def test_problem_too_large_for_memory_is_a_usage_error(tmp_path, field, size):
    pytest.importorskip("resource")
    doc = {"format": 1, "variables": 2, "values": 2}
    doc[field] = size
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(symbreak.__file__))
    for command in ("propagate", "solve", "compare"):
        proc = subprocess.run(
            [sys.executable, "-c", CAPPED_MAIN, command, str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2, (command, proc.stderr)
        assert proc.stderr == "error: problem too large to build in memory\n"
        assert proc.stdout == ""


def test_sac_timeout_exit_code(capsys):
    for argv in (
        ["compare", "staircase", "--timeout", "1e-9"],
        ["propagate", "surjection", "--level", "sac", "--method", "puget", "--timeout", "1e-9"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_TIMEOUT, argv
        assert out == ""
        assert "timed out" in err
    code, out, _ = run_cli(capsys, "compare", "staircase", "--timeout", "0")
    assert (code, out) == (2, "")
    _, plain, _ = run_cli(capsys, "compare", "staircase")
    code, out, _ = run_cli(capsys, "compare", "staircase", "--timeout", "60")
    assert (code, out) == (0, plain)


def test_main_is_reentrant(capsys, monkeypatch):
    # a goal given in one call does not carry over to the next
    _, out, _ = run_cli(capsys, "solve", "pigeonhole:4", "--goal", "count")
    assert "solutions" not in json_part(out)
    _, out, _ = run_cli(capsys, "solve", "pigeonhole:4")
    doc = json_part(out)
    assert doc["goal"] == "all" and doc["solutions"] == []

    # a usage error leaves the next call's report unchanged
    _, first, _ = run_cli(capsys, "compare", "staircase")
    assert run_cli(capsys, "solve")[0] == 2
    code, again, _ = run_cli(capsys, "compare", "staircase")
    assert code == 0 and again == first
    src = os.path.dirname(os.path.dirname(symbreak.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "symbreak.cli", "compare", "staircase"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0 and proc.stdout == first

    # SYMBREAK_BUDGET is read on every call
    monkeypatch.delenv("SYMBREAK_BUDGET", raising=False)
    assert run_cli(capsys, "propagate", "staircase", "--level", "oracle-gac")[0] == 0
    monkeypatch.setenv("SYMBREAK_BUDGET", "1")
    assert run_cli(capsys, "propagate", "staircase", "--level", "oracle-gac")[0] == 3
    monkeypatch.setenv("SYMBREAK_BUDGET", "1000000")
    assert run_cli(capsys, "propagate", "staircase", "--level", "oracle-gac")[0] == 0


def test_main_builds_its_parser_at_most_once(capsys, monkeypatch):
    built = []
    real_build_parser = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return real_build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    for argv in (["solve", "pigeonhole:4", "--goal", "count"], ["solve"], ["compare", "staircase"],
                 ["kcheck", "--k", "2"], ["propagate", "staircase"]):
        main(argv)
    capsys.readouterr()
    assert len(built) <= 1


JSON_STRINGS = [
    "", "a", 'say "hi"', "back\\slash", "tab\tnew\nline\r", "\x00\x1f\x7f", "café",
    "☃ snow", "\U0001f600", "\ud800", "</script>", "key", "Key", "kéy",
]


def random_json_value(rng, depth):
    """A random document of the kinds reports hold, plus values that the
    report writer must hand to json.dumps (floats, ints as dict keys)."""
    kind = rng.randrange(11 if depth < 4 else 6)
    if kind == 0:
        return rng.choice(JSON_STRINGS)
    if kind == 1:
        return rng.choice([0, 1, -1, 7, -42, 2**63, -(10**40), rng.randint(-999, 999)])
    if kind == 2:
        return rng.choice([True, False, None])
    if kind == 3:
        return rng.choice([1.5, -0.0, 1e300, float("inf")]) if rng.random() < 0.1 else rng.randint(-5, 5)
    if kind in (4, 5):
        # would-be pairs: ints, bools in place of ints, other lengths
        pick = [lambda: rng.randint(-3, 99), lambda: rng.choice([True, False]), lambda: None]
        return [rng.choice(pick)() if rng.random() < 0.2 else rng.randint(-3, 99)
                for _ in range(rng.choice([2, 2, 2, 1, 3]))]
    if kind in (6, 7):
        return [random_json_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if kind == 8:
        return [[rng.randint(0, 9), rng.randint(1, 9)] for _ in range(rng.randint(0, 5))]
    keys = JSON_STRINGS if rng.random() < 0.97 else [1, 2, 3]
    return {rng.choice(keys): random_json_value(rng, depth + 1) for _ in range(rng.randint(0, 4))}


def test_emit_json_matches_json_dumps(capsys):
    rng = random.Random(2026)
    docs = [
        {}, [], {"a": {}, "b": []}, [[True, 1]], [[1, True]], [[1, 2], [3, 4]], [[1, 2], [3]],
        [[1, 2], 3], [[1, 2.0]], {"x": 1.5}, {1: "int key"}, [-(10**30), 10**30], ["\"\\\x01é"],
    ]
    docs += [random_json_value(rng, 0) for _ in range(600)]
    for doc in docs:
        cli._emit_json(doc)
        assert capsys.readouterr().out == json.dumps(doc, indent=2, sort_keys=True) + "\n", doc


def test_usage_error_exit_code(capsys):
    assert main(["solve"]) == 2
    assert main([]) == 2


# A registered name with the wrong argument is refused, never resolved to the
# bare fixture or a Python int() message; a valid family argument out of its
# generator's range keeps the generator's own message.
MALFORMED_NAMES = {
    "staircase:3": "expected staircase",
    "surjection:junk": "expected surjection",
    "pigeonhole:": "expected pigeonhole:N",
    "pigeonhole:x": "expected pigeonhole:N",
    "pigeonhole:2:3": "expected pigeonhole:N",
    "chained-pairs": "expected chained-pairs:K",
    "pigeonhole:0": "need at least one variable",
    "chained-pairs:0": "k must be at least 1",
}


@pytest.mark.parametrize("command", ["solve", "propagate", "compare"])
@pytest.mark.parametrize("spec", sorted(MALFORMED_NAMES))
def test_malformed_problem_names_are_usage_errors(capsys, command, spec):
    code, out, err = run_cli(capsys, command, spec)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert MALFORMED_NAMES[spec] in err
    if "expected" in MALFORMED_NAMES[spec]:
        assert repr(spec) in err


def test_readme_and_help_list_the_registered_names(capsys):
    # README's "Command line" sentence and the problem argument's help both
    # list every registered name with its argument form, in table order.
    forms = [form for form, _ in instances._NAMED.values()]
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as f:
        sentence = f.read().split("a named generator: ", 1)[1].split(".", 1)[0]
    assert re.findall("`([^`]*)`", sentence) == forms
    listed = "".join(("named generator: " + ", ".join(forms)).split())
    for command in ("solve", "propagate", "compare"):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0 and listed in "".join(out.split())  # help may wrap, at hyphens too


# Each file under tests/golden holds the stdout of `symbreak <argv>`,
# recorded at commit 959648d. A change that only aims at speed must leave
# every byte as it is.
GOLDEN_STDOUT = {
    "propagate-staircase": ["propagate", "staircase"],
    "propagate-staircase-puget-ac": ["propagate", "staircase", "--method", "puget", "--level", "ac"],
    "propagate-surjection-puget-sac": ["propagate", "surjection", "--method", "puget", "--level", "sac"],
    "propagate-chained-pairs-3-ac": ["propagate", "chained-pairs:3", "--level", "ac"],
    "compare-surjection": ["compare", "surjection"],
    "bench-getree-4-8": ["bench-getree", "--n-min", "4", "--n-max", "8"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_STDOUT))
def test_stdout_matches_the_golden_file(capsys, name):
    golden = os.path.join(os.path.dirname(__file__), "golden", f"{name}.txt")
    with open(golden, encoding="utf-8") as f:
        expected = f.read()
    code, out, _ = run_cli(capsys, *GOLDEN_STDOUT[name])
    assert code == 0 and out == expected


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


def mutation_bases():
    """Valid problem documents: compare cases of both shapes and the named
    instances, which between them hold every constraint kind."""
    rng = random.Random(5)
    problems = [compare_case(rng, wide) for wide in (False, True) for _ in range(3)]
    staircase = staircase_fixture()
    problems += [
        staircase.with_constraints(build_precedence(staircase)),
        staircase.with_constraints(build_generator_lex(staircase)),
        surjection_fixture(),
        build_puget(surjection_fixture()).problem,
        pigeonhole_model(4),
        chained_pairs_family(2),
        reduce_3sat(parse_dimacs("p cnf 2 2\n1 -2 0\n2 0\n")),
    ]
    docs = [problem_to_dict(p) for p in problems]
    docs[0]["constraints"] = [{"type": "at_least_n_values", "prefix_length": 3, "distinct_count": 2}]
    return docs


ODD_LEAVES = (-1, 0, 1, 64, 1.5, "2", None, True, [], {}, [[]])


def mutated_text(rng, doc):
    """The document's JSON after one random edit: a leaf replaced by a
    nearby or out-of-range number or a value of another type, a key or list
    item dropped, or a character of the text cut or changed."""
    text = json.dumps(doc)
    edit = rng.randrange(4)
    if edit == 3:
        i = rng.randrange(len(text))
        return text[:i] if rng.random() < 0.3 else text[:i] + rng.choice('[]{},:"-019x ') + text[i + 1 :]
    doc = json.loads(text)
    node = doc
    while True:
        key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
        child = node[key]
        if isinstance(child, (dict, list)) and child and rng.random() < 0.7:
            node = child
            continue
        if edit == 0 and isinstance(child, int) and not isinstance(child, bool):
            node[key] = child + rng.choice((-2, -1, 1, 2, 60))
        elif edit <= 1:
            node[key] = rng.choice(ODD_LEAVES)
        else:
            del node[key]
        return json.dumps(doc)


def test_mutated_problem_files_end_in_a_documented_exit_code(capsys, tmp_path):
    # 200 seeded mutations of valid files through solve, propagate at every
    # level and compare, with a small budget and timeout: each run returns
    # an exit code cli documents, and each error is one stderr line.
    rng = random.Random(21)
    bases = mutation_bases()
    propagate_methods = [m for m in METHODS if m != "ge-tree"]
    codes = {}
    for i in range(200):
        path = tmp_path / f"mutant{i}.json"
        text = mutated_text(rng, rng.choice(bases))
        if rng.random() < 0.05:
            text = json.dumps(rng.choice(bases))  # some runs see a valid file
        path.write_text(text)
        limits = ["--budget", "5000", "--timeout", "0.05"]
        method = propagate_methods[i % len(propagate_methods)]
        runs = [["solve", str(path), "--method", METHODS[i % len(METHODS)], "--goal", "first", "--timeout", "0.05"]]
        runs += [["propagate", str(path), "--level", level, "--method", method, *limits] for level in LEVELS]
        runs.append(["compare", str(path), *limits])
        for argv in runs:
            code, out, err = run_cli(capsys, *argv)
            assert code in (0, 2, 3, 4, 10), (argv, text, err)  # 1 would be a compare violation
            if code in (2, 3, 4):
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, text, err)
            codes[code] = codes.get(code, 0) + 1
    assert codes.get(0) and codes.get(2) and codes.get(10) and codes.get(3), codes
