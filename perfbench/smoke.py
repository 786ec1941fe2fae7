"""The benchmark's own smoke test.

    python3 perfbench/smoke.py

Runs every workload at tiny size, traced and untraced, and asserts that each
metric BENCHMARK.json names is printed by name with its unit and appears in
the final JSON line. Then it corrupts one result per workload in process and
asserts that it counts as failed, and checks that the benchmark refuses to
run, without printing a result, in a directory holding only BENCHMARK.json
and perfbench/. Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def corrupt_stats(stats):
    stats.solutions += 1
    return stats


def corrupt_outcome(result):
    encoding, outcome = result
    outcome.wipeout = False
    outcome.final_domains = encoding.problem.domains.copy()  # undo every pruning
    return result


def corrupt_stdout(result):
    code, stdout = result
    return code, stdout.replace('"violations": 0', '"violations": 1')


CORRUPT = {"pigeonhole-search": corrupt_stats, "dual-filter": corrupt_outcome, "compare-small": corrupt_stdout}


def run_benchmark(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, check=False
    )


def check_output(workload, trace, expected):
    child = run_benchmark(["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)])
    assert child.returncode == 0, child.stderr
    lines = child.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, (workload, trace, set(got) ^ set(expected))
    printed = {tuple(line.split()[::2][:2]) for line in lines[:-1]}
    for name, unit in expected.items():
        assert (name, unit) in printed, f"{workload}: {name} {unit} not printed"
    print(f"ok  {workload} trace={trace}: {len(expected)} metrics, {result['attempted']} requests")


def check_corrupted_result_fails(name):
    workload = WORKLOADS[name]()
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        lib, specs, _, _ = run.set_up(workload, 3, workdir)
        honest = workload.run
        calls = []

        def run_once_corrupted(lib, spec):
            calls.append(spec)
            result = honest(lib, spec)
            return CORRUPT[name](result) if len(calls) == 1 else result

        workload.run = run_once_corrupted
        outcome = run.measure(lib, workload, specs, count=2)
    assert outcome["failed"] == 1, outcome
    print(f"ok  {name}: a corrupted result counts in failed_frac (1/2)")


def check_refuses_without_source():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        child = run_benchmark(["--workload", "dual-filter", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    assert child.returncode != 0 and child.stdout.strip() == "", (child.returncode, child.stdout)
    print(f"ok  without src/ the benchmark exits {child.returncode} and prints no result")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for name in WORKLOADS:
        check_output(name, 0, end_to_end)
        check_output(name, 1, per_layer)
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    for name in WORKLOADS:
        check_corrupted_result_fails(name)
    check_refuses_without_source()
    return 0


if __name__ == "__main__":
    sys.exit(main())
