"""Exact-counter check and baseline record.

    python3 perfbench/counters.py [--seeds 1,2] [--record]

For every workload and seed, runs the traced benchmark twice and flags any
work counter (a per-layer metric with unit "count": search counters,
per-kind filter calls and removals, engine runs, ...) that differs between
the two runs, or from the counters recorded in perfbench/baseline.json.
Moving counters are a correctness signal: a speed-up must leave them
identical unless it says it changes filtering.

With --record it also runs each workload once untraced and writes
perfbench/baseline.json: end-to-end metrics, per-layer metrics and counters
for each seed. Seed 1 is the default seed; seed 2 is held out, so a later
claim can be checked on a seed not used while writing it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run_benchmark(workload, seed, seconds, trace):
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if child.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {child.returncode}\n{child.stderr}")
    result = json.loads(child.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} requests failed")
    return result


def counters_of(result):
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


def differences(a, b):
    return {name: (a.get(name), b.get(name)) for name in sorted(set(a) | set(b)) if a.get(name) != b.get(name)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2")
    parser.add_argument("--record", action="store_true", help="write perfbench/baseline.json")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    recorded = json.loads(BASELINE.read_text()) if BASELINE.exists() else None
    if recorded is not None and recorded["run_seconds"] != seconds:
        recorded = None  # the traced request count depends on run_seconds

    flagged = 0
    baseline = {"run_seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        for seed in seeds:
            first, second = (run_benchmark(workload, seed, seconds, 1) for _ in range(2))
            counters = counters_of(first)
            moved = differences(counters, counters_of(second))
            if recorded is not None and str(seed) in recorded["workloads"].get(workload, {}):
                moved.update(differences(recorded["workloads"][workload][str(seed)]["counters"], counters))
            for name, (a, b) in moved.items():
                print(f"FLAG {workload} seed {seed}: {name} {a} != {b}")
            flagged += len(moved)
            print(f"{workload} seed {seed}: {len(counters)} counters, {len(moved)} moved", flush=True)
            if args.record:
                end_to_end = run_benchmark(workload, seed, seconds, 0)
                baseline["workloads"].setdefault(workload, {})[str(seed)] = {
                    "end_to_end": {k: m["value"] for k, m in end_to_end["metrics"].items()},
                    "per_layer": {k: m["value"] for k, m in first["metrics"].items() if m["unit"] != "count"},
                    "counters": counters,
                }
    if args.record:
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
        print(f"wrote {BASELINE.relative_to(ROOT)}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
