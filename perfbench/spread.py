"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload dual-filter --seeds 1-10 [--out FILE] [--against FILE]

Runs perfbench/run.py once per seed (one after another, never in parallel)
and reports, for each end-to-end metric, the median and the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a share
of the median, next to the metric's bound in BENCHMARK.json. `--out` saves
the values; `--against` compares the medians with a saved file and flags a
metric whose median got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_seed(workload, seed, seconds):
    child = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if child.returncode != 0:
        sys.exit(f"seed {seed}: exit {child.returncode}\n{child.stderr}")
    result = json.loads(child.stdout.strip().splitlines()[-1])
    print(f"seed {seed}: {result['attempted']} requests, {result['failed']} failed", flush=True)
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]

    values = {}
    for seed in args.seeds:
        for name, value in run_seed(args.workload, seed, seconds).items():
            values.setdefault(name, []).append(value)
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "values": values}, indent=1))
    before = json.loads(args.against.read_text())["values"] if args.against else {}

    worse = False
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        vals = values[name]
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median
        line = f"{name:16} median {median:.6g} {metric['unit']:4} spread {spread:.3f} bound {bound}"
        if name != "setup_s" and spread > bound / 3:
            line += "  SPREAD ABOVE A THIRD OF THE BOUND"
        if name in before:
            old = statistics.median(before[name])
            change = (median - old) / old if metric["better"] == "lower" else (old - median) / old
            line += f"  worse by {change:+.3f} vs {old:.6g}"
            if change > bound:
                line += "  WORSE THAN BOUND"
                worse = True
        print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
