"""Closed-loop benchmark of the symbreak library: one process, one thread,
one client. The next request starts only when the previous one returns.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload, one child process each

Run it from the repository root; it imports the library from ./src. Human
readable lines go first, and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, measured for S seconds of request time and scaled
to a reference machine speed (see speed_probe). With --trace 1 they are the
per-layer ones: a fixed, seed-determined prefix of the request sequence
runs once untraced and once traced, so work counters repeat exactly for a
given seed and S, and the difference in throughput between the two passes
is the tracing overhead.

Set-up (import, instance generation, writing problem files, warm-up) runs
SETUPS times and setup_s is their median; work moved into set-up shows there.
Checks run between requests, outside the timed spans.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import types
from pathlib import Path

from tracing import MODULES, Tracer, layer_metric_specs
from workloads import WORKLOADS

PROCESS_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUPS = 9

# On a shared virtual machine the speed of the same code drifts by up to
# 1.5x for tens of seconds at a time (other tenants share its cores), far
# beyond any bound a run could hold. A fixed pure-Python probe, run between
# requests outside the timed spans, drifts with it; each request's wall time
# is scaled by PROBE_REFERENCE_S over the median probe time around it, which
# gives seconds at a fixed reference speed. The probe is benchmark code, so
# no library change moves it.
PROBE_REFERENCE_S = 0.004
PROBE_EVERY_S = 0.1  # of request time
PROBE_WINDOW = 5

END_TO_END = (
    ("requests_per_s", "1/s"),
    ("request_p50_s", "s"),
    ("request_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def load_library():
    """Import symbreak afresh, so that every set-up pays for the import."""
    for name in [m for m in sys.modules if m == "symbreak" or m.startswith("symbreak.")]:
        del sys.modules[name]
    lib = types.SimpleNamespace(symbreak=importlib.import_module("symbreak"))
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"symbreak.{name}"))
    return lib


def set_up(workload, seed, workdir):
    start = time.perf_counter()
    lib = load_library()
    generate_start = time.perf_counter()
    specs = workload.generate(lib, seed, workdir)
    generate_s = time.perf_counter() - generate_start
    workload.warm_up(lib, workdir)
    return lib, specs, time.perf_counter() - start, generate_s


class _Cell:
    __slots__ = ("value", "items", "index")

    def __init__(self, value):
        self.value = value
        self.items = [value] * 4
        self.index = {value: value}

    def step(self, x):
        return self.value + x + len(self.items)


def speed_probe():
    """Seconds taken by a fixed mix of object allocation, attribute and dict
    access and integer arithmetic: work like the library's, not its code."""
    start = time.perf_counter()
    cells, table = [], {}
    for i in range(3000):
        cell = _Cell(i)
        cells.append(cell)
        table[i & 1023] = cell.step(i)
        if cell.index.get(i):
            cell.items.append(i)
    total = 0
    for i in range(20000):
        total += i * i
    return time.perf_counter() - start


def measure(lib, workload, specs, seconds=None, count=None, tracer=None):
    """Run requests back to back until `seconds` of request time have passed,
    or for exactly `count` requests, probing the machine's speed every
    PROBE_EVERY_S of request time. Returns each request's latency and the
    index of the last probe before it, the probe times, the failures and the
    per-workload extras summed over the requests."""
    latencies, probe_at, failed, timed = [], [], 0, 0.0
    probes, since_probe = [speed_probe()], 0.0
    extras = {}
    i = 0
    while (timed < seconds) if count is None else (i < count):
        spec = specs[i % len(specs)]
        i += 1
        if tracer is not None:
            tracer.enabled = True
        start = time.perf_counter()
        try:
            if tracer is None:
                result = workload.run(lib, spec)
            else:
                result = tracer.span("request", workload.run, lib, spec)
        except Exception:  # a request that raises is a failed request
            result = None
            traceback.print_exc(file=sys.stderr)
        duration = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        timed += duration
        latencies.append(duration)
        probe_at.append(len(probes) - 1)
        if result is None or not workload.check(lib, spec, result):
            failed += 1
        else:
            for key, value in workload.extras(spec, result).items():
                extras[key] = extras.get(key, 0) + value
        since_probe += duration
        if since_probe >= PROBE_EVERY_S:
            probes.append(speed_probe())
            since_probe = 0.0
    return {"latencies": latencies, "probe_at": probe_at, "probes": probes,
            "failed": failed, "timed": timed, "extras": extras}


def at_reference_speed(run):
    """Each request's latency scaled to the reference speed, by the median
    of the PROBE_WINDOW probes around it."""
    probes, half = run["probes"], PROBE_WINDOW // 2
    return [
        latency * PROBE_REFERENCE_S / statistics.median(probes[max(0, j - half + 1):j + half + 2])
        for latency, j in zip(run["latencies"], run["probe_at"])
    ]


def percentile_90(latencies):
    if len(latencies) < 2:
        return latencies[0]
    return statistics.quantiles(latencies, n=10)[-1]


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        setups, probes = [], [speed_probe()]
        for _ in range(SETUPS):
            gc.collect()  # each set-up starts from the same heap, not the last one's garbage
            setups.append(set_up(workload, seed, workdir))
            probes.append(speed_probe())
        lib, specs, _, _ = setups[-1]
        first_setup_s = time.perf_counter() - PROCESS_START
        scales = [PROBE_REFERENCE_S / statistics.median(probes[i:i + 2]) for i in range(SETUPS)]
        setup_s = statistics.median(s[2] * k for s, k in zip(setups, scales))
        generate_s = statistics.median(s[3] * k for s, k in zip(setups, scales))
        if trace:
            # A fixed count, not a time limit, keeps the traced work, and so
            # its counters, the same for a seed on every commit.
            count = workload.BLOCK * math.ceil(seconds * workload.TRACED_PER_S / workload.BLOCK)
            plain = measure(lib, workload, specs, count=count)
            tracer = Tracer()
            tracer.install(lib)
            traced = measure(lib, workload, specs, count=count, tracer=tracer)
            tracer.write_spans(OUT / f"spans-{name}.csv")
            runs = (plain, traced)
        else:
            runs = (measure(lib, workload, specs, seconds=seconds),)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r["latencies"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    last = runs[-1]
    n = len(last["latencies"])
    rps = [(len(r["latencies"]) - r["failed"]) / sum(at_reference_speed(r)) for r in runs]
    print(f"workload {name} seed {seed}: {n} requests in {last['timed']:.3f} s of request time, "
          f"set-up median of {SETUPS}: {setup_s:.4f} s, script start to first request {first_setup_s:.4f} s")
    print(f"failed_frac {failed / attempted} frac ({failed}/{attempted})")
    if "wipeouts" in last["extras"]:
        print(f"wipeout_frac {last['extras']['wipeouts'] / n} frac ({last['extras']['wipeouts']}/{n})")

    if trace:
        scale = PROBE_REFERENCE_S / statistics.median(last["probes"])
        metrics = tracer.metrics(scale, {
            "cli.stdout_bytes": last["extras"].get("stdout_bytes", 0),
            "instances.generate_s": generate_s,
            "workload.requests": n,
            "workload.wipeout_frac": last["extras"].get("wipeouts", 0) / n,
            "trace.requests_per_s_untraced": rps[0],
            "trace.requests_per_s_traced": rps[1],
            "trace.overhead_frac": 1.0 - rps[1] / rps[0] if rps[0] else 0.0,
        })
        units = {spec[0]: spec[1] for spec in layer_metric_specs()}
    else:
        raw = last["latencies"]
        print(f"raw wall time: requests_per_s {(n - last['failed']) / last['timed']} 1/s, request_p50_s "
              f"{statistics.median(raw)} s, request_p90_s {percentile_90(raw)} s (n={n})")
        print(f"speed probe: median {statistics.median(last['probes'])} s (n={len(last['probes'])}), "
              f"reference {PROBE_REFERENCE_S} s")
        latencies = at_reference_speed(last)
        metrics = {
            "requests_per_s": rps[0],
            "request_p50_s": statistics.median(latencies),
            "request_p90_s": percentile_90(latencies),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    samples = {"requests_per_s": n, "request_p50_s": n, "request_p90_s": n, "setup_s": SETUPS}
    for key, value in metrics.items():
        note = f" (n={samples[key]})" if key in samples else ""
        print(f"{key} {value} {units[key]}{note}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def run_all(args):
    """Each workload in its own child process, so peak RSS stays per workload."""
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, check=False,
        )
        status = status or child.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "symbreak" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'symbreak'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
