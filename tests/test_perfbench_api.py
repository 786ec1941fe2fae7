"""The benchmark's workloads still run against the library.

perfbench/ drives the library through its public names (the static
builders, `PugetEncoding.x_pairs`, `solve`, `cli.main`, ...). A change that
drops or reshapes one of them would otherwise first show when the benchmark
runs. Each workload here generates seed 1, warms up and serves its first
requests, and its own check must pass on each. Only perfbench/ is read.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load("workloads").WORKLOADS


def library():
    """The namespace perfbench/run.py hands its workloads: the package and
    each module it traces."""
    lib = types.SimpleNamespace(symbreak=importlib.import_module("symbreak"))
    for name in load("tracing").MODULES:
        setattr(lib, name, importlib.import_module(f"symbreak.{name}"))
    return lib


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_serves_requests_that_pass_its_check(name, tmp_path):
    workload = WORKLOADS[name]()
    lib = library()
    specs = workload.generate(lib, 1, tmp_path)
    workload.warm_up(lib, tmp_path)
    assert len(specs) >= 3
    for spec in specs[:3]:
        assert workload.check(lib, spec, workload.run(lib, spec)), (name, spec)
