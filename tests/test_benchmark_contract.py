"""The benchmark's workloads must keep running on the library.

perfbench/workloads.py calls the public API with keywords of its own (the
sweep still passes n_nodes=4097 to rate_sweep); a refactor that breaks one of
those calls fails the benchmark without failing any library test.  This test
loads the workloads read-only and runs operation 0 of each at the default
size through the same steps as perfbench/run.py.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["Sweep", "Descent", "Crosscheck"])
def test_operation_zero_runs_and_checks(name):
    workload = getattr(load_workloads(), name)()
    inp = workload.make_input(1, 0)
    result = workload.run(inp)
    assert workload.check(inp, result) == []
    assert workload.check_run([inp], [result]) == {}
    assert isinstance(workload.fingerprint(result), bytes)
    assert all(math.isfinite(v) for v in workload.ref_errors(inp, result).values())
