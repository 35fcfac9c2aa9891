"""Every package name the benchmark under bench/ reaches must exist.

The benchmark's own self-tests are not part of this suite, so a deleted
name would otherwise first show up as a failing `bench/run.py --trace 1`.
"""

import importlib
import importlib.util
import re
from pathlib import Path

from matchbound.graphs import build_graph

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    targets = load_tracer().TARGETS
    assert targets
    for _, name, module, _ in targets:
        assert callable(getattr(importlib.import_module(module), name, None)), \
            f"{module}.{name}"


def test_every_package_name_the_workloads_call_exists():
    # the harness binds each package module as mb.<module>
    calls = set()
    for path in sorted(BENCH.glob("*.py")):
        calls.update(re.findall(r"\bmb\.(\w+)\.(\w+)", path.read_text()))
    assert ("graphs", "odd_components_after_deletion") in calls
    for module, name in sorted(calls):
        assert hasattr(importlib.import_module(f"matchbound.{module}"), name), \
            f"matchbound.{module}.{name}"


def test_graphs_keep_the_masks_the_benchmark_measures():
    # bench/run.py sizes the largest traced graph's nbr_masks
    assert build_graph(3, [(0, 1), (1, 2)]).nbr_masks == (2, 5, 2)
