"""Every package name the benchmark under bench/ reaches must exist.

The benchmark's own self-tests are not part of this suite, so a deleted
name would otherwise first show up as a failing `bench/run.py --trace 1`.
"""

import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import matchbound
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


def test_the_cli_import_loads_every_module_the_benchmark_resolves():
    # the harness imports matchbound.cli alone, then takes the modules it
    # binds as mb.<module>, and those the tracer patches, from sys.modules
    wanted = {module for _, _, module, _ in load_tracer().TARGETS}
    for path in sorted(BENCH.glob("*.py")):
        wanted.update(f"matchbound.{m}"
                      for m in re.findall(r"\bmb\.(\w+)\.", path.read_text()))
    assert "matchbound.families" in wanted
    script = ("import sys\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "import matchbound.cli\n"
              "print(*sorted(sys.modules))\n")
    src = Path(matchbound.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", script, str(src)],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert sorted(wanted - set(done.stdout.split())) == []


def test_graphs_keep_the_masks_the_benchmark_measures():
    # bench/run.py sizes the largest traced graph's nbr_masks
    assert build_graph(3, [(0, 1), (1, 2)]).nbr_masks == (2, 5, 2)
