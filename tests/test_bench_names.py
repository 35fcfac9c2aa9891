"""Every package name the benchmark under bench/ reaches must exist, and
the files it writes must take the bulk read.

The benchmark's own self-tests are not part of this suite, so a deleted
name would otherwise first show up as a failing `bench/run.py --trace 1`.
"""

import importlib
import importlib.util
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import matchbound
from matchbound import edgelist, fuzz
from matchbound.cli import run_cli
from matchbound.graphs import build_graph

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where dataclasses look a module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    targets = load_bench("tracer").TARGETS
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
    wanted = {module for _, _, module, _ in load_bench("tracer").TARGETS}
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


def test_the_sampler_takes_seed_order_and_degree_first():
    # bench/tracer.py reads a sample's order as args[1], and oracle-certify
    # passes all three positionally: a reordering would mismeasure silently
    params = inspect.signature(fuzz.random_connected_bounded)
    assert list(params.parameters)[:3] == ["g_seed", "n", "k"]


def test_graphs_keep_the_masks_the_benchmark_measures():
    # bench/run.py sizes the largest traced graph's nbr_masks
    assert build_graph(3, [(0, 1), (1, 2)]).nbr_masks == (2, 5, 2)


def test_every_family_shape_the_benchmark_writes_is_read_in_bulk(
        tmp_path, monkeypatch, capsys):
    # extremal-solve writes its members with `construct --out` and reads
    # each twice per op; a line-by-line read of them would go unnoticed
    def refuse(text):
        raise AssertionError("read line by line")

    monkeypatch.setattr(edgelist, "_parse_lines", refuse)
    workload = load_bench("workloads").ExtremalSolve
    smallest = {}  # the smallest member of each variant in the first round
    for key, argv, _ in workload(0, rounds=1)._pool[0]:
        r = int(argv[argv.index("--r") + 1])
        label = key.split("-")[0]
        if label not in smallest or r < smallest[label][0]:
            smallest[label] = (r, argv)
    assert len(smallest) == len(workload.VARIANTS) == 12
    path = tmp_path / "member.el"
    for _, argv in smallest.values():
        assert run_cli(argv + ["--out", str(path)]) == 0, argv
        alpha = json.loads(path.with_suffix(".el.json").read_text())[
            "alpha_predicted"]
        capsys.readouterr()
        assert run_cli(["matching", str(path)]) == 0, argv
        assert json.loads(capsys.readouterr().out)["alpha"] == alpha, argv
