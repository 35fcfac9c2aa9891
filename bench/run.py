"""Benchmark for matchbound: whole CLI runs, and each layer in a traced run.

Usage (from the repository root)::

    python3 bench/run.py --workload extremal-solve --seed 1 --trace 0
    python3 bench/run.py --workload all --seed 1   # each in its own process

One process, one thread, one closed-loop client: each op is a sequence of
in-process ``matchbound.cli.run_cli`` calls with stdout captured, and the
next op starts when the previous one has been checked.  Every op is checked
for correctness, and a digest of its output is compared with the digest the
same op gave in any earlier run with the same seed.

With ``--trace 0`` the run reports the end-to-end metrics.  Their times are
scaled to a nominal machine speed, measured by a fixed reference kernel run
between the ops (see ``reference.py``); the raw wall-clock values are
printed and stored next to them.  With ``--trace 1``
it runs each op of the workload's first rounds twice, untraced and with spans
recorded around the package's public functions (see ``tracer.py``), and
reports the per-layer metrics.  Human-readable lines come first; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every op passed, 1 when
one failed and 2 when the benchmark cannot run (``src/matchbound`` missing,
bad flags).

Everything the run writes goes under ``.bench_work/`` in the repository.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import reference
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 9

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("cli.self_ms_per_op", "ms"),
    ("edgelist.parse_edge_list.self_ms_per_op", "ms"),
    ("edgelist.parse_edge_list.us_per_edge", "us"),
    ("edgelist.emit_edge_list.self_ms", "ms"),
    ("graphs.build_graph.self_ms_per_op", "ms"),
    ("graphs.build_graph.us_per_edge", "us"),
    ("graphs.nbr_masks_bytes", "bytes"),
    ("graphs.components.calls_per_op", "count"),
    ("graphs.degree_profile.calls_per_op", "count"),
    ("graphs.is_k_regular.calls_per_op", "count"),
    ("graphs.structure.self_ms_per_op", "ms"),
    ("matching.maximum_matching.calls_per_op", "count"),
    ("matching.maximum_matching.self_ms_per_op", "ms"),
    ("matching.maximum_matching.share", "ratio"),
    ("matching.maximum_matching.scaling_exponent", "slope"),
    ("matching.tutte_berge.self_ms_per_op", "ms"),
    ("matching.tutte_berge.ns_per_subset", "ns"),
    ("bounds.audit_graph.self_ms_per_op", "ms"),
    ("bounds.coefficients.calls_per_op", "count"),
    ("bounds.connected_lower_bounds.calls_per_op", "count"),
    ("families.block_chain.self_ms", "ms"),
    ("families.regular_gadget_ring.self_ms", "ms"),
    ("families.tree_with_gadgets.self_ms", "ms"),
    ("fuzz.random_connected_bounded.self_us_per_trial", "us"),
    ("fuzz.run_fuzz.self_ms_per_op", "ms"),
    ("fuzz.trials_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
)


class Run:
    """One benchmark run of one workload: set-up, timed phase, checks."""

    def __init__(self, workload, seconds: float, trace: bool,
                 work_root: Path = WORK):
        self.wl = workload
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.work = (work_root
                     / f"{workload.name}-{workload.seed}-{os.getpid()}")
        self.mb = None
        self.setup_times: list[float] = []
        self.setup_scaled: list[float] = []  # scaled to NOMINAL_MS
        self.latencies: list[float] = []
        self.op_keys: list[str] = []
        self.ref_ms: list[float] = []  # reference kernel, between the ops
        self.ref_index: list[int] = []  # per latency: the sample before it
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        # scoped to the source, so a deliberate change of output in a later
        # version of the package is not reported as nondeterminism
        self._store_path = (work_root / "digests" / f"{workload.name}-"
                            f"{workload.seed}-{source_digest()[:12]}.json")
        self._stored: dict[str, str] = {}

    # -- program calls -----------------------------------------------------

    def _fresh_import(self) -> None:
        for name in [n for n in sys.modules
                     if n == "matchbound" or n.startswith("matchbound.")]:
            del sys.modules[name]
        cli = importlib.import_module("matchbound.cli")
        self.mb = SimpleNamespace(
            cli=cli, **{m: sys.modules[f"matchbound.{m}"]
                        for m in ("edgelist", "fuzz", "graphs", "matching")})

    def cli_call(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.mb.cli.run_cli(argv)
        return code, out.getvalue(), err.getvalue()

    def _execute(self, op):
        for path, text in op.inputs.items():
            Path(path).write_text(text)
        start = perf_counter()
        outs = [self.cli_call(argv) for argv in op.calls]
        return perf_counter() - start, outs

    def _run_op(self, op, record: bool,
                span_op: str | None = None) -> float | None:
        """Run and check one op; return its latency in seconds.

        A failed check still yields the measured latency; an op whose
        program call raised has none and returns None.  Spans recorded while
        it runs are labelled `span_op` (the op's key by default).
        """
        self.attempted += 1
        tracer = self.tracer
        latency = None
        try:
            if tracer is not None:
                tracer.op = span_op or op.key
            try:
                latency, outs = self._execute(op)
            finally:
                if tracer is not None:
                    tracer.op = None  # the checks record no spans
            problems = self.wl.check(op, outs, self.mb)
            problems += self._check_digest(op, outs)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            print(f"FAILED {op.key}: {'; '.join(problems)}", file=sys.stderr)
        if record and latency is not None:
            self.latencies.append(latency)
            self.op_keys.append(op.key)
            self.ref_index.append(len(self.ref_ms) - 1)
        return latency

    def _check_digest(self, op, outs) -> list[str]:
        h = hashlib.sha256()
        for code, out, _ in outs:
            h.update(f"{code}\n{out}\n".encode())
        for path in op.files:
            h.update(Path(path).read_bytes())
        digest = h.hexdigest()
        known = self._stored.get(op.key, self.digests.get(op.key))
        self.digests[op.key] = digest
        if known is not None and known != digest:
            return [f"output digest {digest[:12]} differs from {known[:12]} "
                    f"of an earlier run with the same seed"]
        return []

    # -- phases --------------------------------------------------------------

    def setup(self) -> None:
        """Import, generate and warm up SETUP_REPS times; keep the last.

        Each set-up is timed on its own and scaled by the reference kernel
        timed just before and just after it.  Each writes into a directory
        of its own, and all are deleted at the end of the run: deleting a
        set-up's files slowed the file creation of the next one.
        """
        for rep in range(SETUP_REPS):
            rep_dir = self.work / f"setup{rep}"
            rep_dir.mkdir(parents=True)
            before = [reference.kernel_ms() for _ in range(3)]
            start = perf_counter()
            if self.tracer is not None:
                self.tracer.uninstall()
            self._fresh_import()
            if self.tracer is not None:
                self.tracer.install()
                self.tracer.op = "setup"
            self.wl.generate(self.mb, self.cli_call, rep_dir)
            self._run_op(self.wl.warmup(), record=False, span_op="setup")
            elapsed = perf_counter() - start
            after = [reference.kernel_ms() for _ in range(3)]
            self.setup_times.append(elapsed)
            self.setup_scaled.append(elapsed * reference.NOMINAL_MS
                                     / statistics.median(before + after))
        if self.tracer is not None:
            self.tracer.uninstall()
            self.tracer.op = None

    def timed(self) -> None:
        """Whole rounds, started while less than `seconds` have passed."""
        start = perf_counter()
        self.ref_ms.append(reference.kernel_ms())
        for rounds_done, ops in enumerate(self.wl.rounds()):
            if rounds_done and perf_counter() - start >= self.seconds:
                break
            for op in ops:
                self._run_op(op, record=True)
                self.ref_ms.append(reference.kernel_ms())

    def traced(self) -> float:
        """Run each op of the first rounds untraced and traced; return the
        ratio of traced to untraced op time."""
        times = {False: 0.0, True: 0.0}
        rounds = itertools.islice(self.wl.rounds(), self.wl.trace_rounds)
        for i, op in enumerate(op for ops in rounds for op in ops):
            # alternate which goes first, so both see the same machine state
            for with_spans in (i % 2 == 0, i % 2 == 1):
                if with_spans:
                    self.tracer.install()
                try:
                    latency = self._run_op(op, record=not with_spans)
                finally:
                    self.tracer.uninstall()
                times[with_spans] += latency or 0.0
        return times[True] / times[False] if times[False] else 0.0

    def execute(self) -> dict:
        """Set up, run and return the metrics; {} when none can be given."""
        self._stored = _load_json(self._store_path)
        try:
            try:
                self.setup()
            except Exception:
                self.attempted += 1
                self.failed += 1
                print(f"FAILED set-up: {traceback.format_exc()}",
                      file=sys.stderr)
                return {}
            if self.tracer is None:
                self.timed()
                metrics = self.end_to_end()
            else:
                ratio = self.traced()
                metrics = layer_metrics(self, ratio)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        self._store_path.parent.mkdir(parents=True, exist_ok=True)
        merged = {**self._stored, **self.digests}
        _write_json(self._store_path, dict(sorted(merged.items())))
        return metrics

    def scaled_latencies(self) -> list[float]:
        """Each latency scaled by the reference kernel timed around it."""
        return [t * reference.NOMINAL_MS
                / reference.local_speed(self.ref_ms, i)
                for t, i in zip(self.latencies, self.ref_index)]

    def end_to_end(self, scaled: bool = True) -> dict:
        lat = self.scaled_latencies() if scaled else self.latencies
        if len(lat) < 2:
            return {}
        return {
            "ops_per_s": len(lat) / sum(lat),
            "p50_ms": statistics.median(lat) * 1e3,
            "p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
            "setup_s": statistics.median(self.setup_scaled if scaled
                                         else self.setup_times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


def layer_metrics(run: Run, overhead_ratio: float) -> dict:
    """Per-layer metrics from the spans of the traced pass."""
    tracer = run.tracer
    op_spans = [s for s in tracer.spans if s.op != "setup"]
    setup_spans = [s for s in tracer.spans if s.op == "setup"]
    ops = len({s.op for s in op_spans if s.name == "cli.run_cli"}) or 1
    ops_time = sum(s.duration for s in op_spans if s.parent == -1)

    def of(name, spans=op_spans):
        return [s for s in spans if s.name == name]

    def self_s(name, spans=op_spans):
        return sum(s.self_time for s in of(name, spans))

    def per_op_ms(*names):
        return sum(self_s(n) for n in names) * 1e3 / ops

    def calls(*names):
        return sum(len(of(n)) for n in names) / ops

    def per_unit(name, scale, total_units):
        units = sum(total_units(s) for s in of(name))
        return self_s(name) * scale / units if units else 0.0

    def setup_ms(name):
        return self_s(name, setup_spans) * 1e3 / SETUP_REPS

    trials = sum(s.size for s in of("fuzz.run_fuzz"))
    plain_lat = run.latencies
    fuzz_trials = getattr(run.wl, "trials", 0)
    g = tracer.largest_graph
    masks = (sys.getsizeof(g.nbr_masks) + sum(map(sys.getsizeof, g.nbr_masks))
             if g is not None else 0)
    return {
        "cli.self_ms_per_op": per_op_ms("cli.run_cli"),
        "edgelist.parse_edge_list.self_ms_per_op":
            per_op_ms("edgelist.parse_edge_list"),
        "edgelist.parse_edge_list.us_per_edge":
            per_unit("edgelist.parse_edge_list", 1e6, lambda s: s.size),
        "edgelist.emit_edge_list.self_ms": setup_ms("edgelist.emit_edge_list"),
        "graphs.build_graph.self_ms_per_op": per_op_ms("graphs.build_graph"),
        "graphs.build_graph.us_per_edge":
            per_unit("graphs.build_graph", 1e6, lambda s: s.size),
        "graphs.nbr_masks_bytes": masks,
        "graphs.components.calls_per_op": calls("graphs.components"),
        "graphs.degree_profile.calls_per_op": calls("graphs.degree_profile"),
        "graphs.is_k_regular.calls_per_op": calls("graphs.is_k_regular"),
        "graphs.structure.self_ms_per_op":
            per_op_ms("graphs.components", "graphs.degree_profile",
                      "graphs.is_k_regular"),
        "matching.maximum_matching.calls_per_op":
            calls("matching.maximum_matching"),
        "matching.maximum_matching.self_ms_per_op":
            per_op_ms("matching.maximum_matching"),
        "matching.maximum_matching.share":
            self_s("matching.maximum_matching") / ops_time,
        "matching.maximum_matching.scaling_exponent":
            _loglog_slope([(s.size, s.self_time)
                           for s in of("matching.maximum_matching")]),
        "matching.tutte_berge.self_ms_per_op":
            per_op_ms("matching.tutte_berge"),
        "matching.tutte_berge.ns_per_subset":
            per_unit("matching.tutte_berge", 1e9, lambda s: 2 ** s.size),
        "bounds.audit_graph.self_ms_per_op": per_op_ms("bounds.audit_graph"),
        "bounds.coefficients.calls_per_op":
            calls("bounds.general_coefficients",
                  "bounds.density_coefficients"),
        "bounds.connected_lower_bounds.calls_per_op":
            calls("bounds.connected_lower_bounds"),
        "families.block_chain.self_ms": setup_ms("families.block_chain"),
        "families.regular_gadget_ring.self_ms":
            setup_ms("families.regular_gadget_ring"),
        "families.tree_with_gadgets.self_ms":
            setup_ms("families.tree_with_gadgets"),
        "fuzz.random_connected_bounded.self_us_per_trial":
            self_s("fuzz.random_connected_bounded") * 1e6 / trials
            if trials else 0.0,
        "fuzz.run_fuzz.self_ms_per_op": per_op_ms("fuzz.run_fuzz"),
        "fuzz.trials_per_s":
            len(plain_lat) / sum(plain_lat) * fuzz_trials,
        "trace.overhead_ratio": overhead_ratio,
    }


def _loglog_slope(points) -> float:
    """Least-squares slope of log(time) against log(n); 0 with one n."""
    pts = [(math.log(n), math.log(t)) for n, t in points if n > 1 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def machine_info(workload: str, seed: int) -> dict:
    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": model,
        "commit": _git_commit(),
        "src_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
    }


def source_digest() -> str:
    """SHA-256 over the package's source files."""
    src = hashlib.sha256()
    for path in sorted((SRC / "matchbound").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return src.hexdigest()


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def _write_json(path: Path, payload) -> None:
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, indent=1) + "\n")
    os.replace(tmp, path)


def run_one(args) -> int:
    workload = WORKLOADS[args.workload](args.seed)
    run = Run(workload, args.seconds, bool(args.trace))
    metrics = run.execute()
    info = machine_info(args.workload, args.seed)
    info.update(seconds=args.seconds, trace=args.trace, why=workload.why)
    if run.ref_ms:
        info["reference_kernel_ms"] = statistics.median(run.ref_ms)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    raw = {} if args.trace else run.end_to_end(scaled=False)
    samples = {"setup_s": SETUP_REPS, "peak_rss_mb": 1}
    print("# " + json.dumps(info))
    for name, value in metrics.items():
        n = samples.get(name, len(run.latencies))
        line = f"{name:50} {value:14.6g} {units[name]:6} (n={n})"
        if name in raw:
            line += f"  raw {raw[name]:.6g}"
        print(line)
    print(f"{'error_rate':50} {run.failed / run.attempted:14.6g} {'ratio':6} "
          f"(failed {run.failed} / attempted {run.attempted})")
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    _write_json(results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
                          f"-{stamp}-{os.getpid()}.json",
                {"info": info, "result": result, "raw_metrics": raw,
                 "setup_s": run.setup_times, "reference_ms": run.ref_ms,
                 "latencies_ms": dict(zip(run.op_keys,
                                          (t * 1e3 for t in run.latencies)))})
    if run.tracer is not None:
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        run.tracer.write(traces / f"{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


def run_all(args) -> int:
    """Every workload, each in its own process so peak RSS stays its own."""
    combined = {}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        combined[name] = json.loads(lines[-1]) if lines else None
        status = max(status, proc.returncode)
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "matchbound" / "__init__.py").is_file():
        print(f"error: no matchbound package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
