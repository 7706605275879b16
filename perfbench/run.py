"""Layered benchmark for anhgas.

    python3 perfbench/run.py --workload quantum-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is a separate run that alternates untraced and traced ops
and reports the per-layer metrics, the start-up probe and the tracing
overhead. ``--workload all`` runs every workload, each in its own
benchmark process, and prints one table. The last line of standard
output is one JSON object; a results file with the run record goes to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import gate
import workloads
from tracer import LAYERS, Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 2        # fresh interpreters that repeat the set-up, besides this one
IMPORT_PROBES = 3       # fresh interpreters per start-up probe
TAIL_BEYOND = 10        # samples that must lie beyond the tail percentile
CLOSURE_TOL = 0.03      # layer self times must sum to the traced op wall within this

END_TO_END = (("setup_s", "s"), ("wall_s_p50", "s"), ("wall_s_tail", "s"),
              ("reports_per_s", "1/s"), ("peak_rss_mb", "MB"), ("ok_frac", "ratio"))
PER_LAYER = (
    ("cli.import_s", "s"), ("cli.import_scipy_s", "s"), ("cli.self_s", "s"),
    ("cli.calls", "count"), ("cli.pool_util", "ratio"), ("cli.gil_wait_s", "s"),
    ("quantum_gas.self_s", "s"), ("quantum_gas.calls", "count"),
    ("quantum_gas.integrand_calls", "count"), ("quantum_gas.us_per_integrand", "us"),
    ("quantum_gas.series_terms", "count"), ("quantum_gas.report_calls", "count"),
    ("classical_gas.self_s", "s"), ("classical_gas.calls", "count"),
    ("oracles.self_s", "s"), ("oracles.calls", "count"), ("oracles.quad_calls", "count"),
    ("oracles.quad_evals", "count"), ("oracles.evals_per_quad", "ratio"),
    ("oracles.quad_unconverged", "count"), ("oracles.mc_samples", "count"),
    ("specfun.self_s", "s"), ("specfun.calls", "count"), ("specfun.whittaker_calls", "count"),
    ("specfun.method.series", "count"), ("specfun.method.recurrence", "count"),
    ("specfun.method.asymptotic", "count"), ("specfun.method.quadrature", "count"),
    ("reports.self_s", "s"), ("reports.compare_calls", "count"),
    ("reports.status.PASS", "count"), ("reports.status.FLAGGED", "count"),
    ("reports.status.ERROR", "count"), ("reports.status.SKIPPED", "count"),
    ("trace.overhead_frac", "ratio"),
)
# per-layer metrics that are times; every other one is a count that must
# repeat exactly across the ops of a run
TIMES = {"cli.import_s", "cli.import_scipy_s", "cli.pool_util", "cli.gil_wait_s",
         "quantum_gas.us_per_integrand", "trace.overhead_frac"} | {
    name for name, _ in PER_LAYER if name.endswith(".self_s")}


# ---------------------------------------------------------------------------
# start-up probes
# ---------------------------------------------------------------------------

def _python(code: str, *args: str, flags: tuple = ()) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]))
    return subprocess.run([sys.executable, *flags, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)


def setup_probe(workload: str, seed: int, directory: Path) -> float:
    """Set-up time in a fresh interpreter: import anhgas.cli, generate inputs."""
    code = ("import sys, time, workloads\n"
            "from pathlib import Path\n"
            "t = time.perf_counter()\n"
            "import anhgas.cli\n"
            "workloads.generate(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]),"
            " Path(sys.argv[3]))\n"
            "print(time.perf_counter() - t)\n")
    return float(_python(code, workload, str(seed), str(directory)).stdout)


def _wall(code: str) -> float:
    t0 = perf_counter()
    _python(code)
    return perf_counter() - t0


def scipy_import_s(importtime: str) -> float:
    """Cumulative time of the outermost scipy entries of a -X importtime tree."""
    entries = []
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue                                   # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, int(cumulative), name.strip()))
    total_us = 0
    for i, (depth, cumulative, name) in enumerate(entries):
        if name != "scipy" and not name.startswith("scipy."):
            continue
        # children are printed before their parent, one level deeper
        parent = next((e[2] for e in entries[i + 1:] if e[0] < depth), "")
        if parent != "scipy" and not parent.startswith("scipy."):
            total_us += cumulative
    return total_us * 1e-6


def startup_probe() -> dict:
    bare, full, scipy = [], [], []
    for _ in range(IMPORT_PROBES):
        bare.append(_wall("pass"))
        full.append(_wall("import anhgas.cli"))
        scipy.append(scipy_import_s(
            _python("import anhgas.cli", flags=("-X", "importtime")).stderr))
    return {"bare_s": bare, "import_s": full, "import_scipy_s": scipy,
            "cli.import_s": statistics.median(full) - statistics.median(bare),
            "cli.import_scipy_s": statistics.median(scipy)}


# ---------------------------------------------------------------------------
# ops and metrics
# ---------------------------------------------------------------------------

class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, workload, seed: int, run_dir: Path, cli, inputs: dict):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.cli = cli
        self.inputs = inputs
        self.reference = gate.load_reference(workload.kind, seed)
        if workload.kind == "verify" and self.reference is None:
            default = gate.load_reference("verify", 1)
            self.expected = [k for k, *_ in default["rows"]] if default else None
        else:
            self.expected = workloads.expected_keys(workload.kind, inputs["grid"])
        self.header = None if workload.kind == "verify" else gate.CSV_HEADER
        self.ops = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = None
        self.statuses = None

    def op(self, in_process: bool) -> float:
        """Run and check one op; return its wall time."""
        out = self.run_dir / f"op{self.ops}"
        argv = self.inputs["argv"] + ["--out", str(out)]
        problems = []
        t0 = perf_counter()
        try:
            if in_process:
                code = workloads.run_in_process(self.cli, argv)
            else:
                code = workloads.run_subprocess(argv, SRC)
        except Exception as exc:        # an op that raises is a failed op
            code = None
            problems.append(f"raised {exc!r}")
        wall = perf_counter() - t0
        if not problems:
            try:
                table = gate.read_table(self.workload.kind, out)
            except (OSError, ValueError) as exc:
                problems.append(f"unreadable outputs: {exc!r}")
            else:
                problems += gate.check(code, table, self.expected, self.header,
                                       self.reference)
                digest = gate.digest(out)
                self.digest = self.digest or digest
                if digest != self.digest:
                    problems.append("outputs differ from the first op of the run")
                self.statuses = gate.statuses(table)
        shutil.rmtree(out, ignore_errors=True)
        self.ops += 1
        if problems:
            self.failed += 1
            self.problems += [f"op {self.ops - 1}: {p}" for p in problems[:5]]
        return wall

    def checks(self) -> list[str]:
        ran = ["raises", "exit_code", "byte_identity"]
        if self.header is not None:
            ran.append("header")
        if self.expected is not None:
            ran.append("row_set_vs_grid")
        if self.reference is not None:
            ran += ["row_set_vs_reference", "values_vs_reference", "pass_rows"]
        return ran


def tail(walls: list[float]) -> tuple[float, float]:
    """(wall, percentile) at the highest percentile with TAIL_BEYOND samples
    beyond it, but never below the median: with fewer than 2 * TAIL_BEYOND
    + 2 ops that percentile lies under the median, and the lowest ops of a
    run swing with host load far more than its median does."""
    ordered = sorted(walls)
    k = max(len(ordered) - TAIL_BEYOND - 1, (len(ordered) - 1) // 2)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def layer_metrics(snap: dict, op_wall: float, threads: int) -> dict[str, float]:
    calls, counters, self_s = snap["calls"], snap["counters"], snap["self_s"]

    def layer_calls(layer):
        return sum(v for k, v in calls.items() if k.startswith(layer + "."))

    workers = [t for t in snap["threads"] if not t["main"]]
    integrand_calls = calls.get("quantum_gas.massless_integrand", 0)
    quads = counters.get("oracles.quad_calls", 0)
    m = {
        "cli.pool_util": (sum(t["root_wall_s"] for t in workers) / (threads * op_wall)
                          if threads > 1 else 0.0),
        "cli.gil_wait_s": sum(t["root_wall_s"] - t["root_cpu_s"] for t in workers),
        "quantum_gas.integrand_calls": integrand_calls,
        "quantum_gas.us_per_integrand": (
            1e6 * snap["incl_s"].get("massless_integrand", 0.0) / integrand_calls
            if integrand_calls else 0.0),
        "quantum_gas.series_terms": calls.get("quantum_gas.whittaker_series_term", 0),
        "oracles.evals_per_quad": (counters.get("oracles.quad_evals", 0) / quads
                                   if quads else 0.0),
        "specfun.whittaker_calls": calls.get("specfun.log_whittaker_w", 0),
        "reports.compare_calls": calls.get("reports.compare", 0),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        m[f"{layer}.calls"] = layer_calls(layer)
    for name, _unit in PER_LAYER:
        if name not in m and not name.startswith(("reports.status.", "trace.", "cli.import")):
            m[name] = counters.get(name, 0)
    return m


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    run_dir = OUT / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import anhgas.cli as cli
    inputs = workloads.generate(workload, seed, run_dir / "inputs")
    setup = [perf_counter() - t0]
    if not trace:
        setup += [setup_probe(name, seed, run_dir / f"probe{k}") for k in range(SETUP_PROBES)]
    run = Run(workload, seed, run_dir, cli, inputs)
    record = {"setup_samples_s": setup}
    if trace:
        result = traced_loop(run, seconds, record)
    else:
        result = timed_loop(run, seconds, record)
        result["setup_s"] = statistics.median(setup)
        result["peak_rss_mb"] = peak_rss_mb()
    shutil.rmtree(run_dir, ignore_errors=True)
    record.update(machine_record(), workload=name, seed=seed, seconds=seconds,
                  trace=trace, ops=run.ops, failed=run.failed, problems=run.problems,
                  checks=run.checks(), statuses=run.statuses,
                  reference=str(gate.ref_path(workload.kind, seed).relative_to(ROOT))
                  if run.reference else None)
    correct = run.failed == 0 and not record.get("trace_problems")
    units = dict(PER_LAYER if trace else END_TO_END)
    metrics = {k: {"value": result[k], "unit": units[k]} for k in units}
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"results-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return {"correct": correct, "attempted": run.ops, "failed": run.failed,
            "metrics": metrics}


def timed_loop(run: Run, seconds: float, record: dict) -> dict:
    walls = []
    deadline = perf_counter() + seconds
    while True:
        walls.append(run.op(run.workload.in_process))
        if perf_counter() >= deadline:
            break
    rows = sum(v for k, v in run.statuses.items() if k != "SKIPPED") if run.statuses else 0
    tail_wall, tail_pct = tail(walls)
    record.update(op_walls_s=walls, tail_percentile=tail_pct, tail_ops=len(walls),
                  report_rows_per_op=rows)
    return {"wall_s_p50": statistics.median(walls), "wall_s_tail": tail_wall,
            "reports_per_s": rows * len(walls) / sum(walls),
            "ok_frac": (run.ops - run.failed) / run.ops}


def traced_op(run: Run, tracer) -> tuple[dict, dict, float]:
    """One in-process op under the tracer: (layer metrics, snapshot, wall)."""
    with tracer:
        wall = run.op(in_process=True)
    snap = tracer.take()
    return layer_metrics(snap, wall, run.workload.threads), snap, wall


def counts_of(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k not in TIMES}


def self_time_closure(snap: dict, wall: float) -> float:
    """Sum of the main thread's layer self times over the traced op wall."""
    main = next((t for t in snap["threads"] if t["main"]), {"self_s": {}})
    return sum(main["self_s"].values()) / wall


def traced_loop(run: Run, seconds: float, record: dict) -> dict:
    probe = startup_probe()
    tracer = Tracer()
    untraced, traced, per_op = [], [], []
    deadline = perf_counter() + seconds
    while True:
        # verify-cold is traced in-process: its start-up comes from the probe
        untraced.append(run.op(in_process=True))
        per_op.append(traced_op(run, tracer))
        traced.append(per_op[-1][2])
        if perf_counter() >= deadline:
            break
    problems = []
    counts = [counts_of(m) for m, _, _ in per_op]
    if any(c != counts[0] for c in counts):
        problems.append("counts differ between the traced ops of the run")
    closure = [self_time_closure(snap, wall) for _, snap, wall in per_op]
    if any(abs(c - 1.0) > CLOSURE_TOL for c in closure):
        problems.append(f"layer self times do not sum to the op wall: {closure}")
    result = {k: statistics.median(m[k] for m, _, _ in per_op) for k in per_op[0][0]}
    result.update(counts[0])
    result["cli.import_s"] = probe["cli.import_s"]
    result["cli.import_scipy_s"] = probe["cli.import_scipy_s"]
    result["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    for status, n in (run.statuses or gate.statuses({"rows": {}})).items():
        result[f"reports.status.{status}"] = n
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{run.workload.name}-seed{run.seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for sid, parent, name, layer, thread, start, end, wall, cpu in tracer.spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "layer": layer,
                                 "thread": thread, "start": start, "end": end,
                                 "wall_s": wall, "cpu_s": cpu if cpu >= 0 else None}) + "\n")
    record.update(startup_probe=probe, untraced_walls_s=untraced, traced_walls_s=traced,
                  self_time_closure=closure, trace_problems=problems,
                  per_thread=[snap["threads"] for _, snap, _ in per_op],
                  spans_file=str(spans_path.relative_to(ROOT)))
    return result


def machine_record() -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    versions = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "versions": versions, "commit": commit}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, each in its own benchmark process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              capture_output=True, text=True, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        summary["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    return summary


def print_table(result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
    fail_frac = result["failed"] / result["attempted"]
    print(f"{'fail_frac':48s} {fail_frac:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']} ops)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "anhgas" / "cli.py").is_file():
        print(f"no anhgas sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
