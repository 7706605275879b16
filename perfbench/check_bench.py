"""Self-checks of the benchmark.

    python3 -m pytest -q perfbench/check_bench.py

The file name keeps these checks out of the package's own test run: the
traced ops take about half a minute.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import anhgas.cli as cli  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def make_run(name: str, seed: int, tmp_path: Path) -> run.Run:
    w = WORKLOADS[name]
    return run.Run(w, seed, tmp_path / name, cli, workloads.generate(w, seed, tmp_path / name))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced ops of each kind in one run, and a second run of each."""
    tmp = tmp_path_factory.mktemp("traced")
    tracer = Tracer()
    out = {}
    for name in ("quantum-sweep", "quantum-sweep-t2", "classical-sweep", "verify-cold"):
        first = make_run(name, 1, tmp / "a")
        second = make_run(name, 1, tmp / "b")
        ops = [run.traced_op(first, tracer), run.traced_op(first, tracer)]
        if name != "quantum-sweep-t2":
            ops.append(run.traced_op(second, tracer))
        assert first.failed == 0 and second.failed == 0, first.problems + second.problems
        out[name] = ops
    return out


def test_counts_repeat_across_ops_and_runs(traced):
    for name, ops in traced.items():
        counts = [run.counts_of(m) for m, _, _ in ops]
        assert all(c == counts[0] for c in counts), name


def test_counts_do_not_depend_on_threads(traced):
    one = run.counts_of(traced["quantum-sweep"][0][0])
    two = run.counts_of(traced["quantum-sweep-t2"][0][0])
    assert one == two
    assert one["quantum_gas.integrand_calls"] > 0
    assert one["quantum_gas.series_terms"] > 0


def test_layer_self_times_close_on_the_op_wall(traced):
    for name, ops in traced.items():
        for _, snap, wall in ops:
            assert abs(run.self_time_closure(snap, wall) - 1.0) < run.CLOSURE_TOL, name


def test_two_threads_report_pool_work(traced):
    m, snap, _ = traced["quantum-sweep-t2"][0]
    assert sum(not t["main"] for t in snap["threads"]) == 2
    assert 0.0 < m["cli.pool_util"] <= 1.0
    assert traced["quantum-sweep"][0][0]["cli.pool_util"] == 0.0


def test_each_workload_reaches_its_layers(traced):
    q = traced["quantum-sweep"][0][0]
    c = traced["classical-sweep"][0][0]
    v = traced["verify-cold"][0][0]
    assert q["specfun.whittaker_calls"] > 0 and q["classical_gas.calls"] == 0
    assert c["quantum_gas.calls"] == 0 and c["quantum_gas.integrand_calls"] == 0
    for branch in ("series", "asymptotic", "quadrature"):
        assert c[f"specfun.method.{branch}"] > 0
    assert v["oracles.mc_samples"] == 22000
    assert c["oracles.quad_evals"] == c["oracles.quad_calls"] * c["oracles.evals_per_quad"]


def test_tracer_replaces_every_from_import_binding():
    import anhgas
    from anhgas import classical_gas, oracles, quantum_gas, reports

    originals = (oracles.integrate_semi_infinite, reports.compare,
                 oracles.metropolis_expectation)
    with Tracer():
        for mod in (cli, quantum_gas, classical_gas):
            assert mod.integrate_semi_infinite is oracles.integrate_semi_infinite
            assert mod.compare is reports.compare
        assert anhgas.compare is reports.compare
        assert cli.metropolis_expectation is oracles.metropolis_expectation
        assert oracles.integrate_semi_infinite is not originals[0]
        assert reports.compare is not originals[1]
    assert (oracles.integrate_semi_infinite, reports.compare,
            oracles.metropolis_expectation) == originals
    assert quantum_gas.integrate_semi_infinite is originals[0]


def test_integrand_time_is_charged_to_the_caller():
    from anhgas import oracles

    def slow(x):
        return math.fsum(math.sin(x + k) for k in range(300))

    tracer = Tracer()
    with tracer:
        res = oracles.integrate_finite(slow, 0.0, 1.0)
    snap = tracer.take()
    assert snap["counters"]["oracles.quad_calls"] == 1
    assert snap["counters"]["oracles.quad_evals"] == res.evaluations
    assert snap["self_s"]["cli"] > 5 * snap["self_s"]["oracles"]


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for w in WORKLOADS.values():
        a, b, c = (workloads.generate(w, seed, tmp_path / d)
                   for seed, d in ((7, "a"), (7, "b"), (8, "c")))
        if w.kind == "verify":
            assert a["argv"] == b["argv"] != c["argv"]
        else:
            def config(inputs):
                return Path(inputs["argv"][2]).read_bytes()
            assert config(a) == config(b) != config(c)


def test_grids_cover_the_regimes_they_are_chosen_for():
    for seed in range(20):
        q = workloads.quantum_grid(seed)
        assert len(q) == 6 and all(0.5 <= t <= 3.0 for t in q)
        assert sum(t >= 1.6 for t in q) >= 2 and sum(t <= 1.0 for t in q) >= 2
        c = workloads.classical_grid(seed)
        assert len(c) == 300 and c == sorted(c) and c[0] == 0.03
        assert math.isclose(c[-1], 8.0)
        z = [1.0 / t for t in c]
        assert any(x > 16 for x in z) and any(4 < x <= 16 for x in z)
        assert any(x <= 4 for x in z)


def test_gate_failure_rules():
    ref = {"exit_code": 2, "header": "h",
           "rows": [["a", 1.0, 2.0, "PASS"], ["b", 1.0, 3.0, "FLAGGED"]]}

    def table(rows):
        return {"header": "h", "rows": rows}

    ok = {"a": [1.0, 2.0, "PASS"], "b": [1.0, 3.0, "FLAGGED"]}
    assert gate.check(2, table(ok), ["a", "b"], "h", ref) == []
    assert gate.check(1, table(ok), None, "h", ref)
    assert gate.check(2, table({**ok, "a": [1.0 + 1e-7, 2.0, "PASS"]}), None, "h", ref)
    assert gate.check(2, table({**ok, "a": [1.0, 2.0, "FLAGGED"]}), None, "h", ref)
    assert gate.check(2, table({"a": ok["a"]}), None, "h", ref)
    assert gate.check(2, {"header": "x", "rows": ok}, None, "h", ref)
    # FLAGGED -> ERROR is honest reporting, not a failure
    assert gate.check(2, table({**ok, "b": [math.nan, math.nan, "ERROR"]}), None, "h", ref) == []
    # without a reference: exit code, header and the generated row set
    assert gate.check(2, table(ok), ["a", "b"], "h", None) == []
    assert gate.check(2, table(ok), ["a"], "h", None)


def test_references_exist_for_the_default_and_held_out_seed():
    for kind in ("verify", "quantum", "classical"):
        for seed in (1, 2):
            ref = gate.load_reference(kind, seed)
            assert ref is not None and ref["exit_code"] == gate.EXPECTED_EXIT


def test_tail_has_ten_samples_beyond_it():
    walls = [float(k) for k in range(25)]
    value, pct = run.tail(walls)
    assert sum(w > value for w in walls) == run.TAIL_BEYOND
    assert pct == 100.0 * 15 / 25
    # too few ops for a percentile above the median to have ten beyond it
    assert run.tail([float(k) for k in range(15)]) == (7.0, 100.0 * 8 / 15)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 100.0 * 2 / 3)


def test_scipy_share_of_the_import_tree():
    tree = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:        50 |         50 |       inspect",
        "import time:       200 |        250 |     scipy.optimize._x",
        "import time:       300 |        650 |   scipy.optimize",
        "import time:        10 |         10 |   numpy.thing",
        "import time:        20 |        680 | anhgas.quantum_gas",
    ])
    assert run.scipy_import_s(tree) == pytest.approx(650e-6)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [n for n, w in WORKLOADS.items() if w.gated]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
