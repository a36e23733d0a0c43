"""Self-time arithmetic, per-layer sums and the traced child process."""

import json
import os
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path

import run
import spans

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent


def trace(names, rows, counts=None, ready=0, written=0):
    """OpTrace from (name, start, end, parent) rows."""
    ids = {name: i for i, name in enumerate(names)}
    cols = [array("q", [ids[r[0]] for r in rows])] + [
        array("q", [r[k] for r in rows]) for k in (1, 2, 3)
    ]
    return spans.OpTrace(0, list(names), *cols, counts or {}, ready, written)


def test_self_time_subtracts_disjoint_children():
    # parent [0, 100] with children [10, 30] and [40, 50]
    got = spans.self_times([0, 10, 40], [100, 30, 50], [-1, 0, 0], [0])
    assert got == {0: 70}


def test_self_time_counts_overlap_and_overhang_once():
    # children [10, 30] and [20, 40] overlap; [90, 120] runs past the parent
    got = spans.self_times([0, 10, 20, 90], [100, 30, 40, 120], [-1, 0, 0, 0], [0])
    assert got == {0: 100 - 30 - 10}


def test_self_time_ignores_grandchildren_and_handles_leaves():
    # 0 -> 1 -> 2: span 2 lies inside span 1, so span 0 loses only span 1
    got = spans.self_times([0, 10, 15], [100, 40, 20], [-1, 0, 1], [0, 1, 2])
    assert got == {0: 70, 1: 25, 2: 5}


def test_process_values_sums_times_calls_and_self_times():
    names = ["cli.main", "bipartite.count_ryser", "kernels.ryser_permanent",
             "bipartite.count_bruteforce", "harness.count_via_cvmp"]
    t = trace(names, [
        ("cli.main", 100, 1100, -1),
        ("bipartite.count_ryser", 200, 500, 0),
        ("kernels.ryser_permanent", 250, 450, 1),
        ("bipartite.count_bruteforce", 600, 700, 0),
        ("harness.count_via_cvmp", 700, 760, 0),
        ("harness.count_via_cvmp", 770, 775, 0),
    ], ready=50, written=1200)
    v = spans.process_values(t, n=5, instances=1, spawn_ns=0, exit_ns=1300)
    ns = spans.NS
    assert v["cli.startup_s"] == (50 + 100) * ns
    assert v["cli.self_s"] == (1000 - 300 - 100 - 60 - 5) * ns
    assert v["bipartite.count_ryser_self_s"] == 100 * ns
    assert v["kernels.ryser_permanent_s"] == 200 * ns
    assert v["kernels.ryser_permanent_calls"] == 1
    assert v["harness.count_via_cvmp_calls"] == 2
    assert v["harness.cvmp_cold_s"] == 60 * ns
    assert v["bruteforce_perms"] == 120
    assert v["ryser_terms"] == 31
    assert v["perms.compose_calls"] == 0 and v["gamma.build_gamma_s"] == 0


def test_functions_never_called_give_zero_not_a_crash():
    v = spans.process_values(trace([], []), n=4, instances=0, spawn_ns=0, exit_ns=10)
    totals = Counter(v)
    totals.update({"traced_wall_s": 2.0, "untraced_wall_s": 1.0})
    out = spans.per_round(totals, rounds=1)
    assert set(out) == {name for name, _, _ in spans.PER_LAYER}
    assert out["kernels.ryser_terms_per_s"] == 0.0
    assert out["bipartite.bruteforce_perms_per_s"] == 0.0
    assert out["trace_overhead_ratio"] == 2.0


def test_per_round_divides_sums_by_rounds():
    totals = Counter({
        "perms.compose_calls": 30, "bipartite.count_bruteforce_s": 3.0,
        "bruteforce_perms": 600, "traced_wall_s": 3.0, "untraced_wall_s": 2.0,
    })
    out = spans.per_round(totals, rounds=3)
    assert out["perms.compose_calls"] == 10 and isinstance(out["perms.compose_calls"], int)
    assert out["bipartite.count_bruteforce_s"] == 1.0
    assert out["bipartite.bruteforce_perms_per_s"] == 200.0
    assert out["trace_overhead_ratio"] == 1.5


def test_traced_child_matches_untraced_and_counts_every_path(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("4\n1111\n1111\n1111\n1111\n", encoding="ascii")
    out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    plain = subprocess.run([sys.executable, "-m", "permmatch", "verify", str(graph)],
                           capture_output=True, env=env, check=True)
    traced = subprocess.run([sys.executable, str(HERE / "tracer.py"), str(out), "3",
                             "verify", str(graph)], capture_output=True, env=env, check=True)
    assert run.comparable(traced.stdout) == run.comparable(plain.stdout)
    assert json.loads(traced.stdout)["count_cvmp"] == 24
    t = spans.load(str(out))
    assert t.op == 3
    v = spans.process_values(t, n=4, instances=1, spawn_ns=t.ready_ns, exit_ns=t.written_ns)
    assert v["gamma.path_to_matching_calls"] == 24
    assert v["gamma.validate_path_calls"] == 48
    assert v["gamma.paths_enumerated"] == 24
    assert v["bipartite.count_bruteforce_calls"] == 1
    assert v["kernels.ryser_permanent_calls"] == 1
    assert v["cli.self_s"] > 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(run.inputs.WORKLOADS)
