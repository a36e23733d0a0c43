"""Spans written by `tracer.py`, and the per-layer metrics made from them."""

from __future__ import annotations

import json
import math
from array import array
from collections import Counter
from dataclasses import dataclass

NS = 1e-9

# (metric, unit, better): the per-layer metrics of BENCHMARK.json, in order.
PER_LAYER = (
    ("cli.startup_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("bipartite.parse_graph_s", "s", "lower"),
    ("bipartite.count_bruteforce_s", "s", "lower"),
    ("bipartite.count_bruteforce_calls", "count", "lower"),
    ("bipartite.bruteforce_perms_per_s", "1/s", "higher"),
    ("bipartite.count_ryser_self_s", "s", "lower"),
    ("perms.compose_calls", "count", "lower"),
    ("gamma.build_gamma_s", "s", "lower"),
    ("gamma.enumerate_cvmps_s", "s", "lower"),
    ("gamma.paths_enumerated", "count", "lower"),
    ("gamma.path_to_matching_s", "s", "lower"),
    ("gamma.path_to_matching_calls", "count", "lower"),
    ("gamma.validate_path_calls", "count", "lower"),
    ("harness.count_via_cvmp_s", "s", "lower"),
    ("harness.count_via_cvmp_calls", "count", "lower"),
    ("harness.cvmp_cold_s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("harness.instances", "count", "higher"),
    ("kernels.count_subset_masks_s", "s", "lower"),
    ("kernels.count_subset_masks_calls", "count", "lower"),
    ("kernels.ryser_permanent_s", "s", "lower"),
    ("kernels.ryser_permanent_calls", "count", "lower"),
    ("kernels.ryser_terms_per_s", "1/s", "higher"),
    ("trace_overhead_ratio", "ratio", "lower"),
)

# Span names whose total time is reported, keyed by metric.
_TIMED = {
    "bipartite.parse_graph_s": "bipartite.parse_graph",
    "bipartite.count_bruteforce_s": "bipartite.count_bruteforce",
    "gamma.build_gamma_s": "gamma.build_gamma",
    "gamma.enumerate_cvmps_s": "gamma.enumerate_cvmps",
    "gamma.path_to_matching_s": "gamma.path_to_matching",
    "harness.count_via_cvmp_s": "harness.count_via_cvmp",
    "kernels.count_subset_masks_s": "kernels.count_subset_masks",
    "kernels.ryser_permanent_s": "kernels.ryser_permanent",
}
# Span names whose call count is reported, keyed by metric.
_CALLS = {
    "bipartite.count_bruteforce_calls": "bipartite.count_bruteforce",
    "perms.compose_calls": "perms.compose",
    "gamma.path_to_matching_calls": "gamma.path_to_matching",
    "gamma.validate_path_calls": "gamma.validate_path",
    "harness.count_via_cvmp_calls": "harness.count_via_cvmp",
    "kernels.count_subset_masks_calls": "kernels.count_subset_masks",
    "kernels.ryser_permanent_calls": "kernels.ryser_permanent",
}
# Span names whose self time is reported, keyed by metric.
_SELF = {
    "cli.self_s": ("cli.main",),
    "bipartite.count_ryser_self_s": ("bipartite.count_ryser",),
    "harness.self_s": ("harness.verify", "harness.sweep"),
}


@dataclass
class OpTrace:
    """The spans of one traced process; span i has name names[name[i]]."""

    op: int
    names: list
    name: array
    start: array
    end: array
    parent: array
    counts: dict
    ready_ns: int
    written_ns: int


def load(path: str) -> OpTrace:
    with open(path, encoding="ascii") as fh:
        header = json.load(fh)
    columns = [array("q") for _ in range(4)]
    with open(path + ".bin", "rb") as fh:
        for column in columns:
            column.fromfile(fh, header["spans"])
    return OpTrace(
        header["op"], header["names"], *columns,
        header["counts"], header["ready_ns"], header["written_ns"],
    )


def self_times(start, end, parent, wanted) -> dict:
    """Self time of each span index in `wanted`.

    A span's self time is its duration minus the part of its interval that
    the union of its children's intervals covers.
    """
    children = {i: [] for i in wanted}
    for i, p in enumerate(parent):
        if p in children:
            children[p].append((start[i], end[i]))
    out = {}
    for i, intervals in children.items():
        lo, hi = start[i], end[i]
        covered = 0
        reach = lo
        for a, b in sorted(intervals):
            a = max(a, reach)
            b = min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out[i] = (hi - lo) - covered
    return out


def process_values(t: OpTrace, n: int, instances: int, spawn_ns: int, exit_ns: int) -> Counter:
    """One traced process's share of each per-layer sum; it counted graphs
    of size n, `instances` of them through the harness."""
    total_ns = Counter()
    calls = Counter()
    for nid, lo, hi in zip(t.name, t.start, t.end):
        total_ns[nid] += hi - lo
        calls[nid] += 1
    by_name = {name: nid for nid, name in enumerate(t.names)}

    def total(name):
        return total_ns[by_name[name]] if name in by_name else 0

    def count(name):
        return calls[by_name[name]] if name in by_name else 0

    v = Counter()
    for metric, name in _TIMED.items():
        v[metric] = total(name) * NS
    for metric, name in _CALLS.items():
        v[metric] = count(name)
    for metric, names in _SELF.items():
        ids = {by_name[name] for name in names if name in by_name}
        wanted = [i for i, nid in enumerate(t.name) if nid in ids]
        v[metric] = sum(self_times(t.start, t.end, t.parent, wanted).values()) * NS
    v["cli.startup_s"] = ((t.ready_ns - spawn_ns) + (exit_ns - t.written_ns)) * NS
    v["gamma.paths_enumerated"] = t.counts.get("gamma.enumerate_cvmps.yields", 0)
    if count("harness.count_via_cvmp"):
        i = t.name.index(by_name["harness.count_via_cvmp"])
        v["harness.cvmp_cold_s"] = (t.end[i] - t.start[i]) * NS
    v["harness.instances"] = instances
    v["bruteforce_perms"] = count("bipartite.count_bruteforce") * math.factorial(n)
    v["ryser_terms"] = count("kernels.ryser_permanent") * ((1 << n) - 1)
    return v


def per_round(totals: Counter, rounds: int) -> dict:
    """Every PER_LAYER metric from the sums of `rounds` whole rounds.

    `totals` holds process_values summed over the run, plus the wall times
    of the traced and the untraced processes as traced_wall_s and
    untraced_wall_s.
    """
    out = {
        name: totals[name] // rounds if unit == "count" else totals[name] / rounds
        for name, unit, _ in PER_LAYER
    }
    brute_s = totals["bipartite.count_bruteforce_s"]
    ryser_s = totals["kernels.ryser_permanent_s"]
    out["bipartite.bruteforce_perms_per_s"] = totals["bruteforce_perms"] / brute_s if brute_s else 0.0
    out["kernels.ryser_terms_per_s"] = totals["ryser_terms"] / ryser_s if ryser_s else 0.0
    out["trace_overhead_ratio"] = totals["traced_wall_s"] / totals["untraced_wall_s"]
    return out
