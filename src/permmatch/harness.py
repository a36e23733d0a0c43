"""Verification harness: path-qualification counting, cross-checks, sweeps.

`count_via_cvmp` counts perfect matchings the paper's way: it walks the
valid paths of the generating graph level by level in sift order and counts
those whose edge requirement against the instance is empty, pruning every
prefix whose requirement is already non-empty.  The harness compares that
count against the brute-force and Ryser oracles; a disagreement is a
first-class outcome and gets embedded, with the full graph text, in the
report so it can be replayed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .bipartite import (
    BRUTEFORCE_MAX_N,
    RYSER_MAX_N,
    BipartiteGraph,
    count_bruteforce,
    count_ryser,
    random_graph,
    serialize_graph,
)
from .gamma import ENUMERATE_MAX_N, GammaGraph, build_gamma, enumerate_cvmps

CVMP_MAX_N = BRUTEFORCE_MAX_N
SWEEP_MAX_N = 7
EXHAUSTIVE_MAX_N = 4
SWEEP_DENSITY = 0.5


def count_via_cvmp(g: BipartiteGraph) -> int:
    """Number of valid paths whose edge requirement against g is empty.

    A valid path picks psi_j = (j, k), k >= j, at each chain level j and
    multiplies out to q(v) = psi_1(...psi_n(v)).  Levels above j fix every
    v <= j, so once psi_1..psi_j are chosen q(v) = psi_1(...psi_j(v)) is
    final for v <= j: the prefix already requires edge (j, q(j)), and when g
    lacks it the whole subtree has a non-empty edge requirement and is
    pruned.  The columns still open at level j are the images of j..n under
    psi_1...psi_(j-1), held as a bitmask; choosing column c = q(j) is
    choosing psi_j, and removes c for the levels below.  Each leaf is one
    valid path with an empty requirement, so the count is exact, with n!
    leaves in the worst case (K_{n,n}).
    """
    if g.n > CVMP_MAX_N:
        raise ValueError(f"path counting is guarded at n <= {CVMP_MAX_N}")
    rows = g.rows
    last = g.n - 1

    def walk(j: int, free: int) -> int:  # rows[j] is level j + 1
        if j == last:
            return 1 if rows[j] & free else 0
        total = 0
        open_cols = rows[j] & free
        while open_cols:
            c = open_cols & -open_cols
            open_cols ^= c
            total += walk(j + 1, free ^ c)
        return total

    return walk(0, (1 << g.n) - 1)


@dataclass
class VerificationReport:
    """Counts from every in-guard method for one instance or a sweep."""

    n: int
    graph: str | None = None
    count_cvmp: int | None = None
    count_bruteforce: int | None = None
    count_ryser: int | None = None
    agreement: bool = True
    elapsed: dict = field(default_factory=dict)
    mode: str | None = None
    trials: int | None = None
    seed: int | None = None
    instances: int | None = None
    mismatches: list = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {"n": self.n}
        if self.mode is None:
            out["graph"] = self.graph
            out["count_cvmp"] = self.count_cvmp
            out["count_bruteforce"] = self.count_bruteforce
            out["count_ryser"] = self.count_ryser
            out["agreement"] = self.agreement
            out["elapsed"] = self.elapsed
        else:
            out["mode"] = self.mode
            if self.mode == "random":
                out["trials"] = self.trials
                out["seed"] = self.seed
            out["instances"] = self.instances
            out["agreement"] = self.agreement
            out["mismatches"] = self.mismatches
        return out


def _instance_counts(g: BipartiteGraph) -> tuple[dict, dict]:
    counts = {}
    elapsed = {}
    if g.n <= CVMP_MAX_N:
        t0 = time.perf_counter()
        counts["count_cvmp"] = count_via_cvmp(g)
        elapsed["cvmp"] = time.perf_counter() - t0
    if g.n <= BRUTEFORCE_MAX_N:
        t0 = time.perf_counter()
        counts["count_bruteforce"] = count_bruteforce(g)
        elapsed["bruteforce"] = time.perf_counter() - t0
    if g.n <= RYSER_MAX_N:
        t0 = time.perf_counter()
        counts["count_ryser"] = count_ryser(g)
        elapsed["ryser"] = time.perf_counter() - t0
    return counts, elapsed


def verify(g: BipartiteGraph) -> VerificationReport:
    """Run every in-guard counting method on g and compare.

    Raises ValueError when fewer than two methods are in guard, since an
    agreement between fewer than two counts would check nothing.
    """
    counts, elapsed = _instance_counts(g)
    if len(counts) < 2:
        guards = (
            f"cvmp n <= {CVMP_MAX_N}, brute force n <= {BRUTEFORCE_MAX_N}, "
            f"Ryser n <= {RYSER_MAX_N}"
        )
        if not counts:
            raise ValueError(f"no counting method is in guard at n={g.n}: {guards}")
        raise ValueError(
            f"only one counting method is in guard at n={g.n} ({guards}) and "
            f"verify needs two to compare; use `count --method ryser` for the count"
        )
    return VerificationReport(
        n=g.n,
        graph=serialize_graph(g),
        count_cvmp=counts.get("count_cvmp"),
        count_bruteforce=counts.get("count_bruteforce"),
        count_ryser=counts.get("count_ryser"),
        agreement=len(set(counts.values())) == 1,
        elapsed=elapsed,
    )


def sweep(
    n: int,
    mode: str,
    trials: int | None = None,
    seed: int | None = None,
) -> VerificationReport:
    """Cross-check the counting methods over many instances.

    Exhaustive mode walks all 2^(n*n) graphs (n <= 4); random mode draws
    `trials` seeded half-density instances.  Mismatching instances are
    embedded verbatim so a failure is always reproducible.
    """
    if n > SWEEP_MAX_N:
        raise ValueError(f"sweeps are guarded at n <= {SWEEP_MAX_N}")
    if mode == "exhaustive":
        if n > EXHAUSTIVE_MAX_N:
            raise ValueError(f"exhaustive sweeps are guarded at n <= {EXHAUSTIVE_MAX_N}")
        graphs = (BipartiteGraph.from_mask(n, m) for m in range(1 << (n * n)))
    elif mode == "random":
        if trials is None or seed is None:
            raise ValueError("random sweeps need trials and seed")
        if trials < 1:
            raise ValueError(f"random sweeps need trials >= 1, got {trials}")
        graphs = (random_graph(n, SWEEP_DENSITY, seed + t) for t in range(trials))
    else:
        raise ValueError(f"unknown sweep mode {mode!r}")

    instances = 0
    mismatches = []
    for g in graphs:
        instances += 1
        counts, _ = _instance_counts(g)
        values = set(counts.values())
        if len(values) > 1:
            entry = {"graph": serialize_graph(g)}
            entry.update(counts)
            mismatches.append(entry)
    mismatches.sort(key=lambda e: e["graph"])
    return VerificationReport(
        n=n,
        mode=mode,
        trials=trials if mode == "random" else None,
        seed=seed if mode == "random" else None,
        instances=instances,
        agreement=not mismatches,
        mismatches=mismatches,
    )


@dataclass
class StructureDiagnostics:
    """Shape numbers for the generating graph at a given n.

    unconstrained_walks counts level-1-to-n walks that only follow R/S edges
    between consecutive levels, ignoring the suffix-product constraint; it is
    reported alongside the valid-path count, never asserted equal to it.
    """

    n: int
    node_count: int
    r_edge_count: int
    s_edge_count: int
    valid_paths: int | None
    unconstrained_walks: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "node_count": self.node_count,
            "r_edge_count": self.r_edge_count,
            "s_edge_count": self.s_edge_count,
            "valid_paths": self.valid_paths,
            "unconstrained_walks": self.unconstrained_walks,
        }


def unconstrained_walk_count(gamma: GammaGraph) -> int:
    """Dynamic program over adjacent-level R/S edges, one node per level."""
    step = {}
    for x, y in gamma.r_edges | gamma.s_edges:
        if y.position == x.position + 1:
            step.setdefault(x, []).append(y)
    ways = {x: 1 for x in gamma.at_position(1)}
    for i in range(1, gamma.n):
        nxt = {}
        for x, count in ways.items():
            for y in step.get(x, ()):
                nxt[y] = nxt.get(y, 0) + count
        ways = nxt
    return sum(ways.values())


def gamma_stats(n: int) -> StructureDiagnostics:
    gamma = build_gamma(n)
    if n <= ENUMERATE_MAX_N:
        valid = sum(1 for _ in enumerate_cvmps(gamma))
    else:
        valid = None
    return StructureDiagnostics(
        n=n,
        node_count=len(gamma.nodes),
        r_edge_count=len(gamma.r_edges),
        s_edge_count=len(gamma.s_edges),
        valid_paths=valid,
        unconstrained_walks=unconstrained_walk_count(gamma),
    )
