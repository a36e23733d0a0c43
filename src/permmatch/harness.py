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

from ._guards import LIMITS, guard
from .bipartite import (
    BipartiteGraph,
    count_bruteforce,
    count_ryser,
    random_graph,
    serialize_graph,
)

SWEEP_DENSITY = 0.5
# guard names of the methods `_instance_counts` runs, which `verify` checks first
COUNTERS = ("cvmp", "brute force", "Ryser")


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
    guard("cvmp", g.n)
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


def _instance_counts(g: BipartiteGraph) -> tuple[dict, dict]:
    # Built per call, so a counter rebound on this module is the one timed.
    counters = {"cvmp": count_via_cvmp, "bruteforce": count_bruteforce, "ryser": count_ryser}
    counts, elapsed = {}, {}
    for name, counter in counters.items():
        t0 = time.perf_counter()
        counts["count_" + name] = counter(g)
        elapsed[name] = time.perf_counter() - t0
    return counts, elapsed


def verify(g: BipartiteGraph) -> dict:
    """Count g by all three methods and compare.

    Returns the report `permmatch verify` prints, keys in printed order:
    n, graph, count_cvmp, count_bruteforce, count_ryser, agreement and
    elapsed (seconds per method).

    Raises ValueError, before counting anything, when fewer than two
    methods are in guard at g.n: one count would compare nothing.
    """
    in_guard = [m for m in COUNTERS if g.n <= LIMITS[m]]
    if len(in_guard) < 2:
        guards = ", ".join(f"{m} n <= {LIMITS[m]}" for m in COUNTERS)
        if not in_guard:
            raise ValueError(f"no counting method is in guard at n={g.n}: {guards}")
        raise ValueError(
            f"only one counting method is in guard at n={g.n} ({guards}) and "
            f"verify needs two to compare; use `count --method ryser` for the count"
        )
    counts, elapsed = _instance_counts(g)
    return {
        "n": g.n,
        "graph": serialize_graph(g),
        **counts,
        "agreement": len(set(counts.values())) == 1,
        "elapsed": elapsed,
    }


def sweep(n: int, trials: int | None = None, seed: int | None = None) -> dict:
    """Cross-check the counting methods over many instances.

    With trials None the sweep is exhaustive, over all 2^(n*n) graphs
    (n <= 4), and takes no seed; otherwise it draws `trials` seeded
    half-density instances.  Mismatching instances are embedded verbatim so
    a failure is always reproducible.

    Returns the report `permmatch sweep` prints, keys in printed order: n,
    mode ("exhaustive" or "random"), trials and seed (random sweeps only),
    instances, agreement, and mismatches (one dict per disagreeing graph,
    sorted by graph text).
    """
    guard("sweep", n)
    if trials is None:
        guard("exhaustive sweep", n)
        if seed is not None:
            raise ValueError("exhaustive sweeps take no seed")
        graphs = (BipartiteGraph.from_mask(n, m) for m in range(1 << (n * n)))
    else:
        if seed is None:
            raise ValueError("random sweeps need a seed")
        if trials < 1:
            raise ValueError(f"random sweeps need trials >= 1, got {trials}")
        graphs = (random_graph(n, SWEEP_DENSITY, seed + t) for t in range(trials))

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
    if trials is None:
        report = {"n": n, "mode": "exhaustive"}
    else:
        report = {"n": n, "mode": "random", "trials": trials, "seed": seed}
    return report | {"instances": instances, "agreement": not mismatches, "mismatches": mismatches}

