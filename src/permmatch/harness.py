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

from ._record import Record
from .bipartite import (
    BRUTEFORCE_MAX_N,
    RYSER_MAX_N,
    BipartiteGraph,
    count_bruteforce,
    count_ryser,
    random_graph,
    serialize_graph,
)

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


class VerificationReport(Record):
    """Counts of one graph by all three methods, and whether they agree."""

    __slots__ = (
        "n",
        "graph",
        "count_cvmp",
        "count_bruteforce",
        "count_ryser",
        "agreement",
        "elapsed",  # seconds per method
    )


class SweepReport(Record):
    """Outcome of a sweep; trials and seed are None, and omitted, when exhaustive."""

    __slots__ = (
        "n",
        "mode",  # "exhaustive" or "random"
        "trials",
        "seed",
        "instances",
        "agreement",
        "mismatches",  # one dict per disagreeing graph, sorted by graph text
    )

    def to_dict(self) -> dict:
        return {k: v for k, v in super().to_dict().items() if v is not None}


def _instance_counts(g: BipartiteGraph) -> tuple[dict, dict]:
    # Built per call, so a counter rebound on this module is the one timed.
    counters = (
        ("cvmp", count_via_cvmp),
        ("bruteforce", count_bruteforce),
        ("ryser", count_ryser),
    )
    counts = {}
    elapsed = {}
    for name, counter in counters:
        t0 = time.perf_counter()
        counts["count_" + name] = counter(g)
        elapsed[name] = time.perf_counter() - t0
    return counts, elapsed


def verify(g: BipartiteGraph) -> VerificationReport:
    """Count g by all three methods and compare.

    Raises ValueError, before counting anything, when g is past the
    path-counting and brute-force guard: Ryser alone would compare nothing.
    """
    if g.n > CVMP_MAX_N:
        guards = (
            f"cvmp n <= {CVMP_MAX_N}, brute force n <= {BRUTEFORCE_MAX_N}, "
            f"Ryser n <= {RYSER_MAX_N}"
        )
        if g.n > RYSER_MAX_N:
            raise ValueError(f"no counting method is in guard at n={g.n}: {guards}")
        raise ValueError(
            f"only one counting method is in guard at n={g.n} ({guards}) and "
            f"verify needs two to compare; use `count --method ryser` for the count"
        )
    counts, elapsed = _instance_counts(g)
    return VerificationReport(
        n=g.n,
        graph=serialize_graph(g),
        **counts,
        agreement=len(set(counts.values())) == 1,
        elapsed=elapsed,
    )


def sweep(n: int, trials: int | None = None, seed: int | None = None) -> SweepReport:
    """Cross-check the counting methods over many instances.

    With trials None the sweep is exhaustive, over all 2^(n*n) graphs
    (n <= 4); otherwise it draws `trials` seeded half-density instances.
    Mismatching instances are embedded verbatim so a failure is always
    reproducible.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > SWEEP_MAX_N:
        raise ValueError(f"sweeps are guarded at n <= {SWEEP_MAX_N}")
    if trials is None:
        if n > EXHAUSTIVE_MAX_N:
            raise ValueError(f"exhaustive sweeps are guarded at n <= {EXHAUSTIVE_MAX_N}")
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
    return SweepReport(
        n=n,
        mode="exhaustive" if trials is None else "random",
        trials=trials,
        seed=None if trials is None else seed,
        instances=instances,
        agreement=not mismatches,
        mismatches=mismatches,
    )

