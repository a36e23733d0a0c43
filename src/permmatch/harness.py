"""Verification harness: path-qualification counting, cross-checks, sweeps.

`count_via_cvmp` counts perfect matchings the paper's way: it extends the
valid paths of the generating graph level by level in sift order and counts
those whose edge requirement against the instance is empty, dropping every
prefix whose requirement is already non-empty.  Which suffixes complete a
prefix depends only on the columns it left open, so prefixes that leave the
same columns open are merged into one count: one pass over the levels, with
no prefix's continuations walked twice.  The harness compares that
count against the brute-force and Ryser oracles; a disagreement is a
first-class outcome and gets embedded, with the full graph text, in the
report so it can be replayed.  The harness also writes the report text that
`verify`, `sweep` and `gamma --stats` print.
"""

import time

from . import pcg
from ._guards import LIMITS, METHODS, admits, counter, guard
from .bipartite import BipartiteGraph, serialize_graph

SWEEP_DENSITY = 0.5


def count_via_cvmp(g: BipartiteGraph) -> int:
    """Number of valid paths whose edge requirement against g is empty.

    A valid path picks psi_j = (j, k), k >= j, at each chain level j and
    multiplies out to q(v) = psi_1(...psi_n(v)).  Levels above j fix every
    v <= j, so once psi_1..psi_j are chosen q(v) = psi_1(...psi_j(v)) is
    final for v <= j: the prefix already requires edge (j, q(j)), and a
    prefix whose requirement is non-empty is dropped.  The columns still
    open at level j are the images of j..n under psi_1...psi_(j-1), held as
    a bitmask; choosing column c = q(j) is choosing psi_j, and removes c
    for the levels below.

    Which suffixes complete a prefix depends only on the columns it left
    open, so prefixes that leave the same columns open are merged: `ways`
    maps each open-column set to the number of prefixes with an empty
    requirement that leave it, at most C(n, j) sets after level j, and the
    count is the sum over the last level.
    """
    guard("cvmp", g.n)
    ways = {(1 << g.n) - 1: 1}
    for row in g.rows:  # level j + 1 for rows[j]
        nxt = {}
        for free, count in ways.items():
            open_cols = row & free
            while open_cols:
                c = open_cols & -open_cols
                open_cols ^= c
                nxt[free ^ c] = nxt.get(free ^ c, 0) + count
        ways = nxt
    return sum(ways.values())


def verify(g: BipartiteGraph) -> dict:
    """Count g by each method whose guard admits g.n, and compare.

    Returns the report `permmatch verify` prints, keys in printed order:
    n, graph, count_cvmp, count_bruteforce, count_ryser, agreement and
    elapsed (seconds per method).

    Raises ValueError, before counting anything, when fewer than two
    methods are in guard at g.n: one count would compare nothing.
    """
    in_guard = admits(g.n)
    if len(in_guard) < 2:
        guards = ", ".join(f"{s} n <= {LIMITS[s]}" for s, *_ in METHODS.values())
        if not in_guard:
            raise ValueError(f"no counting method is in guard at n={g.n}: {guards}")
        raise ValueError(
            f"only one counting method is in guard at n={g.n} ({guards}) and "
            f"verify needs two to compare; use `count --method {in_guard[0]}` for the count"
        )
    counts, elapsed = {}, {}
    for method in in_guard:
        name, count = METHODS[method][1], counter(method)
        t0 = time.perf_counter()
        counts["count_" + name] = count(g)
        elapsed[name] = time.perf_counter() - t0
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
        report = {"n": n, "mode": "exhaustive"}
        graphs = (BipartiteGraph.from_mask(n, m) for m in range(1 << (n * n)))
    else:
        if seed is None:
            raise ValueError("random sweeps need a seed")
        if trials < 1:
            raise ValueError(f"random sweeps need trials >= 1, got {trials}")
        report = {"n": n, "mode": "random", "trials": trials, "seed": seed}
        graphs = (pcg.random_graph(n, SWEEP_DENSITY, seed + t) for t in range(trials))

    counters = [("count_" + METHODS[m][1], counter(m)) for m in admits(n)]
    instances = 0
    mismatches = []
    for g in graphs:
        instances += 1
        counts = {key: count(g) for key, count in counters}
        if len(set(counts.values())) > 1:
            mismatches.append({"graph": serialize_graph(g)} | counts)
    mismatches.sort(key=lambda e: e["graph"])
    return report | {"instances": instances, "agreement": not mismatches, "mismatches": mismatches}


# The report writer is json.dumps(obj, indent=2) for the ASCII text and finite
# numbers reports hold (anything else raises TypeError), written out here
# because a cold process pays more to import json than to count a small graph.
# Its names are private, so a tracer that wraps public functions leaves its
# time with the command that prints the report.
_ESCAPES = {c: f"\\u{c:04x}" for c in [*range(32), 127]}
_ESCAPES.update({8: "\\b", 9: "\\t", 10: "\\n", 12: "\\f", 13: "\\r", 34: '\\"', 92: "\\\\"})


def _string(s) -> str:
    if not (isinstance(s, str) and s.isascii()):
        raise TypeError(f"report text is ASCII str, not {s!r:.20}")
    return f'"{s.translate(_ESCAPES)}"'


def _json(obj, indent: str = "\n") -> str:
    """json.dumps(obj, indent=2) for nested dicts, lists, ASCII str, int, finite
    float, bool and None; any other key or value raises TypeError."""
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [f"{inner}{_string(k)}: {_json(v, inner)}" for k, v in obj.items()]
        return "{" + ",".join(items) + indent + "}" if items else "{}"
    if isinstance(obj, list):
        items = [inner + _json(v, inner) for v in obj]
        return "[" + ",".join(items) + indent + "]" if items else "[]"
    if isinstance(obj, str):
        return _string(obj)
    if obj is None or isinstance(obj, bool):
        return {None: "null", True: "true", False: "false"}[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float) and obj - obj == 0:  # not NaN or an infinity
        return float.__repr__(obj)
    raise TypeError(f"a report holds no {type(obj).__name__} {obj!r:.20}")
