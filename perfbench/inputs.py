"""Seeded inputs and the benchmark's own reference counts.

Nothing here imports permmatch: graphs come from a pure-Python PCG64 stream
and every expected count comes from a closed form or from `permanent`
below, so a defect in the measured program cannot leak into the inputs or
into the answers they are checked against.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

SWEEP_N = 4
SWEEP_INSTANCES = 1 << (SWEEP_N * SWEEP_N)


class Pcg64:
    """PCG XSL-RR 128/64, the generator numpy calls PCG64.

    Seeded the way the PCG reference code seeds it (`pcg64_srandom_r`), so
    `random_raw` of a numpy PCG64 set to the same state and increment gives
    the same words.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.inc = ((stream << 1) | 1) & _MASK128
        self.state = 0
        self._step()
        self.state = (self.state + seed) & _MASK128
        self._step()

    def _step(self) -> None:
        self.state = (self.state * _PCG_MULT + self.inc) & _MASK128

    def next64(self) -> int:
        self._step()
        s = self.state
        rot = s >> 122
        x = ((s >> 64) ^ s) & _MASK64
        return ((x >> rot) | (x << (-rot & 63))) & _MASK64

    def below(self, k: int) -> int:
        """Integer in [0, k) by multiply-shift; the bias is at most k / 2^64."""
        return (self.next64() * k) >> 64

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


# ---------------------------------------------------------------------------
# graphs as row bitmasks: bit w of rows[v] is the edge (v+1, w+1)

def random_rows(rng: Pcg64, n: int, density: float) -> list:
    threshold = int(density * (1 << 64))
    return [
        sum(1 << w for w in range(n) if rng.next64() < threshold) for _ in range(n)
    ]


def complete_rows(n: int) -> list:
    return [(1 << n) - 1] * n


def derangement_rows(n: int) -> list:
    """J - I."""
    return [((1 << n) - 1) & ~(1 << v) for v in range(n)]


def menage_rows(n: int) -> list:
    """J - I - P with P the cyclic shift v -> v+1 (mod n)."""
    return [((1 << n) - 1) & ~(1 << v) & ~(1 << ((v + 1) % n)) for v in range(n)]


def permute_rows(rng: Pcg64, rows: list) -> list:
    """Shuffle rows and columns; the permanent is invariant under both."""
    n = len(rows)
    row_order = list(range(n))
    col_order = list(range(n))
    rng.shuffle(row_order)
    rng.shuffle(col_order)
    out = []
    for v in row_order:
        r = rows[v]
        out.append(sum(1 << col_order[w] for w in range(n) if r >> w & 1))
    return out


def graph_text(rows: list) -> str:
    """The permmatch graph file format: n, then n rows of 0/1 characters."""
    n = len(rows)
    lines = [str(n)]
    lines.extend("".join("1" if r >> w & 1 else "0" for w in range(n)) for r in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reference counts

def permanent(rows: list) -> int:
    """Perfect matchings by a row-by-row dynamic program over used columns."""
    ways = {0: 1}
    for r in rows:
        nxt = {}
        for used, c in ways.items():
            free = r & ~used
            while free:
                bit = free & -free
                free ^= bit
                key = used | bit
                nxt[key] = nxt.get(key, 0) + c
        ways = nxt
    return sum(ways.values())


def derangements(n: int) -> int:
    a, b = 1, 0  # D_0, D_1
    for k in range(2, n + 1):
        a, b = b, (k - 1) * (a + b)
    return a if n == 0 else b


def menage(n: int) -> int:
    """Touchard's formula for the permanent of J - I - P, n >= 3."""
    if n < 3:
        raise ValueError("the menage closed form needs n >= 3")
    return sum(
        (-1) ** k * (2 * n * math.comb(2 * n - k, k) // (2 * n - k)) * math.factorial(n - k)
        for k in range(n + 1)
    )


# ---------------------------------------------------------------------------
# workloads

@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output must say.

    `graph` is the input file's text (None for a sweep) and `expected` the
    reference count (the instance count for a sweep).
    """

    label: str
    kind: str  # "verify" | "count-ryser" | "count-brute" | "sweep"
    n: int
    graph: str | None
    expected: int

    def argv(self, path: str | None) -> list:
        if self.kind == "verify":
            return ["verify", path]
        if self.kind == "count-ryser":
            return ["count", "--method", "ryser", path]
        if self.kind == "count-brute":
            return ["count", "--method", "brute", path]
        return ["sweep", "--n", str(self.n), "--exhaustive"]


def _random_op(rng, kind, n, density, label):
    rows = random_rows(rng, n, density)
    return Op(label, kind, n, graph_text(rows), permanent(rows))


def _verify_cold(rng: Pcg64) -> list:
    # Every process builds the n! path table from cold.  Densities vary
    # because a pruned walk's cost depends on density and the table's does not.
    ops = []
    for n in (5, 6, 7):
        for density in (0.25, 0.5, 0.85):
            ops.append(_random_op(rng, "verify", n, density, f"verify n={n} p={density}"))
        rows = complete_rows(n)
        ops.append(Op(f"verify n={n} K_nn", "verify", n, graph_text(rows), math.factorial(n)))
    return ops


def _sweep_exhaustive(rng: Pcg64) -> list:
    # 65,536 graphs in one process: per-instance overhead, not the table.
    return [Op(f"sweep n={SWEEP_N} exhaustive", "sweep", SWEEP_N, None, SWEEP_INSTANCES)]


def _count_oracles(rng: Pcg64) -> list:
    # Only the Ryser kernel and the brute-force loop work here.  The
    # structured graphs are shuffled, so their closed forms also check
    # invariance.  Three tiers of three similar operations keep the median
    # inside the middle tier and the tail inside the top one, whatever the
    # number of rounds.
    ops = [
        _random_op(rng, "count-ryser", 14, 0.5, "ryser n=14 p=0.5"),
        _random_op(rng, "count-ryser", 16, 0.5, "ryser n=16 p=0.5"),
        _random_op(rng, "count-brute", 9, 0.5, "brute n=9 p=0.5"),
    ]
    ops += [_random_op(rng, "count-ryser", 18, 0.5, f"ryser n=18 p=0.5 #{k}") for k in (1, 2, 3)]
    for n, name, rows, expected in (
        (14, "J", complete_rows(14), math.factorial(14)),
        (15, "J-I-P", menage_rows(15), menage(15)),
        (16, "J-I", derangement_rows(16), derangements(16)),
    ):
        text = graph_text(permute_rows(rng, rows))
        ops.append(Op(f"ryser n={n} {name}", "count-ryser", n, text, expected))
    return ops


WORKLOADS = {
    "verify-cold": _verify_cold,
    "sweep-exhaustive": _sweep_exhaustive,
    "count-oracles": _count_oracles,
}


def make_ops(workload: str, seed: int) -> list:
    """The workload's operations for one seed, in a seeded order."""
    rng = Pcg64(seed, stream=zlib.crc32(workload.encode()))
    ops = WORKLOADS[workload](rng)
    rng.shuffle(ops)
    return ops
