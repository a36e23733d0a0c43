"""Bipartite graphs, perfect matchings, and independent counting oracles.

A graph is an n x n bit-matrix over the two sides V and W, both labeled
1..n.  Perfect matchings correspond bijectively to permutations via
"edge (v,w) matched iff v maps to w".  Two oracles count matchings: brute
force over all of S_n (small n only) and the permanent kernel.  They share
no code path, so agreement between them is meaningful evidence.

Brute force tests every one of the n! permutations at once, one bit per
permutation.  A cached table holds, for each row v and column c, the int
whose bit p is set when the p-th permutation (itertools order) maps v to c;
the permutations with v matched inside v's neighbourhood are the OR of
that row's entries over its neighbours, and the count is the popcount of
the AND over rows.  The table of S_n is built from that of S_(n-1) by
shifting blocks; at n = 9 it is 81 ints of 362,880 bits, about 3.7 MB.
Nothing is pruned: every row's OR is formed and ANDed whatever the rows
before it left, so brute force stays independent of the pruned walk that
path counting runs.

Only `random_graph` uses numpy, for its PCG64 stream, and imports it when
called; counting, parsing and the permutation machinery never load it.
"""

from __future__ import annotations

import math
from functools import lru_cache

from . import kernels
from ._record import Record
from .kernels import RYSER_MAX_N
from .perms import Permutation

BRUTEFORCE_MAX_N = 9


class BipartiteGraph(Record):
    """Square bipartite graph; row v stores its neighbors as a bitset."""

    __slots__ = ("n", "rows")

    def _validate(self):
        n = self.n
        rows = tuple(int(r) for r in self.rows)
        if n < 1:
            raise ValueError("n must be >= 1")
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        full = (1 << n) - 1
        for v, r in enumerate(rows, start=1):
            if r & ~full:
                raise ValueError(f"row {v} has bits outside 1..{n}")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_matrix(cls, matrix) -> "BipartiteGraph":
        """Build from an iterable of rows of 0/1 entries."""
        matrix = [list(row) for row in matrix]
        n = len(matrix)
        rows = []
        for row in matrix:
            if len(row) != n:
                raise ValueError("matrix must be square")
            bits = 0
            for w, e in enumerate(row):
                if e not in (0, 1, False, True):
                    raise ValueError(f"entries must be 0/1, got {e!r}")
                if e:
                    bits |= 1 << w
            rows.append(bits)
        return cls(n, rows)

    @classmethod
    def from_edges(cls, n: int, edges) -> "BipartiteGraph":
        rows = [0] * n
        for v, w in edges:
            if not (1 <= v <= n and 1 <= w <= n):
                raise ValueError(f"edge ({v},{w}) out of range 1..{n}")
            rows[v - 1] |= 1 << (w - 1)
        return cls(n, rows)

    @classmethod
    def complete(cls, n: int) -> "BipartiteGraph":
        return cls(n, [(1 << n) - 1] * n)

    @classmethod
    def empty(cls, n: int) -> "BipartiteGraph":
        return cls(n, [0] * n)

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "BipartiteGraph":
        """Graph with edge v-w iff bit (v-1)*n + (w-1) of `mask` is set."""
        full = (1 << n) - 1
        return cls(n, [(mask >> ((v - 1) * n)) & full for v in range(1, n + 1)])

    def has_edge(self, v: int, w: int) -> bool:
        return bool(self.rows[v - 1] >> (w - 1) & 1)


class Matching(Record):
    """A set of v-w edges with every endpoint used at most once."""

    __slots__ = ("n", "pairs")

    def _validate(self):
        object.__setattr__(self, "pairs", frozenset(self.pairs))
        vs = [v for v, _ in self.pairs]
        ws = [w for _, w in self.pairs]
        if len(set(vs)) != len(vs) or len(set(ws)) != len(ws):
            raise ValueError("an endpoint is used by two edges")
        for v, w in self.pairs:
            if not (1 <= v <= self.n and 1 <= w <= self.n):
                raise ValueError(f"edge ({v},{w}) out of range 1..{self.n}")


def perm_to_matching(p: Permutation) -> Matching:
    return Matching(p.n, frozenset((v, p.image(v)) for v in range(1, p.n + 1)))


def contains_matching(g: BipartiteGraph, m: Matching) -> bool:
    if g.n != m.n:
        raise ValueError(f"size mismatch: graph n={g.n}, matching n={m.n}")
    return all(g.has_edge(v, w) for v, w in m.pairs)


@lru_cache(maxsize=None)
def _bit_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Row v, column c: the int whose bit p is set when the p-th permutation
    of range(n), in itertools.permutations order, maps v to c.

    That order puts the permutations sending 0 to c in block c, bits
    c*(n-1)! up to (c+1)*(n-1)!; inside the block, rows 1..n-1 run through
    S_(n-1) over the columns other than c in order.  So row v >= 1 is built
    from row v - 1 of S_(n-1), shifted into each block with its columns
    past c moved up by one.  Cached because sweeps count tens of thousands
    of small graphs.
    """
    if n == 1:
        return ((1,),)
    prev = _bit_table(n - 1)
    m = math.factorial(n - 1)
    table = [tuple(((1 << m) - 1) << c * m for c in range(n))]
    for images in prev:
        row = []
        for col in range(n):
            bits = 0
            for c in range(n):
                if c != col:
                    bits |= images[col if col < c else col - 1] << c * m
            row.append(bits)
        table.append(tuple(row))
    return tuple(table)


def count_bruteforce(g: BipartiteGraph) -> int:
    """Count perfect matchings by testing all of S_n; independent ground truth.

    Each of the n! permutations is one bit of the cached table.  Row v's
    neighbours select, by OR, the permutations that match v along an edge;
    the AND over all rows leaves those that are perfect matchings of g.
    No row is skipped when the AND is already empty, which keeps this count
    independent of the pruned walk.
    """
    if g.n > BRUTEFORCE_MAX_N:
        raise ValueError(
            f"brute force is guarded at n <= {BRUTEFORCE_MAX_N}; use count_ryser"
        )
    n = g.n
    alive = -1
    for r, images in zip(g.rows, _bit_table(n)):
        reach = 0
        for c in range(n):
            if r >> c & 1:
                reach |= images[c]
        alive &= reach
    return alive.bit_count()


def count_ryser(g: BipartiteGraph) -> int:
    """Count perfect matchings as the permanent of the adjacency matrix,
    which the kernel reads as the graph's row bitmasks."""
    return kernels.ryser_permanent(g.rows)


def parse_graph(text: str) -> BipartiteGraph:
    """Parse the line-oriented format: decimal n, then n rows of n 0/1 chars."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty input; expected a header line with n")
    header = lines[0].strip()
    if not (header.isascii() and header.isdigit()):
        raise ValueError(f"bad header line {lines[0]!r}; expected decimal n")
    n = int(header)
    if n < 1:
        raise ValueError(f"bad header n={n}; must be >= 1")
    body = lines[1:]
    if len(body) != n:
        raise ValueError(f"expected {n} rows after the header, got {len(body)}")
    rows = []
    for v, line in enumerate(body, start=1):
        if len(line) != n:
            raise ValueError(f"row {v} has {len(line)} characters, expected {n}")
        bad = set(line) - {"0", "1"}
        if bad:
            raise ValueError(f"row {v} has characters outside 0/1: {sorted(bad)}")
        bits = 0
        for w, ch in enumerate(line):
            if ch == "1":
                bits |= 1 << w
        rows.append(bits)
    return BipartiteGraph(n, rows)


def serialize_graph(g: BipartiteGraph) -> str:
    lines = [str(g.n)]
    for r in g.rows:
        lines.append("".join("1" if r >> w & 1 else "0" for w in range(g.n)))
    return "\n".join(lines) + "\n"


def random_graph(n: int, density: float, seed: int) -> BipartiteGraph:
    """Seeded Erdos-Renyi style instance; PCG64 keeps output stable across
    platforms, so a (n, density, seed) triple always regenerates the same
    bytes."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0,1]")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    import numpy as np  # only here: every other path runs without numpy

    rng = np.random.default_rng(seed)
    mat = (rng.random((n, n)) < density).astype(int)
    return BipartiteGraph.from_matrix(mat.tolist())
