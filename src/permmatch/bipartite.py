"""Bipartite graphs, perfect matchings, and independent counting oracles.

A graph is an n x n bit-matrix over the two sides V and W, both labeled
1..n.  Perfect matchings correspond bijectively to permutations via
"edge (v,w) matched iff v maps to w".  Two oracles count matchings: brute
force over all of S_n (small n only) and Ryser's permanent.  They share no
code path, so agreement between them is meaningful evidence.

Brute force tests every one of the n! permutations with numpy.  A cached
table holds S_k for k = min(n, 8), one row of images per graph row; at
k = 8 it is 8 x 40320 bytes, about 320 KB.  A Python loop picks the images
of the first n - k rows (nine choices at n = 9, one empty choice below),
and the last k rows are checked against the table over the columns left
free.  Nothing is pruned: a choice whose head rows miss an edge still has
its whole block evaluated, with the head's verdict ANDed in.  Skipping such
blocks would turn brute force into the pruned walk that path counting runs,
and the two counts would no longer be independent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .kernels import RYSER_MAX_N
from .perms import Permutation

BRUTEFORCE_MAX_N = 9

_TABLE_MAX_K = 8  # S_8 is 40320 permutations; S_9 would be 3.3 MB


class BipartiteGraph:
    """Square bipartite graph; row v stores its neighbors as a bitset."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows):
        rows = tuple(int(r) for r in rows)
        if n < 1:
            raise ValueError("n must be >= 1")
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        full = (1 << n) - 1
        for v, r in enumerate(rows, start=1):
            if r & ~full:
                raise ValueError(f"row {v} has bits outside 1..{n}")
        self.n = n
        self.rows = rows

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

    @property
    def edges(self) -> frozenset:
        return frozenset(
            (v, w)
            for v in range(1, self.n + 1)
            for w in range(1, self.n + 1)
            if self.has_edge(v, w)
        )

    def matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.int64)
        for v in range(self.n):
            for w in range(self.n):
                a[v, w] = (self.rows[v] >> w) & 1
        return a

    def __eq__(self, other):
        return (
            isinstance(other, BipartiteGraph)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"BipartiteGraph(n={self.n}, rows={self.rows})"


@dataclass(frozen=True)
class Matching:
    """A set of v-w edges with every endpoint used at most once.

    Perfect means every v and every w in 1..n is used exactly once.
    """

    n: int
    pairs: frozenset

    def __post_init__(self):
        object.__setattr__(self, "pairs", frozenset(self.pairs))
        vs = [v for v, _ in self.pairs]
        ws = [w for _, w in self.pairs]
        if len(set(vs)) != len(vs) or len(set(ws)) != len(ws):
            raise ValueError("an endpoint is used by two edges")
        for v, w in self.pairs:
            if not (1 <= v <= self.n and 1 <= w <= self.n):
                raise ValueError(f"edge ({v},{w}) out of range 1..{self.n}")

    @property
    def is_perfect(self) -> bool:
        return len(self.pairs) == self.n


def perm_to_matching(p: Permutation) -> Matching:
    return Matching(p.n, frozenset((v, p.image(v)) for v in range(1, p.n + 1)))


def matching_to_perm(m: Matching) -> Permutation:
    if not m.is_perfect:
        raise ValueError("matching is not perfect")
    images = [0] * m.n
    for v, w in m.pairs:
        images[v - 1] = w
    return Permutation(images)


def contains_matching(g: BipartiteGraph, m: Matching) -> bool:
    if g.n != m.n:
        raise ValueError(f"size mismatch: graph n={g.n}, matching n={m.n}")
    return all(g.has_edge(v, w) for v, w in m.pairs)


@lru_cache(maxsize=None)
def _perm_table(k: int) -> np.ndarray:
    """Every permutation of range(k) as a read-only (k, k!) uint8 array.

    Column j is the j-th permutation in lexicographic order; row v holds
    the image of v in each of them, contiguously.  Cached because sweeps
    count tens of thousands of small graphs.
    """
    flat = itertools.chain.from_iterable(itertools.permutations(range(k)))
    table = np.fromiter(flat, dtype=np.uint8, count=k * math.factorial(k))
    table = np.ascontiguousarray(table.reshape(-1, k).T)
    table.flags.writeable = False
    return table


def count_bruteforce(g: BipartiteGraph) -> int:
    """Count perfect matchings by testing all of S_n; independent ground truth.

    The images of the first n - k rows are chosen in a Python loop and the
    last k = min(n, 8) rows are tested against the cached table of S_k over
    the remaining columns, so every one of the n! permutations is evaluated.
    No block is skipped when a head row lacks its edge; that verdict is
    ANDed into the block instead, which keeps this count independent of the
    pruned walk.
    """
    if g.n > BRUTEFORCE_MAX_N:
        raise ValueError(
            f"brute force is guarded at n <= {BRUTEFORCE_MAX_N}; use count_ryser"
        )
    rows = g.rows
    n = g.n
    k = min(n, _TABLE_MAX_K)
    table = _perm_table(k)
    count = 0
    for head in itertools.permutations(range(n), n - k):
        free = [w for w in range(n) if w not in head]
        head_ok = all(rows[v] >> w & 1 for v, w in enumerate(head))
        alive = np.full(table.shape[1], head_ok)
        for v, images in zip(range(n - k, n), table):
            # row v's 0/1 edges over the free columns, looked up per image
            edges = np.array([rows[v] >> w & 1 for w in free], dtype=bool)
            alive &= edges[images]
        count += int(np.count_nonzero(alive))
    return count


def count_ryser(g: BipartiteGraph) -> int:
    """Count perfect matchings as the permanent of the adjacency matrix."""
    return kernels.ryser_permanent(g.matrix())


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
    rng = np.random.default_rng(seed)
    mat = (rng.random((n, n)) < density).astype(int)
    return BipartiteGraph.from_matrix(mat.tolist())
