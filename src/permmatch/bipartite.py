"""Bipartite graphs, perfect matchings, and independent counting oracles.

A graph is an n x n bit-matrix over the two sides V and W, both labeled
1..n.  Perfect matchings correspond bijectively to permutations via
"edge (v,w) matched iff v maps to w", so the package represents a perfect
matching by its `perms.Permutation`.  Two oracles count matchings: brute
force over all of S_n (small n only) and the permanent kernel.  They share
no code path, so agreement between them is meaningful evidence.

Brute force tests every one of the n! permutations, one bit per
permutation.  A cached table holds, for each row v and column c, the int
whose bit p is set when the p-th permutation (itertools order) maps v to c;
the permutations with v matched inside v's neighbourhood are the OR of
that row's entries over its neighbours, and the count is the popcount of
the AND over rows.  The table of S_n is built from that of S_(n-1) by
shifting blocks, and it stops at S_8: 64 ints of 40,320 bits, about
0.33 MB.  At n = 9 the count runs through S_9's nine cosets of the
stabilizer of row 1, one per image c of row 1: rows 2..9 are ANDed over
the S_8 table with its columns read as the eight columns other than c.
Nothing is pruned: every row's OR is formed and ANDed whatever the rows
before it left, and every coset's AND is formed before row 1's edge to c
is tested, so brute force stays independent of the pruned walk that path
counting runs.

`random_graph` draws from a PCG64 stream written out here and seeded the
way NumPy's `default_rng` seeds it.  So the package needs nothing outside
the standard library, and a recorded (n, density, seed) triple replays the
same graph whatever NumPy release is installed, or none.
"""

from __future__ import annotations

import math
from functools import lru_cache

from . import kernels
from ._guards import DIGITS, guard
from ._record import Record


class BipartiteGraph(Record):
    """Square bipartite graph; row v is the int whose bit w - 1 marks edge v-w."""

    __slots__ = ("n", "rows")

    def _validate(self):
        n = self.n
        rows = tuple(self.rows)
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
    def complete(cls, n: int) -> "BipartiteGraph":
        return cls(n, [(1 << n) - 1] * n)

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "BipartiteGraph":
        """Graph with edge v-w iff bit (v-1)*n + (w-1) of `mask` is set."""
        full = (1 << n) - 1
        return cls(n, [(mask >> ((v - 1) * n)) & full for v in range(1, n + 1)])

    def has_edge(self, v: int, w: int) -> bool:
        return bool(self.rows[v - 1] >> (w - 1) & 1)


def contains_matching(g: BipartiteGraph, p) -> bool:
    """Does g hold the perfect matching of the `perms.Permutation` p, edge
    (v, p(v)) for each v?"""
    if g.n != p.n:
        raise ValueError(f"size mismatch: graph n={g.n}, permutation n={p.n}")
    return all(g.has_edge(v, w) for v, w in enumerate(p.images, start=1))


# The largest cached table; count_bruteforce splits S_9 into cosets of S_8.
_TABLE_N = 8


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


def _alive(rows, table) -> int:
    """The permutations of the table, one bit each, that map every row
    along one of its edges: the AND over rows of the OR of that row's
    table entries at its neighbours."""
    n = len(table)
    alive = -1
    for r, images in zip(rows, table):
        reach = 0
        for c in range(n):
            if r >> c & 1:
                reach |= images[c]
        alive &= reach
    return alive


def count_bruteforce(g: BipartiteGraph) -> int:
    """Count perfect matchings by testing all of S_n; independent ground truth.

    Each of the n! permutations is one bit.  Row v's neighbours select, by
    OR, the permutations that match v along an edge; the AND over all rows
    leaves those that are perfect matchings of g.  Up to n = 8 that is one
    pass over the cached table of S_n.  At n = 9 it is one pass over the
    table of S_8 per image c of row 1, in itertools order: rows 2..9 with
    column c taken out, which is block c of the S_9 AND, bit for bit.  No
    row or block is skipped when the AND is already empty, which keeps
    this count independent of the pruned walk.
    """
    guard("brute force", g.n)
    n = g.n
    if n <= _TABLE_N:
        return _alive(g.rows, _bit_table(n)).bit_count()
    table = _bit_table(n - 1)
    head, rest = g.rows[0], g.rows[1:]
    count = 0
    for c in range(n):
        low = (1 << c) - 1
        block = _alive([(r & low) | (r >> 1 & ~low) for r in rest], table)
        if head >> c & 1:
            count += block.bit_count()
    return count


def count_ryser(g: BipartiteGraph) -> int:
    """Count perfect matchings as the permanent of the adjacency matrix,
    which the kernel reads as the graph's row bitmasks."""
    return kernels.ryser_permanent(g.rows)


def parse_graph(text: str) -> BipartiteGraph:
    """Parse the line-oriented format: decimal n, then n rows of n 0/1 chars.

    Lines end in "\n" or "\r\n", and the last one may end in neither.  No
    other character separates lines or pads the header, so accepted text
    is what `serialize_graph` writes, up to "\r\n" and the final newline.
    """
    if not text:
        raise ValueError("empty input; expected a header line with n")
    text = text.replace("\r\n", "\n")
    lines = (text[:-1] if text.endswith("\n") else text).split("\n")
    header = lines[0]
    if len(header) > DIGITS:  # a longer n fits no row, so it is never read or echoed
        raise ValueError(
            f"bad header line of {len(header)} characters; n has at most {DIGITS} digits"
        )
    # serialize_graph writes no leading zero, so none is accepted
    if not (header.isascii() and header.isdigit()) or (header[0] == "0" and header != "0"):
        raise ValueError(f"bad header line {header!r}; expected decimal n")
    n = int(header)
    if n < 1:
        raise ValueError(f"bad header n={n}; must be >= 1")
    body = lines[1:]
    rows = []
    # rows before the count, so that a row holding a stray separator is
    # named by its number
    for v, line in enumerate(body[:n], start=1):
        if len(line) != n:
            raise ValueError(f"row {v} has {len(line)} characters, expected {n}")
        bad = set(line) - {"0", "1"}
        if bad:
            raise ValueError(f"row {v} has characters outside 0/1: {sorted(bad)}")
        # checked first: int(s, 2) also takes "_", a sign and blanks
        rows.append(int(line[::-1], 2))
    if len(body) != n:
        raise ValueError(f"expected {n} rows after the header, got {len(body)}")
    return BipartiteGraph(n, rows)


def serialize_graph(g: BipartiteGraph) -> str:
    n = g.n
    return "\n".join([str(n)] + [f"{r:0{n}b}"[::-1] for r in g.rows]) + "\n"


_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """SeedSequence's hash: xor with a running 32-bit constant, step the
    constant, multiply by it and fold the high half down."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    return hashmix


def _uniform_stream(seed: int):
    """The doubles of NumPy's `default_rng(seed).random()`, in order.

    NumPy's SeedSequence splits the seed into 32-bit words, hashes them into
    a pool of four and expands the pool to four 64-bit words; PCG64 (XSL-RR
    128/64, O'Neill 2014) takes the first two as its state and the last two
    as its stream, and each double is the top 53 bits of one output.
    """
    words = [seed >> 32 * i & _M32 for i in range((seed.bit_length() + 31) // 32 or 1)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x: int, y: int) -> int:
        r = (x * 0xCA01F9DD - y * 0x4973F715) & _M32
        return r ^ r >> 16

    pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    expand = _hasher(0x8B51F9DD, 0x58F38DED)
    half = [expand(pool[i % 4]) for i in range(8)]
    u = [half[i] | half[i + 1] << 32 for i in range(0, 8, 2)]
    inc = ((u[2] << 64 | u[3]) << 1 | 1) & _M128
    # PCG's srandom: from state 0 take one step, add the seed state, step again
    state = ((inc + (u[0] << 64 | u[1])) * _PCG_MULT + inc) & _M128
    while True:
        state = (state * _PCG_MULT + inc) & _M128
        x = (state >> 64 ^ state) & _M64
        rot = state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        yield (x >> 11) * 2.0**-53


def random_graph(n: int, density: float, seed: int) -> BipartiteGraph:
    """Seeded Erdos-Renyi style instance: edge (v, w) when the ((v-1)*n + w)-th
    double of `_uniform_stream(seed)` is below `density`.  The stream is the
    one NumPy's `default_rng(seed)` draws, computed here in Python ints and
    fixed by this package rather than by a NumPy release, so a
    (n, density, seed) triple always regenerates the same bytes."""
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0,1]")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    guard("gen", n)
    draws = _uniform_stream(seed)
    rows = [sum(1 << w for w in range(n) if next(draws) < density) for _ in range(n)]
    return BipartiteGraph(n, rows)
