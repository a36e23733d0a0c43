"""Seeded random graphs from a PCG64 stream written out in Python ints.

`random_graph` draws from a PCG64 stream seeded the way NumPy's
`default_rng` seeds it.  So the package needs nothing outside the standard
library, and a recorded (n, density, seed) triple replays the same graph
whatever NumPy release is installed, or none.

Only `gen` and random sweeps draw graphs, so the package registers this
module lazily (see __init__): `verify`, `count` and exhaustive sweeps never
compile it.
"""

from ._guards import guard
from .bipartite import BipartiteGraph

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
