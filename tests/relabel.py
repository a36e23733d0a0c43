"""Shared test helpers.

The graphs and counts of the closed-form table: J and its relatives by cell
rule, shuffled by a seed; seeded random 0/1 matrices; the derangement and
ménage numbers; and the relabellings that keep a count.  Also the row
bitmasks of a 0/1 matrix and the graph of an edge set, which build a graph
the one way the package does, from its rows; all of S_n, the edge set of a
permutation's matching, the check that a permutation fixes a prefix of its
points, cycle text for a permutation, the order of a stabilizer chain, the
product of a valid path and the determinant mod 2."""

import itertools
import math
import random

from hypothesis import strategies as st

from permmatch.bipartite import BipartiteGraph
from permmatch.gamma import validate_path
from permmatch.perms import Permutation

# every n at which brute force and path counting both run
square_01 = st.integers(1, 9).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


def bitmasks(a):
    """The rows of the 0/1 matrix a as ints, entry (v, w) at bit w."""
    return [sum(int(e) << w for w, e in enumerate(row)) for row in a]


def edge_graph(n, edges):
    """The graph on 1..n whose edges are exactly `edges`, pairs (v, w)."""
    rows = [0] * n
    for v, w in edges:
        rows[v - 1] |= 1 << (w - 1)
    return BipartiteGraph(n, rows)


def relabellings(rows, rnd):
    """Row bitmasks `rows` with rows shuffled, with columns shuffled, and transposed."""
    n = len(rows)
    order = rnd.sample(range(n), n)
    yield [rows[v] for v in order]
    yield [sum((r >> w & 1) << order[w] for w in range(n)) for r in rows]
    yield [sum((r >> w & 1) << v for v, r in enumerate(rows)) for w in range(n)]


# whether entry (v, w), from 0, of an n x n 0/1 matrix is 1
CELLS = {
    "J": lambda n, v, w: True,
    "I": lambda n, v, w: v == w,
    "J-I": lambda n, v, w: v != w,
    "J-I-P": lambda n, v, w: (w - v) % n > 1,
    "I+P": lambda n, v, w: (w - v) % n < 2,
    "upper": lambda n, v, w: w >= v,
}


def shuffled(n, cells, seed=None):
    """The n x n 0/1 matrix of the rule CELLS[cells], its rows and columns
    shuffled by random.Random(seed); seed None keeps them in order."""
    rows, cols = range(n), range(n)
    if seed is not None:
        rnd = random.Random(seed)
        rows, cols = rnd.sample(range(n), n), rnd.sample(range(n), n)
    return [[int(CELLS[cells](n, v, w)) for w in cols] for v in rows]


def random_rows(n, density, seed):
    """An n x n 0/1 matrix, each entry 1 with probability `density`."""
    rnd = random.Random(seed)
    return [[int(rnd.random() < density) for _ in range(n)] for _ in range(n)]


def derangements(n):
    """!n = perm(J - I)."""
    d = [1, 0]
    for k in range(2, n + 1):
        d.append((k - 1) * (d[-1] + d[-2]))
    return d[n]


def menage(n):
    """The ménage number, perm(J - I - P) for n >= 3, by Touchard's formula (1934)."""
    return sum((-1) ** k * 2 * n * math.comb(2 * n - k, k) // (2 * n - k)
               * math.factorial(n - k) for k in range(n + 1))


def all_permutations(n):
    """All of S_n in lexicographic image-table order."""
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(images)


def matching_edges(p):
    """The perfect matching of permutation p as its edge set, (v, p(v)) for each v."""
    return frozenset(enumerate(p.images, start=1))


def fixes(p, upto):
    """True iff p fixes every point in 1..upto."""
    return p.images[:upto] == tuple(range(1, upto + 1))


def format_cycles(p):
    """Canonic cycle text: minimum element first per cycle, cycles ordered by
    minimum, fixed points omitted; the identity prints as "()"."""
    seen = [False] * (p.n + 1)
    out = []
    for start in range(1, p.n + 1):
        if seen[start] or p.image(start) == start:
            continue
        cyc = []
        j = start
        while not seen[j]:
            seen[j] = True
            cyc.append(str(j))
            j = p.image(j)
        out.append("(" + ",".join(cyc) + ")")
    return "".join(out) or "()"


def order_from_chain(chain):
    """|S_n| read off the chain: the product of its level sizes."""
    return math.prod(len(lev) for lev in chain)


def path_to_perm(path):
    """Ordered product psi(x_n) ... psi(x_1) of a valid path."""
    return validate_path(path)[0]


def det_mod2(rows):
    """The determinant over GF(2) of the square 0/1 matrix whose row i is the
    bitmask rows[i], by Gaussian elimination: 1 when the rows are linearly
    independent mod 2, else 0.  Mod 2 the determinant's signs are all 1, so
    it is the permanent mod 2, by code that shares nothing with a counter."""
    rows = list(rows)
    for j in range(len(rows)):
        pivot = next((r for r in rows if r >> j & 1), 0)
        if not pivot:
            return 0
        rows.remove(pivot)
        rows = [r ^ pivot if r >> j & 1 else r for r in rows]
    return 1
