"""Shared test helpers.

The relabelling property: relabelling rows or columns, or transposing,
leaves the number of perfect matchings unchanged.  Each counter's test
module runs it with its own counter.  Also the row bitmasks of a 0/1
matrix and the graph of an edge set, which build a graph the one way the
package does, from its rows; all of S_n, the edge set of a permutation's
matching, the check that a permutation fixes a prefix of its points, cycle
text for a permutation, the order of a stabilizer chain and the product of
a valid path, which only tests need.
"""

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


def assert_relabel_invariant(count, rows, rnd):
    n = len(rows)
    expected = count(BipartiteGraph(n, bitmasks(rows)))
    order = rnd.sample(range(n), n)
    variants = (
        [rows[v] for v in order],
        [[row[w] for w in order] for row in rows],
        [list(col) for col in zip(*rows)],
    )
    for variant in variants:
        assert count(BipartiteGraph(n, bitmasks(variant))) == expected


def shuffled(n, missing, seed):
    """J_n minus the cells (v, w) with (w - v) % n in `missing`, with rows
    and columns shuffled: missing () is J, (0,) is J-I, (0, 1) is J-I-P."""
    rnd = random.Random(seed)
    rows, cols = rnd.sample(range(n), n), rnd.sample(range(n), n)
    return [[int((w - v) % n not in missing) for w in cols] for v in rows]


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
