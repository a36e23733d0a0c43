"""Shared test helpers.

The relabelling property: relabelling rows or columns, or transposing,
leaves the number of perfect matchings unchanged.  Each counter's test
module runs it with its own counter.  Also all of S_n, and the check that a
permutation fixes a prefix of its points, which only tests need.
"""

import itertools
import random

from hypothesis import strategies as st

from permmatch import BipartiteGraph, Permutation

square_01 = st.integers(1, 7).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


def assert_relabel_invariant(count, rows, rnd):
    n = len(rows)
    expected = count(BipartiteGraph.from_matrix(rows))
    order = rnd.sample(range(n), n)
    variants = (
        [rows[v] for v in order],
        [[row[w] for w in order] for row in rows],
        [list(col) for col in zip(*rows)],
    )
    for variant in variants:
        assert count(BipartiteGraph.from_matrix(variant)) == expected


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


def fixes(p, upto):
    """True iff p fixes every point in 1..upto."""
    return p.images[:upto] == tuple(range(1, upto + 1))
