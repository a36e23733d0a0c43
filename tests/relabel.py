"""Shared property: relabelling rows or columns, or transposing, leaves the
number of perfect matchings unchanged.  Each counter's test module runs it
with its own counter."""

from hypothesis import strategies as st

from permmatch import BipartiteGraph

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
