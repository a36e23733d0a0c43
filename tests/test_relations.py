"""Closed forms and relations that every counter meets, each a case for
every `_guards.METHODS` counter whose guard admits the graph's n, read from
its module when it runs, as `verify` reads it: a new counter meets them all
through its `METHODS` row alone."""

import importlib
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permmatch._guards import LIMITS, METHODS, admits
from permmatch.bipartite import BipartiteGraph, serialize_graph
from permmatch.pcg import random_graph
from relabel import (bitmasks, derangements, det_mod2, menage, random_rows, relabellings,
                     shuffled, square_01)


def counter(method):
    """METHODS[method]'s counter, read from its module."""
    _, _, module, name = METHODS[method]
    return getattr(importlib.import_module("permmatch." + module), name)


def graph(n, cells, seed=None):
    return BipartiteGraph(n, bitmasks(shuffled(n, cells, seed)))


def emptied(n, line):
    """random_rows(n, 0.7, n) with its row or column n // 2 emptied."""
    rows = bitmasks(random_rows(n, 0.7, n))
    if line == "row":
        rows[n // 2] = 0
    else:
        rows = [r & ~(1 << n // 2) for r in rows]
    return BipartiteGraph(n, rows)


# (graph, count): J at n = 10, 12 and 16, and J - I at 11, 13 and 17, give
# every column an even degree, for Ryser's zero skip; 20! < 2^64 < 21!; the
# upper triangle at the top of Ryser's guard keeps one term in 2^(n-1)
CLOSED_FORMS = (
    [pytest.param(graph(n, "J"), math.factorial(n), id=f"J-{n}")
     for n in (*range(1, 11), 12, 16, 20, 21)]
    + [pytest.param(graph(n, cells, seed), closed(n), id=f"{cells}-{n}-seed{seed}")
       for cells, closed in (("J-I", derangements), ("J-I-P", menage))
       for n in (8, 9) for seed in (0, 1, 2, 3, n)]
    + [pytest.param(graph(n, "J-I", n), derangements(n), id=f"J-I-{n}-seed{n}")
       for n in (11, 13, 17)]
    + [pytest.param(graph(21, "J-I"), derangements(21), id="J-I-21"),
       pytest.param(graph(3, "I+P"), 2, id="I+P-3"),
       pytest.param(graph(5, "I"), 1, id="I-5"),
       pytest.param(BipartiteGraph(4, [0] * 4), 0, id="empty-4")]
    + [pytest.param(graph(n, "upper", n), 1, id=f"upper-{n}-seed{n}") for n in (22, 23, 24)]
    + [pytest.param(emptied(n, line), 0, id=f"empty-{line}-{n}")
       for n in (10, 13, 15, 18) for line in ("row", "column")]
)


@pytest.mark.parametrize("method, g, count", [
    pytest.param(method, *row.values, id=f"{method}-{row.id}")
    for row in CLOSED_FORMS for method in admits(row.values[0].n)])
def test_closed_form(method, g, count):
    assert counter(method)(g) == count


def test_the_table_reaches_every_counters_limit():
    # a raised limit fails here until a closed form sits at the new n
    table = {p.values[0].n for p in CLOSED_FORMS}
    assert {LIMITS[stage] for stage, *_ in METHODS.values()} <= table


def past_nine(test):
    """test with one sparse random graph at each n = 10-24 as an explicit
    example: square_01 draws none past n = 9."""
    for n in range(10, 25):
        test = example(random_graph(n, 0.3, n), random.Random(n))(test)
    return test


# name -> whether counter `count` meets the relation on graph g
RELATIONS = {
    # a row shuffle, a column shuffle and the transpose keep the count
    "relabelling": lambda count, g, rnd: len(
        {count(BipartiteGraph(g.n, rows)) for rows in (g.rows, *relabellings(g.rows, rnd))}) == 1,
    # perm(A) = det(A) (mod 2): the determinant's signs vanish mod 2
    "parity": lambda count, g, rnd: count(g) % 2 == det_mod2(g.rows),
}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("relation", RELATIONS)
@settings(max_examples=50, deadline=None)
@given(square_01.map(lambda a: BipartiteGraph(len(a), bitmasks(a))),
       st.randoms(use_true_random=False))
@past_nine
def test_relation(relation, method, g, rnd):
    if method in admits(g.n):
        assert RELATIONS[relation](counter(method), g, rnd), serialize_graph(g)
