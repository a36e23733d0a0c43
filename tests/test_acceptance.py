"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything asserts exact equality; the handful of wall-clock
budgets are asserted too.
"""

import itertools
import math
import random
import time

from permmatch.bipartite import (
    BipartiteGraph,
    contains_matching,
    count_bruteforce,
    count_ryser,
)
from permmatch.gamma import (
    build_gamma,
    enumerate_cvmps,
    four_cycle,
    gamma_stats,
    is_product_realized,
    path_to_matching,
    perm_to_path,
    surplus_edges,
)
from permmatch.harness import count_via_cvmp
from permmatch.pcg import random_graph
from permmatch.perms import (
    Permutation,
    Transposition,
    compose,
    coset_transversals,
    parse_cycles,
    sift,
    unsift,
)
from relabel import (
    all_permutations,
    edge_graph,
    matching_edges,
    order_from_chain,
    path_to_perm,
)


def passed(num, text):
    print(f"criterion {num:2d} [{text}]: PASS")


def test_criterion_1_transversal_table():
    chain = coset_transversals(4)
    assert chain[0] == tuple(Transposition(1, k) for k in (1, 2, 3, 4))
    assert chain[1] == (Transposition(2, 2), Transposition(2, 3), Transposition(2, 4))
    assert chain[2] == (Transposition(3, 3), Transposition(3, 4))
    assert chain[3] == (Transposition(4, 4),)
    assert order_from_chain(chain) == 24
    coset_transversals(4)  # warm
    t0 = time.perf_counter()
    order_from_chain(coset_transversals(4))
    assert time.perf_counter() - t0 < 0.001
    passed(1, "transversal table fidelity")


def test_criterion_2_factorization_examples():
    p = parse_cycles("(1,3,2,4)", 4)
    factors = sift(p)
    assert factors == [
        Transposition(1, 3),
        Transposition(2, 4),
        Transposition(3, 4),
        Transposition(4, 4),
    ]
    assert unsift(factors) == p
    q = parse_cycles("(1,2)", 4)
    factors_q = sift(q)
    assert factors_q == [
        Transposition(1, 2),
        Transposition(2, 2),
        Transposition(3, 3),
        Transposition(4, 4),
    ]
    assert unsift(factors_q) == q
    passed(2, "worked factorization examples")


def test_criterion_3_cascade_figure():
    p = parse_cycles("(1,2,4,3,5)", 5)
    psi = Transposition(2, 3)
    assert compose(p, psi.to_perm(5)) == parse_cycles("(1,3,5)(2,4)", 5)
    w = four_cycle(p, psi)
    assert w.cycle_nodes == (("v", 1), ("w", 2), ("v", 4), ("w", 3))
    assert w.edges_before == {(1, 2), (4, 3)}
    assert w.edges_after == {(1, 3), (4, 2)}
    passed(3, "4-cycle figure fidelity")


def test_criterion_4_worked_path():
    path = perm_to_path(parse_cycles("(1,2,4,3)", 4))
    assert str(path) == "(12,31)(24,32)(34,43)(44,44)"
    assert matching_edges(path_to_matching(path)) == {(1, 2), (2, 4), (4, 3), (3, 1)}
    assert surplus_edges(path) == {(3, 2), (3, 4), (4, 4)}
    passed(4, "worked path, matching and surplus")


def test_criterion_5_path_bijection():
    t0 = time.perf_counter()
    for n in range(2, 7):
        images = set()
        count = 0
        for p in enumerate_cvmps(n):
            q = path_to_perm(p)
            assert perm_to_path(q) == p
            assert path_to_matching(p) == q
            images.add(q)
            count += 1
        assert count == math.factorial(n)
        assert images == set(all_permutations(n))
    assert time.perf_counter() - t0 < 60
    passed(5, "path bijection with S_n, n <= 6")


def test_criterion_6_product_realizability():
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randint(4, 7)
        p = Permutation(rng.sample(range(1, n + 1), n))
        edges = set(matching_edges(p))
        for v in range(1, n + 1):
            for w in range(1, n + 1):
                if rng.random() < 0.45:
                    edges.add((v, w))
        g = edge_graph(n, edges)
        i = rng.randint(1, n - 1)
        psi = Transposition(i, rng.randint(i + 1, n))
        product = compose(p, psi.to_perm(n))
        assert is_product_realized(g, p, psi) == contains_matching(g, product)
    passed(6, "realizability equivalence, 1000 random triples")


def test_criterion_7_exhaustive_counting_equivalence():
    t0 = time.perf_counter()
    for n in (3, 4):
        for mask in range(1 << (n * n)):
            g = BipartiteGraph.from_mask(n, mask)
            a = count_via_cvmp(g)
            b = count_bruteforce(g)
            c = count_ryser(g)
            assert a == b == c, (n, mask, a, b, c)
    assert time.perf_counter() - t0 < 300
    passed(7, "exhaustive counting equivalence, n = 3 and 4")


def test_criterion_8_randomized_counting_equivalence():
    t0 = time.perf_counter()
    cases = [(5, 500), (6, 500), (7, 100)]
    for n, trials in cases:
        for t in range(trials):
            g = random_graph(n, 0.5, 80_000 + 1000 * n + t)
            assert count_via_cvmp(g) == count_ryser(g), (n, t)
    assert time.perf_counter() - t0 < 600
    passed(8, "randomized counting equivalence, n = 5..7")


def test_criterion_9_oracle_self_consistency():
    for n in range(3, 8):
        for t in range(200):
            g = random_graph(n, 0.5, 40_000 + 1000 * n + t)
            assert count_ryser(g) == count_bruteforce(g), (n, t)
    for n in range(1, 8):
        assert count_ryser(BipartiteGraph.complete(n)) == math.factorial(n)
    passed(9, "oracle self-consistency")


def test_criterion_10_structural_diagnostics():
    assert len(build_gamma(4).nodes) == 18
    for n in range(2, 7):
        gm = build_gamma(n)
        for p in enumerate_cvmps(n):
            for x, y in zip(p.nodes, p.nodes[1:]):
                assert (x, y) in gm.r_edges or (x, y) in gm.s_edges
    stats = gamma_stats(4)
    assert stats["valid_paths"] == 24
    assert stats["unconstrained_walks"] >= stats["valid_paths"]
    # reported, never asserted equal: local adjacency admits more walks
    assert "unconstrained_walks" in stats
    passed(10, "structural diagnostics")
