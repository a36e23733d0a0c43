"""The 4-cycle multiplication witness and its level specialization."""

import pytest

from permmatch.bipartite import BipartiteGraph
from permmatch.gamma import (
    _level_node,
    enumerate_cvmps,
    four_cycle,
    is_product_realized,
    validate_path,
)
from permmatch.perms import Permutation, Transposition, compose, parse_cycles
from relabel import all_permutations, edge_graph, fixes, matching_edges


def transpositions(n):
    for i in range(1, n + 1):
        for k in range(i + 1, n + 1):
            yield Transposition(i, k)


class TestFourCycle:
    def test_identity_multiplicand(self):
        w = four_cycle(Permutation.identity(5), Transposition(2, 3))
        assert (w.a, w.t) == (2, 3)
        assert w.edges_before == {(2, 2), (3, 3)}
        assert w.edges_after == {(2, 3), (3, 2)}

    def test_rejects_identity_multiplier(self):
        with pytest.raises(ValueError):
            four_cycle(Permutation.identity(4), Transposition(2, 2))

    def test_rejects_transposition_past_n(self):
        with pytest.raises(ValueError, match=r"transposition \(2,4\) does not fit in S_3"):
            four_cycle(Permutation.identity(3), Transposition(2, 4))

    def test_exchange_exhaustive_s5(self):
        for p in all_permutations(5):
            for psi in transpositions(5):
                w = four_cycle(p, psi)
                before = matching_edges(p)
                after = matching_edges(compose(p, psi.to_perm(5)))
                assert after == (before - w.edges_before) | w.edges_after, (p, psi)


class TestIsProductRealized:
    FIG_EDGES = [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (2, 3), (3, 2)]

    def test_complete_always_true(self):
        g = BipartiteGraph.complete(5)
        for p in [Permutation.identity(5), parse_cycles("(1,2,4,3,5)", 5)]:
            assert is_product_realized(g, p, Transposition(2, 3))

    def test_figure_graph(self):
        g = edge_graph(5, self.FIG_EDGES)
        assert is_product_realized(g, Permutation.identity(5), Transposition(2, 3))
        pruned = edge_graph(5, [e for e in self.FIG_EDGES if e != (3, 2)])
        assert not is_product_realized(pruned, Permutation.identity(5), Transposition(2, 3))

    def test_rejects_size_mismatch(self):
        g = BipartiteGraph.complete(4)
        with pytest.raises(ValueError, match="size mismatch: graph n=4, permutation n=5"):
            is_product_realized(g, Permutation.identity(5), Transposition(1, 2))

    def test_rejects_unrealized_base(self):
        g = BipartiteGraph(4, [0] * 4)
        with pytest.raises(ValueError, match="hypothesis"):
            is_product_realized(g, Permutation.identity(4), Transposition(1, 2))


def ep(p, psi):
    """Edge pair of the level-psi.i node for psi under the suffix product p."""
    return _level_node(psi.i, psi.k, p).node_edges


class TestEp:
    def test_level_one(self):
        assert ep(parse_cycles("(2,4,3)", 4), Transposition(1, 2)) == {(1, 2), (3, 1)}

    def test_identity_multiplicand(self):
        assert ep(Permutation.identity(5), Transposition(2, 4)) == {(2, 4), (4, 2)}

    def test_level_two(self):
        assert ep(parse_cycles("(3,4)", 4), Transposition(2, 4)) == {(2, 4), (3, 2)}

    def test_specializes_four_cycle(self):
        # whenever p fixes 1..i, ep is the a = i case of the 4-cycle witness
        for n in range(2, 6):
            for p in all_permutations(n):
                for psi in transpositions(n):
                    if not fixes(p, psi.i):
                        continue
                    w = four_cycle(p, psi)
                    assert w.a == psi.i
                    assert ep(p, psi) == w.edges_after


class TestLevelNode:
    def test_is_four_cycle_with_a_equal_to_level(self):
        # a level-i node is the 4-cycle of its suffix product times (i,k)
        checked = 0
        for n in range(1, 6):
            for path in enumerate_cvmps(n):
                suffixes = validate_path(path)
                for i, x in enumerate(path.nodes, start=1):
                    if x.is_identity:
                        continue
                    w = four_cycle(suffixes[i], x.psi)
                    assert w.a == i, (path, i)
                    assert w.edges_after == x.node_edges, (path, i)
                    assert x.consumed_edge in w.edges_before, (path, i)
                    checked += 1
        assert checked == 380
