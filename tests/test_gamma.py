"""Generating graph construction, path bijection, surplus accounting, DOT."""

import pytest

import permmatch.gamma as gamma
from permmatch.bipartite import BipartiteGraph, contains_matching, parse_graph
from permmatch.gamma import (
    Cvmp,
    GammaNode,
    build_gamma,
    edge_requirement,
    enumerate_cvmps,
    export_dot,
    path_to_matching,
    perm_to_path,
    surplus_edges,
)
from permmatch.pcg import random_graph
from permmatch.perms import Permutation, Transposition, parse_cycles
from relabel import edge_graph, matching_edges, path_to_perm


def figure_path():
    return perm_to_path(parse_cycles("(1,2,4,3)", 4))


def identity_path(n):
    return Cvmp(tuple(GammaNode(i, i, i) for i in range(1, n + 1)))


class TestBuildGamma:
    def test_node_counts_n4(self):
        gm = build_gamma(4)
        assert len(gm.nodes) == 18
        assert [len(gm.at_position(i)) for i in range(1, 5)] == [10, 5, 2, 1]

    def test_node_count_formula(self):
        for n in range(1, 9):
            gm = build_gamma(n)
            assert len(gm.nodes) == n + sum((n - i) ** 2 for i in range(1, n))
            assert gm.at_position(n) == (GammaNode(n, n, n),)

    def test_trivial(self):
        gm = build_gamma(1)
        assert gm.nodes == (GammaNode(1, 1, 1),)
        assert not gm.r_edges and not gm.s_edges

    def test_figure_r_edges(self):
        gm = build_gamma(4)
        assert (GammaNode(1, 2, 3), GammaNode(2, 4, 3)) in gm.r_edges
        assert (GammaNode(3, 4, 4), GammaNode(4, 4, 4)) in gm.r_edges

    def test_r_edges_by_definition(self):
        # R joins a node to every later node whose edge pair holds its consumed edge
        for n in range(1, 9):
            gm = build_gamma(n)
            want = {
                (x, y)
                for x in gm.nodes
                if not x.is_identity
                for y in gm.nodes
                if y.position > x.position and x.consumed_edge in y.node_edges
            }
            assert gm.r_edges == want

    def test_s_edges_by_definition(self):
        # S joins adjacent-level nodes whose edges share no row and no column
        def rows(x):
            return {v for v, _ in x.node_edges}

        def cols(x):
            return {w for _, w in x.node_edges}

        for n in range(1, 9):
            gm = build_gamma(n)
            expect = {
                (x, y)
                for i in range(1, n)
                for x in gm.at_position(i)
                for y in gm.at_position(i + 1)
                if not (rows(x) & rows(y) or cols(x) & cols(y))
            }
            assert gm.s_edges == expect, n

    def test_relations_disjoint(self):
        gm = build_gamma(5)
        assert not (gm.r_edges & gm.s_edges)

    def test_node_ordering_deterministic(self):
        gm = build_gamma(3)
        assert gm.nodes[:6] == (
            GammaNode(1, 1, 1),
            GammaNode(1, 2, 2),
            GammaNode(1, 2, 3),
            GammaNode(1, 3, 2),
            GammaNode(1, 3, 3),
            GammaNode(2, 2, 2),
        )

    def test_guard(self):
        with pytest.raises(ValueError, match="build is guarded at 1 <= n <= 12$"):
            build_gamma(13)


class TestPathPerm:
    def test_figure_path_to_perm(self):
        assert path_to_perm(figure_path()) == parse_cycles("(1,2,4,3)", 4)

    def test_identity_path(self):
        assert path_to_perm(identity_path(4)) == Permutation.identity(4)

    def test_double_transposition(self):
        path = Cvmp(
            (GammaNode(1, 3, 3), GammaNode(2, 4, 4), GammaNode(3, 3, 3), GammaNode(4, 4, 4))
        )
        assert path_to_perm(path) == parse_cycles("(1,3)(2,4)", 4)

    def test_node_factor(self):
        assert GammaNode(2, 2, 2).psi == Transposition(2, 2)
        assert GammaNode(2, 4, 3).psi == Transposition(2, 4)

    def test_perm_to_path_identity(self):
        assert perm_to_path(Permutation.identity(4)) == identity_path(4)

    def test_perm_to_path_double_transposition(self):
        path = perm_to_path(parse_cycles("(1,3)(2,4)", 4))
        assert str(path) == "(13,31)(24,42)(33,33)(44,44)"

    def test_invalid_path_reports_position(self):
        bad = Cvmp(
            (GammaNode(1, 2, 3), GammaNode(2, 2, 2), GammaNode(3, 3, 3), GammaNode(4, 4, 4))
        )
        # suffix product is the identity, so t must be 2, not 3
        with pytest.raises(ValueError, match="position 1"):
            path_to_perm(bad)

    @pytest.mark.parametrize(
        "nodes, index",
        [
            ((GammaNode(1, 5, 2), GammaNode(2, 2, 2), GammaNode(3, 3, 3)), 1),
            ((GammaNode(1, 1, 1), GammaNode(2, 3, 4), GammaNode(3, 3, 3)), 2),
        ],
    )
    def test_out_of_range_node_reports_index(self, nodes, index):
        with pytest.raises(ValueError, match=f"index {index} does not fit in S_3"):
            Cvmp(nodes)


class TestEnumeration:
    def test_contains_figure_path(self):
        assert figure_path() in set(enumerate_cvmps(4))

    def test_deterministic_order(self):
        first = [str(p) for p in enumerate_cvmps(3)]
        second = [str(p) for p in enumerate_cvmps(3)]
        assert first == second

    def test_documented_order(self):
        # Level n varies slowest; each level runs identity first, then k ascending.
        assert [str(p) for p in enumerate_cvmps(3)] == [
            "(11,11)(22,22)(33,33)",
            "(12,21)(22,22)(33,33)",
            "(13,31)(22,22)(33,33)",
            "(11,11)(23,32)(33,33)",
            "(12,31)(23,32)(33,33)",
            "(13,21)(23,32)(33,33)",
        ]

    def test_guard(self):
        with pytest.raises(ValueError, match="enumeration is guarded at 1 <= n <= 7$"):
            list(enumerate_cvmps(8))

    def test_guard_below_one(self):
        with pytest.raises(ValueError, match="enumeration is guarded at 1 <= n <= 7"):
            next(enumerate_cvmps(0))


def resolving(path):
    """(x, the nearest later node whose edge pair holds x's consumed edge)
    for each transposition node x."""
    out = []
    for i, x in enumerate(path.nodes):
        if x.is_identity:
            continue
        later = [y for y in path.nodes[i + 1 :] if x.consumed_edge in y.node_edges]
        assert later, f"consumed edge {x.consumed_edge} of {x} is never resolved"
        out.append((x, later[0]))
    return out


class TestSurplus:
    def test_identity_surplus_empty(self):
        assert surplus_edges(identity_path(4)) == frozenset()
        assert all(x.consumed_edge is None for x in identity_path(4).nodes)

    def test_double_transposition_surplus(self):
        path = perm_to_path(parse_cycles("(1,3)(2,4)", 4))
        assert surplus_edges(path) == {(3, 3), (4, 4)}

    def test_attribution_figure(self):
        nodes = figure_path().nodes
        pairs = resolving(figure_path())
        assert (nodes[0], nodes[1]) in pairs and nodes[0].consumed_edge == (3, 2)
        assert (nodes[2], nodes[3]) in pairs and nodes[2].consumed_edge == (4, 4)

    def test_every_consumed_edge_resolves(self):
        for n in range(2, 7):
            for p in enumerate_cvmps(n):
                pairs = resolving(p)
                assert {x.consumed_edge for x, _ in pairs} == surplus_edges(p)


class TestPathMatching:
    def test_identity_matching_is_diagonal(self):
        m = path_to_matching(identity_path(3))
        assert m == Permutation.identity(3)
        assert matching_edges(m) == {(1, 1), (2, 2), (3, 3)}

    def test_refuses_a_row_matched_twice(self, monkeypatch):
        # the figure path's surplus is {(3,2), (3,4), (4,4)}; keeping (4,4)
        # leaves (4,3) and (4,4) at row 4, which no image table can hold
        real = gamma.surplus_edges
        monkeypatch.setattr(gamma, "surplus_edges", lambda path: real(path) - {(4, 4)})
        with pytest.raises(ValueError, match=r"leaves two edges at row 4$"):
            path_to_matching(figure_path())

    def test_validates_once(self, monkeypatch):
        calls = []
        real = gamma.validate_path

        def counting(path):
            calls.append(path)
            return real(path)

        monkeypatch.setattr(gamma, "validate_path", counting)
        paths = list(enumerate_cvmps(4))
        for p in paths:
            path_to_matching(p)
        assert len(calls) == len(paths) == 24


class TestEdgeRequirement:
    def test_complete_requires_nothing(self):
        g = BipartiteGraph.complete(4)
        for p in enumerate_cvmps(4):
            assert edge_requirement(p, g) == frozenset()

    def test_missing_edge_reported(self):
        g = edge_graph(4, {(v, w) for v in range(1, 5) for w in range(1, 5)} - {(2, 4)})
        assert edge_requirement(figure_path(), g) == {(2, 4)}

    def test_exact_matching_suffices(self):
        # the surplus edges are genuinely not required
        g = parse_graph("4\n0100\n0001\n1000\n0010\n")
        assert edge_requirement(figure_path(), g) == frozenset()
        for e in [(3, 2), (3, 4), (4, 4)]:
            assert not g.has_edge(*e)

    def test_empty_iff_contained(self):
        for n in range(3, 6):
            paths = list(enumerate_cvmps(n))
            for seed in range(100):
                g = random_graph(n, 0.5, 500 + seed)
                for p in paths:
                    empty = edge_requirement(p, g) == frozenset()
                    assert empty == contains_matching(g, path_to_matching(p))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            edge_requirement(figure_path(), BipartiteGraph.complete(3))


class TestDot:
    def test_trivial(self):
        text = export_dot(1)
        assert text.startswith("digraph")
        assert '"(11,11)"' in text
        assert "->" not in text

    def test_n2_by_hand(self):
        text = export_dot(2)
        assert '"(12,21)"' in text and '"(11,11)"' in text and '"(22,22)"' in text
        assert '"(12,21)" -> "(22,22)" [style=solid];' in text
        assert '"(11,11)" -> "(22,22)" [style=dashed];' in text

    def test_n4_node_count(self):
        text = export_dot(4)
        assert sum(1 for line in text.splitlines() if line.endswith('";')) == 18
        assert text.count("{") == text.count("}") == 1

    def test_deterministic(self):
        assert export_dot(4) == export_dot(4)

    def test_guard(self):
        with pytest.raises(ValueError, match="DOT export is guarded at 1 <= n <= 8$"):
            export_dot(9)
