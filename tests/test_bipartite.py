"""Graphs, matchings, the bijection with permutations, and the oracles."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permmatch import (
    BipartiteGraph,
    Matching,
    Permutation,
    contains_matching,
    count_bruteforce,
    count_ryser,
    matching_to_perm,
    parse_cycles,
    parse_graph,
    perm_to_matching,
    random_graph,
    serialize_graph,
)
from permmatch.bipartite import _bit_table
from permmatch.perms import all_permutations
from relabel import assert_relabel_invariant, square_01

SIX_CYCLE = BipartiteGraph.from_matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])


class TestBijection:
    def test_identity(self):
        m = perm_to_matching(Permutation.identity(3))
        assert m.pairs == {(1, 1), (2, 2), (3, 3)}

    def test_figure_permutation(self):
        m = perm_to_matching(parse_cycles("(1,2,4,3)", 4))
        assert m.pairs == {(1, 2), (2, 4), (4, 3), (3, 1)}

    def test_two_cycles(self):
        m = perm_to_matching(parse_cycles("(1,3,5)(2,4)", 5))
        assert m.pairs == {(1, 3), (3, 5), (5, 1), (2, 4), (4, 2)}

    def test_inverse_direction(self):
        for text, n in [("", 3), ("(1,2,4,3)", 4), ("(1,3,5)(2,4)", 5)]:
            p = parse_cycles(text, n)
            assert matching_to_perm(perm_to_matching(p)) == p

    def test_mutually_inverse_on_s5(self):
        for p in all_permutations(5):
            assert matching_to_perm(perm_to_matching(p)) == p

    def test_rejects_partial(self):
        with pytest.raises(ValueError, match="not perfect"):
            matching_to_perm(Matching(3, frozenset({(1, 2)})))

    def test_matching_rejects_clashing_endpoint(self):
        with pytest.raises(ValueError):
            Matching(3, frozenset({(1, 2), (1, 3)}))


class TestContains:
    def test_complete_contains_all(self):
        g = BipartiteGraph.complete(4)
        for p in all_permutations(4):
            assert contains_matching(g, perm_to_matching(p))

    def test_empty_contains_none(self):
        g = BipartiteGraph.empty(3)
        assert not contains_matching(g, perm_to_matching(Permutation.identity(3)))

    def test_diagonal(self):
        g = BipartiteGraph.from_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert contains_matching(g, Matching(3, frozenset({(1, 1), (2, 2), (3, 3)})))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            contains_matching(BipartiteGraph.complete(3), Matching(4, frozenset()))


class TestBruteForce:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_bit_table_matches_itertools(self, n):
        perms = list(itertools.permutations(range(n)))
        table = _bit_table(n)
        assert len(table) == n
        for v, images in enumerate(table):
            assert len(images) == n
            for c, bits in enumerate(images):
                assert bits.bit_count() == math.factorial(n - 1)
                for p, perm in enumerate(perms):
                    assert (bits >> p & 1) == (perm[v] == c), (v, c, p)

    def test_complete(self):
        assert count_bruteforce(BipartiteGraph.complete(3)) == 6

    def test_six_cycle(self):
        assert count_bruteforce(SIX_CYCLE) == 2

    def test_diagonal(self):
        g = BipartiteGraph.from_edges(5, [(i, i) for i in range(1, 6)])
        assert count_bruteforce(g) == 1

    def test_guard(self):
        with pytest.raises(ValueError, match="ryser"):
            count_bruteforce(BipartiteGraph.complete(10))

    def test_complete_counts_are_factorials(self):
        for n in range(1, 10):
            assert count_bruteforce(BipartiteGraph.complete(n)) == math.factorial(n)

    @pytest.mark.parametrize("n", [8, 9])
    @pytest.mark.parametrize("density", [0.3, 0.5, 0.8])
    def test_matches_ryser_at_table_sizes(self, n, density):
        # n = 8 is the whole table; n = 9 adds the loop over row 1's image
        for seed in range(4):
            g = random_graph(n, density, 900 + seed)
            assert count_bruteforce(g) == count_ryser(g), seed

    def test_empty_first_row_n9(self):
        g = random_graph(9, 0.9, 5)
        g = BipartiteGraph(9, (0,) + g.rows[1:])
        assert count_bruteforce(g) == count_ryser(g) == 0

    def test_first_row_in_one_head_block_n9(self):
        # row 1 only reaches column 4, so eight of the nine blocks count 0
        g = random_graph(9, 0.7, 6)
        g = BipartiteGraph(9, (1 << 3,) + g.rows[1:])
        expected = count_ryser(g)
        assert expected > 0
        assert count_bruteforce(g) == expected

    @settings(max_examples=50, deadline=None)
    @given(square_01, st.randoms(use_true_random=False))
    def test_invariant_under_permutation_and_transpose(self, rows, rnd):
        assert_relabel_invariant(count_bruteforce, rows, rnd)


class TestRyser:
    def test_complete(self):
        assert count_ryser(BipartiteGraph.complete(4)) == 24

    def test_all_zero(self):
        assert count_ryser(BipartiteGraph.empty(4)) == 0

    def test_matches_bruteforce_random(self):
        for seed in range(20):
            g = random_graph(6, 0.5, seed)
            assert count_ryser(g) == count_bruteforce(g)

    def test_agreement_sweep(self):
        # oracle self-consistency across sizes
        for n in range(3, 8):
            for seed in range(200):
                g = random_graph(n, 0.4, 7000 + 100 * n + seed)
                assert count_ryser(g) == count_bruteforce(g), (n, seed)

    def test_complete_counts_are_factorials(self):
        for n in range(1, 8):
            assert count_ryser(BipartiteGraph.complete(n)) == math.factorial(n)

    def test_guard(self):
        with pytest.raises(ValueError):
            count_ryser(BipartiteGraph.complete(25))


class TestGraphRejects:
    @pytest.mark.parametrize(
        "build,msg",
        [
            (lambda: BipartiteGraph(0, []), "n must be >= 1"),
            (lambda: BipartiteGraph(2, [3]), "expected 2 rows, got 1"),
            (lambda: BipartiteGraph(2, [3, 4]), "row 2 has bits outside 1..2"),
            (lambda: BipartiteGraph.from_matrix([]), "n must be >= 1"),
            (lambda: BipartiteGraph.from_matrix([[1, 0], [1]]), "square"),
            (lambda: BipartiteGraph.from_matrix([[2]]), "entries must be 0/1"),
            (lambda: BipartiteGraph.from_edges(2, [(1, 3)]), r"edge \(1,3\) out of range"),
            (lambda: BipartiteGraph.from_edges(2, [(0, 1)]), r"edge \(0,1\) out of range"),
            (lambda: parse_graph("0\n"), "bad header n=0; must be >= 1"),
        ],
        ids=[
            "init-n0",
            "init-rows",
            "init-bits",
            "matrix-empty",
            "matrix-ragged",
            "matrix-entry",
            "edges-column",
            "edges-row",
            "parse-n0",
        ],
    )
    def test_rejects(self, build, msg):
        with pytest.raises(ValueError, match=msg):
            build()


class TestGraphFormat:
    def test_parse_complete(self):
        assert parse_graph("2\n11\n11") == BipartiteGraph.complete(2)

    def test_parse_single_nonedge(self):
        assert parse_graph("1\n0") == BipartiteGraph.empty(1)

    def test_roundtrip_random(self):
        g = random_graph(5, 0.5, 42)
        assert parse_graph(serialize_graph(g)) == g

    def test_trailing_newline_optional(self):
        text = serialize_graph(BipartiteGraph.complete(3))
        assert parse_graph(text) == parse_graph(text.rstrip("\n"))

    @pytest.mark.parametrize(
        "bad,msg",
        [
            ("", "empty"),
            ("x\n11\n11", "header"),
            ("2\n11", "rows"),
            ("2\n111\n11", "characters"),
            ("2\n1a\n11", "outside 0/1"),
        ],
    )
    def test_rejects(self, bad, msg):
        with pytest.raises(ValueError, match=msg):
            parse_graph(bad)

    @pytest.mark.parametrize(
        "header", ["1_0", "+2", "\u0662"], ids=["underscore", "plus", "arabic-indic"]
    )
    def test_header_must_be_ascii_digits(self, header):
        # int() reads each of these, and the body fits the n it reads
        n = int(header)
        with pytest.raises(ValueError, match="bad header line"):
            parse_graph(header + "\n" + ("1" * n + "\n") * n)


class TestRandomGraph:
    def test_density_extremes(self):
        assert random_graph(4, 1.0, 0) == BipartiteGraph.complete(4)
        assert random_graph(4, 0.0, 0) == BipartiteGraph.empty(4)

    def test_seed_reproducible(self):
        a = serialize_graph(random_graph(6, 0.37, 123))
        b = serialize_graph(random_graph(6, 0.37, 123))
        assert a == b

    def test_bad_density(self):
        with pytest.raises(ValueError):
            random_graph(3, 1.5, 0)

    def test_negative_seed_names_the_seed(self):
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            random_graph(3, 0.5, -1)
