"""Graphs, perfect matchings as permutations, and the oracles."""

import hashlib
import itertools
import math
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permmatch.bipartite import (
    BipartiteGraph,
    _bit_table,
    contains_matching,
    count_bruteforce,
    count_ryser,
    parse_graph,
    serialize_graph,
)
from permmatch.pcg import _uniform_stream, random_graph
from permmatch.perms import Permutation, parse_cycles
from relabel import (
    all_permutations,
    assert_relabel_invariant,
    bitmasks,
    edge_graph,
    shuffled,
    square_01,
)

# seeds around the 32-bit word boundaries that the seeding splits a seed at,
# and past the four words of its pool
STREAM_SEEDS = [*range(300), 2**32 - 1, 2**32, 2**64, 2**128 + 7, 10**40]
# the canonical line ends and ten other ASCII and Unicode separators
SEPARATORS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029", " "]
SIX_CYCLE = parse_graph("3\n110\n011\n101\n")


def assert_exactly_these_edges(p, edges):
    """p's matching is `edges`, edge (v, p(v)) for each v: the graph of those
    edges contains it, and the graph missing any one of them does not."""
    edges = frozenset(edges)
    assert contains_matching(edge_graph(p.n, edges), p)
    for e in edges:
        assert not contains_matching(edge_graph(p.n, edges - {e}), p), e


class TestBijection:
    def test_identity(self):
        assert_exactly_these_edges(Permutation.identity(3), {(1, 1), (2, 2), (3, 3)})

    def test_figure_permutation(self):
        p = parse_cycles("(1,2,4,3)", 4)
        assert_exactly_these_edges(p, {(1, 2), (2, 4), (4, 3), (3, 1)})

    def test_two_cycles(self):
        p = parse_cycles("(1,3,5)(2,4)", 5)
        assert_exactly_these_edges(p, {(1, 3), (3, 5), (5, 1), (2, 4), (4, 2)})

    def test_injective_onto_perfect_matchings_on_s5(self):
        # the graph of p's five edges contains p's matching and no other
        perms = list(all_permutations(5))
        for p in perms:
            g = edge_graph(5, enumerate(p.images, start=1))
            assert [q for q in perms if contains_matching(g, q)] == [p]

    def test_matching_rejects_clashing_endpoint(self):
        # a permutation matches each row once; its image table refuses a
        # column matched twice
        with pytest.raises(ValueError, match="not a bijection"):
            Permutation([2, 2, 3])


class TestContains:
    def test_complete_contains_all(self):
        g = BipartiteGraph.complete(4)
        for p in all_permutations(4):
            assert contains_matching(g, p)

    def test_empty_contains_none(self):
        g = BipartiteGraph(3, [0] * 3)
        assert not contains_matching(g, Permutation.identity(3))

    def test_diagonal(self):
        g = parse_graph("3\n100\n010\n001\n")
        assert contains_matching(g, Permutation.identity(3))

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch: graph n=3, permutation n=4"):
            contains_matching(BipartiteGraph.complete(3), Permutation.identity(4))


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

    def test_six_cycle(self):
        assert count_bruteforce(SIX_CYCLE) == 2

    def test_diagonal(self):
        g = edge_graph(5, [(i, i) for i in range(1, 6)])
        assert count_bruteforce(g) == 1

    def test_guard(self):
        msg = "brute force is guarded at 1 <= n <= 9; use `count --method ryser`$"
        with pytest.raises(ValueError, match=msg):
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

    @pytest.mark.parametrize("c", range(9))
    def test_first_row_in_one_head_block_n9(self, c):
        # row 1 only reaches column c + 1, so eight of the nine blocks count 0
        g = random_graph(9, 0.7, 6)
        g = BipartiteGraph(9, (1 << c,) + g.rows[1:])
        expected = count_ryser(g)
        assert expected > 0
        assert count_bruteforce(g) == expected

    @pytest.mark.parametrize(
        "missing, expected",
        [((), 362880), ((0,), 133496), ((0, 1), 43387)],
        ids=["J", "J-I", "J-I-P"],
    )
    def test_closed_forms_n9_shuffled(self, missing, expected):
        # 9!, derangements and menage numbers, rows and columns shuffled so
        # that row 1's edges fall in different blocks
        for seed in range(4):
            g = BipartiteGraph(9, bitmasks(shuffled(9, missing, seed)))
            assert count_bruteforce(g) == expected, seed

    def test_n9_peak_memory_below_1mb(self):
        # the S_8 table and one block at a time: about 0.38 MB; the whole
        # table of S_9 would be 3.7 MB
        _bit_table.cache_clear()
        tracemalloc.start()
        try:
            assert count_bruteforce(BipartiteGraph.complete(9)) == 362880
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    @settings(max_examples=50, deadline=None)
    @given(square_01, st.randoms(use_true_random=False))
    def test_invariant_under_permutation_and_transpose(self, rows, rnd):
        assert_relabel_invariant(count_bruteforce, rows, rnd)


class TestRyser:
    def test_all_zero(self):
        assert count_ryser(BipartiteGraph(4, [0] * 4)) == 0


class TestGraphRejects:
    @pytest.mark.parametrize(
        "build,msg",
        [
            (lambda: BipartiteGraph(0, []), "n must be >= 1"),
            (lambda: BipartiteGraph(2, [3]), "expected 2 rows, got 1"),
            (lambda: BipartiteGraph(2, [3, 4]), "row 2 has bits outside 1..2"),
            (lambda: parse_graph("0\n"), "bad header n=0; must be >= 1"),
            (lambda: parse_graph("02\n11\n11\n"), r"^bad header line '02'; expected decimal n$"),
            (lambda: parse_graph("00\n"), r"^bad header line '00'; expected decimal n$"),
        ],
        ids=[
            "init-n0",
            "init-rows",
            "init-bits",
            "parse-n0",
            "parse-leading-zero",
            "parse-zeros",
        ],
    )
    def test_rejects(self, build, msg):
        with pytest.raises(ValueError, match=msg):
            build()

    @pytest.mark.parametrize("rows", [[1.9, 3], ["3", 1]], ids=["float", "str"])
    def test_rows_must_be_ints(self, rows):
        # a row is its bitmask as it stands: 1.9 is not read as row 1, nor "3" as 3
        with pytest.raises(TypeError):
            BipartiteGraph(2, rows)


class TestGraphFormat:
    def test_parse_complete(self):
        assert parse_graph("2\n11\n11") == BipartiteGraph.complete(2)

    def test_parse_single_nonedge(self):
        assert parse_graph("1\n0") == BipartiteGraph(1, [0])

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
            # only "\n" and "\r\n" end a line
            ("2\v11\f01\n", "bad header line"),
            ("2\x1c11\n01\n", "bad header line"),
            ("2\r11\r01\r", "bad header line"),
            ("2\n11\x8501\n", "row 1 "),
            ("2\n11\u202801\n", "row 1 "),
            ("2\n11\r01\n", "row 1 "),
            ("2\n11\n01\r", "row 2 "),
            ("2\n11\n01\x1d", "row 2 "),
        ],
    )
    def test_rejects(self, bad, msg):
        with pytest.raises(ValueError, match=msg):
            parse_graph(bad)

    @pytest.mark.parametrize(
        "header",
        ["1_0", "+2", "\u0662", " 2 ", "\x1f2\x1f", "2\t"],
        ids=["underscore", "plus", "arabic-indic", "spaces", "unit-separator", "tab"],
    )
    def test_header_must_be_ascii_digits(self, header):
        # int() reads each of these, and the body fits the n it reads
        n = int(header.strip())
        with pytest.raises(ValueError, match="bad header line"):
            parse_graph(header + "\n" + ("1" * n + "\n") * n)

    def test_header_past_int_digit_limit(self):
        # refused by its length before int() reads it, so the interpreter's
        # digit limit (4,300 by default, 640 at the least) plays no part
        for digits in (5000, 1000):
            msg = f"^bad header line of {digits} characters; n has at most 19 digits$"
            with pytest.raises(ValueError, match=msg):
                parse_graph("1" * digits + "\n1\n")

    def test_header_past_any_row_names_its_digits(self):
        # n = sys.maxsize is echoed whole, and so is one more, which has as
        # many digits; a longer header is named by its length, which could
        # otherwise put thousands of characters on stderr
        n = sys.maxsize
        with pytest.raises(ValueError, match=f"^row 1 has 1 characters, expected {n}$"):
            parse_graph(f"{n}\n1\n")
        with pytest.raises(ValueError, match=f"^row 1 has 1 characters, expected {n + 1}$"):
            parse_graph(f"{n + 1}\n1\n")
        with pytest.raises(ValueError, match=f"^expected {n + 1} rows after the header, got 0$"):
            parse_graph(f"{n + 1}\n")
        msg = "^bad header line of 4300 characters; n has at most 19 digits$"
        for body in ("1\n", ""):
            with pytest.raises(ValueError, match=msg):
                parse_graph("1" * 4300 + "\n" + body)

    def test_crlf_line_ends(self):
        expected = parse_graph("2\n11\n01\n")
        assert parse_graph("2\r\n11\r\n01\r\n") == expected
        assert parse_graph("2\r\n11\n01") == expected

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.tuples(
                st.sampled_from(["", " ", "\x1f", "\t"]),
                st.sampled_from([str(n), "0" + str(n)]),
                st.lists(st.text("01", min_size=n, max_size=n), min_size=n, max_size=n),
                st.lists(st.sampled_from(SEPARATORS), min_size=n, max_size=n),
                st.sampled_from(SEPARATORS + [""]),
            )
        )
    )
    def test_accepted_text_is_canonical(self, parts):
        pad, header, body, seps, end = parts
        lines = [pad + header] + body
        text = "".join(line + sep for line, sep in zip(lines, seps + [end]))
        try:
            g = parse_graph(text)
        except ValueError as exc:
            assert re.match("bad header line |row [0-9]+ ", str(exc)), (text, exc)
            return
        canonical = text.replace("\r\n", "\n")
        assert serialize_graph(g) == canonical + ("" if canonical.endswith("\n") else "\n")


class TestRandomGraph:
    def test_density_extremes(self):
        assert random_graph(4, 1.0, 0) == BipartiteGraph.complete(4)
        assert random_graph(4, 0.0, 0) == BipartiteGraph(4, [0] * 4)

    @pytest.mark.parametrize(
        "n,density,seed,digest",
        [
            (12, 0.37, 123, "f20f598acb561885590fd6f4f79c11cf27efa6cf233e1efef9d06721cff20822"),
            (24, 0.5, 1, "2cf9b7ff7ff7bb7a29c2d2865df9d4e1db6c2108fa7f41331254d28c6534d575"),
            (6, 0.5, 7, "be5219939b31cb8dbb6d01c1674fd9b11206386a649f96010f8712e4084bc4bf"),
            (9, 0.5, 7, "b9f62fac7d5a3236869167157398d2206065c490aa97193304d815524bed588e"),
        ],
    )
    def test_pinned_bytes(self, n, density, seed, digest):
        # the sha256 of these graphs when numpy's default_rng drew them
        text = serialize_graph(random_graph(n, density, seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_stream_matches_default_rng(self):
        np = pytest.importorskip("numpy")
        for seed in STREAM_SEEDS:
            expected = np.random.default_rng(seed).random(200).tolist()
            assert list(itertools.islice(_uniform_stream(seed), 200)) == expected, seed

    def test_graphs_match_default_rng(self):
        np = pytest.importorskip("numpy")
        for n in range(1, 25):
            for density in (0.0, 0.1, 0.37, 0.5, 0.9, 1.0):
                for seed in (0, 7, 123, 2**64):
                    drawn = np.random.default_rng(seed).random((n, n)) < density
                    expected = BipartiteGraph(n, bitmasks(drawn))
                    assert random_graph(n, density, seed) == expected, (n, density, seed)

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
