"""The permanent kernel against reference permanents and closed forms.

The kernel takes one column bitmask per row, as `count_ryser` passes it the
graph's rows; the tests build 0/1 matrices as lists and pass them through
`relabel.bitmasks`.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permmatch import kernels
from permmatch.bipartite import count_ryser
from permmatch.pcg import _uniform_stream
from relabel import assert_relabel_invariant, bitmasks, shuffled, square_01


def brute_permanent(a):
    n = len(a)
    total = 0
    for cols in itertools.permutations(range(n)):
        prod = 1
        for v, w in enumerate(cols):
            prod *= a[v][w]
        total += prod
    return total


def dp_permanent(rows):
    """Row-by-row dynamic program over the set of used columns (bitmasks)."""
    ways = {0: 1}
    for r in rows:
        nxt = {}
        for used, c in ways.items():
            free = r & ~used
            while free:
                bit = free & -free
                free ^= bit
                nxt[used | bit] = nxt.get(used | bit, 0) + c
        ways = nxt
    return sum(ways.values())


def random_rows(n, density, seed):
    rnd = random.Random(seed)
    return [[int(rnd.random() < density) for _ in range(n)] for _ in range(n)]


def ones(n):
    return [[1] * n for _ in range(n)]


def derangements(n):
    d = [1, 0]
    for k in range(2, n + 1):
        d.append((k - 1) * (d[-1] + d[-2]))
    return d[n]


class TestRyser:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_brute(self, n):
        # the doubles of default_rng(n).random((n, n)), one matrix after another
        draws = _uniform_stream(n)
        for _ in range(10 if n == 8 else 30):
            a = [[int(next(draws) < 0.5) for _ in range(n)] for _ in range(n)]
            assert kernels.ryser_permanent(bitmasks(a)) == brute_permanent(a)

    @pytest.mark.parametrize("n", range(10, 15))
    @pytest.mark.parametrize("density", [0.1, 0.5, 0.9])
    def test_matches_subset_dp_past_the_sign_table(self, n, density):
        # n >= 10 leaves sign rows past the tabulated ones to the Gray code
        rnd = random.Random(1000 * n + int(10 * density))
        for _ in range(3):
            a = [[int(rnd.random() < density) for _ in range(n)] for _ in range(n)]
            bits = bitmasks(a)
            assert kernels.ryser_permanent(bits) == dp_permanent(bits)

    def test_empty_matrix_is_one(self):
        # the permanent of the 0 x 0 matrix is the empty product
        assert kernels.ryser_permanent([]) == 1

    def test_complete_factorials(self):
        for n in range(1, 9):
            assert kernels.ryser_permanent(bitmasks(ones(n))) == math.factorial(n)

    def test_complete_across_overflow_boundaries(self):
        # 20! < 2^64 < 21!: a fixed-width shortcut would go wrong at n = 21
        for n in (20, 21):
            assert kernels.ryser_permanent(bitmasks(ones(n))) == math.factorial(n)

    def test_derangements_past_wraparound(self):
        n = 21
        a = [[int(v != w) for w in range(n)] for v in range(n)]
        assert kernels.ryser_permanent(bitmasks(a)) == derangements(n)

    def test_guard(self):
        with pytest.raises(ValueError, match="Ryser is guarded at 1 <= n <= 24$"):
            kernels.ryser_permanent(bitmasks(ones(25)))

    @settings(max_examples=50, deadline=None)
    @given(square_01, st.randoms(use_true_random=False))
    def test_invariant_under_permutation_and_transpose(self, rows, rnd):
        assert_relabel_invariant(count_ryser, rows, rnd)


class TestZeroColumnSkip:
    """Terms with a zero column sum are skipped, not evaluated.  Only columns
    of even degree can sum to zero, and the skip starts at n = 10, where the
    Gray code has more than one step."""

    @pytest.mark.parametrize("n", [10, 12, 16])
    def test_shuffled_complete_every_column_even(self, n):
        assert kernels.ryser_permanent(bitmasks(shuffled(n, (), n))) == math.factorial(n)

    @pytest.mark.parametrize("n", [11, 13, 17])
    def test_shuffled_derangements_every_column_even(self, n):
        assert kernels.ryser_permanent(bitmasks(shuffled(n, (0,), n))) == derangements(n)

    @pytest.mark.parametrize("seed", range(4))
    def test_column_empty_in_the_tabulated_rows(self, seed):
        # Rows 1-8 (from 0) are the tabulated ones.  Column 0 is met only by
        # rows 0 and 10, so whenever d_10 = -1 its sum is zero for every
        # entry of the table and the whole Gray step is skipped.
        a = random_rows(12, 0.6, seed)
        for v in range(12):
            a[v][0] = int(v in (0, 10))
        bits = bitmasks(a)
        assert kernels.ryser_permanent(bits) == dp_permanent(bits) > 0

    @pytest.mark.parametrize("n", [10, 13, 15, 18])
    @pytest.mark.parametrize("empty", ["row", "column"])
    def test_empty_line_gives_zero(self, n, empty):
        a = random_rows(n, 0.7, n)
        line = n // 2
        for v in range(n):
            if empty == "row":
                a[line][v] = 0
            else:
                a[v][line] = 0
        assert kernels.ryser_permanent(bitmasks(a)) == 0

    @pytest.mark.parametrize("n", [15, 16, 17, 18])
    @pytest.mark.parametrize("density", [0.3, 0.5, 0.7])
    def test_random_matches_subset_dp(self, n, density):
        a = random_rows(n, density, 100 * n + int(10 * density))
        bits = bitmasks(a)
        assert kernels.ryser_permanent(bits) == dp_permanent(bits)

    @pytest.mark.parametrize(
        "a",
        [random_rows(11, 0.5, 1), random_rows(12, 0.3, 2), shuffled(12, (), 3),
         shuffled(12, (0,), 4)],
        ids=["random11", "random12", "J12", "J-I12"],
    )
    def test_evaluates_exactly_the_nonzero_terms(self, a, monkeypatch):
        n = len(a)
        nonzero = 0
        for signs in itertools.product((1, -1), repeat=n - 1):
            d = (1,) + signs
            nonzero += all(sum(d[i] * a[i][j] for i in range(n)) for j in range(n))
        bits = bitmasks(a)
        calls = []
        prod = math.prod
        monkeypatch.setattr(math, "prod", lambda xs: calls.append(1) or prod(xs))
        assert kernels.ryser_permanent(bits) == dp_permanent(bits)
        assert len(calls) == nonzero
