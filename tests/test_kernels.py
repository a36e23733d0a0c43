"""The permanent kernel against reference permanents and closed forms.

The kernel takes one column bitmask per row, as `count_ryser` passes it the
graph's rows; the tests build 0/1 matrices as lists and pass them through
`relabel.bitmasks`.
"""

import itertools
import math
import random

import pytest

from permmatch import kernels
from permmatch.pcg import _uniform_stream
from relabel import bitmasks, random_rows, shuffled


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


def transpose(a):
    return [list(col) for col in zip(*a)]


def even_columns(a):
    """The number of columns of a with an even number of ones."""
    return sum(sum(col) % 2 == 0 for col in zip(*a))


def nonzero_terms(a):
    """The number of Glynn terms of a, d_1 = +1, with no zero column sum."""
    n = len(a)
    nonzero = 0
    for signs in itertools.product((1, -1), repeat=n - 1):
        d = (1,) + signs
        nonzero += all(sum(d[i] * a[i][j] for i in range(n)) for j in range(n))
    return nonzero


def even_rows_odd_columns(n, seed):
    """A random n x n 0/1 matrix, n even, whose rows all have an even number
    of ones and whose columns all have an odd number."""
    a = random_rows(n, 0.5, seed)
    for v in range(n - 1):
        a[v][n - 1] = sum(a[v][: n - 1]) % 2
    for w in range(n - 1):
        a[n - 1][w] = 1 - sum(a[v][w] for v in range(n - 1)) % 2
    a[n - 1][n - 1] = sum(a[n - 1][: n - 1]) % 2
    return a


def domino_rows(cells):
    """The graph whose perfect matchings are the domino tilings of `cells`,
    a set of grid cells (y, x): black cells (y + x even) are rows, white
    cells columns, and cells that share a side share an edge."""
    black = sorted(c for c in cells if sum(c) % 2 == 0)
    white = {c: w for w, c in enumerate(sorted(c for c in cells if sum(c) % 2))}
    assert len(black) == len(white)
    steps = ((0, 1), (1, 0), (0, -1), (-1, 0))
    return [
        sum(1 << white[(y + dy, x + dx)] for dy, dx in steps if (y + dy, x + dx) in white)
        for y, x in black
    ]


def aztec_diamond(k):
    """The cells whose centres (y + 1/2, x + 1/2) satisfy |y| + |x| <= k."""
    span = range(-k, k)
    return {(y, x) for y in span for x in span if abs(2 * y + 1) + abs(2 * x + 1) <= 2 * k}


def board(h, w):
    return {(y, x) for y in range(h) for x in range(w)}


def fibonacci(m):
    a, b = 0, 1
    for _ in range(m):
        a, b = b, a + b
    return a


def three_by_even(m):
    """Domino tilings of the 3 x 2m board: a(m) = 4a(m - 1) - a(m - 2) from 1, 3."""
    a, b = 1, 3
    for _ in range(m):
        a, b = b, 4 * b - a
    return a


# (region, tilings) by closed form, n = 2-24
TILINGS = (
    [pytest.param(aztec_diamond(k), 2 ** (k * (k + 1) // 2), id=f"aztec{k}") for k in range(1, 5)]
    + [pytest.param(board(2, m), fibonacci(m + 1), id=f"2x{m}") for m in range(15, 21)]
    + [pytest.param(board(3, 2 * m), three_by_even(m), id=f"3x{2 * m}") for m in (5, 6, 8)]
)


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

    def test_guard(self):
        with pytest.raises(ValueError, match="Ryser is guarded at 1 <= n <= 24$"):
            kernels.ryser_permanent([(1 << 25) - 1] * 25)


class TestZeroColumnSkip:
    """Terms with a zero column sum are skipped, not evaluated.  Only columns
    of even degree can sum to zero, and the skip starts at n = 10, where the
    Gray code has more than one step."""

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

    @pytest.mark.parametrize("n", [15, 16, 17, 18])
    @pytest.mark.parametrize("density", [0.3, 0.5, 0.7])
    def test_random_matches_subset_dp(self, n, density):
        a = random_rows(n, density, 100 * n + int(10 * density))
        bits = bitmasks(a)
        assert kernels.ryser_permanent(bits) == dp_permanent(bits)

    @pytest.mark.parametrize(
        "a",
        [random_rows(11, 0.5, 1), random_rows(12, 0.3, 2), shuffled(12, "J", 3),
         shuffled(12, "J-I", 4), even_rows_odd_columns(12, 5)],
        ids=["random11", "random12", "J12", "J-I12", "even-rows12"],
    )
    def test_evaluates_exactly_the_nonzero_terms(self, a, monkeypatch):
        # The kernel runs on the transpose when it has more even columns.
        side = transpose(a) if even_columns(transpose(a)) > even_columns(a) else a
        bits = bitmasks(a)
        calls = []
        prod = math.prod
        monkeypatch.setattr(math, "prod", lambda xs: calls.append(1) or prod(xs))
        assert kernels.ryser_permanent(bits) == dp_permanent(bits)
        assert len(calls) == nonzero_terms(side)

    def test_only_the_transpose_of_even_rows_odd_columns_skips(self):
        # every column odd: no term of A is 0, but some of A^T's are
        a = even_rows_odd_columns(12, 5)
        assert even_columns(a) == 0 and even_columns(transpose(a)) == 12
        assert nonzero_terms(transpose(a)) < nonzero_terms(a) == 2**11


class TestTilings:
    """Domino tilings with closed-form counts, through the kernel as they
    are and with rows and columns shuffled."""

    @pytest.mark.parametrize("cells, tilings", TILINGS)
    def test_closed_forms(self, cells, tilings):
        rows = domino_rows(cells)
        n = len(rows)
        assert kernels.ryser_permanent(rows) == tilings
        rnd = random.Random(n)
        order, cols = rnd.sample(range(n), n), rnd.sample(range(n), n)
        moved = [sum(1 << cols[w] for w in range(n) if rows[v] >> w & 1) for v in order]
        assert kernels.ryser_permanent(moved) == tilings
