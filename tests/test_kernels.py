"""The permanent kernel against reference permanents and closed forms.

Most inputs are numpy arrays, the rest lists: the kernel takes any square
0/1 array-like.
"""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permmatch import count_ryser, kernels
from relabel import assert_relabel_invariant, square_01


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


def derangements(n):
    d = [1, 0]
    for k in range(2, n + 1):
        d.append((k - 1) * (d[-1] + d[-2]))
    return d[n]


class TestRyser:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_brute(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10 if n == 8 else 30):
            a = (rng.random((n, n)) < 0.5).astype(int)
            assert kernels.ryser_permanent(a) == brute_permanent(a.tolist())

    @pytest.mark.parametrize("n", range(10, 15))
    @pytest.mark.parametrize("density", [0.1, 0.5, 0.9])
    def test_matches_subset_dp_past_the_sign_table(self, n, density):
        # n >= 10 leaves sign rows past the tabulated ones to the Gray code
        rnd = random.Random(1000 * n + int(10 * density))
        for _ in range(3):
            a = [[int(rnd.random() < density) for _ in range(n)] for _ in range(n)]
            rows = [sum(e << w for w, e in enumerate(row)) for row in a]
            assert kernels.ryser_permanent(a) == dp_permanent(rows)

    def test_complete_factorials(self):
        for n in range(1, 9):
            assert kernels.ryser_permanent(np.ones((n, n))) == math.factorial(n)

    def test_complete_across_overflow_boundaries(self):
        # 20! still fits the wrapped uint64 sum; 21! needs the prime residue
        for n in (20, 21):
            assert kernels.ryser_permanent(np.ones((n, n), dtype=np.int64)) == math.factorial(n)

    def test_derangements_past_wraparound(self):
        n = 21
        a = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
        assert kernels.ryser_permanent(a) == derangements(n)

    @pytest.mark.parametrize(
        "a", [[[2]], [[1, -1], [0, 1]], [[0.5, 1], [1, 1]], [[1, 1]]]
    )
    def test_rejects_non_01_or_non_square(self, a):
        with pytest.raises(ValueError):
            kernels.ryser_permanent(np.array(a))

    def test_guard(self):
        with pytest.raises(ValueError, match="n <= 24"):
            kernels.ryser_permanent(np.ones((25, 25), dtype=np.int64))

    @settings(max_examples=50, deadline=None)
    @given(square_01, st.randoms(use_true_random=False))
    def test_invariant_under_permutation_and_transpose(self, rows, rnd):
        assert_relabel_invariant(count_ryser, rows, rnd)
