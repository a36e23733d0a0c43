"""Numpy Ryser kernel: the permanent of a square 0/1 matrix by Ryser's
inclusion-exclusion formula,

      perm(A) = (-1)^n * sum over column sets S of (-1)^|S| * prod_i rowsum_S(i).

Ryser is evaluated exactly for n <= RYSER_MAX_N without arbitrary-precision
arithmetic.  For a 0/1 matrix 0 <= perm(A) <= n!, so it suffices to know
perm(A) modulo any M > n!.  Products and sums run in uint64 and wrap, which
yields perm(A) mod 2^64; that is the answer itself for n <= 20 because
20! < 2^63.  For 21 <= n <= 24 the kernel also accumulates the sum modulo the
prime P = 2^31 - 1, reducing after every multiplication so nothing wraps,
and combines the two residues by the Chinese remainder theorem.  That is
exact because 24! < 2^64 * P.

Subsets of the low _CHUNK_BITS columns are enumerated once as a table of
row sums; a Python loop walks the subsets of the remaining columns and adds
their row sums to the table, so each step works on 2^_CHUNK_BITS rows
whatever n is.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Read by the perfbench environment stamp; there is no compiled path.
NUMBA_AVAILABLE = False

RYSER_MAX_N = 24

_CHUNK_BITS = 10  # columns enumerated per table: 1024 subsets
_WRAP_EXACT_N = 20  # n! < 2^63, so the uint64 residue is the permanent
_P = 2**31 - 1
_P_U64 = np.uint64(_P)
_U64_MOD = 1 << 64
_MINUS_ONE_U64 = np.uint64(_U64_MOD - 1)


@lru_cache(maxsize=None)
def _subsets(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Bit table (2^m, m) of every subset of m columns, and its signs.

    The sign of a subset is (-1)^|S| as a uint64, so a dot product with it
    is the signed sum modulo 2^64.  Cached (m <= 14) because sweeps call the
    kernel tens of thousands of times at small n; the arrays are read-only.
    """
    idx = np.arange(1 << m, dtype=np.uint64)
    bits = (idx[:, None] >> np.arange(m, dtype=np.uint64)) & np.uint64(1)
    odd = bits.sum(axis=1, dtype=np.uint64) & np.uint64(1)
    signs = np.where(odd == 1, _MINUS_ONE_U64, np.uint64(1))
    bits.flags.writeable = signs.flags.writeable = False
    return bits, signs


def _signed(x) -> int:
    """A uint64 dot product reinterpreted as a small signed integer."""
    x = int(x)
    return x - _U64_MOD if x >= _U64_MOD // 2 else x


def ryser_permanent(a) -> int:
    """Permanent of a square 0/1 matrix, exact for n <= RYSER_MAX_N."""
    mat = np.asarray(a)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"Ryser needs a square matrix, got shape {mat.shape}")
    if not (mat.astype(bool) == mat).all():
        raise ValueError("Ryser is exact only for 0/1 entries")
    n = mat.shape[0]
    if n > RYSER_MAX_N:
        raise ValueError(f"Ryser is guarded at n <= {RYSER_MAX_N}")
    mat = mat.astype(np.uint64)
    need_prime = n > _WRAP_EXACT_N

    k = min(n, _CHUNK_BITS)
    low_bits, low_signs = _subsets(k)
    high_bits, high_signs = _subsets(n - k)
    low = low_bits @ mat[:, :k].T  # (2^k, n) row sums of the low subsets
    high = high_bits @ mat[:, k:].T  # (2^(n-k), n) row sums of the high ones

    wrapped = 0
    residue = 0
    for sums, sign in zip(high, high_signs):
        rows = low + sums
        term = int(np.dot(rows.prod(axis=1), low_signs))
        wrapped += term if sign == 1 else -term
        if need_prime:
            prods = np.ones(rows.shape[0], dtype=np.uint64)
            for col in rows.T:
                prods = prods * col % _P_U64
            term = _signed(np.dot(prods, low_signs))
            residue += term if sign == 1 else -term
    if n % 2:
        wrapped, residue = -wrapped, -residue
    wrapped %= _U64_MOD
    if not need_prime:
        return wrapped
    # perm = wrapped + 2^64 * t with 0 <= t < P, fixed by perm mod P.
    t = (residue - wrapped) * pow(_U64_MOD, -1, _P) % _P
    return wrapped + _U64_MOD * t
