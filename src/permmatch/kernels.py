"""Permanent kernel: the permanent of a square 0/1 matrix by Glynn's formula
(Glynn 2010),

      perm(A) = 2^-(n-1) * sum over d in {+1,-1}^n with d_1 = +1 of
                (prod_i d_i) * prod_j (sum_i d_i * a_ij),

in plain Python ints, so the result is exact for every n <= RYSER_MAX_N and
no numpy is imported.  The kernel keeps the name `ryser_permanent` that
`count_ryser`, `--method ryser` and the benchmark's tracer use; like
Ryser's formula, Glynn's is an inclusion-exclusion sum.

The n signed column sums s_j = sum_i d_i * a_ij lie in [-n, n], so they are
held biased by 128 in the 8-bit fields of one int; flipping d_i adds or
subtracts twice row i's fields, a single int add.  The absolute values of
the fields come from one bytes.translate and their product from math.prod;
the sign is the parity of the flipped rows plus the number of negative
sums, which is n minus the popcount of the fields' high bits.  The sign
vectors of the low _LOW_BITS varying rows are tabulated once per call; a
Gray code walks the rest, one flip per table pass.
"""

from __future__ import annotations

import math

# Read by the perfbench environment stamp; there is no compiled path.
NUMBA_AVAILABLE = False

RYSER_MAX_N = 24

_LOW_BITS = 8  # sign rows tabulated per call: 256 entries
_BIAS = 128  # field value of a zero column sum; |s_j| <= 24 stays in 0..255
_ABS = bytes(abs(b - _BIAS) for b in range(256))


def _row_bits(a) -> list[int]:
    """The rows of a square 0/1 array-like as column bitmasks."""
    try:
        rows = [list(row) for row in a]
    except TypeError:
        raise ValueError("Ryser needs a square matrix") from None
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("Ryser needs a square matrix")
    bits = []
    for row in rows:
        mask = 0
        for j, e in enumerate(row):
            if not (e == 0 or e == 1):
                raise ValueError("Ryser is exact only for 0/1 entries")
            if e:
                mask |= 1 << j
        bits.append(mask)
    return bits


def ryser_permanent(a) -> int:
    """Permanent of a square 0/1 matrix, exact for n <= RYSER_MAX_N."""
    rows = _row_bits(a)
    n = len(rows)
    if n > RYSER_MAX_N:
        raise ValueError(f"Ryser is guarded at n <= {RYSER_MAX_N}")
    if n == 0:
        return 1
    # Row i spread into the 8-bit fields: column j's entry at bit 8j.
    fields = [sum(1 << 8 * j for j in range(n) if r >> j & 1) for r in rows]
    top_bits = int.from_bytes(bytes([0x80]) * n, "little")
    # Every d_i = +1: each field holds 128 + the column sum.
    start = int.from_bytes(bytes([_BIAS]) * n, "little") + sum(fields)

    varying = fields[1:]  # d_1 stays +1
    low_rows, high_rows = varying[:_LOW_BITS], varying[_LOW_BITS:]
    # (offset, parity of flipped rows plus n) for each low sign vector
    low = [(0, n & 1)]
    for f in low_rows:
        low += [(off - 2 * f, odd ^ 1) for off, odd in low]

    prod, abs_table = math.prod, _ABS
    total = 0
    base = start
    flipped = 0  # high rows currently at d_i = -1, as a bitmask
    for k in range(1 << len(high_rows)):
        if k:
            bit = k & -k
            f = 2 * high_rows[bit.bit_length() - 1]
            base += f if flipped & bit else -f
            flipped ^= bit
        acc = 0
        for off, odd in low:
            y = base + off
            p = prod(y.to_bytes(n, "little").translate(abs_table))
            if p:
                acc += -p if (odd + (y & top_bits).bit_count()) & 1 else p
        total += -acc if flipped.bit_count() & 1 else acc
    return total >> (n - 1)
