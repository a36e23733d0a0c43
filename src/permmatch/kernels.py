"""Permanent kernel: the permanent of a square 0/1 matrix, given as one
column bitmask per row, by Glynn's formula (Glynn 2010),

      perm(A) = 2^-(n-1) * sum over d in {+1,-1}^n with d_1 = +1 of
                (prod_i d_i) * prod_j (sum_i d_i * a_ij),

in Python ints, so the result is exact for every n <= LIMITS["Ryser"].  The
kernel keeps the name `ryser_permanent` that `count_ryser`, `--method
ryser` and the benchmark's tracer use; like Ryser's formula, Glynn's is an
inclusion-exclusion sum.

The n signed column sums s_j = sum_i d_i * a_ij lie in [-n, n], so they are
held biased by 128 in the 8-bit fields of one int; flipping d_i adds or
subtracts twice row i's fields, a single int add.  The absolute values of
the fields come from one bytes.translate and their product from math.prod;
the sign is the parity of the flipped rows plus the number of negative
sums, which is n minus the popcount of the fields' high bits.  The sign
vectors of the low _LOW_BITS varying rows are tabulated once per call; a
Gray code walks the rest, one flip per table pass.

A term with a zero column sum is exactly 0, and on random graphs most terms
have one.  Since s_j = deg(j) (mod 2) for every sign vector, only columns of
even degree can sum to zero.  For each of them, one dict per call maps the
Gray-coded part's field value to a flag byte per table entry, set where the
entry's offset cancels that value; each is built with one bytes.translate.
Each Gray step ORs the flags its fields select, one lookup per even column,
and runs the term loop over the live entries only.  When no flag is set,
when every column has odd degree, and at n <= _LOW_BITS + 1 (a single Gray
step), the loop runs over the whole table.

Orientation.  perm(A) = perm(A^T), and the skip works on columns, so from
n = _LOW_BITS + 2, where it starts, the kernel runs on A^T when A^T has more
columns of even degree than A (that is, A has more rows of even degree).
"""

import functools
import itertools
import math
import operator

from ._guards import guard

# Read by the perfbench environment stamp; there is no compiled path.
NUMBA_AVAILABLE = False

_LOW_BITS = 8  # sign rows tabulated per call: 256 entries
_BIAS = 128  # field value of a zero column sum; |s_j| <= 24 stays in 0..255
_ABS = bytes(abs(b - _BIAS) for b in range(256))
_LIVE = bytes([1]) + bytes(255)  # flag byte 0 (no zero column sum) -> live


def _zero_masks(start: int, low: list, n: int) -> list:
    """For each column j of even degree: (j, {field value of base: dead}),
    where byte e of dead is 1 when entry e of the low table cancels column
    j's sum.

    Low entry e subtracts twice the number of its flipped rows with an entry
    in column j from the field, so the column sum is zero exactly when
    base's field is _BIAS plus that amount.  Those amounts are the 8-bit
    fields of -offset; each is at most 2 * _LOW_BITS, so none carries into
    the next field.  A column of odd degree never sums to zero:
    s_j = deg(j) (mod 2) for every sign vector.
    """
    even = [j for j, v in enumerate(start.to_bytes(n, "little")) if not v & 1]
    if not even:
        return []
    # Those amounts, n bytes per low entry in the order of the low table.
    flips = b"".join((-off).to_bytes(n, "little") for off, _ in low)
    masks = []
    for j in even:
        column = flips[j::n]
        table = {}
        for twice in range(0, column[-1] + 1, 2):
            hit = bytearray(256)
            hit[twice] = 1
            table[_BIAS + twice] = int.from_bytes(column.translate(hit), "little")
        masks.append((j, table))
    return masks


def _gray_sum(base: int, high: list, low: list, masks: list, n: int) -> int:
    """Glynn's signed sum, 2^(n-1) * perm(A): from `base`, the field state
    with every d_i = +1, a Gray code walks the rows whose doubled fields
    `high` lists, and each step adds the terms of every low entry."""
    prod, abs_table, compress = math.prod, _ABS, itertools.compress
    top_bits = int.from_bytes(bytes([0x80]) * n, "little")
    total = 0
    flipped = 0  # rows of `high` currently at d_i = -1, as a bitmask
    for k in range(1 << len(high)):
        if k:
            bit = k & -k
            f = high[bit.bit_length() - 1]
            base += f if flipped & bit else -f
            flipped ^= bit
        terms = low
        if masks:
            at = base.to_bytes(n, "little")
            dead = 0
            for j, table in masks:
                dead |= table.get(at[j], 0)
            if dead:
                live = dead.to_bytes(len(low), "little").translate(_LIVE)
                terms = compress(low, live)
        acc = 0
        for off, odd in terms:
            y = base + off
            p = prod(y.to_bytes(n, "little").translate(abs_table))
            if p:
                acc += -p if (odd + (y & top_bits).bit_count()) & 1 else p
        total += -acc if flipped.bit_count() & 1 else acc
    return total


def ryser_permanent(rows) -> int:
    """Permanent of the n x n 0/1 matrix whose entry (i, j) is bit j of
    rows[i], as `BipartiteGraph.rows` holds it; exact up to its guard."""
    n = len(rows)
    if n == 0:
        return 1
    guard("Ryser", n)
    gray = n > _LOW_BITS + 1  # some sign rows are left to the Gray code
    if gray:
        # perm(A) = perm(A^T): run on the side with more even columns, which
        # cancel more terms.  A's odd columns are the set bits of its rows' XOR.
        odd_columns = functools.reduce(operator.xor, rows).bit_count()
        if sum(r.bit_count() & 1 for r in rows) < odd_columns:
            rows = [sum(1 << i for i, r in enumerate(rows) if r >> j & 1) for j in range(n)]
    # Row i spread into the 8-bit fields: column j's entry at bit 8j.
    fields = [sum(1 << 8 * j for j in range(n) if r >> j & 1) for r in rows]
    # Every d_i = +1: each field holds 128 + the column sum.
    start = int.from_bytes(bytes([_BIAS]) * n, "little") + sum(fields)

    varying = fields[1:]  # d_1 stays +1
    low_rows, high = varying[:_LOW_BITS], [2 * f for f in varying[_LOW_BITS:]]
    # (offset, parity of flipped rows plus n) for each low sign vector
    low = [(0, n & 1)]
    for f in low_rows:
        low += [(off - 2 * f, odd ^ 1) for off, odd in low]
    # With one Gray step (n <= _LOW_BITS + 1) each table would be read once;
    # building it costs about what it saves there, and more at small n.
    masks = _zero_masks(start, low, n) if gray else []

    return _gray_sum(start, high, low, masks, n) >> (n - 1)
