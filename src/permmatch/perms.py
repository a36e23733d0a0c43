"""Permutations of {1..n}, the S_n stabilizer chain, and canonic factorization.

Points are 1-based throughout.  Composition acts left-to-right: the image of
i under p*q is q(p(i)).  Every permutation factors uniquely as
psi_n * psi_(n-1) * ... * psi_1 with psi_i drawn from U_i = {I, (i,i+1),
..., (i,n)}, level i of `coset_transversals`; `sift` computes that
factorization and `unsift` multiplies it back out.  The level-i factor is
the transposition (i,k) with k >= i, and its identity I is (i,i).
"""

from __future__ import annotations

from functools import lru_cache

from ._guards import DIGITS
from ._record import Record


class Permutation(Record):
    """A bijection of {1..n} stored as an image table: images[i-1] is the
    image of point i."""

    __slots__ = ("images",)

    def _validate(self):
        imgs = tuple(self.images)
        n = len(imgs)
        if n < 1:
            raise ValueError("permutation needs at least one point")
        if sorted(imgs) != list(range(1, n + 1)):
            raise ValueError(f"image table is not a bijection of 1..{n}: {imgs}")
        object.__setattr__(self, "images", imgs)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @property
    def n(self) -> int:
        return len(self.images)

    def image(self, i: int) -> int:
        return self.images[i - 1]

    def preimage(self, k: int) -> int:
        return self.images.index(k) + 1


class Transposition(Record):
    """The level-i factor (i,k) with i <= k: the swap of i and k, or the
    level-i identity I when k = i."""

    __slots__ = ("i", "k")

    def _validate(self):
        if not (1 <= self.i <= self.k):
            raise ValueError(f"transposition needs 1 <= i <= k, got ({self.i},{self.k})")

    @property
    def is_identity(self) -> bool:
        return self.i == self.k

    def to_perm(self, n: int) -> Permutation:
        if self.k > n:
            raise ValueError(f"transposition ({self.i},{self.k}) does not fit in S_{n}")
        images = list(range(1, n + 1))
        images[self.i - 1], images[self.k - 1] = self.k, self.i
        return Permutation(images)

    def __str__(self):
        return "I" if self.is_identity else f"({self.i},{self.k})"


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Left-to-right product: the result maps i to q(p(i))."""
    if p.n != q.n:
        raise ValueError(f"size mismatch: {p.n} vs {q.n}")
    qi = q.images
    return Permutation(qi[x - 1] for x in p.images)


@lru_cache(maxsize=None)
def coset_transversals(n: int) -> tuple:
    """Transversals U_1..U_n of the point-stabilizer chain of S_n, as a tuple.

    Entry i-1 is U_i, the tuple of (i,k) for k = i..n, so {I, (i,i+1), ...,
    (i,n)} with the identity (i,i) first; |U_i| = n - i + 1 and the level
    sizes multiply to n!.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(
        tuple(Transposition(i, k) for k in range(i, n + 1)) for i in range(1, n + 1)
    )


def sift(p: Permutation) -> list:
    """Factor p into per-level transpositions [psi_1 .. psi_n], psi_i in U_i.

    At level i the residue already fixes 1..i-1 and moves i to some m >= i;
    psi_i is entry m - i of the level-i transversal, (i,m), which is I when
    m = i.  Multiplying the residue by psi_i then fixes i as well.
    """
    factors = []
    residue = p
    for i, level in enumerate(coset_transversals(p.n), start=1):
        psi = level[residue.image(i) - i]
        factors.append(psi)
        residue = compose(residue, psi.to_perm(p.n))
    return factors


def unsift(factors) -> Permutation:
    """Multiply factors back out as psi_n * psi_(n-1) * ... * psi_1.

    factors[i-1] must lie in U_i, level i of the chain; the result inverts `sift`.
    """
    factors = list(factors)
    n = len(factors)
    if n < 1:
        raise ValueError("need at least one factor")
    for i, (psi, level) in enumerate(zip(factors, coset_transversals(n)), start=1):
        if psi not in level:
            raise ValueError(f"factor ({psi.i},{psi.k}) at level {i} is not in U_{i}")
    return suffix_products(factors)[0]


def suffix_products(factors) -> list:
    """Products of per-level factors [psi_1 .. psi_n] from the top level down.

    Element i-1 is psi_n * psi_(n-1) * ... * psi_i, so element 0 is the
    whole product and element n is the identity.
    """
    n = len(factors)
    products = [Permutation.identity(n)]
    for psi in reversed(factors):
        products.append(compose(products[-1], psi.to_perm(n)))
    products.reverse()
    return products


def parse_cycles(text: str, n: int) -> Permutation:
    """Parse disjoint-cycle notation like "(1,3,5)(2,4)" into a permutation.

    The empty string and "()" both denote the identity.  Repeated points,
    points outside 1..n, and malformed syntax are rejected with the offending
    position in the message.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    images = list(range(n + 1))  # 1-based; slot 0 unused
    seen = set()
    pos = 0
    length = len(text)

    def skip_ws(j):
        while j < length and text[j] in " \t\n\r\f\v":
            j += 1
        return j

    pos = skip_ws(pos)
    while pos < length:
        if text[pos] != "(":
            raise ValueError(f"expected '(' at position {pos}")
        pos = skip_ws(pos + 1)
        cycle = []
        if pos < length and text[pos] == ")":
            pos = skip_ws(pos + 1)  # "()" is an empty cycle
            continue
        while True:
            start = pos
            while pos < length and "0" <= text[pos] <= "9":
                pos += 1
            if pos == start:
                raise ValueError(f"expected a point at position {start}")
            if pos - start > DIGITS:  # named by its length, never echoed or read by int()
                raise ValueError(
                    f"point of {pos - start} digits out of range 1..{n} at position {start}"
                )
            point = int(text[start:pos])
            if not (1 <= point <= n):
                raise ValueError(f"point {point} out of range 1..{n} at position {start}")
            if point in seen:
                raise ValueError(f"repeated point {point} at position {start}")
            seen.add(point)
            cycle.append(point)
            pos = skip_ws(pos)
            if pos < length and text[pos] == ",":
                pos = skip_ws(pos + 1)
                continue
            if pos < length and text[pos] == ")":
                pos = skip_ws(pos + 1)
                break
            raise ValueError(f"expected ',' or ')' at position {pos}")
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
    return Permutation(images[1:])
