"""Permutation arithmetic, cycle notation, and the stabilizer chain."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permmatch import (
    Permutation,
    Transposition,
    compose,
    coset_transversals,
    order_from_chain,
    parse_cycles,
    sift,
    unsift,
)
from relabel import all_permutations, fixes, format_cycles


def perm(text, n):
    return parse_cycles(text, n)


class TestCompose:
    def test_figure_example(self):
        p = perm("(1,2,4,3,5)", 5)
        q = perm("(2,3)", 5)
        assert format_cycles(compose(p, q)) == "(1,3,5)(2,4)"

    def test_identity_right(self):
        p = perm("(1,4,2)", 4)
        assert compose(p, Permutation.identity(4)) == p

    def test_pointwise(self):
        # derived by applying the left-to-right rule point by point
        assert format_cycles(compose(perm("(3,4)", 4), perm("(2,4)", 4))) == "(2,4,3)"

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            compose(Permutation.identity(3), Permutation.identity(4))

    @settings(max_examples=50)
    @given(st.data())
    def test_associativity(self, data):
        n = data.draw(st.integers(2, 6))
        mk = st.permutations(list(range(1, n + 1))).map(Permutation)
        p, q, r = data.draw(mk), data.draw(mk), data.draw(mk)
        assert compose(compose(p, q), r) == compose(p, compose(q, r))


class TestCycleText:
    def test_parse_figure_notation(self):
        p = parse_cycles("(1,3,5)(2,4)", 5)
        assert p.images == (3, 4, 5, 2, 1)

    def test_empty_is_identity(self):
        assert parse_cycles("", 4) == Permutation.identity(4)
        assert parse_cycles("()", 4) == Permutation.identity(4)

    def test_repeated_point(self):
        with pytest.raises(ValueError, match="repeated point"):
            parse_cycles("(1,3)(1,2)", 4)

    def test_point_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_cycles("(1,6)", 5)

    @pytest.mark.parametrize("bad", ["(1,", "1,2)", "(1 2)", "(,2)", "(1,2))"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_cycles(bad, 5)

    def test_error_carries_position(self):
        with pytest.raises(ValueError, match="position"):
            parse_cycles("(1,2)x", 4)

    def test_identity_formats_as_unit(self):
        assert format_cycles(Permutation.identity(3)) == "()"

    def test_roundtrip_all_of_s5(self):
        for p in all_permutations(5):
            assert parse_cycles(format_cycles(p), 5) == p


class TestCosetChain:
    def test_table_for_n4(self):
        chain = coset_transversals(4)
        I = Transposition.identity()
        assert chain.level(1) == (I, Transposition(1, 2), Transposition(1, 3), Transposition(1, 4))
        assert chain.level(2) == (I, Transposition(2, 3), Transposition(2, 4))
        assert chain.level(3) == (I, Transposition(3, 4))
        assert chain.level(4) == (I,)

    def test_single_point(self):
        chain = coset_transversals(1)
        assert chain.levels == ((Transposition.identity(),),)

    def test_level_sizes(self):
        chain = coset_transversals(5)
        assert [len(lev) for lev in chain.levels] == [5, 4, 3, 2, 1]

    @pytest.mark.parametrize("n,expect", [(4, 24), (1, 1), (6, 720)])
    def test_order(self, n, expect):
        assert order_from_chain(coset_transversals(n)) == expect

    def test_order_large_is_exact(self):
        # arbitrary precision: no silent wraparound anywhere
        assert order_from_chain(coset_transversals(12)) == math.factorial(12)


class TestSift:
    def test_worked_example(self):
        assert sift(perm("(1,3,2,4)", 4)) == [
            Transposition(1, 3),
            Transposition(2, 4),
            Transposition(3, 4),
            Transposition.identity(),
        ]

    def test_single_transposition(self):
        assert sift(perm("(1,2)", 4)) == [
            Transposition(1, 2),
            Transposition.identity(),
            Transposition.identity(),
            Transposition.identity(),
        ]

    def test_identity(self):
        assert sift(Permutation.identity(3)) == [Transposition.identity()] * 3

    def test_exhaustive_roundtrip_and_injectivity(self):
        for n in range(1, 7):
            chain = coset_transversals(n)
            seen = set()
            for p in all_permutations(n):
                factors = sift(p)
                for i, psi in enumerate(factors, start=1):
                    assert psi in chain.level(i)
                assert unsift(factors) == p
                seen.add(tuple(factors))
            assert len(seen) == math.factorial(n)

    def test_residue_fixes_prefix(self):
        p = perm("(1,5,3)(2,4)", 5)
        residue = p
        for i, psi in enumerate(sift(p), start=1):
            residue = compose(residue, psi.to_perm(5))
            assert fixes(residue, i)


class TestUnsift:
    def test_worked_example(self):
        # psi_4..psi_1 = I, (3,4), (2,4), (1,3)
        factors = [
            Transposition(1, 3),
            Transposition(2, 4),
            Transposition(3, 4),
            Transposition.identity(),
        ]
        assert unsift(factors) == perm("(1,3,2,4)", 4)

    def test_all_identity(self):
        assert unsift([Transposition.identity()] * 4) == Permutation.identity(4)

    def test_derived_product(self):
        # psi_4..psi_1 = I, (3,4), (2,4), (1,2)
        factors = [
            Transposition(1, 2),
            Transposition(2, 4),
            Transposition(3, 4),
            Transposition.identity(),
        ]
        assert unsift(factors) == perm("(1,2,4,3)", 4)

    def test_rejects_factor_outside_transversal(self):
        with pytest.raises(ValueError):
            unsift([Transposition(2, 3), Transposition.identity(), Transposition.identity()])
