"""Permutation arithmetic, cycle notation, and the stabilizer chain."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permmatch.perms import (
    Permutation,
    Transposition,
    compose,
    coset_transversals,
    parse_cycles,
    sift,
    unsift,
)
from relabel import all_permutations, fixes, format_cycles, order_from_chain


def perm(text, n):
    return parse_cycles(text, n)


ASCII_BLANKS = " \t\n\r\f\v"
# the no-break, em and ideographic spaces, a file separator, NEL and the
# line separator: str.isspace accepts them, the cycle parser must not
OTHER_BLANKS = "\u00a0\u2003\u3000\x1c\x85\u2028"


@st.composite
def cycle_texts(draw, n):
    """Text near the cycle grammar: cycles of points in 0..n+1 with blanks
    around every token, or any string over the grammar's characters."""
    ascii_blank = st.text(ASCII_BLANKS, max_size=2)
    blank = st.one_of(ascii_blank, ascii_blank, st.sampled_from(OTHER_BLANKS))
    tokens = []
    for points in draw(st.lists(st.lists(st.integers(0, n + 1), max_size=4), max_size=4)):
        tokens.append("(")
        for i, point in enumerate(points):
            tokens += [",", str(point)] if i else [str(point)]
        tokens.append(")")
    structured = "".join(draw(blank) + t for t in tokens) + draw(blank)
    chars = "0123456789()," + ASCII_BLANKS + OTHER_BLANKS
    return draw(st.sampled_from([structured, draw(st.text(chars, max_size=30))]))


class TestChecks:
    def test_empty_permutation(self):
        with pytest.raises(ValueError, match="permutation needs at least one point"):
            Permutation([])

    def test_non_bijective_permutation(self):
        with pytest.raises(ValueError, match="image table is not a bijection of 1..3"):
            Permutation([1, 1, 3])

    def test_transposition_past_n(self):
        with pytest.raises(ValueError, match=r"transposition \(1,3\) does not fit in S_2"):
            Transposition(1, 3).to_perm(2)
        with pytest.raises(ValueError, match=r"transposition \(3,3\) does not fit in S_2"):
            Transposition(3, 3).to_perm(2)

    def test_level_identity_is_identity_perm(self):
        for n in range(1, 6):
            for i in range(1, n + 1):
                assert Transposition(i, i).to_perm(n) == Permutation.identity(n)


class TestCompose:
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

    def test_rejects_n_below_one(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            parse_cycles("()", 0)

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

    @pytest.mark.parametrize(
        "text,message",
        [
            ("(1,\u00a03)", "^expected a point at position 3$"),
            ("(1,\u20033)", "^expected a point at position 3$"),
            ("(1,\x1c3)", "^expected a point at position 3$"),
            ("\u3000(1,3)", "^expected '\\(' at position 0$"),
        ],
    )
    def test_rejects_non_ascii_space(self, text, message):
        # str.isspace accepts the no-break, em and ideographic spaces and a
        # file separator
        with pytest.raises(ValueError, match=message):
            parse_cycles(text, 3)

    def test_ascii_whitespace_separates(self):
        assert parse_cycles(" ( 1 ,\t3 )\n(2, 4) ", 4) == parse_cycles("(1,3)(2,4)", 4)

    @pytest.mark.parametrize("text", ["(1,\u0663)", "(1,\u00b2)"])
    def test_rejects_non_ascii_digit(self, text):
        # str.isdigit accepts the Arabic-Indic three and the superscript two
        with pytest.raises(ValueError, match="^expected a point at position 3$"):
            parse_cycles(text, 3)

    def test_point_past_int_digit_limit(self):
        # refused by its length before int() reads it, so the interpreter's
        # digit limit (4,300 by default, 640 at the least) plays no part
        for digits in (5000, 1000):
            msg = f"^point of {digits} digits out of range 1\\.\\.4 at position 3$"
            with pytest.raises(ValueError, match=msg):
                parse_cycles("(1," + "2" * digits + ")", 4)

    def test_error_carries_position(self):
        with pytest.raises(ValueError, match="position"):
            parse_cycles("(1,2)x", 4)

    def test_identity_formats_as_unit(self):
        assert format_cycles(Permutation.identity(3)) == "()"

    @settings(max_examples=300)
    @given(st.data())
    def test_accepted_text_is_its_cycles_and_rejections_name_a_position(self, data):
        n = data.draw(st.integers(1, 7))
        text = data.draw(cycle_texts(n))
        try:
            p = parse_cycles(text, n)
        except ValueError as exc:
            where = re.fullmatch(r".* at position (\d+)", str(exc))
            assert where and int(where[1]) <= len(text), str(exc)
            return
        # accepted: with ASCII blanks removed, the text is cycle notation, and
        # its cycles, applied one by one, give p
        bare = re.sub(f"[{ASCII_BLANKS}]", "", text)
        assert re.fullmatch(r"(\((\d+(,\d+)*)?\))*", bare), text
        cycles = [[int(x) for x in body.split(",")] if body else []
                  for body in re.findall(r"\(([\d,]*)\)", bare)]
        points = [x for cycle in cycles for x in cycle]
        assert len(set(points)) == len(points) and set(points) <= set(range(1, n + 1)), text
        images = list(range(1, n + 1))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a - 1] = b
        assert p == Permutation(images)
        assert parse_cycles(format_cycles(p), n) == p

    def test_roundtrip_all_of_s5(self):
        for p in all_permutations(5):
            assert parse_cycles(format_cycles(p), 5) == p


class TestCosetChain:
    def test_single_point(self):
        chain = coset_transversals(1)
        assert chain == ((Transposition(1, 1),),)

    def test_level_identity_prints_as_unit(self):
        assert [str(f) for f in coset_transversals(3)[1]] == ["I", "(2,3)"]

    def test_rejects_n_below_one(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            coset_transversals(0)

    def test_table_is_built_once_per_n(self):
        # sift and unsift read it on every call; the tuple of levels is immutable
        assert coset_transversals(6) is coset_transversals(6)

    def test_level_sizes(self):
        chain = coset_transversals(5)
        assert [len(lev) for lev in chain] == [5, 4, 3, 2, 1]

    @pytest.mark.parametrize("n,expect", [(1, 1), (6, 720)])
    def test_order(self, n, expect):
        assert order_from_chain(coset_transversals(n)) == expect

    def test_order_large_is_exact(self):
        # arbitrary precision: no silent wraparound anywhere
        assert order_from_chain(coset_transversals(12)) == math.factorial(12)


class TestSift:
    def test_identity(self):
        assert sift(Permutation.identity(3)) == [Transposition(i, i) for i in (1, 2, 3)]

    def test_exhaustive_roundtrip_and_injectivity(self):
        for n in range(1, 7):
            chain = coset_transversals(n)
            seen = set()
            for p in all_permutations(n):
                factors = sift(p)
                for i, psi in enumerate(factors, start=1):
                    assert psi in chain[i - 1]
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
    def test_all_identity(self):
        factors = [Transposition(i, i) for i in (1, 2, 3, 4)]
        assert unsift(factors) == Permutation.identity(4)

    def test_derived_product(self):
        # psi_4..psi_1 = I, (3,4), (2,4), (1,2)
        factors = [
            Transposition(1, 2),
            Transposition(2, 4),
            Transposition(3, 4),
            Transposition(4, 4),
        ]
        assert unsift(factors) == perm("(1,2,4,3)", 4)

    def test_rejects_no_factors(self):
        with pytest.raises(ValueError, match="need at least one factor"):
            unsift([])

    def test_rejects_factor_outside_transversal(self):
        with pytest.raises(ValueError):
            unsift([Transposition(2, 3), Transposition(2, 2), Transposition(3, 3)])

    def test_rejects_factor_past_n(self):
        with pytest.raises(ValueError, match=r"factor \(1,4\) at level 1 is not in U_1"):
            unsift([Transposition(1, 4), Transposition(2, 2), Transposition(3, 3)])

    def test_rejects_identity_at_wrong_level(self):
        with pytest.raises(ValueError, match=r"^factor \(1,1\) at level 2 is not in U_2$"):
            unsift([Transposition(1, 1)] * 3)
