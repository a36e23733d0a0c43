"""Value semantics shared by every record class: construction, immutability,
equality, repr and validation."""

import copy
import json
import pickle
import re

import pytest

from permmatch._record import Record
from permmatch.bipartite import BipartiteGraph
from permmatch.cli import main
from permmatch.gamma import Cvmp, GammaNode, build_gamma, four_cycle, gamma_stats, perm_to_path
from permmatch.harness import sweep, verify
from permmatch.perms import Permutation, Transposition, parse_cycles


def _fields(record):
    return {f: getattr(record, f) for f in type(record).__slots__}


# One real instance of each record class, built the way the package builds it.
EXAMPLES = {
    "BipartiteGraph": lambda: BipartiteGraph.complete(3),
    "Permutation": lambda: parse_cycles("(1,2,3)", 3),
    "Transposition": lambda: Transposition(1, 2),
    "FourCycleWitness": lambda: four_cycle(
        parse_cycles("(1,2,3)", 3), Transposition(1, 3)
    ),
    "GammaNode": lambda: GammaNode(1, 2, 3),
    "GammaGraph": lambda: build_gamma(2),
    "Cvmp": lambda: perm_to_path(parse_cycles("(1,3)(2,4)", 4)),
}

examples = pytest.mark.parametrize("name", sorted(EXAMPLES))


def test_every_record_class_has_an_example():
    classes = [c for c in Record.__subclasses__() if c.__module__.startswith("permmatch.")]
    assert {c.__name__ for c in classes} == set(EXAMPLES)


@examples
class TestValueSemantics:
    def test_equal_fields_equal_values(self, name):
        a = EXAMPLES[name]()
        b = type(a)(*_fields(a).values())
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_other_class_same_fields_unequal(self, name):
        a = EXAMPLES[name]()
        values = _fields(a)
        twin_cls = type(name, (Record,), {"__slots__": type(a).__slots__})
        twin = twin_cls(*values.values())
        assert a != twin and twin != a
        assert a != tuple(values.values())

    def test_fields_cannot_be_assigned_or_deleted(self, name):
        a = EXAMPLES[name]()
        for field, value in _fields(a).items():
            with pytest.raises(AttributeError):
                setattr(a, field, value)
            with pytest.raises(AttributeError):
                delattr(a, field)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert not hasattr(a, "__dict__")

    def test_missing_extra_and_duplicate_fields(self, name):
        # a record takes one value per field, in order, and no keyword
        a = EXAMPLES[name]()
        cls, values = type(a), _fields(a)
        args = list(values.values())
        k = len(args)
        with pytest.raises(TypeError, match=f"{name}\\(\\) takes {k} fields but {k - 1} were given"):
            cls(*args[:-1])
        with pytest.raises(TypeError, match=f"{name}\\(\\) takes {k} fields but {k + 1} were given"):
            cls(*args, None)
        with pytest.raises(TypeError):
            cls(**values)
        with pytest.raises(TypeError):
            cls(*args[:-1], **{list(values)[-1]: args[-1]})

    def test_repr_names_every_field(self, name):
        a = EXAMPLES[name]()
        body = ", ".join(f"{f}={v!r}" for f, v in _fields(a).items())
        assert repr(a) == f"{name}({body})"

    def test_copy_and_pickle_round_trip(self, name):
        a = EXAMPLES[name]()
        for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert type(b) is type(a) and b == a


class TestExamples:
    def test_repr_reads_like_a_constructor_call(self):
        assert repr(Transposition(1, 2)) == "Transposition(i=1, k=2)"
        assert repr(GammaNode(2, 3, 4)) == "GammaNode(position=2, k=3, t=4)"
        assert repr(parse_cycles("(1,2,3)", 3)) == "Permutation(images=(2, 3, 1))"
        assert (
            repr(perm_to_path(parse_cycles("(1,2)", 2)))
            == "Cvmp(nodes=(GammaNode(position=1, k=2, t=2), GammaNode(position=2, k=2, t=2)))"
        )

    def test_transposition_is_not_an_edge_tuple(self):
        psi = Transposition(1, 2)
        assert psi != (1, 2) and (1, 2) != psi
        assert psi != GammaNode(1, 2, 2)
        assert len({psi, (1, 2)}) == 2

    def test_unequal_fields_unequal_values(self):
        assert Transposition(1, 2) != Transposition(1, 3)
        assert Transposition(1, 1) != Transposition(2, 2)
        assert GammaNode(1, 2, 3) != GammaNode(1, 3, 2)

    def test_normalized_fields(self):
        assert Permutation([2, 1]).images == (2, 1)
        nodes = [GammaNode(1, 1, 1), GammaNode(2, 2, 2)]
        assert Cvmp(nodes).nodes == tuple(nodes)


class TestValidation:
    def test_transposition_order(self):
        with pytest.raises(ValueError, match=r"transposition needs 1 <= i <= k, got \(2,1\)"):
            Transposition(2, 1)
        assert Transposition(2, 2).is_identity
        with pytest.raises(ValueError, match=r"transposition needs 1 <= i <= k, got \(0,0\)"):
            Transposition(0, 0)

    def test_gamma_node_position(self):
        with pytest.raises(ValueError, match="position must be >= 1"):
            GammaNode(0, 1, 1)
        with pytest.raises(ValueError, match="transposition node needs k,t > position"):
            GammaNode(2, 3, 1)

    def test_cvmp_node_at_wrong_position(self):
        with pytest.raises(ValueError, match=r"node \(22,22\) at index 1 has wrong position"):
            Cvmp((GammaNode(2, 2, 2),))
        with pytest.raises(ValueError, match="does not fit in S_1"):
            Cvmp((GammaNode(1, 2, 2),))

    def test_matching_shared_endpoint(self):
        # a perfect matching is its permutation: a row holds one image, and
        # the table refuses a column used twice or out of range
        for images in ((1, 1), (3, 1)):
            with pytest.raises(ValueError, match=re.escape(f"not a bijection of 1..2: {images}")):
                Permutation(images)


class TestDictKeyOrder:
    """The reports' key order is the JSON key order the commands print."""

    def printed_keys(self, capsys, argv):
        assert main(argv) == 0
        return list(json.loads(capsys.readouterr().out))

    def test_verify(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("3\n111\n111\n111\n")
        keys = [
            "n",
            "graph",
            "count_cvmp",
            "count_bruteforce",
            "count_ryser",
            "agreement",
            "elapsed",
        ]
        assert self.printed_keys(capsys, ["verify", str(path)]) == keys
        assert list(verify(BipartiteGraph.complete(3))) == keys

    def test_sweep(self, capsys):
        keys = ["n", "mode", "instances", "agreement", "mismatches"]
        assert self.printed_keys(capsys, ["sweep", "--n", "2", "--exhaustive"]) == keys
        assert list(sweep(2)) == keys
        keys[2:2] = ["trials", "seed"]
        argv = ["sweep", "--n", "2", "--trials", "2", "--seed", "1"]
        assert self.printed_keys(capsys, argv) == keys
        assert list(sweep(2, trials=2, seed=1)) == keys

    def test_gamma_stats(self, capsys):
        keys = [
            "n",
            "node_count",
            "r_edge_count",
            "s_edge_count",
            "valid_paths",
            "unconstrained_walks",
        ]
        assert self.printed_keys(capsys, ["gamma", "--n", "3", "--stats"]) == keys
        assert list(gamma_stats(3)) == keys
        # valid_paths is None past the cvmp guard, and still printed
        assert self.printed_keys(capsys, ["gamma", "--n", "10", "--stats"]) == keys
