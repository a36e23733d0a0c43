"""The benchmark's own generator, reference permanent and closed forms."""

import itertools
import math

import numpy as np
import pytest

import inputs


def brute_permanent(rows):
    n = len(rows)
    return sum(
        all(rows[v] >> w & 1 for v, w in enumerate(images))
        for images in itertools.permutations(range(n))
    )


def test_pcg64_matches_numpy_pcg64():
    rng = inputs.Pcg64(12345, stream=678)
    bg = np.random.PCG64()
    bg.state = {
        "bit_generator": "PCG64",
        "state": {"state": rng.state, "inc": rng.inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    assert [rng.next64() for _ in range(8)] == [int(x) for x in bg.random_raw(8)]


def test_same_seed_same_inputs_other_seed_other_inputs():
    for workload in inputs.WORKLOADS:
        assert inputs.make_ops(workload, 7) == inputs.make_ops(workload, 7)
    assert inputs.make_ops("verify-cold", 7) != inputs.make_ops("verify-cold", 8)


@pytest.mark.parametrize("n", range(1, 11))
def test_permanent_of_complete_graph_is_factorial(n):
    assert inputs.permanent(inputs.complete_rows(n)) == math.factorial(n)


@pytest.mark.parametrize("n", range(1, 11))
def test_permanent_of_j_minus_i_is_derangements(n):
    assert inputs.permanent(inputs.derangement_rows(n)) == inputs.derangements(n)


@pytest.mark.parametrize("n", range(3, 11))
def test_permanent_of_j_minus_i_minus_p_is_menage(n):
    assert inputs.permanent(inputs.menage_rows(n)) == inputs.menage(n)


def test_closed_forms_known_values():
    assert [inputs.derangements(n) for n in range(8)] == [1, 0, 1, 2, 9, 44, 265, 1854]
    assert [inputs.menage(n) for n in range(3, 10)] == [1, 2, 13, 80, 579, 4738, 43387]


def test_permanent_matches_brute_force_and_is_invariant_under_shuffles():
    rng = inputs.Pcg64(3)
    for n in range(1, 8):
        for density in (0.3, 0.6, 0.9):
            rows = inputs.random_rows(rng, n, density)
            want = brute_permanent(rows)
            assert inputs.permanent(rows) == want
            assert inputs.permanent(inputs.permute_rows(rng, rows)) == want


def test_graph_text_is_the_permmatch_file_format():
    assert inputs.graph_text([0b011, 0b100, 0b001]) == "3\n110\n001\n100\n"


def test_every_op_expects_its_own_reference_count():
    for workload in inputs.WORKLOADS:
        for op in inputs.make_ops(workload, 1):
            if op.kind == "sweep":
                assert op.expected == 1 << (op.n * op.n)
                continue
            lines = op.graph.split()
            rows = [int(line[::-1], 2) for line in lines[1:]]
            assert int(lines[0]) == op.n == len(rows)
            if op.n <= 14:
                assert inputs.permanent(rows) == op.expected
