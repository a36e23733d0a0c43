"""Harness counting, sweeps, reports, and the command-line surface."""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permmatch import (
    BipartiteGraph,
    count_ryser,
    count_via_cvmp,
    edge_requirement,
    enumerate_cvmps,
    gamma_stats,
    random_graph,
    serialize_graph,
    sweep,
    verify,
)
from permmatch.cli import main
from permmatch.harness import unconstrained_walk_count
from permmatch.gamma import build_gamma
from relabel import assert_relabel_invariant, square_01


def shuffled(n, missing, seed):
    """J_n minus the cells (v, w) with (w - v) % n in `missing`, with rows
    and columns shuffled: missing () is J, (0,) is J-I, (0, 1) is J-I-P."""
    rnd = random.Random(seed)
    rows, cols = rnd.sample(range(n), n), rnd.sample(range(n), n)
    return BipartiteGraph.from_matrix(
        [[int((w - v) % n not in missing) for w in cols] for v in rows]
    )


class TestCountViaCvmp:
    def test_complete(self):
        assert count_via_cvmp(BipartiteGraph.complete(4)) == 24

    def test_all_zero(self):
        assert count_via_cvmp(BipartiteGraph.empty(4)) == 0

    def test_matches_ryser_random(self):
        for seed in range(500):
            n = 3 + seed % 4
            g = random_graph(n, 0.5, 9000 + seed)
            assert count_via_cvmp(g) == count_ryser(g), (n, seed)

    def test_guard(self):
        with pytest.raises(ValueError):
            count_via_cvmp(BipartiteGraph.complete(10))

    def test_matches_paper_definition(self):
        # paths qualified through the generating graph, independent of the walk
        def qualified(g, paths):
            return sum(1 for p in paths if not edge_requirement(p, g))

        paths = list(enumerate_cvmps(build_gamma(3)))
        for mask in range(1 << 9):
            g = BipartiteGraph.from_mask(3, mask)
            assert count_via_cvmp(g) == qualified(g, paths), mask
        for n in (4, 5):
            paths = list(enumerate_cvmps(build_gamma(n)))
            for density in (0.3, 0.5, 0.8):
                for seed in range(10):
                    g = random_graph(n, density, 600 + seed)
                    assert count_via_cvmp(g) == qualified(g, paths), (n, density, seed)

    @pytest.mark.parametrize(
        "missing, n, expected",
        [
            ((), 8, 40320),
            ((), 9, 362880),
            ((0,), 8, 14833),
            ((0,), 9, 133496),
            ((0, 1), 8, 4738),
            ((0, 1), 9, 43387),
        ],
    )
    def test_closed_forms_past_old_guard(self, missing, n, expected):
        # n!, derangements and menage numbers
        assert count_via_cvmp(shuffled(n, missing, seed=n)) == expected

    @settings(max_examples=50, deadline=None)
    @given(square_01, st.randoms(use_true_random=False))
    def test_invariant_under_permutation_and_transpose(self, rows, rnd):
        assert_relabel_invariant(count_via_cvmp, rows, rnd)


class TestVerify:
    def test_agreeing_instance(self):
        report = verify(BipartiteGraph.complete(3))
        assert report.agreement
        assert report.count_cvmp == report.count_bruteforce == report.count_ryser == 6
        assert set(report.elapsed) == {"cvmp", "bruteforce", "ryser"}

    def test_complete_9_by_all_three(self):
        report = verify(BipartiteGraph.complete(9))
        assert report.count_cvmp == report.count_bruteforce == report.count_ryser == 362880
        assert report.agreement

    def test_embeds_reproducible_graph(self):
        g = random_graph(4, 0.5, 17)
        report = verify(g)
        assert report.graph == serialize_graph(g)

    def test_dict_key_order_fixed(self):
        d = verify(BipartiteGraph.complete(3)).to_dict()
        assert list(d) == [
            "n",
            "graph",
            "count_cvmp",
            "count_bruteforce",
            "count_ryser",
            "agreement",
            "elapsed",
        ]


class TestSweep:
    def test_exhaustive_n2(self):
        report = sweep(2, "exhaustive")
        assert report.instances == 16
        assert report.agreement and report.mismatches == []

    def test_exhaustive_n3(self):
        report = sweep(3, "exhaustive")
        assert report.instances == 512
        assert report.agreement

    def test_random_reproducible(self):
        a = sweep(6, "random", trials=50, seed=5).to_dict()
        b = sweep(6, "random", trials=50, seed=5).to_dict()
        assert a == b
        assert a["instances"] == 50 and a["agreement"]

    def test_random_needs_seed(self):
        with pytest.raises(ValueError):
            sweep(4, "random", trials=10)

    def test_exhaustive_guard(self):
        with pytest.raises(ValueError):
            sweep(5, "exhaustive")

    def test_random_guard_stays_below_path_counting(self):
        # path counting reaches n = 9, but a random sweep stops at 7
        with pytest.raises(ValueError, match="n <= 7"):
            sweep(8, "random", trials=1, seed=1)


class TestStructureDiagnostics:
    def test_n4(self):
        stats = gamma_stats(4)
        assert stats.node_count == 18
        assert stats.valid_paths == 24
        assert stats.valid_paths <= stats.unconstrained_walks

    def test_trivial(self):
        stats = gamma_stats(1)
        assert stats.node_count == 1
        assert stats.valid_paths == stats.unconstrained_walks == 1

    def test_walk_bound_holds(self):
        for n in range(2, 7):
            stats = gamma_stats(n)
            assert stats.valid_paths == math.factorial(n)
            assert stats.valid_paths <= stats.unconstrained_walks

    def test_walks_by_hand_n2(self):
        # level-1 nodes (11,11) and (12,21) each step to the lone (22,22)
        assert unconstrained_walk_count(build_gamma(2)) == 2


class TestCli:
    def write_graph(self, tmp_path, text):
        f = tmp_path / "g.txt"
        f.write_text(text)
        return str(f)

    def test_verify_agreement(self, tmp_path, capsys):
        path = self.write_graph(tmp_path, "3\n111\n111\n111\n")
        assert main(["verify", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["count_cvmp"] == report["count_ryser"] == 6
        assert report["agreement"] is True

    def test_verify_malformed_file(self, tmp_path, capsys):
        path = self.write_graph(tmp_path, "2\n1x\n11\n")
        assert main(["verify", path]) == 2
        err = capsys.readouterr().err
        assert "error" in err and "row 1" in err

    def test_verify_missing_file(self, capsys):
        assert main(["verify", "/nonexistent/graph.txt"]) == 2

    def test_count_methods_agree(self, tmp_path, capsys):
        path = self.write_graph(
            tmp_path, serialize_graph(random_graph(5, 0.6, 77))
        )
        counts = []
        for method in ("cvmp", "ryser", "brute"):
            assert main(["count", "--method", method, path]) == 0
            counts.append(int(capsys.readouterr().out))
        assert counts[0] == counts[1] == counts[2]

    def test_sweep_exhaustive(self, capsys):
        assert main(["sweep", "--n", "2", "--exhaustive"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["instances"] == 16

    def test_sweep_random_reproducible(self, capsys):
        assert main(["sweep", "--n", "4", "--trials", "20", "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["sweep", "--n", "4", "--trials", "20", "--seed", "3"]) == 0
        assert capsys.readouterr().out == first

    def test_gamma_stats(self, capsys):
        assert main(["gamma", "--n", "4", "--stats"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["node_count"] == 18
        assert stats["valid_paths"] == 24
        assert "unconstrained_walks" in stats

    def test_gamma_dot(self, capsys):
        assert main(["gamma", "--n", "4", "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph") and out.rstrip().endswith("}")

    def test_factorize(self, capsys):
        assert main(["factorize", "--n", "4", "(1,3,2,4)"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "I*(3,4)*(2,4)*(1,3)"

    def test_factorize_figure_path(self, capsys):
        assert main(["factorize", "--n", "4", "(1,2,4,3)"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "(12,31)(24,32)(34,43)(44,44)"

    def test_factorize_identity(self, capsys):
        assert main(["factorize", "--n", "3", "()"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "I*I*I"
        assert lines[1] == "(11,11)(22,22)(33,33)"

    def test_gen_density_one(self, capsys):
        assert main(["gen", "--n", "3", "--density", "1", "--seed", "0"]) == 0
        assert capsys.readouterr().out == "3\n111\n111\n111\n"

    def test_gen_reproducible(self, capsys):
        args = ["gen", "--n", "5", "--density", "0.5", "--seed", "11"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_gen_bad_density(self, capsys):
        assert main(["gen", "--n", "3", "--density", "2", "--seed", "0"]) == 2

    def test_verify_past_every_guard_exits_2(self, tmp_path, capsys):
        path = self.write_graph(tmp_path, "25\n" + ("1" * 25 + "\n") * 25)
        assert main(["verify", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: no counting method is in guard at n=25" in captured.err
        assert "Ryser n <= 24" in captured.err

    def test_verify_with_only_ryser_in_guard_exits_2(self, tmp_path, capsys):
        path = self.write_graph(tmp_path, serialize_graph(random_graph(12, 0.5, 1)))
        assert main(["verify", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: only one counting method is in guard at n=12" in captured.err
        assert "cvmp n <= 9, brute force n <= 9, Ryser n <= 24" in captured.err
        assert "count --method ryser" in captured.err

    def test_gamma_stats_past_enumeration_guard(self, capsys):
        assert main(["gamma", "--n", "8", "--stats"]) == 0
        assert json.loads(capsys.readouterr().out)["valid_paths"] is None

    def test_sweep_zero_trials_exits_2(self, capsys):
        assert main(["sweep", "--n", "4", "--trials", "0", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: random sweeps need trials >= 1" in captured.err

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--n", "3"])
        assert exc.value.code == 2

    def test_mismatch_would_exit_1(self, monkeypatch, tmp_path, capsys):
        # force a wrong count to confirm the mismatch contract end to end
        import permmatch.harness as harness

        monkeypatch.setattr(harness, "count_via_cvmp", lambda g: -1)
        path = self.write_graph(tmp_path, "2\n11\n11\n")
        assert main(["verify", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["agreement"] is False
