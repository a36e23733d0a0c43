"""Harness counting, sweeps, reports, and the command-line surface."""

import contextlib
import errno
import hashlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permmatch import cli
from permmatch._guards import LIMITS, METHODS
from permmatch.bipartite import (
    BipartiteGraph,
    count_bruteforce,
    count_ryser,
    parse_graph,
    serialize_graph,
)
from permmatch.cli import main
from permmatch.gamma import (
    build_gamma,
    edge_requirement,
    enumerate_cvmps,
    gamma_stats,
    unconstrained_walk_count,
)
from permmatch.harness import count_via_cvmp, sweep, verify
from permmatch.pcg import random_graph
from relabel import assert_relabel_invariant, bitmasks, shuffled, square_01

SRC = Path(__file__).resolve().parent.parent / "src"


# the text a report can hold
ASCII_TEXT = st.text(st.characters(max_codepoint=127))


def python_env():
    """The environment of a fresh interpreter that imports this checkout's
    permmatch, its stdio buffered as by default whatever PYTHONUNBUFFERED
    says here."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_python(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **kwargs):
    """Run a fresh interpreter in `python_env()`; kwargs go to subprocess.run."""
    return subprocess.run(
        [sys.executable, *args], env=python_env(), stdout=stdout, stderr=stderr, text=text,
        **kwargs
    )


def blank_elapsed(report):
    """A verify report with its timing values, the only varying bytes, blanked."""
    return re.sub(r'"elapsed": \{[^}]*\}', '"elapsed": {}', report)


# Where a path to a graph file goes in an argv.
FILE = object()


@pytest.fixture
def cvmp_off_on_edge_11(monkeypatch):
    """The harness's path count, one too high on graphs with edge (1,1)."""
    import permmatch.harness as harness

    monkeypatch.setattr(
        harness, "count_via_cvmp", lambda g: count_via_cvmp(g) + g.has_edge(1, 1)
    )


class TestCountViaCvmp:
    def test_complete(self):
        assert count_via_cvmp(BipartiteGraph.complete(4)) == 24

    def test_all_zero(self):
        assert count_via_cvmp(BipartiteGraph(4, [0] * 4)) == 0

    def test_guard(self):
        msg = "cvmp is guarded at 1 <= n <= 9; use `count --method ryser`$"
        with pytest.raises(ValueError, match=msg):
            count_via_cvmp(BipartiteGraph.complete(10))

    def test_matches_paper_definition(self):
        # paths qualified through the generating graph, independent of the walk
        def qualified(g, paths):
            return sum(1 for p in paths if not edge_requirement(p, g))

        paths = list(enumerate_cvmps(3))
        for mask in range(1 << 9):
            g = BipartiteGraph.from_mask(3, mask)
            assert count_via_cvmp(g) == qualified(g, paths), mask
        for n in (4, 5):
            paths = list(enumerate_cvmps(n))
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
        # n!, derangements and menage numbers; at n = 9 brute force also
        # runs its loop over the images of row 1
        g = BipartiteGraph(n, bitmasks(shuffled(n, missing, seed=n)))
        assert count_via_cvmp(g) == expected
        assert count_bruteforce(g) == expected

    @settings(max_examples=50, deadline=None)
    @given(square_01, st.randoms(use_true_random=False))
    def test_invariant_under_permutation_and_transpose(self, rows, rnd):
        assert_relabel_invariant(count_via_cvmp, rows, rnd)


class TestVerify:
    def test_agreeing_instance(self):
        report = verify(BipartiteGraph.complete(3))
        assert report["agreement"]
        assert report["count_cvmp"] == report["count_bruteforce"] == report["count_ryser"] == 6
        assert set(report["elapsed"]) == {"cvmp", "bruteforce", "ryser"}

    def test_complete_9_by_all_three(self):
        report = verify(BipartiteGraph.complete(9))
        counts = {report[k] for k in ("count_cvmp", "count_bruteforce", "count_ryser")}
        assert counts == {362880}
        assert report["agreement"]

    def test_embeds_reproducible_graph(self):
        g = random_graph(4, 0.5, 17)
        report = verify(g)
        assert report["graph"] == serialize_graph(g)

    def test_dict_key_order_fixed(self):
        d = verify(BipartiteGraph.complete(3))
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
        report = sweep(2)
        assert report["instances"] == 16
        assert report["agreement"] and report["mismatches"] == []

    def test_exhaustive_n3(self):
        report = sweep(3)
        assert report["instances"] == 512
        assert report["agreement"]

    def test_random_reproducible(self):
        a = sweep(6, trials=50, seed=5)
        b = sweep(6, trials=50, seed=5)
        assert a == b
        assert a["instances"] == 50 and a["agreement"]

    def test_random_needs_seed(self):
        with pytest.raises(ValueError):
            sweep(4, trials=10)

    def test_exhaustive_guard(self):
        with pytest.raises(ValueError):
            sweep(5)

    def test_exhaustive_takes_no_seed(self):
        with pytest.raises(ValueError, match="exhaustive sweeps take no seed"):
            sweep(3, seed=4)

    def test_dict_key_order_fixed(self):
        keys = ["n", "mode", "instances", "agreement", "mismatches"]
        assert list(sweep(2)) == keys
        keys[2:2] = ["trials", "seed"]
        assert list(sweep(3, trials=2, seed=1)) == keys

    def test_random_guard_stays_below_path_counting(self):
        # path counting reaches n = 9, but a random sweep stops at 7
        with pytest.raises(ValueError, match="n <= 7"):
            sweep(8, trials=1, seed=1)

    def test_mismatches_sorted_and_replayable(self, cvmp_off_on_edge_11):
        report = sweep(2)
        assert report["instances"] == 16 and not report["agreement"]
        assert len(report["mismatches"]) == 8
        graphs = [e["graph"] for e in report["mismatches"]]
        assert graphs == sorted(graphs)
        for entry in report["mismatches"]:
            g = parse_graph(entry["graph"])
            assert g.has_edge(1, 1)
            assert entry["count_cvmp"] == count_ryser(g) + 1
            assert entry["count_bruteforce"] == entry["count_ryser"] == count_bruteforce(g)


class TestGammaStats:
    def test_n4(self):
        stats = gamma_stats(4)
        assert stats["node_count"] == 18
        assert stats["valid_paths"] == 24
        assert stats["valid_paths"] <= stats["unconstrained_walks"]

    def test_trivial(self):
        stats = gamma_stats(1)
        assert stats["node_count"] == 1
        assert stats["valid_paths"] == stats["unconstrained_walks"] == 1

    def test_walk_bound_holds(self):
        for n in range(2, 7):
            stats = gamma_stats(n)
            assert stats["valid_paths"] == math.factorial(n)
            assert stats["valid_paths"] <= stats["unconstrained_walks"]

    def test_local_dp_stops_counting_s_n_at_n4(self):
        # The level-local DP over the O(n^3) nodes counts S_n only up to
        # n = 3; from n = 4 on it counts walks that are not permutations.
        for n in (1, 2, 3):
            assert gamma_stats(n)["unconstrained_walks"] == math.factorial(n)
        walks = {n: gamma_stats(n)["unconstrained_walks"] for n in (4, 5, 6)}
        assert walks == {4: 28, 5: 220, 6: 2808}
        assert all(walks[n] > math.factorial(n) for n in walks)

    def test_walks_by_hand_n2(self):
        # level-1 nodes (11,11) and (12,21) each step to the lone (22,22)
        assert unconstrained_walk_count(build_gamma(2)) == 2

    def test_largest_built_graph(self):
        # n = 12 is the largest n the build guard allows
        assert gamma_stats(12) == {
            "n": 12,
            "node_count": 518,
            "r_edge_count": 2486,
            "s_edge_count": 20449,
            "valid_paths": None,
            "unconstrained_walks": 18392167676352,
        }


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

    def test_verify_non_ascii_file_exits_2_with_path(self, tmp_path, capsys):
        f = tmp_path / "g.txt"
        f.write_bytes("\u0662\n1\n1\n".encode("utf-8"))  # ARABIC-INDIC DIGIT TWO
        assert main(["verify", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {f}: ")
        assert "Traceback" not in captured.err

    def test_unreadable_graph_file_refusals_name_the_path(self, tmp_path, capsys):
        # one stderr line each: the path, then the OS's reason, the ASCII
        # decoder's or the parser's, for verify and count alike
        non_ascii = tmp_path / "arabic.txt"
        non_ascii.write_bytes("\u0662\n1\n1\n".encode("utf-8"))
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n1x\n11\n")
        zero_led = tmp_path / "zero.txt"
        zero_led.write_text("02\n11\n11\n")
        reasons = {
            tmp_path / "missing.txt": os.strerror(errno.ENOENT),
            tmp_path: os.strerror(errno.EISDIR),
            non_ascii: "'ascii' codec can't decode byte 0xd9 in position 0: "
            "ordinal not in range(128)",
            bad: "row 1 has characters outside 0/1: ['x']",
            zero_led: "bad header line '02'; expected decimal n",
        }
        for path, reason in reasons.items():
            for argv in (["verify", str(path)], ["count", "--method", "ryser", str(path)]):
                assert main(argv) == 2, argv
                assert capsys.readouterr() == ("", f"error: {path}: {reason}\n"), argv

    @pytest.mark.parametrize(
        "raw", [b"2\v11\f01\n", b"2\r11\r01\r", b"\x1f2\x1f\n11\n01\n"],
        ids=["vt-ff", "lone-cr", "unit-separator"],
    )
    def test_verify_other_separators_exit_2(self, tmp_path, capsys, raw):
        f = tmp_path / "g.txt"
        f.write_bytes(raw)
        assert main(["verify", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {f}: bad header line ")

    def test_verify_crlf_file(self, tmp_path, capsys):
        f = tmp_path / "g.txt"
        f.write_bytes(b"2\r\n11\r\n01\r\n")
        assert main(["verify", str(f)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["count_ryser"] == 1
        assert report["graph"] == "2\n11\n01\n"

    def test_count_methods_agree(self, tmp_path, capsys):
        # at n = 9 brute force runs over all of S_9
        for n, density, seed in [(5, 0.6, 77), (9, 0.5, 7)]:
            path = self.write_graph(
                tmp_path, serialize_graph(random_graph(n, density, seed))
            )
            counts = []
            for method in ("cvmp", "ryser", "brute"):
                assert main(["count", "--method", method, path]) == 0
                counts.append(int(capsys.readouterr().out))
            assert counts[0] == counts[1] == counts[2]

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
        assert list(stats) == [
            "n",
            "node_count",
            "r_edge_count",
            "s_edge_count",
            "valid_paths",
            "unconstrained_walks",
        ]

    def test_json_stdout_is_the_library_result(self, cvmp_off_on_edge_11, tmp_path, capsys):
        # the report writer is not json, so every report shape is checked
        # against it: with the path count off on edge (1,1), sweeps and
        # verify reports hold mismatches too
        runs = [
            (["sweep", "--n", "2", "--exhaustive"], sweep(2)),
            (["sweep", "--n", "3", "--trials", "4", "--seed", "2"], sweep(3, 4, 2)),
            (["gamma", "--n", "3", "--stats"], gamma_stats(3)),
            (["gamma", "--n", "10", "--stats"], gamma_stats(10)),
        ]
        assert len(runs[0][1]["mismatches"]) == 8 and runs[3][1]["valid_paths"] is None
        for n in range(1, 10):
            for graph in (random_graph(n, 0.6, 40 + n), BipartiteGraph(n, [0] * n)):
                path = tmp_path / f"{n}-{len(runs)}.txt"
                path.write_text(serialize_graph(graph))
                runs.append((["verify", str(path)], verify(graph)))
        for argv, result in runs:
            assert main(argv) == (0 if result.get("agreement", True) else 1), argv
            out = capsys.readouterr().out
            if "elapsed" in result:
                # the timings differ between runs: compare their keys only
                printed = json.loads(out)["elapsed"]
                assert list(printed) == list(result["elapsed"])
                result["elapsed"] = printed
            assert out == json.dumps(result, indent=2) + "\n", argv

    @settings(max_examples=200, deadline=None)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers()
        | st.floats(allow_nan=False, allow_infinity=False) | ASCII_TEXT,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(ASCII_TEXT, inner, max_size=4),
        max_leaves=12,
    ))
    def test_report_writer_is_json_dumps(self, obj):
        # any ASCII text, controls, quotes and backslashes among it, and any
        # finite float: what a report can hold is written as json writes it
        assert cli._json(obj) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize("obj", [
        (1, 2), {1: "a"}, {"a": b"x"}, [{1, 2}], {"a": [object()]},
        "\u00e9", {"\u00e9": 1}, math.nan, [math.inf], {"a": -math.inf},
    ])
    def test_report_writer_refuses_what_reports_never_hold(self, obj):
        with pytest.raises(TypeError):
            cli._json(obj)

    def test_gamma_dot(self, capsys):
        assert main(["gamma", "--n", "4", "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph") and out.rstrip().endswith("}")

    def test_gamma_dot_refuses_before_building(self, monkeypatch, capsys):
        import permmatch.gamma as gamma

        def never(n):
            raise AssertionError("built a generating graph that DOT export refuses")

        monkeypatch.setattr(gamma, "build_gamma", never)
        assert main(["gamma", "--n", "12", "--dot"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: DOT export is guarded at 1 <= n <= 8\n"

    def test_factorize(self, capsys):
        assert main(["factorize", "--n", "4", "(1,3,2,4)"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "I*(3,4)*(2,4)*(1,3)"

    def test_factorize_figure_path(self, capsys):
        assert main(["factorize", "--n", "4", "(1,2,4,3)"]) == 0
        assert capsys.readouterr() == ("I*(3,4)*(2,4)*(1,2)\n(12,31)(24,32)(34,43)(44,44)\n", "")

    def test_factorize_identity(self, capsys):
        assert main(["factorize", "--n", "3", "()"]) == 0
        assert capsys.readouterr() == ("I*I*I\n(11,11)(22,22)(33,33)\n", "")

    def test_factorize_two_cycles(self, capsys):
        assert main(["factorize", "--n", "5", "(1,3,2)(4,5)"]) == 0
        out = "I*(4,5)*I*(2,3)*(1,3)\n(13,21)(23,32)(33,33)(45,54)(55,55)\n"
        assert capsys.readouterr() == (out, "")

    def test_numbers_past_int_digit_limit_exit_2(self, tmp_path, capsys):
        path = self.write_graph(tmp_path, "1" * 5000 + "\n1\n")
        runs = [
            (["factorize", "--n", "4", "(1," + "2" * 5000 + ")"],
             "error: point of 5000 digits out of range 1..4 at position 3\n"),
            (["verify", path],
             f"error: {path}: bad header line of 5000 characters; n has at most 19 digits\n"),
        ]
        for argv, err in runs:
            assert main(argv) == 2
            assert capsys.readouterr() == ("", err)

    def test_numbers_past_lowered_int_digit_limit_exit_2(self, tmp_path):
        # the interpreter's own limit, lowered to the least CPython accepts
        path = self.write_graph(tmp_path, "1" * 1000 + "\n1\n")
        runs = [
            (["factorize", "--n", "4", "(1," + "2" * 1000 + ")"],
             "error: point of 1000 digits out of range 1..4 at position 3\n"),
            (["verify", path],
             f"error: {path}: bad header line of 1000 characters; n has at most 19 digits\n"),
        ]
        for argv, err in runs:
            result = run_python(["-X", "int_max_str_digits=640", "-m", "permmatch", *argv])
            assert (result.returncode, result.stdout, result.stderr) == (2, "", err)

    def test_giant_header_exits_2_with_a_short_message(self, tmp_path):
        # a header of up to the digit limit used to come back whole on
        # stderr; messages at real sizes keep their bytes
        giant = "error: {}: bad header line of 4300 characters; n has at most 19 digits\n"
        cases = [
            ("1" * 4300 + "\n1\n", giant),
            ("1" * 4300 + "\n", giant),
            ("2\n111\n11\n", "error: {}: row 1 has 3 characters, expected 2\n"),
        ]
        for text, err in cases:
            path = self.write_graph(tmp_path, text)
            result = run_python(["-m", "permmatch", "verify", path])
            assert (result.returncode, result.stdout) == (2, "")
            assert result.stderr == err.format(path)
            assert len(result.stderr.encode()) < 200

    def test_long_numbers_refused_alike_at_any_digit_limit(self, tmp_path):
        # a header line, a point or an integer option longer than
        # sys.maxsize's 19 digits is refused by its length before int() reads
        # it: the interpreter's digit limit, here the default and the least
        # CPython accepts, changes no byte, and nothing long is echoed
        headers = ["x" * 100_000, "1" * 4300, "1" * 5000, str(2**63)]
        points = ["2" * 1000, "0" * 24 + "2"]
        runs = [["factorize", "--n", "4", f"(1,{p})"] for p in points]
        runs += [["gen", "--n", "3", "--density", "0.5", "--seed", "7" * 5000],
                 ["factorize", "--n", "1" * 1000, "()"]]
        for i, header in enumerate(headers):
            path = tmp_path / f"h{i}.txt"
            path.write_text(header + "\n1\n")
            runs.append(["verify", str(path)])
        for argv in runs:
            default, lowered = (
                run_python([*flags, "-m", "permmatch", *argv])
                for flags in ([], ["-X", "int_max_str_digits=640"])
            )
            assert (default.returncode, default.stdout) == (2, ""), argv[:3]
            assert (lowered.returncode, lowered.stdout, lowered.stderr) == (2, "", default.stderr)
            assert len(default.stderr.encode()) < 200, default.stderr

    def test_gen_density_one(self, capsys):
        assert main(["gen", "--n", "3", "--density", "1", "--seed", "0"]) == 0
        assert capsys.readouterr().out == "3\n111\n111\n111\n"

    def test_gen_reproducible(self, capsys):
        args = ["gen", "--n", "5", "--density", "0.5", "--seed", "11"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "argv, message",
        [
            # an int option is ASCII digits after an optional "-", at most 19
            # characters; a longer value is named by its length, not echoed
            (["gen", "--n", "1_0", "--density", "0.5", "--seed", "1"],
             "gen: --n takes int values, not '1_0'"),
            (["gen", "--n", " \u0663", "--density", "0.5", "--seed", "1"],
             "gen: --n takes int values, not ' \u0663'"),
            (["gen", "--n", "+3", "--density", "0.5", "--seed", "1"],
             "gen: --n takes int values, not '+3'"),
            (["gen", "--n", "3 ", "--density", "0.5", "--seed", "1"],
             "gen: --n takes int values, not '3 '"),
            (["gen", "--n", "3", "--density", "0.5", "--seed", "-"],
             "gen: --seed takes int values, not '-'"),
            (["gen", "--n", "3", "--density", "0.5", "--seed", "1" * 20],
             "gen: --seed takes int values, not one of 20 characters"),
            (["gen", "--n", "3", "--density", "0.5", "--seed", "-" + "1" * 19],
             "gen: --seed takes int values, not one of 20 characters"),
            (["gen", "--n", "3", "--density", "0.5", "--seed", "7" * 5000],
             "gen: --seed takes int values, not one of 5000 characters"),
            (["gen", "--n", "3", "--density", "x" * 100_000, "--seed", "1"],
             "gen: --density takes float values, not one of 100000 characters"),
            (["sweep", "--n", "3", "--trials", "2_0", "--seed", "1"],
             "sweep: --trials takes int values, not '2_0'"),
            (["factorize", "--n", "\u0664", "()"], "factorize: --n takes int values, not '\u0664'"),
            # values read, then refused by a guard or a range
            (["gen", "--n", "-1", "--density", "0.5", "--seed", "0"],
             "gen is guarded at 1 <= n <= 24"),
            (["gen", "--n", "0", "--density", "0.5", "--seed", "0"],
             "gen is guarded at 1 <= n <= 24"),
            (["gen", "--n", "3", "--density", "0.5", "--seed", "-1"], "seed must be >= 0"),
            # float() reads "nan", "inf" and "1_0" too; the range check refuses them
            *((["gen", "--n", "3", "--density", density, "--seed", "0"],
               "density must lie in [0,1]") for density in ["2", "nan", "inf", "1_0"]),
            (["sweep", "--n", "3"], "sweep takes exactly one of --exhaustive and --trials"),
            (["sweep", "--n", "3", "--trials", "5"], "random sweeps need a seed"),
            (["sweep", "--n", "4", "--trials", "0", "--seed", "1"],
             "random sweeps need trials >= 1, got 0"),
            (["sweep", "--n", "3", "--trials", "2", "--seed", "-5"], "seed must be >= 0"),
            (["sweep", "--n", "3", "--exhaustive", "--seed", "4"],
             "exhaustive sweeps take no seed"),
            *((["sweep", "--n", n, *mode], "sweep is guarded at 1 <= n <= 7")
              for n in ["0", "-1"] for mode in [["--exhaustive"], ["--trials", "2", "--seed", "1"]]),
            (["gamma", "--n", "13", "--stats"], "build is guarded at 1 <= n <= 12"),
            # str.isdigit and str.isspace accept these; the cycle parser does not
            (["factorize", "--n", "3", "(1,\u0663)"], "expected a point at position 3"),
            (["factorize", "--n", "3", "(1,\u00a03)"], "expected a point at position 3"),
            (["verify", "/nonexistent/graph.txt"],
             f"/nonexistent/graph.txt: {os.strerror(errno.ENOENT)}"),
            # 19 characters are read: -1 reaches gen's guard
            (["gen", "--n", "-" + "0" * 17 + "1", "--density", "0.5", "--seed", "1"],
             "gen is guarded at 1 <= n <= 24"),
        ],
    )
    def test_refusals_print_one_exact_line(self, argv, message, capsys):
        # what main(argv) refuses on its own: exit 2, nothing on stdout, and
        # one stderr line
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_int_options_up_to_19_characters_are_read(self, capsys):
        for seed, as_int in [(str(sys.maxsize), sys.maxsize), ("0" * 18 + "7", 7)]:
            assert main(["gen", "--n", "3", "--density", "0.5", "--seed", seed]) == 0
            assert capsys.readouterr().out == serialize_graph(random_graph(3, 0.5, as_int))

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

    @pytest.mark.parametrize("n", [12, 24])
    def test_verify_refuses_before_counting(self, n, monkeypatch, tmp_path, capsys):
        def never(g):
            raise AssertionError("counted a graph that verify refuses")

        for _, _, module, counter in METHODS.values():
            monkeypatch.setattr(sys.modules["permmatch." + module], counter, never)
        path = self.write_graph(tmp_path, serialize_graph(BipartiteGraph.complete(n)))
        assert main(["verify", path]) == 2
        assert "only one counting method is in guard" in capsys.readouterr().err

    def test_verify_runs_every_counter_or_none(self, monkeypatch, tmp_path, capsys):
        # verify runs exactly the methods in guard, in the table's order, when
        # two or more are (all three at n <= 9); otherwise it exits 2 before
        # any of them runs.  Each counter is rebound on the module its row names.
        calls = []
        for method, (_, _, module, counter) in METHODS.items():
            monkeypatch.setattr(
                sys.modules["permmatch." + module], counter,
                lambda g, method=method: calls.append(method) or 1,
            )
        for n in range(1, 26):
            calls.clear()
            path = self.write_graph(tmp_path, serialize_graph(BipartiteGraph.complete(n)))
            status = main(["verify", path])
            out = capsys.readouterr().out
            in_guard = [m for m, (stage, *_) in METHODS.items() if n <= LIMITS[stage]]
            if len(in_guard) >= 2:
                assert (status, calls) == (0, in_guard), n
            else:
                assert (status, out, calls) == (2, "", []), n
        assert in_guard == []  # n = 25 is past every guard

    def test_gamma_stats_past_enumeration_guard(self, capsys):
        # valid paths are counted where path counting reaches, past the
        # enumeration guard; the first n past the cvmp guard prints null
        assert main(["gamma", "--n", "10", "--stats"]) == 0
        assert json.loads(capsys.readouterr().out)["valid_paths"] is None

    def test_gamma_stats_at_the_cvmp_and_build_guards(self, capsys):
        # valid paths are counted where path counting reaches, up to the cvmp
        # guard (n = 9), past the enumeration guard (7); the graph is built
        # up to the build guard (12)
        keys = ["n", "node_count", "r_edge_count", "s_edge_count", "valid_paths",
                "unconstrained_walks"]
        for values in ([7, 98, 231, 700, 5040, 55112],
                       [8, 148, 420, 1673, 40320, 1571216],
                       [9, 213, 708, 3536, 362880, 61938768],
                       [12, 518, 2486, 20449, None, 18392167676352]):
            assert main(["gamma", "--n", str(values[0]), "--stats"]) == 0
            assert json.loads(capsys.readouterr().out) == dict(zip(keys, values))

    @pytest.mark.parametrize("method", ["brute", "cvmp"])
    def test_count_past_guard_names_the_ryser_command(self, method, tmp_path, capsys):
        path = self.write_graph(tmp_path, serialize_graph(BipartiteGraph.complete(10)))
        assert main(["count", "--method", method, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("n <= 9; use `count --method ryser`\n")

    @pytest.mark.parametrize("method,stage", [("brute", "brute force"), ("cvmp", "cvmp")])
    def test_count_past_ryser_names_no_other_command(self, method, stage, tmp_path, capsys):
        # Ryser refuses n = 25 too, so the message points nowhere else
        path = self.write_graph(tmp_path, serialize_graph(BipartiteGraph.complete(25)))
        assert main(["count", "--method", method, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {stage} is guarded at 1 <= n <= 9\n"

    @pytest.mark.parametrize("n", ["25", "1000000"])
    def test_gen_past_guard_exits_2_before_the_stream(self, n, monkeypatch, capsys):
        # the stream fails if it is started, so only a guard ahead of it
        # exits 2 with the guard's message
        import permmatch.pcg as pcg

        def never(seed):
            raise AssertionError("drew a graph that gen refuses")

        monkeypatch.setattr(pcg, "_uniform_stream", never)
        assert main(["gen", "--n", n, "--density", "0.5", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: gen is guarded at 1 <= n <= 24\n"
        with pytest.raises(ValueError, match="gen is guarded at 1 <= n <= 24$"):
            random_graph(int(n), 0.5, 1)

    @pytest.mark.parametrize("n", ["10", "1000000000"])
    def test_factorize_past_guard_exits_2_before_parsing(self, n, monkeypatch, capsys):
        import permmatch.perms as perms

        def never(text, n):
            raise AssertionError("parsed a permutation that factorize refuses")

        monkeypatch.setattr(perms, "parse_cycles", never)
        assert main(["factorize", "--n", n, "()"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: factorize is guarded at 1 <= n <= 9\n"

    @pytest.mark.parametrize("header", ["1_0", "+2"], ids=["underscore", "plus"])
    def test_verify_non_decimal_header_exits_2(self, header, tmp_path, capsys):
        n = int(header)
        path = self.write_graph(tmp_path, header + "\n" + ("1" * n + "\n") * n)
        assert main(["verify", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {path}: bad header line {header!r}" in captured.err

    def test_no_command_imports_numpy(self, tmp_path):
        # random graphs come from the package's own PCG64 stream, so no
        # command, gen and random sweeps included, imports numpy, and none
        # needs dataclasses or the inspect module it pulls in; a fresh
        # interpreter shows what the commands load, which this test process
        # cannot
        path = self.write_graph(tmp_path, "4\n1101\n0111\n1011\n1110\n")
        script = "\n".join([
            "import contextlib, io, sys",
            "from permmatch.cli import main",
            f"path = {path!r}",
            "runs = [['verify', path], ['gamma', '--n', '4', '--stats'],",
            "        ['factorize', '--n', '4', '(1,2,4,3)'],",
            "        ['gen', '--n', '6', '--density', '0.5', '--seed', '7'],",
            "        ['sweep', '--n', '4', '--trials', '3', '--seed', '1']]",
            "runs += [['count', '--method', m, path] for m in ('cvmp', 'brute', 'ryser')]",
            "for argv in runs:",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        assert main(argv) == 0, argv",
            "assert 'numpy' not in sys.modules, 'numpy was imported'",
            "loaded = {'dataclasses', 'inspect'} & set(sys.modules)",
            "assert not loaded, f'{sorted(loaded)} imported'",
        ])
        result = run_python(["-c", script])
        assert result.returncode == 0, result.stderr

    def test_no_command_imports_json_future_or_the_ascii_codec(self, tmp_path):
        # a cold process pays for every module it compiles: reports are
        # written without json, no module needs __future__, and graph files
        # are decoded by the built-in ASCII decoder, not the codec module;
        # a fresh interpreter shows what the commands loaded
        path = self.write_graph(tmp_path, "4\n1101\n0111\n1011\n1110\n")
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n1x\n11\n")
        forbidden = ["json", "__future__", "encodings.ascii"]
        script = "\n".join([
            "import contextlib, io, sys",
            f"forbidden = {forbidden!r}",
            "assert not set(forbidden) & set(sys.modules), 'loaded at start-up'",
            "from permmatch.cli import main",
            f"runs = {[[path if a is FILE else a for a in argv] for argv in VALID]!r}",
            "runs.append(['--help'])",
            "for argv in runs:",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        assert main(argv) == 0, argv",
            "with contextlib.redirect_stderr(io.StringIO()):",
            f"    assert main(['verify', {str(bad)!r}]) == 2",
            "loaded = set(forbidden) & set(sys.modules)",
            "assert not loaded, f'{sorted(loaded)} imported'",
        ])
        result = run_python(["-c", script])
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize(
        "user, loads",
        [
            (["verify", FILE], ["harness"]),
            (["sweep", "--n", "2", "--exhaustive"], ["harness"]),
            (["sweep", "--n", "4", "--trials", "3", "--seed", "1"], ["harness", "pcg"]),
            (["count", "--method", "cvmp", FILE], ["harness"]),
            (["gamma", "--n", "3", "--stats"], ["gamma", "perms", "harness"]),
            (["factorize", "--n", "4", "(1,2,4,3)"], ["gamma", "perms"]),
            (["gen", "--n", "6", "--density", "0.5", "--seed", "7"], ["pcg"]),
        ],
        ids=["verify", "sweep-exhaustive", "sweep-random", "count-cvmp", "gamma-stats",
             "factorize", "gen"],
    )
    def test_gamma_and_perms_registered_but_loaded_on_first_use(self, user, loads, tmp_path):
        # a tracer wrapping every measured module reads all six from
        # sys.modules right after `import permmatch.cli`, yet no counting
        # command runs gamma or perms, count by Ryser or brute force never
        # runs harness, and only gen and random sweeps draw from the PCG
        # stream, so the four are compiled on first use; type() reads no
        # attribute, so checking cannot load them.  The
        # command line is parsed without argparse, and so without the
        # gettext and locale modules it imports.
        path = self.write_graph(tmp_path, "4\n1101\n0111\n1011\n1110\n")
        user = [path if a is FILE else a for a in user]
        script = "\n".join([
            "import contextlib, io, sys, types",
            "import permmatch.cli",
            "from permmatch.cli import main",
            "measured = ('cli', 'bipartite', 'perms', 'gamma', 'harness', 'kernels')",
            "missing = [m for m in measured if 'permmatch.' + m not in sys.modules]",
            "assert not missing, f'{missing} not registered'",
            "lazy = ('gamma', 'perms', 'harness', 'pcg')",
            "def loaded():",
            "    return [m for m in lazy if type(sys.modules['permmatch.' + m]) is types.ModuleType]",
            "assert not loaded(), f'{loaded()} loaded by the import'",
            f"path = {path!r}",
            "runs = [['count', '--method', 'ryser', path], ['count', '--method', 'brute', path],",
            "        ['--help']]",
            f"runs.append({user!r})",
            "for argv in runs:",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        assert main(argv) == 0, argv",
            "    if argv is not runs[-1]:",
            "        assert not loaded(), f'{loaded()} loaded by {argv}'",
            f"assert sorted(loaded()) == {sorted(loads)!r}, f'{{loaded()}} loaded by {{runs[-1]}}'",
            "if 'gamma' in loaded():",
            "    assert 'build_gamma' in vars(sys.modules['permmatch.gamma'])",
            "assert 'verify' in vars(sys.modules['permmatch.harness'])",
            "imported = {'argparse', 'gettext', 'locale'} & set(sys.modules)",
            "assert not imported, f'{sorted(imported)} imported'",
        ])
        result = run_python(["-c", script])
        assert result.returncode == 0, result.stderr

    def test_package_exports_in_a_fresh_process(self):
        # the package binds modules and __version__, no function or type:
        # each is imported from its defining module; gamma and perms stay the
        # entries registered for lazy loading, and reading them from the
        # package loads neither
        script = "\n".join([
            "import sys, types",
            "import permmatch",
            "def public():",
            "    return [k for k, v in vars(permmatch).items()",
            "            if not k.startswith('_') and not isinstance(v, types.ModuleType)]",
            "assert public() == [], public()",
            "for name in ('gamma', 'perms'):",
            "    module = getattr(permmatch, name)",
            "    assert module is sys.modules['permmatch.' + name], name",
            "    assert type(module) is not types.ModuleType, f'{name} loaded'",
            "assert permmatch.__version__ == '0.1.0'",
            "import permmatch.cli",
            "assert public() == [], public()",
            "# no module's function or type is served by the package either;",
            "# hasattr lets only AttributeError through as False",
            "for m in ('bipartite', 'gamma', 'harness', 'perms'):",
            "    for name, v in vars(getattr(permmatch, m)).items():",
            "        if not name.startswith('_') and not isinstance(v, types.ModuleType):",
            "            assert not hasattr(permmatch, name), (m, name)",
        ])
        result = run_python(["-c", script])
        assert result.returncode == 0, result.stderr

    def test_entry_point_in_a_fresh_process(self, tmp_path, capsys):
        # main is what the other tests call; this runs the real entry point,
        # entry(), as `python -m permmatch`, and checks it changes no byte
        k4 = self.write_graph(tmp_path, "4\n1111\n1111\n1111\n1111\n")
        result = run_python(["-m", "permmatch", "verify", k4])
        assert result.returncode == 0, result.stderr
        assert main(["verify", k4]) == 0
        assert '"elapsed": {}' in blank_elapsed(result.stdout)
        assert blank_elapsed(result.stdout) == blank_elapsed(capsys.readouterr().out)

        bad = tmp_path / "bad.txt"
        bad.write_text("2\n1x\n11\n")
        result = run_python(["-m", "permmatch", "verify", str(bad)])
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: {bad}:")
        assert "Traceback" not in result.stderr

        result = run_python(["-m", "permmatch", "sweep", "--n", "3"])
        assert result.returncode == 2

        # through a pipe, as `permmatch gamma --n 8 --dot | wc -l` reads it
        result = run_python(["-m", "permmatch", "gamma", "--n", "8", "--dot"])
        assert result.returncode == 0, result.stderr
        assert main(["gamma", "--n", "8", "--dot"]) == 0
        assert result.stdout == capsys.readouterr().out
        assert result.stdout.count("\n") == 2244

        # a wrong count reaches the exit status through entry() too
        path = self.write_graph(tmp_path, "2\n11\n11\n")
        script = "\n".join([
            "import sys",
            "import permmatch.harness as harness",
            "from permmatch import cli",
            "harness.count_via_cvmp = lambda g: -1",
            f"sys.argv = ['permmatch', 'verify', {path!r}]",
            "cli.entry()",
        ])
        assert run_python(["-c", script]).returncode == 1

    def test_installed_script_runs_what_python_m_runs(self):
        # the `permmatch` script and `python -m permmatch` both call
        # cli.entry, so a fresh `python -m permmatch` process stands for the
        # installed script; a line match, since Python 3.10 has no tomllib
        pyproject = (SRC.parent / "pyproject.toml").read_text()
        assert re.search(r'^\[project\.scripts\]\npermmatch = "permmatch\.cli:entry"$',
                         pyproject, re.M)
        main_py = (SRC / "permmatch" / "__main__.py").read_text()
        assert main_py == "from .cli import entry\n\nentry()\n"

    def test_cold_verify_imports_in_a_fresh_process(self, tmp_path):
        # -X importtime lists each module the import system loads: verify
        # runs through permmatch.cli and loads neither json, __future__, the
        # ASCII codec nor the PCG stream
        path = self.write_graph(tmp_path, serialize_graph(random_graph(5, 0.5, 7)))
        result = run_python(["-X", "importtime", "-m", "permmatch", "verify", path])
        assert result.returncode == 0
        imported = re.findall(r"^import time: .*\| +(\S+)$", result.stderr, re.M)
        assert "permmatch.cli" in imported
        forbidden = ("json", "__future__", "encodings.ascii", "permmatch.pcg")
        loaded = [m for m in imported if any(m == f or m.startswith(f + ".") for f in forbidden)]
        assert loaded == []

    def test_killed_kernel_child_changes_no_byte(self, tmp_path):
        # J - I at n = 16 splits the permanent's sum on two CPUs; a child
        # killed by SIGKILL leaves its half to this process, so the count,
        # the exit status and stderr are those of a run that forks nothing
        j_minus_i = BipartiteGraph(16, bitmasks(shuffled(16, (0,), 16)))
        path = self.write_graph(tmp_path, serialize_graph(j_minus_i))
        killed = tmp_path / "killed"
        script = "\n".join([
            "import os, signal, sys",
            "from permmatch import cli, kernels",
            "parent, walk = os.getpid(), kernels._gray_sum",
            "def killed_in_child(*args):",
            "    if os.getpid() != parent:",
            f"        open({str(killed)!r}, 'w').close()",
            "        os.kill(os.getpid(), signal.SIGKILL)",
            "    return walk(*args)",
            "kernels._gray_sum = killed_in_child",
            "os.sched_getaffinity = lambda pid: {0, 1}  # two CPUs on any host",
            f"sys.argv = ['permmatch', 'count', '--method', 'ryser', {path!r}]",
            "cli.entry()",
        ])
        result = run_python(["-c", script])
        assert (result.returncode, result.stdout, result.stderr) == (0, "7697064251745\n", "")
        assert killed.exists()

    @contextlib.contextmanager
    def split_k24_count(self, tmp_path):
        """A fresh `count --method ryser` on K_24 with two CPUs, its stderr
        read through a pipe, and its kernel child's pid once forked; both
        are killed on the way out, so no run leaves a process behind."""
        path = self.write_graph(tmp_path, serialize_graph(BipartiteGraph.complete(24)))
        pid_file = tmp_path / "child"
        script = "\n".join([
            "import os, sys",
            "from permmatch import cli",
            "fork = os.fork",
            "def fork_and_record():",
            "    pid = fork()",
            "    if pid:",
            f"        with open({str(pid_file) + '.part'!r}, 'w') as f:",
            "            f.write(str(pid))",
            f"        os.rename({str(pid_file) + '.part'!r}, {str(pid_file)!r})",
            "    return pid",
            "os.fork = fork_and_record",
            "os.sched_getaffinity = lambda pid: {0, 1}  # two CPUs on any host",
            f"sys.argv = ['permmatch', 'count', '--method', 'ryser', {path!r}]",
            "cli.entry()",
        ])
        parent = subprocess.Popen([sys.executable, "-c", script], env=python_env(),
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        child = None
        try:
            deadline = time.monotonic() + 30
            while not pid_file.exists():
                assert parent.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            child = int(pid_file.read_text())
            yield parent, child
        finally:
            parent.kill()
            parent.wait()
            parent.stderr.close()
            if child is not None:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(child, signal.SIGKILL)

    def test_killed_count_stops_its_kernel_child(self, tmp_path):
        # K_24's split sum keeps a child busy for seconds; once its parent
        # is killed, the child stops within a second, a zombie or gone
        with self.split_k24_count(tmp_path) as (parent, child):
            parent.kill()
            parent.wait()
            stat = Path(f"/proc/{child}/stat")
            deadline = time.monotonic() + 1
            while True:
                try:
                    # the state follows the command name, which ends in ")"
                    state = stat.read_text().rsplit(")", 1)[1].split()[0]
                except (FileNotFoundError, ProcessLookupError):
                    break
                if state == "Z":
                    break
                assert time.monotonic() < deadline, f"child {child} still in state {state}"
                time.sleep(0.01)

    def test_interrupted_count_ends_its_kernel_child(self, tmp_path):
        # SIGINT half a second into K_24's split sum: the command kills and
        # reaps its child rather than wait seconds for the child's half, and
        # exits 130, as a shell reports SIGINT, with one line, no traceback
        with self.split_k24_count(tmp_path) as (parent, child):
            time.sleep(0.5)
            parent.send_signal(signal.SIGINT)
            sent = time.monotonic()
            _, err = parent.communicate(timeout=30)
            assert time.monotonic() - sent < 0.5
            assert (parent.returncode, err) == (130, "error: interrupted\n")
            assert not Path(f"/proc/{child}").exists()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no sched_setaffinity")
    def test_one_cpu_count_forks_nothing(self, tmp_path):
        # a process pinned to one of its CPUs, as `taskset -c 0` pins it,
        # walks the whole sum itself and prints what the split prints
        j_minus_i = BipartiteGraph(17, bitmasks(shuffled(17, (0,), 17)))
        path = self.write_graph(tmp_path, serialize_graph(j_minus_i))
        cpu = min(os.sched_getaffinity(0))
        script = "\n".join([
            "import os, sys",
            "from permmatch import cli",
            "def fork():",
            "    raise AssertionError('forked on one CPU')",
            "os.fork = fork",
            f"sys.argv = ['permmatch', 'count', '--method', 'ryser', {path!r}]",
            "cli.entry()",
        ])
        result = run_python(["-c", script], preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        assert (result.returncode, result.stdout, result.stderr) == (0, "130850092279664\n", "")

    def test_closed_stdout_exits_141_silently(self, tmp_path):
        # the reader quit before the output was written, as `| head -1` does;
        # 141 is the status a shell reports for a process SIGPIPE ended
        k3 = self.write_graph(tmp_path, "3\n111\n111\n111\n")
        commands = (
            ["verify", k3],
            ["sweep", "--n", "2", "--exhaustive"],
            ["gamma", "--n", "8", "--dot"],
            ["factorize", "--n", "4", "(1,2,4,3)"],
        )
        for argv in commands:
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                result = run_python(["-m", "permmatch", *argv], stdout=write_end)
            finally:
                os.close(write_end)
            assert (result.returncode, result.stderr) == (141, ""), argv

    def test_no_stdout_exits_2_in_one_line(self, tmp_path):
        # a process started with fd 1 closed (`permmatch verify g.txt >&-`)
        # has no sys.stdout: an output error, told before reading any file
        k3 = self.write_graph(tmp_path, "3\n111\n111\n111\n")
        expected = (2, f"error: stdout: {os.strerror(errno.EBADF)}\n")
        for argv in (["verify", k3], ["verify", "/nonexistent/graph.txt"], ["--help"]):
            result = run_python(["-m", "permmatch", *argv], stdout=None,
                                preexec_fn=lambda: os.close(1))
            assert (result.returncode, result.stderr) == expected, argv

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_failed_stdout_write_exits_2_in_one_line(self):
        # any other failed write is an output error: exit 2, as for a usage or
        # parse error, not a traceback and 1, which reads as a mismatch
        expected = (2, f"error: stdout: {os.strerror(errno.ENOSPC)}\n")
        commands = (
            ["gen", "--n", "6", "--density", "0.5", "--seed", "7"],  # fails at the last flush
            ["gamma", "--n", "8", "--dot"],  # fails while printing
        )
        for argv in commands:
            with open("/dev/full", "w") as full:
                result = run_python(["-m", "permmatch", *argv], stdout=full)
            assert (result.returncode, result.stderr) == expected, argv

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_unwritable_stderr_exits_2_silently(self, tmp_path):
        # a refusal, or a failed stdout write, that stderr cannot carry is
        # told by the status alone: 2, not 1, which reads as a mismatch
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n1x\n11\n")
        with open("/dev/full", "w") as full:
            result = run_python(["-m", "permmatch", "verify", str(bad)], stderr=full)
            assert (result.returncode, result.stdout) == (2, "")
            argv = ["gen", "--n", "6", "--density", "0.5", "--seed", "7"]
            result = run_python(["-m", "permmatch", *argv], stdout=full, stderr=full)
            assert result.returncode == 2

    def test_entry_flushes_both_streams_and_ends_the_process(self, tmp_path, capsys):
        # entry() ends the process with os._exit, which runs no line after
        # it and flushes nothing: stdout to a regular file and the stderr
        # file set below are block-buffered, so what they hold got there
        # through entry's own flushes, stdout's and then stderr's
        k5 = self.write_graph(tmp_path, "5\n11111\n11111\n11111\n11111\n11111\n")
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n1x\n11\n")
        out, err = tmp_path / "out.txt", tmp_path / "err.txt"
        runs = [(["gamma", "--n", "8", "--dot"], 0), (["verify", k5], 0), (["verify", str(bad)], 2)]
        for argv, status in runs:
            script = "\n".join([
                "import sys",
                "from permmatch import cli",
                f"sys.stderr = open({str(err)!r}, 'w')",
                f"sys.argv = ['permmatch', *{argv!r}]",
                "cli.entry()",
                "sys.exit(99)",
            ])
            with open(out, "w") as stdout:
                result = run_python(["-c", script], stdout=stdout)
            assert result.returncode == status, argv
            assert main(argv) == status
            expected = capsys.readouterr()
            assert blank_elapsed(out.read_text()) == blank_elapsed(expected.out), argv
            assert err.read_text() == expected.err, argv
        assert expected.err.startswith(f"error: {bad}: ")
        assert out.stat().st_size == 0

    def test_mismatch_would_exit_1(self, monkeypatch, tmp_path, capsys):
        # force a wrong count to confirm the mismatch contract end to end
        import permmatch.harness as harness

        monkeypatch.setattr(harness, "count_via_cvmp", lambda g: -1)
        path = self.write_graph(tmp_path, "2\n11\n11\n")
        assert main(["verify", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["agreement"] is False

    def test_sweep_mismatch_exits_1(self, cvmp_off_on_edge_11, capsys):
        assert main(["sweep", "--n", "2", "--exhaustive"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["agreement"] is False and len(report["mismatches"]) == 8


# sha256 of the stdout of `permmatch ARGV`; a changed byte changes a report.
PINNED = [
    (["gen", "--n", "12", "--density", "0.37", "--seed", "123"],
     "f20f598acb561885590fd6f4f79c11cf27efa6cf233e1efef9d06721cff20822"),
    (["sweep", "--n", "5", "--trials", "20", "--seed", "3"],
     "16f90111b047b9e259912e31dab4bcae1c51c36bfe9d2a3430cbf9cd0ba9636a"),
    (["sweep", "--n", "3", "--exhaustive"],
     "45dd2c1633e08168f06e5580cb42dfccb20379d7cc01b073321bbf6f29782812"),
    (["gamma", "--n", "4", "--stats"],
     "73ead8e83fd68fa764b7d37dccbf81dde8458cc4e5b39279bb34335ca29f959e"),
    (["gamma", "--n", "8", "--dot"],
     "89e02635d587bcf1ffd6c662f1ccd9caa4b3531bccf15c2946b6e11d7a77ac92"),
]


class TestPinnedOutput:
    """Report bytes, as a fresh `python -m permmatch` process writes them."""

    @pytest.mark.parametrize("argv, digest", PINNED, ids=[" ".join(a) for a, _ in PINNED])
    def test_stdout_bytes(self, argv, digest):
        result = run_python(["-m", "permmatch", *argv], text=False)
        assert (result.returncode, result.stderr) == (0, b"")
        assert hashlib.sha256(result.stdout).hexdigest() == digest

    def test_verify_report_bytes_but_the_timings(self, tmp_path):
        path = tmp_path / "g6.txt"
        path.write_text(serialize_graph(random_graph(6, 0.5, 7)))
        result = run_python(["-m", "permmatch", "verify", str(path)], text=False)
        assert (result.returncode, result.stderr) == (0, b"")
        report = result.stdout.decode("ascii")
        assert list(json.loads(report)["elapsed"]) == ["cvmp", "bruteforce", "ryser"]
        digest = hashlib.sha256(blank_elapsed(report).encode()).hexdigest()
        assert digest == "b3c35b48bf82cf1ace7d628762295e98f0d3eef120cf03294cef1fe2ed0f147f"


# One valid, cheap argv for each command and mode; FILE is a graph file.
VALID = [
    ["verify", FILE],
    ["sweep", "--n", "2", "--exhaustive"],
    ["sweep", "--n", "3", "--trials", "2", "--seed", "1"],
    ["gamma", "--n", "3", "--stats"],
    ["gamma", "--n", "3", "--dot"],
    ["factorize", "--n", "4", "(1,2,4,3)"],
    ["gen", "--n", "4", "--density", "0.5", "--seed", "7"],
    *(["count", "--method", m, FILE] for m in ("cvmp", "ryser", "brute")),
]
VALID_IDS = [" ".join("FILE" if a is FILE else a for a in argv) for argv in VALID]


class TestCliParse:
    """The command table's grammar, one case per command and option."""

    @pytest.fixture
    def run(self, tmp_path, capsys):
        f = tmp_path / "g.txt"
        f.write_text("4\n1101\n0111\n1011\n1110\n")

        def run(argv):
            status = main([str(f) if a is FILE else a for a in argv])
            out, err = capsys.readouterr()
            return status, blank_elapsed(out), err

        return run

    def assert_usage_error(self, result, *names):
        status, out, err = result
        assert (status, out) == (2, ""), result
        assert err.startswith("error: ") and err.count("\n") == 1, err
        for name in names:
            assert name in err, (name, err)

    def test_valid_argvs_cover_the_table(self):
        assert {argv[0] for argv in VALID} == set(cli._COMMANDS)

    @pytest.mark.parametrize("argv", VALID, ids=VALID_IDS)
    def test_each_required_option_missing_exits_2(self, argv, run):
        handler, positionals, options, required = cli._COMMANDS[argv[0]]
        assert run(argv)[0] == 0
        for opt in required:
            i = argv.index(opt)
            dropped = argv[:i] + argv[i + 1 + (options[opt] is not None):]
            self.assert_usage_error(run(dropped), argv[0], opt)

    @pytest.mark.parametrize("argv", VALID, ids=VALID_IDS)
    def test_unknown_abbreviated_and_valued_flag_options_exit_2(self, argv, run):
        options = cli._COMMANDS[argv[0]][2]
        self.assert_usage_error(run(argv + ["--bogus"]), argv[0], "--bogus")
        self.assert_usage_error(run(argv + ["-x"]), argv[0], "-x")
        for opt, convert in options.items():
            if opt not in argv:
                continue
            i = argv.index(opt)
            if len(opt) > 4:
                # a unique prefix, which argparse would have completed
                self.assert_usage_error(run(argv[:i] + [opt[:4]] + argv[i + 1:]), opt[:4])
            if convert is None:
                self.assert_usage_error(run(argv[:i] + [opt + "=1"] + argv[i + 1:]), opt)

    @pytest.mark.parametrize("argv", VALID, ids=VALID_IDS)
    def test_spellings_of_one_argv_print_the_same(self, argv, run):
        options = cli._COMMANDS[argv[0]][2]
        expected = run(argv)
        assert expected[0] == 0 and expected[1], expected
        joined, valued, positionals, i = [argv[0]], [argv[0]], [], 1
        while i < len(argv):
            if argv[i] in options and options[argv[i]] is not None:
                joined.append(argv[i] + "=" + argv[i + 1])
                valued += argv[i:i + 2]
                i += 2
            elif argv[i] in options:
                joined.append(argv[i])
                valued.append(argv[i])
                i += 1
            else:
                joined.append(argv[i])
                positionals.append(argv[i])
                i += 1
        # --opt=value for --opt value; options after the positionals, then
        # before them; a repeated option, whose last value wins
        assert run(joined) == expected
        assert run([argv[0], *positionals, *valued[1:]]) == expected
        assert run([argv[0], *valued[1:], *positionals]) == expected
        if "--n" in argv:
            assert run([argv[0], "--n", "9", *argv[1:]]) == expected

    @pytest.mark.parametrize("command", ["verify", "count"])
    def test_double_dash_reads_a_file_named_like_an_option(
        self, command, tmp_path, monkeypatch, run
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-g.txt").write_text("3\n111\n011\n001\n")
        head = [command] + ["--method", "ryser"] * (command == "count")
        self.assert_usage_error(run(head + ["-g.txt"]), "-g.txt")
        status, out, err = run(head + ["--", "-g.txt"])
        assert (status, err) == (0, ""), err
        assert out == run(head + [str(tmp_path / "-g.txt")])[1]
        assert ("1" if command == "count" else '"count_ryser": 1,') in out

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["sweep", "--n", "2"], ["sweep", "--exhaustive", "--trials"]),
            (["sweep", "--n", "2", "--exhaustive", "--trials", "2"], ["--exhaustive", "--trials"]),
            (["gamma", "--n", "3"], ["gamma", "--dot", "--stats"]),
            (["gamma", "--n", "3", "--dot", "--stats"], ["--dot", "--stats"]),
            (["count", "--method", "exact", "/nonexistent/g.txt"], ["count", "--method", "exact"]),
            (["count", "--method", "ryser"], ["count", "FILE"]),
            (["verify", FILE, FILE], ["verify"]),
            (["gen", "--n", "4", "--density", "0.5", "--seed"], ["gen", "--seed"]),
            (["gen", "--n", "4", "--density", "x", "--seed", "1"], ["gen", "--density", "'x'"]),
            ([], ["command", "verify", "count"]),
            (["--n", "3"], ["command"]),
            (["bogus"], ["'bogus'"]),
        ],
    )
    def test_handler_and_shape_errors_exit_2(self, argv, names, run):
        self.assert_usage_error(run(argv), *names)

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_anywhere_prints_the_usage(self, flag, run):
        status, usage, err = run([flag])
        assert (status, err) == (0, "")
        for command in cli._COMMANDS:
            assert re.search(rf"^  {command} ", usage, re.M), command
        for argv in [[command, flag] for command in cli._COMMANDS] + [VALID[-1] + [flag]]:
            assert run(argv) == (0, usage, ""), argv
        assert run([flag, "bogus"]) == (0, usage, "")

    def test_count_method_texts_name_the_table(self, run):
        # the usage line and the refusal are written out; each names exactly
        # the methods of METHODS
        usage = re.search(r"^  count --method (\S+) FILE ", cli._USAGE, re.M).group(1)
        assert usage == "cvmp|ryser|brute"
        assert set(usage.split("|")) == set(METHODS)
        status, out, err = run(["count", "--method", "exact", FILE])
        assert (status, out) == (2, "")
        assert err == "error: count --method takes cvmp, ryser or brute, not 'exact'\n"
        named = re.search(r"takes (.*), not ", err).group(1)
        assert set(re.split(r", | or ", named)) == set(METHODS)


# Values of --n that are not decimal ints, among them "٣" and "1_0", which
# int() would read as 3 and 10.
BAD_N = ["x", "", "1.5", "\u0663", "1_0"]


def n_values(runs, refused):
    """--n for one stage: values up to `runs`, each cheap at that stage,
    values past the stage's limit, which its guard refuses before any work,
    and values that are not ints."""
    return st.sampled_from(
        [str(n) for n in range(-2, runs + 1)] + [refused, "1000000000", str(10**20)] + BAD_N
    )


@st.composite
def cli_calls(draw):
    """An argv from the CLI grammar and the bytes of the file it names, or
    None for a missing file.  Every drawn run is small: n <= 6, trials <= 3,
    exhaustive sweeps at n <= 3, graph files of n <= 6."""
    seed = st.integers(-2, 2**70).map(str)
    argv = list(draw(st.one_of(
        st.just(["verify", FILE]),
        st.sampled_from(["cvmp", "ryser", "brute", "exact"]).map(
            lambda m: ["count", "--method", m, FILE]),
        st.tuples(n_values(3, "5"), st.lists(seed, max_size=1)).map(
            lambda a: ["sweep", "--n", a[0], "--exhaustive"] + ["--seed", *a[1]] * bool(a[1])),
        st.tuples(n_values(6, "8"), st.integers(-1, 3).map(str), st.lists(seed, max_size=1)).map(
            lambda a: ["sweep", "--n", a[0], "--trials", a[1]] + ["--seed", *a[2]] * bool(a[2])),
        n_values(8, "9").map(lambda n: ["gamma", "--n", n, "--dot"]),
        n_values(6, "13").map(lambda n: ["gamma", "--n", n, "--stats"]),
        st.tuples(n_values(6, "10"), st.text("0123456789(), \t\u00a0\u0663", max_size=20)).map(
            lambda a: ["factorize", "--n", *a]),
        st.tuples(
            n_values(6, "25"),
            st.sampled_from(["0", "0.5", "1", "1.5", "-0.1", "nan", "inf", "x"]),
            seed,
        ).map(lambda a: ["gen", "--n", a[0], "--density", a[1], "--seed", a[2]]),
    )))
    # one token left out: a missing value, flag or command, never a larger run
    if draw(st.sampled_from([False, False, True])):
        del argv[draw(st.sampled_from(range(len(argv))))]
    graph = st.integers(1, 6).flatmap(lambda n: st.lists(
        st.integers(0, (1 << n) - 1), min_size=n, max_size=n,
    ).map(lambda rows: serialize_graph(BipartiteGraph(n, rows)).encode()))
    data = draw(st.one_of(
        graph,
        st.text("012\n\r \v", max_size=30).map(str.encode),
        st.binary(max_size=20),
        st.none(),
    ))
    return argv, data


class TestCliGrammar:
    @settings(max_examples=200, deadline=None)
    @given(cli_calls())
    def test_exit_status_and_no_traceback(self, call):
        argv, data = call
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.txt")
            if data is not None:
                with open(path, "wb") as fh:
                    fh.write(data)
            argv = [path if a is FILE else a for a in argv]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main(argv)
        assert "Traceback" not in err.getvalue()
        assert status in (0, 1, 2), argv
        if status == 2:
            assert out.getvalue() == "", argv
            assert err.getvalue().startswith("error: "), argv
