"""Harness counting, sweeps, reports, and the command-line surface."""

import contextlib
import errno
import hashlib
import io
import itertools
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

from permmatch import cli, harness
from permmatch._guards import GRAPH_BYTES, LIMITS, METHODS
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
    path_to_matching,
    unconstrained_walk_count,
)
from permmatch.harness import count_via_cvmp, sweep, verify
from permmatch.pcg import random_graph

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
    """A verify report with its timing values, the only varying bytes, read as
    0; their keys and order stay.  Other output is returned as it is."""
    head, timed, timings = report.partition('"elapsed": {')
    return head + timed + re.sub(r": [^,\n]+", ": 0", timings)


# Where a path to a graph file goes in an argv.
FILE = object()


def place(arg, tmp_path):
    """An argv entry as main reads it: bytes stand for a graph file that
    holds them, written to `tmp_path`."""
    if not isinstance(arg, bytes):
        return arg
    path = tmp_path / "g.txt"
    path.write_bytes(arg)
    return str(path)


def complete(n):
    """The bytes of K_n's graph file."""
    return serialize_graph(BipartiteGraph.complete(n)).encode()


def gen(n, density, seed):
    """The bytes of the graph file `gen --n N --density P --seed S` prints."""
    return serialize_graph(random_graph(n, density, seed)).encode()


def as_pinned(out, expected):
    """out as a row states it: verify's timings read as 0, and where the row
    holds "sha256:" and a digest, that of the text in its place."""
    out = blank_elapsed(out)
    if expected.startswith("sha256:"):
        return "sha256:" + hashlib.sha256(out.encode()).hexdigest()
    return out


# The graph files of the output rows, by the names their ids show.
GRAPHS = {
    "K3": complete(3),
    "crlf": b"2\r\n11\r\n01\r\n",
    "gen-5-0.6-77": gen(5, 0.6, 77),
    "gen-9-0.5-7": gen(9, 0.5, 7),
    "gen-6-0.5-7": gen(6, 0.5, 7),
    # the graph file of VALID's argvs: J_4 less one permutation's cells, 9 matchings
    "FILE": b"4\n1101\n0111\n1011\n1110\n",
}

# Rows of OUTPUTS that also run in a fresh `python -m permmatch`, stdout a
# pipe, as `permmatch gamma --n 8 --dot | wc -l` reads it: entry() writes
# the bytes main prints.
FRESH_OUTPUTS = [
    (["gen", "--n", "12", "--density", "0.37", "--seed", "123"],
     "sha256:f20f598acb561885590fd6f4f79c11cf27efa6cf233e1efef9d06721cff20822"),
    (["sweep", "--n", "5", "--trials", "20", "--seed", "3"],
     "sha256:16f90111b047b9e259912e31dab4bcae1c51c36bfe9d2a3430cbf9cd0ba9636a"),
    (["sweep", "--n", "3", "--exhaustive"],
     "sha256:45dd2c1633e08168f06e5580cb42dfccb20379d7cc01b073321bbf6f29782812"),
    (["gamma", "--n", "4", "--stats"],
     "sha256:73ead8e83fd68fa764b7d37dccbf81dde8458cc4e5b39279bb34335ca29f959e"),
    (["gamma", "--n", "8", "--dot"],
     "sha256:89e02635d587bcf1ffd6c662f1ccd9caa4b3531bccf15c2946b6e11d7a77ac92"),
    # elapsed holds cvmp, bruteforce and ryser, in that order
    (["verify", GRAPHS["gen-6-0.5-7"]],
     "sha256:15bb4f7c7ff4601c80114ae6625e28ef67908d5f61c92190b5c956359f26fe04"),
]

# One valid, cheap argv for each command and mode, and what it prints, as
# OUTPUTS states it: these are OUTPUTS rows too.
VALID_OUTPUTS = [
    (["verify", GRAPHS["FILE"]],
     "sha256:53fbf04dd96d421ab3596aba97c624c0f03c24700f41c16cccb5844ccfc22a92"),
    (["sweep", "--n", "2", "--exhaustive"],
     "sha256:10d4629e85cccfe87c48ffbd48618fe86f680dfcbe7bdad78d13306ee094fbaf"),
    (["sweep", "--n", "3", "--trials", "2", "--seed", "1"],
     "sha256:386d26f50d0b6ad4ead7f8b7fe770989fee547fed89852f55c55972790fb1bc0"),
    (["gamma", "--n", "3", "--stats"],
     "sha256:caf247987fdd9b4b8ec021f68103305f4ec33e75fa92c02d8616cc430a2cf990"),
    (["gamma", "--n", "3", "--dot"],
     "sha256:3e508e5049414530b4d904fbf58b9046291b5f92dd1c61fe7a71ec17b62446e5"),
    (["factorize", "--n", "4", "(1,2,4,3)"], "I*(3,4)*(2,4)*(1,2)\n(12,31)(24,32)(34,43)(44,44)\n"),
    (["gen", "--n", "4", "--density", "0.5", "--seed", "7"], "4\n0001\n1010\n0111\n1100\n"),
    *((["count", "--method", method, GRAPHS["FILE"]], "9\n")
      for method in ("cvmp", "ryser", "brute")),
]

# What `permmatch ARGV` prints, exit 0 and nothing on stderr: the text, or
# "sha256:" and its digest where it is long (see as_pinned).  Bytes in argv
# are a graph file's.  A new output check is a row here.
OUTPUTS = [
    # K_3: 6 by each method; the CRLF file is read as "2\n11\n01\n", 1 matching
    (["verify", GRAPHS["K3"]],
     "sha256:13ee0db6aa72d7c8ecb474468f37473220bbb43fd369ff8a16e9da48b215935f"),
    (["verify", GRAPHS["crlf"]],
     "sha256:b201351c079ee7969feb7b1cbebe8097810924cf72d08bf3cc450ed3f8d3233c"),
    # each method's count; at n = 9 brute force runs over all of S_9
    *((["count", "--method", method, GRAPHS[name]], count)
      for name, count in [("gen-5-0.6-77", "8\n"), ("gen-9-0.5-7", "460\n")]
      for method in ("cvmp", "ryser", "brute")),
    (["sweep", "--n", "4", "--trials", "20", "--seed", "3"],
     "sha256:0d2d4a68181fb07f66ea5b8156b92dec4927472057541df5c22860abb8070e7b"),
    (["gamma", "--n", "4", "--dot"],
     "sha256:8fe87ac7f8f7f95a141c7069f3bd566bb0e7320330f4ec983cf3edfe7a7d80e5"),
    # the factorization, then the path
    (["factorize", "--n", "4", "(1,3,2,4)"], "I*(3,4)*(2,4)*(1,3)\n(13,41)(24,32)(34,43)(44,44)\n"),
    (["factorize", "--n", "3", "()"], "I*I*I\n(11,11)(22,22)(33,33)\n"),
    (["factorize", "--n", "5", "(1,3,2)(4,5)"],
     "I*(4,5)*I*(2,3)*(1,3)\n(13,21)(23,32)(33,33)(45,54)(55,55)\n"),
    (["gen", "--n", "3", "--density", "1", "--seed", "0"], "3\n111\n111\n111\n"),
    (["gen", "--n", "5", "--density", "0.5", "--seed", "11"],
     "5\n11011\n01100\n10011\n00000\n01011\n"),
    # an int option is read up to 19 characters, leading zeros and all
    (["gen", "--n", "3", "--density", "0.5", "--seed", "9223372036854775807"],
     "3\n110\n110\n000\n"),
    *((["gen", "--n", "3", "--density", "0.5", "--seed", seed], "3\n000\n110\n100\n")
      for seed in ["7", "0" * 18 + "7"]),
    *(([flag], "sha256:f459b594d19cd4a3ee2497d6e9bd3c9d2dce692655e527e7df271228f19cfa79")
      for flag in ["-h", "--help"]),
    *FRESH_OUTPUTS,
    *VALID_OUTPUTS,
]
NAMED = {data: name for name, data in GRAPHS.items()}
OUTPUT_IDS = [" ".join(NAMED.get(arg, arg) for arg in argv) for argv, _ in OUTPUTS]
VALID = [argv for argv, _ in VALID_OUTPUTS]
VALID_IDS = [" ".join(NAMED.get(arg, arg) for arg in argv) for argv in VALID]


@pytest.fixture
def cvmp_off_on_edge_11(monkeypatch):
    """The harness's path count, one too high on graphs with edge (1,1)."""
    import permmatch.harness as harness

    monkeypatch.setattr(
        harness, "count_via_cvmp", lambda g: count_via_cvmp(g) + g.has_edge(1, 1)
    )


class TestCountViaCvmp:
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

    def test_level_states_are_the_papers_prefixes(self):
        # The level pass's entry for open columns F after level j counts the
        # prefixes psi_1..psi_j of valid paths whose rows 1..j lie in g and
        # leave F open.  With rows j+1..n replaced by F, only F completes
        # them, in (n - j)! ways, so count_via_cvmp reads that one entry.
        for n in range(1, 6):
            paths = [([x.k for x in p.nodes], path_to_matching(p).images)
                     for p in enumerate_cvmps(n)]
            for seed in range(8):
                g = random_graph(n, 0.6, 900 + seed)
                for j in range(n + 1):
                    prefixes = {tuple(ks[:j]): images[:j] for ks, images in paths}
                    for cols in itertools.combinations(range(1, n + 1), n - j):
                        kept = sum(
                            1 for rows in prefixes.values()
                            if all(g.has_edge(v, w) for v, w in enumerate(rows, start=1))
                            and set(rows).isdisjoint(cols)
                        )
                        free = sum(1 << (w - 1) for w in cols)
                        h = BipartiteGraph(n, [*g.rows[:j], *[free] * (n - j)])
                        assert kept * math.factorial(n - j) == count_via_cvmp(h), (n, seed, cols)


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


class TestSweep:
    def test_exhaustive_n2(self):
        report = sweep(2)
        assert report["instances"] == 16
        assert report["agreement"] and report["mismatches"] == []

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
        assert harness._json(obj) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize("obj", [
        (1, 2), {1: "a"}, {"a": b"x"}, [{1, 2}], {"a": [object()]},
        "\u00e9", {"\u00e9": 1}, math.nan, [math.inf], {"a": -math.inf},
    ])
    def test_report_writer_refuses_what_reports_never_hold(self, obj):
        with pytest.raises(TypeError):
            harness._json(obj)

    @pytest.mark.parametrize("argv, out", OUTPUTS, ids=OUTPUT_IDS)
    def test_outputs_print_exact_bytes(self, argv, out, tmp_path, capsys):
        # main(argv) exits 0, prints `out` and nothing on stderr; a row of
        # FRESH_OUTPUTS prints the same through `python -m permmatch`
        fresh = (argv, out) in FRESH_OUTPUTS
        argv = [place(arg, tmp_path) for arg in argv]
        assert main(argv) == 0
        printed = [capsys.readouterr()]
        if fresh:
            result = run_python(["-m", "permmatch", *argv], text=False)
            assert result.returncode == 0
            printed.append((result.stdout.decode("ascii"), result.stderr.decode("ascii")))
        for stdout, stderr in printed:
            assert (as_pinned(stdout, out), stderr) == (out, "")

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
            # float() reads "nan" and "inf" too; the range check refuses them
            *((["gen", "--n", "3", "--density", density, "--seed", "0"],
               "density must lie in [0,1]") for density in ["2", "nan", "inf"]),
            # "_" is refused before float() reads it, which would read 10
            (["gen", "--n", "3", "--density", "1_0", "--seed", "0"],
             "gen: --density takes float values, not '1_0'"),
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
            # a point past 19 digits is named by its length, not echoed
            (["factorize", "--n", "4", "(1," + "2" * 5000 + ")"],
             "point of 5000 digits out of range 1..4 at position 3"),
            # what _read_graph refuses: the path, then the OS's reason, the
            # size bound's, the ASCII decoder's or the parser's
            (["verify", "/"], f"/: {os.strerror(errno.EISDIR)}"),
            (["verify", "/dev/zero"], "/dev/zero: a graph file holds at most 1048576 bytes"),
            (["verify", b"x" * (GRAPH_BYTES + 1)],
             "{path}: a graph file holds at most 1048576 bytes"),
            (["verify", b"x" * GRAPH_BYTES],
             "{path}: bad header line of 1048576 characters; n has at most 19 digits"),
            (["verify", "\u0662\n1\n1\n".encode()],  # ARABIC-INDIC DIGIT TWO
             "{path}: 'ascii' codec can't decode byte 0xd9 in position 0: "
             "ordinal not in range(128)"),
            (["verify", b"2\n1x\n11\n"], "{path}: row 1 has characters outside 0/1: ['x']"),
            (["verify", b"2\n111\n11\n"], "{path}: row 1 has 3 characters, expected 2"),
            (["verify", b"1" * 5000 + b"\n1\n"],
             "{path}: bad header line of 5000 characters; n has at most 19 digits"),
            (["verify", b"02\n11\n11\n"], "{path}: bad header line '02'; expected decimal n"),
            (["verify", b"1_0\n" + (b"1" * 10 + b"\n") * 10],
             "{path}: bad header line '1_0'; expected decimal n"),
            (["verify", b"+2\n11\n11\n"], "{path}: bad header line '+2'; expected decimal n"),
            # only "\n" and "\r\n" end a line
            (["verify", b"2\v11\f01\n"],
             "{path}: bad header line '2\\x0b11\\x0c01'; expected decimal n"),
            (["verify", b"2\r11\r01\r"],
             "{path}: bad header line '2\\r11\\r01\\r'; expected decimal n"),
            (["verify", b"\x1f2\x1f\n11\n01\n"],
             "{path}: bad header line '\\x1f2\\x1f'; expected decimal n"),
            # a graph past a counter's guard; past Ryser's too, no message
            # points to another command
            (["verify", complete(25)], "no counting method is in guard at n=25: "
             "cvmp n <= 9, brute force n <= 9, Ryser n <= 24"),
            *((["count", "--method", method, complete(n)],
               f"{stage} is guarded at 1 <= n <= 9{hint}")
              for method, stage in [("brute", "brute force"), ("cvmp", "cvmp")]
              for n, hint in [(10, "; use `count --method ryser`"), (25, "")]),
            # refused before the work: the marked function fails the row if it runs
            *(pytest.param(["gen", "--n", n, "--density", "0.5", "--seed", "1"],
                           "gen is guarded at 1 <= n <= 24",
                           marks=pytest.mark.never("permmatch.pcg._uniform_stream"))
              for n in ["25", "1000000"]),
            *(pytest.param(["factorize", "--n", n, "()"], "factorize is guarded at 1 <= n <= 9",
                           marks=pytest.mark.never("permmatch.perms.parse_cycles"))
              for n in ["10", "1000000000"]),
            pytest.param(["gamma", "--n", "12", "--dot"], "DOT export is guarded at 1 <= n <= 8",
                         marks=pytest.mark.never("permmatch.gamma.build_gamma")),
            # the argv's shape and the handlers' choices; the method is
            # checked before the file is read
            (["sweep", "--n", "2", "--exhaustive", "--trials", "2"],
             "sweep takes exactly one of --exhaustive and --trials"),
            (["gamma", "--n", "3"], "gamma takes exactly one of --dot and --stats"),
            (["gamma", "--n", "3", "--dot", "--stats"],
             "gamma takes exactly one of --dot and --stats"),
            (["count", "--method", "exact", "/nonexistent/g.txt"],
             "count --method takes cvmp, ryser or brute, not 'exact'"),
            (["count", "--method", "ryser"], "count: missing FILE"),
            (["verify", complete(3), complete(3)], "verify: unexpected argument '{path}'"),
            (["gen", "--n", "4", "--density", "0.5", "--seed"], "gen: --seed needs a value"),
            (["gen", "--n", "4", "--density", "x", "--seed", "1"],
             "gen: --density takes float values, not 'x'"),
            ([], "expected a command, one of verify, sweep, gamma, factorize, gen, count; got ''"),
            (["--n", "3"],
             "expected a command, one of verify, sweep, gamma, factorize, gen, count; got '--n'"),
            (["bogus"],
             "expected a command, one of verify, sweep, gamma, factorize, gen, count; got 'bogus'"),
            # new rows go last, so that each earlier row keeps its argvN id
            (["sweep", "--n", "2"], "sweep takes exactly one of --exhaustive and --trials"),
            # float() would skip the blanks and read the Arabic-Indic digits
            *((["gen", "--n", "3", "--density", density, "--seed", "0"],
               f"gen: --density takes float values, not '{density}'")
              for density in [" 0.5", "0.5 ", "\u0660.\u0665"]),
            pytest.param(["count", "--method", "ryser", complete(25)],
                         "Ryser is guarded at 1 <= n <= 24",
                         marks=pytest.mark.never("permmatch.kernels._gray_sum")),
        ],
    )
    def test_refusals_print_one_exact_line(
        self, argv, message, request, monkeypatch, tmp_path, capsys
    ):
        # what main(argv) refuses on its own: exit 2, nothing on stdout, and
        # one stderr line.  Bytes in argv are a graph file's, whose path
        # replaces {path}; a verify row whose message starts with the path is
        # _read_graph's refusal, which count prints alike.
        mark = request.node.get_closest_marker("never")
        if mark:
            def never(*args):
                raise AssertionError(f"{mark.args[0]} ran, but the refusal comes first")

            monkeypatch.setattr(mark.args[0], never)
        argv = [place(arg, tmp_path) for arg in argv]
        last = argv[-1] if argv else ""
        message = message.replace("{path}", last)
        runs = [argv]
        if argv[:1] == ["verify"] and message.startswith(last + ": "):
            runs.append(["count", "--method", "ryser", *argv[1:]])
        for run in runs:
            assert main(run) == 2, run
            assert capsys.readouterr() == ("", f"error: {message}\n"), run

    def test_a_graph_file_is_read_to_one_byte_past_the_bound(self, monkeypatch, capsys):
        # /dev/zero never ends: the reader takes GRAPH_BYTES + 1 bytes, then refuses
        taken = []

        def counting_open(*args):
            fh = open(*args)
            read = fh.read

            def counted(*size):
                data = read(*size)
                taken.append(len(data))
                return data

            fh.read = counted
            return fh

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        assert main(["verify", "/dev/zero"]) == 2
        assert capsys.readouterr() == (
            "", "error: /dev/zero: a graph file holds at most 1048576 bytes\n")
        assert sum(taken) == GRAPH_BYTES + 1

    # what verify prints for a graph at n = 10-24, which only Ryser's guard admits
    ONLY_RYSER = ("error: only one counting method is in guard at n={n} (cvmp n <= 9, "
                  "brute force n <= 9, Ryser n <= 24) and verify needs two to compare; "
                  "use `count --method ryser` for the count\n")

    def test_verify_with_only_ryser_in_guard_exits_2(self, tmp_path, capsys):
        path = self.write_graph(tmp_path, serialize_graph(random_graph(12, 0.5, 1)))
        assert main(["verify", path]) == 2
        assert capsys.readouterr() == ("", self.ONLY_RYSER.format(n=12))

    @pytest.mark.parametrize("n", [12, 24])
    def test_verify_refuses_before_counting(self, n, monkeypatch, tmp_path, capsys):
        def never(g):
            raise AssertionError("counted a graph that verify refuses")

        for _, _, module, counter in METHODS.values():
            monkeypatch.setattr(sys.modules["permmatch." + module], counter, never)
        path = self.write_graph(tmp_path, serialize_graph(BipartiteGraph.complete(n)))
        assert main(["verify", path]) == 2
        assert capsys.readouterr() == ("", self.ONLY_RYSER.format(n=n))

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

    def test_entry_point_in_a_fresh_process(self, tmp_path):
        # main is what the other tests call; this runs the real entry point,
        # entry(), as `python -m permmatch`, which prints main's refusals
        # (and, in FRESH_OUTPUTS' rows, its reports) byte for byte
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n1x\n11\n")
        for argv, err in [
            (["verify", str(bad)], f"error: {bad}: row 1 has characters outside 0/1: ['x']\n"),
            (["sweep", "--n", "3"], "error: sweep takes exactly one of --exhaustive and --trials\n"),
        ]:
            result = run_python(["-m", "permmatch", *argv])
            assert (result.returncode, result.stdout, result.stderr) == (2, "", err)

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

    def test_interrupted_count_exits_130(self, tmp_path):
        # SIGINT half a second into K_24's seconds-long count: the command
        # exits 130 at once, as a shell reports SIGINT, with one line and
        # no traceback
        path = self.write_graph(tmp_path, serialize_graph(BipartiteGraph.complete(24)))
        count = subprocess.Popen(
            [sys.executable, "-m", "permmatch", "count", "--method", "ryser", path],
            env=python_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        with count:
            try:
                time.sleep(0.5)
                count.send_signal(signal.SIGINT)
                sent = time.monotonic()
                out, err = count.communicate(timeout=30)
                assert time.monotonic() - sent < 0.5
                assert (count.returncode, out, err) == (130, "", "error: interrupted\n")
            finally:
                count.kill()  # a no-op once it has exited

    def test_entry_flushes_both_streams_and_ends_the_process(self, tmp_path):
        # entry() ends the process with os._exit, which runs no line after
        # it and flushes nothing: stdout to a regular file and the stderr
        # file set below are block-buffered, so what they hold got there
        # through entry's own flushes, stdout's and then stderr's
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n1x\n11\n")
        out, err = tmp_path / "out.txt", tmp_path / "err.txt"
        pinned = dict(zip(OUTPUT_IDS, [expected for _, expected in OUTPUTS]))
        runs = [
            (["gamma", "--n", "8", "--dot"], 0, pinned["gamma --n 8 --dot"], ""),
            (["verify", place(GRAPHS["gen-6-0.5-7"], tmp_path)], 0,
             pinned["verify gen-6-0.5-7"], ""),
            (["verify", str(bad)], 2, "", f"error: {bad}: row 1 has characters outside 0/1: ['x']\n"),
        ]
        for argv, status, expected_out, expected_err in runs:
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
            assert as_pinned(out.read_text(), expected_out) == expected_out, argv
            assert err.read_text() == expected_err, argv

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


# The least digit limit CPython accepts: int() refuses longer decimal strings.
LOWERED = ["-X", "int_max_str_digits=640"]

# A number longer than sys.maxsize's 19 digits is refused by its length
# before int() reads it, so the interpreter's digit limit changes no byte
# and nothing long is echoed; bytes are a graph file's, as in the refusal table.
LONG_NUMBERS = [
    (["factorize", "--n", "4", "(1," + "2" * 1000 + ")"],
     "point of 1000 digits out of range 1..4 at position 3"),
    (["factorize", "--n", "4", "(1," + "0" * 24 + "2)"],
     "point of 25 digits out of range 1..4 at position 3"),
    (["factorize", "--n", "1" * 1000, "()"],
     "factorize: --n takes int values, not one of 1000 characters"),
    (["gen", "--n", "3", "--density", "0.5", "--seed", "7" * 5000],
     "gen: --seed takes int values, not one of 5000 characters"),
    *((["verify", header], f"{{path}}: bad header line of {length} characters; "
       "n has at most 19 digits")
      for header, length in [(b"x" * 100_000 + b"\n1\n", 100_000), (b"1" * 4300 + b"\n1\n", 4300),
                             (b"1" * 4300 + b"\n", 4300), (b"1" * 5000 + b"\n1\n", 5000),
                             (b"1" * 1000 + b"\n1\n", 1000)]),
    (["verify", str(2**63).encode() + b"\n1\n"],
     "{path}: row 1 has 1 characters, expected 9223372036854775808"),
]

# A fresh `python -m permmatch`: its interpreter flags, stdio, argv, exit
# status and stderr, None where stderr is not a pipe.  Each long number runs
# at the default digit limit and at LOWERED.
FRESH = [
    *((flags, "pipes", argv, 2, f"error: {message}\n")
      for argv, message in LONG_NUMBERS for flags in ([], LOWERED)),
    # the reader quit before the output was written, as `| head -1` does;
    # 141 is the status a shell reports for a process SIGPIPE ended
    *(([], "stdout to a closed pipe", argv, 141, "") for argv in [
        ["verify", complete(3)], ["sweep", "--n", "2", "--exhaustive"],
        ["gamma", "--n", "8", "--dot"], ["factorize", "--n", "4", "(1,2,4,3)"],
    ]),
    # started with fd 1 closed (`>&-`), so with no sys.stdout: an output
    # error, told before any file is read
    *(([], "no fd 1", argv, 2, f"error: stdout: {os.strerror(errno.EBADF)}\n")
      for argv in [["verify", complete(3)], ["verify", "/nonexistent/graph.txt"], ["--help"]]),
    # any other failed write is an output error: 2, as for a usage or parse
    # error, not a traceback and 1, which reads as a mismatch; gen fails at
    # the last flush, gamma while printing
    *(([], "stdout to /dev/full", argv, 2, f"error: stdout: {os.strerror(errno.ENOSPC)}\n")
      for argv in [["gen", "--n", "6", "--density", "0.5", "--seed", "7"],
                   ["gamma", "--n", "8", "--dot"]]),
    # a refusal, or a failed stdout write, that stderr cannot carry is told
    # by the status alone
    ([], "stderr to /dev/full", ["verify", b"2\n1x\n11\n"], 2, None),
    ([], "both to /dev/full", ["gen", "--n", "6", "--density", "0.5", "--seed", "7"], 2, None),
]


class TestFreshInterpreter:
    """What main cannot see: the interpreter's flags and its stdio."""

    @pytest.mark.parametrize("flags, stdio, argv, status, err", FRESH)
    def test_a_fresh_interpreter_prints_one_exact_line(
        self, flags, stdio, argv, status, err, tmp_path
    ):
        # the exit status, nothing on stdout where it is a pipe, and the
        # exact stderr where it is one
        argv = [place(arg, tmp_path) for arg in argv]
        streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
        with contextlib.ExitStack() as stack:
            if stdio == "stdout to a closed pipe":
                read_end, write_end = os.pipe()
                os.close(read_end)
                stack.callback(os.close, write_end)
                streams["stdout"] = write_end
            elif stdio == "no fd 1":
                streams.update(stdout=None, preexec_fn=lambda: os.close(1))
            elif stdio != "pipes":
                if not os.path.exists("/dev/full"):
                    pytest.skip("no /dev/full")
                full = stack.enter_context(open("/dev/full", "w"))
                named = ["stdout", "stderr"] if stdio.startswith("both") else [stdio.split()[0]]
                streams.update(dict.fromkeys(named, full))
            result = run_python([*flags, "-m", "permmatch", *argv], **streams)
        out = "" if streams["stdout"] is subprocess.PIPE else None
        if err is not None:
            err = err.replace("{path}", argv[-1])
        assert (result.returncode, result.stdout, result.stderr) == (status, out, err)


# What a cold command compiles: one row per VALID argv, then --help, a
# refusal (BAD is a graph file with a bad row) and gamma --stats past cvmp's
# guard, where harness only writes the report.  A row is the argv, its exit
# status and the lazily registered modules (see permmatch/__init__.py) it
# compiles past the eager four; only gamma and factorize run the paper's
# construction in gamma and perms, and only the commands that count by Ryser
# compile kernels.
COMPILES = [
    ("verify FILE", 0, ["harness", "kernels"]),
    ("sweep --n 2 --exhaustive", 0, ["harness", "kernels"]),
    ("sweep --n 3 --trials 2 --seed 1", 0, ["harness", "kernels", "pcg"]),
    ("gamma --n 3 --stats", 0, ["gamma", "harness", "perms"]),
    ("gamma --n 3 --dot", 0, ["gamma", "perms"]),
    ("factorize --n 4 (1,2,4,3)", 0, ["gamma", "perms"]),
    ("gen --n 4 --density 0.5 --seed 7", 0, ["pcg"]),
    ("count --method cvmp FILE", 0, ["harness"]),
    ("count --method ryser FILE", 0, ["kernels"]),
    ("count --method brute FILE", 0, []),
    ("--help", 0, []),
    ("verify BAD", 2, []),
    ("gamma --n 10 --stats", 0, ["gamma", "harness", "perms"]),
]
EAGER = ["_guards", "_record", "bipartite", "cli"]
# Loaded by no command: reports are written without json, graph files are
# decoded by the built-in ASCII decoder, no module needs __future__, random
# graphs come from the package's own PCG64 stream, nothing needs dataclasses
# or the inspect module it pulls in, and the command line is read without
# argparse and the gettext and locale modules it imports.
UNLOADED = ["numpy", "dataclasses", "inspect", "json", "__future__", "encodings.ascii",
            "argparse", "gettext", "locale"]


class TestCompiles:
    """What each command compiles and loads, one fresh interpreter a row."""

    @pytest.mark.parametrize("row, status, lazy", COMPILES, ids=[r for r, _, _ in COMPILES])
    def test_a_cold_command_compiles_its_row(self, row, status, lazy, tmp_path):
        # A tracer reads the six measured modules from sys.modules right
        # after `import permmatch.cli`, so all six are registered there, and
        # the lazy ones are compiled on first attribute access.  type() reads
        # no attribute, so checking loads nothing; `-X importtime` never lists
        # a lazily compiled module, so it cannot serve here.
        files = {"FILE": tmp_path / "g.txt", "BAD": tmp_path / "bad.txt"}
        files["FILE"].write_bytes(GRAPHS["FILE"])
        files["BAD"].write_text("2\n1x\n11\n")
        argv = [str(files[a]) if a in files else a for a in row.split()]
        script = "\n".join([
            "import sys",
            f"unloaded = set({UNLOADED!r})",
            "loaded = unloaded & set(sys.modules)",
            "assert not loaded, f'{sorted(loaded)} loaded at start-up'",
            "import contextlib, io, types",
            "import permmatch.cli",
            "measured = ('cli', 'bipartite', 'perms', 'gamma', 'harness', 'kernels')",
            "missing = [m for m in measured if 'permmatch.' + m not in sys.modules]",
            "assert not missing, f'{missing} not registered'",
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):",
            f"    status = permmatch.cli.main({argv!r})",
            f"assert status == {status}, status",
            "compiled = sorted(name.removeprefix('permmatch.') for name, m in sys.modules.items()",
            "                  if name.startswith('permmatch.') and type(m) is types.ModuleType)",
            f"assert compiled == {sorted(EAGER + lazy)!r}, compiled",
            "loaded = unloaded & set(sys.modules)",
            "assert not loaded, f'{sorted(loaded)} loaded by the command'",
        ])
        result = run_python(["-c", script])
        assert result.returncode == 0, result.stderr


class TestCliParse:
    """The command table's grammar, one case per command and option."""

    @pytest.fixture
    def run(self, tmp_path, capsys):
        def run(argv):
            status = main([place(arg, tmp_path) for arg in argv])
            out, err = capsys.readouterr()
            return status, blank_elapsed(out), err

        return run

    def assert_usage_error(self, result, line):
        assert result == (2, "", f"error: {line}\n")

    def test_valid_argvs_cover_the_table(self):
        assert {argv[0] for argv in VALID} == set(cli._COMMANDS)
        assert [row for row, _, _ in COMPILES[:len(VALID)]] == VALID_IDS

    @pytest.mark.parametrize("argv", VALID, ids=VALID_IDS)
    def test_each_required_option_missing_exits_2(self, argv, run):
        handler, positionals, options, required = cli._COMMANDS[argv[0]]
        assert run(argv)[0] == 0
        for opt in required:
            i = argv.index(opt)
            dropped = argv[:i] + argv[i + 1 + (options[opt] is not None):]
            self.assert_usage_error(run(dropped), f"{argv[0]}: missing {opt}")

    @pytest.mark.parametrize("argv", VALID, ids=VALID_IDS)
    def test_unknown_abbreviated_and_valued_flag_options_exit_2(self, argv, run):
        command, options = argv[0], cli._COMMANDS[argv[0]][2]
        for unknown in ["--bogus", "-x"]:
            self.assert_usage_error(run(argv + [unknown]), f"{command}: unknown option '{unknown}'")
        for opt, convert in options.items():
            if opt not in argv:
                continue
            i = argv.index(opt)
            if len(opt) > 4:
                # a unique prefix, which argparse would have completed
                self.assert_usage_error(run(argv[:i] + [opt[:4]] + argv[i + 1:]),
                                        f"{command}: unknown option '{opt[:4]}'")
            if convert is None:
                self.assert_usage_error(run(argv[:i] + [opt + "=1"] + argv[i + 1:]),
                                        f"{command}: {opt} takes no value")

    @pytest.mark.parametrize("argv, out", VALID_OUTPUTS, ids=VALID_IDS)
    def test_spellings_of_one_argv_print_the_same(self, argv, out, run):
        options = cli._COMMANDS[argv[0]][2]
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
        # before them; a repeated option, whose last value wins.  Each prints
        # the row's output, as the argv itself does in OUTPUTS.
        spellings = [joined, [argv[0], *positionals, *valued[1:]],
                     [argv[0], *valued[1:], *positionals]]
        if "--n" in argv:
            spellings.append([argv[0], "--n", "9", *argv[1:]])
        for spelling in spellings:
            status, printed, err = run(spelling)
            assert (status, as_pinned(printed, out), err) == (0, out, ""), spelling

    @pytest.mark.parametrize("command", ["verify", "count"])
    def test_double_dash_reads_a_file_named_like_an_option(
        self, command, tmp_path, monkeypatch, run
    ):
        # the upper triangle: 1 matching
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-g.txt").write_text("3\n111\n011\n001\n")
        head = [command] + ["--method", "ryser"] * (command == "count")
        self.assert_usage_error(run(head + ["-g.txt"]), f"{command}: unknown option '-g.txt'")
        expected = {
            "verify": "sha256:39e8c4f3db7fdb9e02a71ec9d7af564dc224a24cd191002c481c163c44c1a48f",
            "count": "1\n",
        }[command]
        status, out, err = run(head + ["--", "-g.txt"])
        assert (status, as_pinned(out, expected), err) == (0, expected, "")

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
        status, out, err = run(["count", "--method", "exact", GRAPHS["FILE"]])
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
