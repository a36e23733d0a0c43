"""Command-line entry point.

Exit status contract: 0 = all counts agree, 1 = counting mismatch found,
2 = usage or parse error, 141 = stdout was closed before all output was
written.  `verify` exits 2 before counting anything when fewer than two
of its methods are in guard (`_guards.LIMITS`): one count compares nothing.
Reports go to stdout as JSON with fixed key order; diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from . import bipartite, gamma, harness
from ._guards import guard
from .perms import parse_cycles


def _read_graph(path: str) -> bipartite.BipartiteGraph:
    try:
        # newline="": parse_graph, not universal newlines, decides what
        # ends a line, so a lone "\r" is refused as it is in process
        with open(path, "r", encoding="ascii", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    try:
        return bipartite.parse_graph(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _print_json(obj) -> None:
    # json is imported here, not at the top: only verify, sweep and
    # gamma --stats print JSON, and the other commands skip its import
    import json

    print(json.dumps(obj, indent=2))


def _cmd_verify(args) -> int:
    g = _read_graph(args.file)
    report = harness.verify(g)
    _print_json(report.to_dict())
    return 0 if report.agreement else 1


def _cmd_sweep(args) -> int:
    report = harness.sweep(args.n, trials=args.trials, seed=args.seed)
    _print_json(report.to_dict())
    return 0 if report.agreement else 1


def _cmd_gamma(args) -> int:
    if args.dot:
        print(gamma.export_dot(args.n), end="")
    else:
        _print_json(gamma.gamma_stats(args.n).to_dict())
    return 0


def _cmd_factorize(args) -> int:
    guard("factorize", args.n)
    p = parse_cycles(args.cycles, args.n)
    path = gamma.perm_to_path(p)
    print("*".join(str(x.psi) for x in reversed(path.nodes)))
    print(str(path))
    return 0


def _cmd_gen(args) -> int:
    g = bipartite.random_graph(args.n, args.density, args.seed)
    print(bipartite.serialize_graph(g), end="")
    return 0


def _cmd_count(args) -> int:
    g = _read_graph(args.file)
    if args.method == "cvmp":
        print(harness.count_via_cvmp(g))
    elif args.method == "ryser":
        print(bipartite.count_ryser(g))
    else:
        print(bipartite.count_bruteforce(g))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permmatch",
        description="Perfect-matching counting workbench with cross-checking oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="count a graph file by every method and compare")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="cross-check the counters over many instances")
    p.add_argument("--n", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--exhaustive", action="store_true")
    group.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("gamma", help="export or summarize the generating graph")
    p.add_argument("--n", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--dot", action="store_true")
    group.add_argument("--stats", action="store_true")
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("factorize", help="canonic factorization and path of a permutation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("cycles")
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("gen", help="emit a seeded random graph file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("count", help="count perfect matchings by one method")
    p.add_argument("--method", choices=("cvmp", "ryser", "brute"), required=True)
    p.add_argument("file")
    p.set_defaults(func=_cmd_count)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """Console-script and `python -m permmatch` wrapper around `main`.

    Everything alive after import (the interpreter's start-up heap and this
    package) lives until the process exits, so it is moved to the permanent
    generation first: neither the collections during the command nor the
    final one at shutdown walk it again.  `main` does not freeze, because it
    also runs inside long-lived processes such as a test session.
    """
    gc.freeze()
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early (`| head -1`): exit 141, as a shell reports a
        # process SIGPIPE ended, not 1, which reads as a counting mismatch.
        # What is still buffered goes to /dev/null, so the shutdown flush
        # cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    sys.exit(status)


if __name__ == "__main__":
    entry()
