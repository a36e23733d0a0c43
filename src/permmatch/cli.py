"""Command-line entry point.

Exit status contract: 0 = all counts agree, 1 = counting mismatch found,
2 = usage or parse error, 141 = stdout was closed before all output was
written.  `verify` exits 2 before counting anything when fewer than two
of its methods are in guard (`_guards.METHODS`): one count compares nothing.
Reports go to stdout as JSON with fixed key order; diagnostics to stderr.
"""

from __future__ import annotations

import gc
import os
import sys

# gamma, harness and perms are compiled on first use (see __init__), so they
# are read through their modules: binding a name here would load its module
from . import bipartite, gamma, harness, perms
from ._guards import METHODS, guard

_DIGITS = len(str(sys.maxsize))  # the graph header's bound, as in parse_graph


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
    g = _read_graph(args["file"])
    report = harness.verify(g)
    _print_json(report)
    return 0 if report["agreement"] else 1


def _cmd_sweep(args) -> int:
    if args["exhaustive"] == (args["trials"] is not None):
        raise ValueError("sweep takes exactly one of --exhaustive and --trials")
    report = harness.sweep(args["n"], trials=args["trials"], seed=args["seed"])
    _print_json(report)
    return 0 if report["agreement"] else 1


def _cmd_gamma(args) -> int:
    if args["dot"] == args["stats"]:
        raise ValueError("gamma takes exactly one of --dot and --stats")
    if args["dot"]:
        print(gamma.export_dot(args["n"]), end="")
    else:
        _print_json(gamma.gamma_stats(args["n"]))
    return 0


def _cmd_factorize(args) -> int:
    guard("factorize", args["n"])
    p = perms.parse_cycles(args["cycles"], args["n"])
    path = gamma.perm_to_path(p)
    print("*".join(str(x.psi) for x in reversed(path.nodes)))
    print(str(path))
    return 0


def _cmd_gen(args) -> int:
    g = bipartite.random_graph(args["n"], args["density"], args["seed"])
    print(bipartite.serialize_graph(g), end="")
    return 0


def _cmd_count(args) -> int:
    method = args["method"]
    if method not in METHODS:
        raise ValueError(f"count --method takes cvmp, ryser or brute, not {method!r}")
    g = _read_graph(args["file"])
    _, _, module, counter = METHODS[method]
    print(getattr(sys.modules["permmatch." + module], counter)(g))
    return 0


def _int(text: str) -> int:
    """int(text), read as parse_graph reads its header: ASCII digits after an
    optional "-", at most _DIGITS characters, so "_", blanks, other scripts'
    digits and the interpreter's digit limit never reach int()."""
    digits = text[1:] if text.startswith("-") else text
    if len(text) > _DIGITS or not (digits.isascii() and digits.isdigit()):
        raise ValueError
    return int(text)


# command -> (handler, positionals, options, required options); an option
# maps to the converter of its value, None for a flag.  The handlers check
# choices and exclusive options.
_COMMANDS = {
    "verify": (_cmd_verify, ("file",), {}, ()),
    "sweep": (_cmd_sweep, (), {"--n": _int, "--exhaustive": None, "--trials": _int,
                               "--seed": _int}, ("--n",)),
    "gamma": (_cmd_gamma, (), {"--n": _int, "--dot": None, "--stats": None}, ("--n",)),
    "factorize": (_cmd_factorize, ("cycles",), {"--n": _int}, ("--n",)),
    "gen": (_cmd_gen, (), {"--n": _int, "--density": float, "--seed": _int},
            ("--n", "--density", "--seed")),
    "count": (_cmd_count, ("file",), {"--method": str}, ("--method",)),
}

_USAGE = """\
usage: permmatch COMMAND [OPTIONS], a perfect-matching counting workbench
  verify FILE                         count a graph file by every method and compare
  sweep --n N (--exhaustive | --trials T --seed S)  cross-check the counters
  gamma --n N (--dot | --stats)       export or summarize the generating graph
  factorize --n N CYCLES              factorization and path of a permutation
  gen --n N --density P --seed S      emit a seeded random graph file
  count --method cvmp|ryser|brute FILE  count perfect matchings by one method
Options are never abbreviated: write `--opt value` or `--opt=value`, before
or after the positionals; `--` ends the options.
"""


def _parse(argv: list):
    """(handler, values) for argv, or ValueError naming the command and option;
    values maps each option without its dashes (None if absent) and positional."""
    command = argv[0] if argv else ""
    if command not in _COMMANDS:
        raise ValueError(f"expected a command, one of {', '.join(_COMMANDS)}; got {command!r}")
    handler, positionals, options, required = _COMMANDS[command]
    values = {opt[2:]: None if convert else False for opt, convert in options.items()}
    given, rest = [], iter(argv[1:])
    for arg in rest:
        opt, eq, value = arg.partition("=")
        if arg == "--":
            given += rest
        elif arg == "-" or not arg.startswith("-"):
            given.append(arg)
        elif opt not in options:
            raise ValueError(f"{command}: unknown option {opt!r}")
        elif options[opt] is None:
            if eq:
                raise ValueError(f"{command}: {opt} takes no value")
            values[opt[2:]] = True
        elif not eq and (value := next(rest, None)) is None:
            raise ValueError(f"{command}: {opt} needs a value")
        else:
            try:
                values[opt[2:]] = options[opt](value)
            except ValueError:
                kind = "float" if options[opt] is float else "int"
                shown = repr(value) if len(value) <= _DIGITS else f"one of {len(value)} characters"
                raise ValueError(f"{command}: {opt} takes {kind} values, not {shown}") from None
    missing = [opt for opt in required if values[opt[2:]] is None]
    missing += [name.upper() for name in positionals[len(given):]]
    if missing:
        raise ValueError(f"{command}: missing {' '.join(missing)}")
    if len(given) > len(positionals):
        raise ValueError(f"{command}: unexpected argument {given[len(positionals)]!r}")
    return handler, values | dict(zip(positionals, given))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    head = argv[: argv.index("--")] if "--" in argv else argv
    if "-h" in head or "--help" in head:
        print(_USAGE, end="")
        return 0
    try:
        handler, args = _parse(argv)
        return handler(args)
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
