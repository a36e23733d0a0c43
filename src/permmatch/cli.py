"""Command-line entry point.

Exit status contract: 0 = all counts agree, 1 = counting mismatch found,
2 = usage, parse or output error, 130 = interrupted (Ctrl-C), reported as
`error: interrupted`, 141 = stdout was closed before all output was
written.  An output error is any other failed write to stdout (a full
disk), reported as `error: stdout: <reason>`; a process started with fd 1
closed, reported as `error: stdout: Bad file descriptor` before any file is
read; or a failed write to stderr, reported by the status alone.  `verify`
exits 2 before counting anything when fewer than two of its methods are in
guard (`_guards.METHODS`): one count compares nothing.
Reports go to stdout as JSON with fixed key order; diagnostics to stderr.
"""

import errno
import os
import sys

# gamma, harness, pcg and perms are compiled on first use (see __init__), so
# they are read through their modules: binding a name here would load its module
from . import bipartite, gamma, harness, pcg, perms
from ._guards import DIGITS, GRAPH_BYTES, METHODS, guard


def _read_graph(path: str) -> bipartite.BipartiteGraph:
    try:
        # read as bytes: parse_graph, not universal newlines, decides what
        # ends a line, so a lone "\r" is refused as it is in process.  64 KiB
        # at a time: read(GRAPH_BYTES + 1) would allocate 1 MiB for any file
        data = b""
        with open(path, "rb") as fh:
            while len(data) <= GRAPH_BYTES and (chunk := fh.read(1 << 16)):
                data += chunk
        if len(data) > GRAPH_BYTES:
            raise ValueError(f"a graph file holds at most {GRAPH_BYTES} bytes")
        return bipartite.parse_graph(data.decode("ascii"))
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror}") from exc
    except ValueError as exc:  # the size bound, a UnicodeDecodeError or a parse refusal
        raise ValueError(f"{path}: {exc}") from exc


# The report writer is json.dumps(obj, indent=2) for the ASCII text and finite
# numbers reports hold (anything else raises TypeError), written out here
# because a cold process pays more to import json than to count a small graph.
_ESCAPES = {c: f"\\u{c:04x}" for c in [*range(32), 127]}
_ESCAPES.update({8: "\\b", 9: "\\t", 10: "\\n", 12: "\\f", 13: "\\r", 34: '\\"', 92: "\\\\"})


def _string(s) -> str:
    if not (isinstance(s, str) and s.isascii()):
        raise TypeError(f"report text is ASCII str, not {s!r:.20}")
    return f'"{s.translate(_ESCAPES)}"'


def _json(obj, indent: str = "\n") -> str:
    """json.dumps(obj, indent=2) for nested dicts, lists, ASCII str, int, finite
    float, bool and None; any other key or value raises TypeError."""
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [f"{inner}{_string(k)}: {_json(v, inner)}" for k, v in obj.items()]
        return "{" + ",".join(items) + indent + "}" if items else "{}"
    if isinstance(obj, list):
        items = [inner + _json(v, inner) for v in obj]
        return "[" + ",".join(items) + indent + "]" if items else "[]"
    if isinstance(obj, str):
        return _string(obj)
    if obj is None or isinstance(obj, bool):
        return {None: "null", True: "true", False: "false"}[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float) and obj - obj == 0:  # not NaN or an infinity
        return float.__repr__(obj)
    raise TypeError(f"a report holds no {type(obj).__name__} {obj!r:.20}")


def _cmd_verify(args) -> int:
    g = _read_graph(args["file"])
    report = harness.verify(g)
    print(_json(report))
    return 0 if report["agreement"] else 1


def _cmd_sweep(args) -> int:
    if args["exhaustive"] == (args["trials"] is not None):
        raise ValueError("sweep takes exactly one of --exhaustive and --trials")
    report = harness.sweep(args["n"], trials=args["trials"], seed=args["seed"])
    print(_json(report))
    return 0 if report["agreement"] else 1


def _cmd_gamma(args) -> int:
    if args["dot"] == args["stats"]:
        raise ValueError("gamma takes exactly one of --dot and --stats")
    if args["dot"]:
        print(gamma.export_dot(args["n"]), end="")
    else:
        print(_json(gamma.gamma_stats(args["n"])))
    return 0


def _cmd_factorize(args) -> int:
    guard("factorize", args["n"])
    p = perms.parse_cycles(args["cycles"], args["n"])
    path = gamma.perm_to_path(p)
    print("*".join(str(x.psi) for x in reversed(path.nodes)))
    print(str(path))
    return 0


def _cmd_gen(args) -> int:
    g = pcg.random_graph(args["n"], args["density"], args["seed"])
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
    """int(text) for ASCII digits after an optional "-", at most DIGITS in all,
    so "_", blanks and other scripts' digits never reach int().  Unlike a
    graph header, a value may be negative or start with 0 (`--seed 007`)."""
    digits = text[1:] if text.startswith("-") else text
    if len(text) > DIGITS or not (digits.isascii() and digits.isdigit()):
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
                shown = repr(value) if len(value) <= DIGITS else f"one of {len(value)} characters"
                raise ValueError(f"{command}: {opt} takes {kind} values, not {shown}") from None
    missing = [opt for opt in required if values[opt[2:]] is None]
    missing += [name.upper() for name in positionals[len(given):]]
    if missing:
        raise ValueError(f"{command}: missing {' '.join(missing)}")
    if len(given) > len(positionals):
        raise ValueError(f"{command}: unexpected argument {given[len(positionals)]!r}")
    return handler, values | dict(zip(positionals, given))


def _error(message: str) -> None:
    """Print `error: message` to stderr.  A failed write leaves the message to
    the exit status, 2 either way: stderr cannot report its own failure."""
    try:
        print(f"error: {message}", file=sys.stderr)
    except OSError:
        pass


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
        _error(str(exc))
        return 2


def entry() -> None:
    """Console-script and `python -m permmatch` wrapper around `main`.

    It flushes stdout, then stderr, and ends the process with `os._exit`:
    tearing down the interpreter, every module that start-up and site
    loaded, costs more than counting a small graph.  So atexit hooks do not
    run (permmatch registers none), and `python -m cProfile -m permmatch`
    prints no profile: profile through `main`, which returns normally, as
    tests, library callers and tracers that call it do.
    """
    try:
        if sys.stdout is None:  # the process started with fd 1 closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        status = main()
        sys.stdout.flush()
    except KeyboardInterrupt:
        # Ctrl-C: one line and 130, as a shell reports a process SIGINT ended
        _error("interrupted")
        status = 130
    except OSError as exc:
        # Only stdout raises OSError: main reads its files into ValueError,
        # and _error keeps a failed stderr write to itself.
        if isinstance(exc, BrokenPipeError):
            # The reader left early (`| head -1`): exit 141, as a shell reports
            # a process SIGPIPE ended, not 1, which reads as a counting mismatch.
            status = 141
        else:
            _error(f"stdout: {exc.strerror}")
            status = 2
    if sys.stderr is not None:  # None when the process started with fd 2 closed
        try:
            sys.stderr.flush()
        except OSError:
            status = 2
    os._exit(status)


if __name__ == "__main__":
    entry()
