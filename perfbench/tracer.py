"""Run the permmatch CLI in this process with a span around every public call.

    python tracer.py SPANS_FILE OP_ID CLI_ARG...

behaves like `python -m permmatch CLI_ARG...` (same stdout, stderr and exit
status) and, on exit, writes what it recorded: the span columns as native
int64 arrays to SPANS_FILE + ".bin" and a JSON header to SPANS_FILE.

Every public function of the measured modules is wrapped once and the
wrapper is bound in each namespace that binds the function (`harness` calls
`count_ryser` through its own name, for example), so a call is recorded
whichever module makes it.  A generator is timed per `next()`.  All
timestamps are `time.perf_counter_ns()`, the system-wide monotonic clock,
so the parent can place them against its own spawn and exit times.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array

_now = time.perf_counter_ns
_CO_GENERATOR = 0x20

# `multiplication` is on no CLI or counting path.
MEASURED = ("cli", "bipartite", "perms", "gamma", "harness", "kernels")


class Recorder:
    """Spans as parallel int64 columns; index order is open order."""

    def __init__(self):
        self.names = []
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.stack = []
        self.counts = {}

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(_now())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _now()
        self.stack.pop()

    def write_columns(self, path: str) -> None:
        with open(path, "wb") as fh:
            for column in (self.name, self.start, self.end, self.parent):
                column.tofile(fh)

    def write_header(self, path: str, header: dict) -> None:
        header.update(names=self.names, spans=len(self.start), counts=self.counts)
        with open(path, "w", encoding="ascii") as fh:
            json.dump(header, fh)


def _wrap(fn, name: str, rec: Recorder):
    nid = rec.name_id(name)
    if fn.__code__.co_flags & _CO_GENERATOR:
        yields = name + ".yields"
        rec.counts[yields] = 0

        def timed(gen):
            try:
                while True:
                    idx = rec.open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        rec.close(idx)
                    rec.counts[yields] += 1
                    yield item
            finally:
                gen.close()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return timed(fn(*args, **kwargs))

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)

    return wrapper


def instrument(rec: Recorder) -> None:
    """Replace every public measured function, in every namespace binding it."""
    import permmatch

    modules = [permmatch] + [sys.modules["permmatch." + m] for m in MEASURED]
    wrappers = {}
    for module in modules:
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not isinstance(value, types.FunctionType):
                continue
            owner = value.__module__.rpartition(".")[2]
            if not value.__module__.startswith("permmatch.") or owner not in MEASURED:
                continue
            if value not in wrappers:
                wrappers[value] = _wrap(value, f"{owner}.{value.__name__}", rec)
            setattr(module, attr, wrappers[value])


def main(argv: list) -> int:
    out, op_id, cli_args = argv[0], int(argv[1]), argv[2:]
    import permmatch.cli

    ready = _now()
    rec = Recorder()
    instrument(rec)
    try:
        return permmatch.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        rec.write_columns(out + ".bin")
        # Before ready and after written the process was starting up or
        # exiting; in between it ran the wrappers, the CLI and this write.
        rec.write_header(out, {"op": op_id, "ready_ns": ready, "written_ns": _now()})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
