"""Start processes one at a time and report their wall time and peak RSS.

run.py starts this helper once, early, and sends it one JSON request per
line: {"argv", "stdout", "stderr", "timeout_s"}.  For each, the helper
starts argv with stdin from /dev/null and stdout and stderr to the named
files, waits for it, and answers with one JSON line: {"spawn_ns",
"exit_ns", "status", "maxrss_kb"}.  A process still running after
timeout_s is killed.

The helper exists for `maxrss_kb`.  A child started by vfork or
posix_spawn inherits its parent's peak RSS into its own, so children of
the benchmark process itself would report the benchmark's memory, not the
program's; this helper stays small, below any process it starts.
"""

import json
import math
import os
import signal
import sys
import time


def main() -> None:
    child = None

    def kill(signum, frame):
        if child is not None:
            try:
                os.kill(child, signal.SIGKILL)
            except ProcessLookupError:  # exited as the alarm fired
                pass

    signal.signal(signal.SIGALRM, kill)
    for line in sys.stdin:
        req = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        signal.alarm(max(1, math.ceil(req["timeout_s"])))
        spawn_ns = time.perf_counter_ns()
        child = os.posix_spawn(req["argv"][0], req["argv"], os.environ, file_actions=actions)
        _, status, usage = os.wait4(child, 0)
        exit_ns = time.perf_counter_ns()
        signal.alarm(0)
        child = None
        reply = {"spawn_ns": spawn_ns, "exit_ns": exit_ns, "status": status,
                 "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
