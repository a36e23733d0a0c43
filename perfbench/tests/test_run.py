"""Child processes, output checks and the tail statistic of run.py."""

import time

import inputs
import run


def proc(stdout=b"", stderr=b"", code=0):
    return run.Proc(0, 1, code, stdout, stderr, 0)


def test_tail_has_ten_samples_beyond_or_is_the_maximum():
    assert run.tail(list(range(100))) == (89, 90.0, 10)
    assert run.tail(list(range(21))) == (10, 100.0 * 11 / 21, 10)
    assert run.tail(list(range(20))) == (19, 100.0, 0)
    assert run.tail([3, 1, 2]) == (3, 100.0, 0)


def test_check_fails_wrong_counts_exit_statuses_and_tracebacks():
    op = inputs.Op("count", "count-ryser", 3, "3\n111\n111\n111\n", 6)
    assert run.check(op, proc(b"6\n")) is None
    assert run.check(op, proc(b"7\n")) == "printed '7'"
    assert run.check(op, proc(b"6\n", code=1)) == "exit status 1"
    assert run.check(op, proc(b"6\n", b"Traceback (most recent call last):")) is not None
    sweep = inputs.Op("sweep", "sweep", 2, None, 16)
    good = b'{"n": 2, "mode": "exhaustive", "instances": 16, "agreement": true, "mismatches": []}'
    assert run.check(sweep, proc(good)) is None
    assert run.check(sweep, proc(good.replace(b"16", b"15"))) == "wrong instances"
    assert run.check(sweep, proc(b"[1, 2]")) == "stdout is not one JSON report"


def test_comparable_blanks_only_elapsed_values():
    a = b'{\n  "count_cvmp": 2,\n  "elapsed": {\n    "cvmp": 0.5,\n    "ryser": 1e-05\n  }\n}'
    b = b'{\n  "count_cvmp": 2,\n  "elapsed": {\n    "cvmp": 0.25,\n    "ryser": 2e-05\n  }\n}'
    assert run.comparable(a) == run.comparable(b)
    assert run.comparable(a) != run.comparable(a.replace(b'"count_cvmp": 2', b'"count_cvmp": 3'))


def test_runner_reports_the_child_and_kills_it_at_the_deadline(tmp_path):
    ballast = bytearray(64 << 20)  # the benchmark's own memory must not show
    ballast[::4096] = b"x" * len(ballast[::4096])
    runner = run.Runner(tmp_path, time.monotonic() + 2)
    try:
        p = runner.run(["-c", "import sys; print('hi'); sys.exit(3)"])
        assert (p.code, p.stdout) == (3, b"hi\n")
        assert p.maxrss_kb < 48 << 10
        p = runner.run(["-c", "import time; time.sleep(30)"])
        assert p.code < 0 and p.wall_ns < 10e9
    finally:
        runner.close()
    assert runner.helper.returncode == 0


def test_host_speed_samples_once_per_second_since_the_last_call():
    speed = run.HostSpeed()
    speed.sample()
    assert len(speed.samples) == 1 and speed.samples[0] > 0
    speed.last -= 10
    speed.sample()
    assert len(speed.samples) == 1 + run.SPEED_SAMPLES_MAX
    speed.samples = [run.REFERENCE_WORK_S * 2, run.REFERENCE_WORK_S * 3, run.REFERENCE_WORK_S * 2]
    assert speed.scale() == 0.5
