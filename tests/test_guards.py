"""The table of every n limit, and the refusals that read it."""

import pytest

from permmatch._guards import LIMITS, guard
from permmatch.harness import COUNTERS, sweep


def test_limits_table():
    assert LIMITS == {
        "cvmp": 9,
        "brute force": 9,
        "Ryser": 24,
        "sweep": 7,
        "exhaustive sweep": 4,
        "build": 12,
        "enumeration": 7,
        "DOT export": 8,
        "gen": 24,
        "factorize": 9,
    }
    assert COUNTERS == ("cvmp", "brute force", "Ryser")


@pytest.mark.parametrize("stage", sorted(LIMITS))
def test_guard_admits_exactly_one_to_the_limit(stage):
    guard(stage, 1)
    guard(stage, LIMITS[stage])
    for n in (0, LIMITS[stage] + 1):
        with pytest.raises(ValueError, match=f"^{stage} is guarded at 1 <= n <= "):
            guard(stage, n)


@pytest.mark.parametrize(
    "run,msg",
    [
        (lambda: sweep(8, trials=1, seed=1), "sweep is guarded at 1 <= n <= 7"),
        (lambda: sweep(5), "exhaustive sweep is guarded at 1 <= n <= 4"),
    ],
    ids=["random", "exhaustive"],
)
def test_sweep_refusals_read_the_table(run, msg):
    with pytest.raises(ValueError, match=f"^{msg}$"):
        run()
