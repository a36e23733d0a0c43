"""The tables of every n limit and every counting method, and the refusals
that read them."""

import pytest

from permmatch._guards import LIMITS, METHODS, guard
from permmatch.harness import sweep


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
    # gen's limit is computed: the largest graph some counter accepts
    assert LIMITS["gen"] == max(LIMITS[stage] for stage, *_ in METHODS.values())
    # --method name -> guard stage, report name, module, counter, in verify's order
    assert list(METHODS.items()) == [
        ("cvmp", ("cvmp", "cvmp", "harness", "count_via_cvmp")),
        ("brute", ("brute force", "bruteforce", "bipartite", "count_bruteforce")),
        ("ryser", ("Ryser", "ryser", "bipartite", "count_ryser")),
    ]


NAMES_RYSER = {("cvmp", 10), ("brute force", 10)}


@pytest.mark.parametrize("stage", sorted(LIMITS))
def test_guard_admits_exactly_one_to_the_limit(stage):
    guard(stage, 1)
    guard(stage, LIMITS[stage])
    # a counting stage's refusal names another method whose guard admits n:
    # Ryser at n = 10 for cvmp and brute force, none at n = 0 or n = 25
    for n in {0, LIMITS[stage] + 1, 25}:
        hint = "; use `count --method ryser`" if (stage, n) in NAMES_RYSER else ""
        with pytest.raises(ValueError) as refused:
            guard(stage, n)
        assert str(refused.value) == f"{stage} is guarded at 1 <= n <= {LIMITS[stage]}{hint}"


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
