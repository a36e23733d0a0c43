"""Every limit of the workbench: n per stage, the digits of a number, the
bytes of a graph file, the counting methods and the one refusal."""

import sys

DIGITS = len(str(sys.maxsize))  # the longest number any parser reads: no larger n fits a row
# The most bytes a graph file may hold, so a file without end (/dev/zero) is
# refused, not read until memory runs out: K_24's file is 603 bytes, and a
# header past DIGITS is refused whatever follows it.
GRAPH_BYTES = 1 << 20

LIMITS = {
    "cvmp": 9,  # verify's reach, not a cost: the walk holds at most 2^n column sets
    "brute force": 9,  # time, not memory: n!/8! passes over the S_8 table
    "Ryser": 24,  # 2^(n-1) Glynn terms: J_24 takes 4.8-7.6 s
    "sweep": 7,  # every instance runs all three counters
    "exhaustive sweep": 4,  # 2^(n*n) graphs
    "build": 12,  # S edges: 6,801 at n = 10, 20,449 at n = 12
    "enumeration": 7,  # enumerate_cvmps yields all n! paths
    "DOT export": 8,  # 2,244 lines at n = 8
    "factorize": 9,  # past 9 a node label such as (1010,1010) is ambiguous
}
# `count --method` name -> (guard stage, report name, module, counter), in the
# order verify runs them.  Each counter is looked up on permmatch.<module> when
# it runs: harness compiles only for cvmp, and a rebinding there is what runs.
METHODS = {
    "cvmp": ("cvmp", "cvmp", "harness", "count_via_cvmp"),
    "brute": ("brute force", "bruteforce", "bipartite", "count_bruteforce"),
    "ryser": ("Ryser", "ryser", "bipartite", "count_ryser"),
}
LIMITS["gen"] = max(LIMITS[stage] for stage, *_ in METHODS.values())  # some counter accepts it


def admits(n: int) -> list[str]:
    """The METHODS names whose guard admits n, in verify's order."""
    return [m for m, (stage, *_) in METHODS.items() if 1 <= n <= LIMITS[stage]]


def guard(stage: str, n: int) -> None:
    """Raise ValueError, naming the limit, unless 1 <= n <= LIMITS[stage]; a
    counting stage's message names another method whose guard admits n."""
    if not 1 <= n <= LIMITS[stage]:
        use = admits(n) if stage in {s for s, *_ in METHODS.values()} else []
        hint = f"; use `count --method {use[0]}`" if use else ""
        raise ValueError(f"{stage} is guarded at 1 <= n <= {LIMITS[stage]}{hint}")
