"""Every n limit of the workbench and the one refusal that enforces them."""

LIMITS = {
    "cvmp": 9,  # the pruned walk has n! leaves on K_n
    "brute force": 9,  # time, not memory: n!/8! passes over the S_8 table
    "Ryser": 24,  # 2^(n-1) Glynn terms, 5-6 s at n = 24
    "sweep": 7,  # every instance runs all three counters
    "exhaustive sweep": 4,  # 2^(n*n) graphs
    "build": 12,  # S edges: 6,801 at n = 10, 20,449 at n = 12
    "enumeration": 7,  # yields all n! paths; also caps gamma --stats' valid_paths
    "DOT export": 8,  # 2,244 lines at n = 8
    "gen": 24,  # the largest graph that some counter accepts
    "factorize": 9,  # past 9 a node label such as (1010,1010) is ambiguous
}


def guard(stage: str, n: int) -> None:
    """Raise ValueError, naming the limit, unless 1 <= n <= LIMITS[stage]."""
    if not 1 <= n <= LIMITS[stage]:
        ryser = stage in ("cvmp", "brute force") and n <= LIMITS["Ryser"]
        hint = "; use `count --method ryser`" if ryser else ""
        raise ValueError(f"{stage} is guarded at 1 <= n <= {LIMITS[stage]}{hint}")
