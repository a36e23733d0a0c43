"""Perfect-matching enumeration workbench.

Counts perfect matchings in bipartite graphs three independent ways --
valid-path qualification in the generating graph, brute force over S_n,
and an inclusion-exclusion permanent -- and cross-checks them exhaustively
at small n.
"""

from .bipartite import (
    BipartiteGraph,
    Matching,
    contains_matching,
    count_bruteforce,
    count_ryser,
    matching_to_perm,
    parse_graph,
    perm_to_matching,
    random_graph,
    serialize_graph,
)
from .gamma import (
    Cvmp,
    FourCycleWitness,
    GammaGraph,
    GammaNode,
    build_gamma,
    edge_requirement,
    enumerate_cvmps,
    export_dot,
    four_cycle,
    gamma_stats,
    is_product_realized,
    path_to_matching,
    path_to_perm,
    perm_to_path,
    surplus_edges,
)
from .harness import count_via_cvmp, sweep, verify
from .perms import (
    CosetChain,
    Permutation,
    Transposition,
    compose,
    coset_transversals,
    format_cycles,
    inverse,
    order_from_chain,
    parse_cycles,
    sift,
    unsift,
)

__version__ = "0.1.0"
