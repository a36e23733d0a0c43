"""Perfect-matching enumeration workbench.

Counts perfect matchings in bipartite graphs three independent ways --
valid-path qualification in the generating graph, brute force over S_n,
and an inclusion-exclusion permanent -- and cross-checks them exhaustively
at small n.

`gamma` and `perms` hold the paper's construction, which no counting
command runs, so they are registered in `sys.modules` at import but
compiled only on first attribute access (`importlib.util.LazyLoader`).
Registration, not a function-local import, keeps every module a tracer
reads from `sys.modules` after `import permmatch.cli` in place.  The names
the package re-exports from them are served by `__getattr__`.
"""

import importlib.util
import sys


def _register_lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# Registered before the eager imports: a module importing either one then
# gets this entry, and registering after would make a second copy of it.
perms = _register_lazy("perms")
gamma = _register_lazy("gamma")

from .bipartite import (
    BipartiteGraph,
    Matching,
    contains_matching,
    count_bruteforce,
    count_ryser,
    parse_graph,
    perm_to_matching,
    random_graph,
    serialize_graph,
)
from .harness import count_via_cvmp, sweep, verify

# The names re-exported from the lazy modules, each read on first use.
_LAZY_EXPORTS = {
    **dict.fromkeys(
        (
            "Permutation",
            "Transposition",
            "compose",
            "coset_transversals",
            "parse_cycles",
            "sift",
            "unsift",
        ),
        perms,
    ),
    **dict.fromkeys(
        (
            "Cvmp",
            "FourCycleWitness",
            "GammaGraph",
            "GammaNode",
            "build_gamma",
            "edge_requirement",
            "enumerate_cvmps",
            "export_dot",
            "four_cycle",
            "gamma_stats",
            "is_product_realized",
            "path_to_matching",
            "perm_to_path",
            "surplus_edges",
        ),
        gamma,
    ),
}


def __getattr__(name: str):
    try:
        module = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(module, name)


__version__ = "0.1.0"
