"""Perfect-matching enumeration workbench.

Counts perfect matchings in bipartite graphs three independent ways --
valid-path qualification in the generating graph, brute force over S_n,
and an inclusion-exclusion permanent -- and cross-checks them exhaustively
at small n.  The package binds only its modules and `__version__`: each
name is imported from the module defining it (`from permmatch.gamma import
build_gamma`).

`gamma` and `perms` hold the paper's construction, which no counting
command runs, so they are registered in `sys.modules` at import but
compiled only on first attribute access (`importlib.util.LazyLoader`).
Registration, not a function-local import, keeps every module a tracer
reads from `sys.modules` after `import permmatch.cli` in place.
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


# Registered before any submodule is imported: a module importing either one
# then gets this entry, and registering after would make a second copy of it.
perms = _register_lazy("perms")
gamma = _register_lazy("gamma")

__version__ = "0.1.0"
