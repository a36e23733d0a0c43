"""Perfect-matching enumeration workbench.

Counts perfect matchings in bipartite graphs three independent ways -- the
paper's valid paths, qualified by a level pass over open-column sets (no
generating graph is built), brute force over S_n and an inclusion-exclusion
permanent -- and cross-checks them exhaustively at small n.  The package
binds only its modules and `__version__`: each name is imported from the
module defining it (`from permmatch.gamma import build_gamma`).

`gamma` and `perms` hold the paper's construction, which only the `gamma`
and `factorize` commands run; `harness` serves only `verify`, `sweep`,
`count --method cvmp` and `gamma --stats`, and writes the JSON reports of
all but the count; `kernels`, the permanent, serves only `verify`, `sweep`
and `count --method ryser`; and `pcg` only `gen` and random sweeps.  So the
five are registered in `sys.modules` at import but compiled only on first
attribute access (`importlib.util.LazyLoader`); the table
`COMPILES` in tests/test_harness_cli.py lists what each command compiles.
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


# Registered before any submodule is imported: a module importing one of them
# then gets this entry, and registering after would make a second copy of it.
perms = _register_lazy("perms")
gamma = _register_lazy("gamma")
harness = _register_lazy("harness")
kernels = _register_lazy("kernels")
pcg = _register_lazy("pcg")

__version__ = "0.1.0"
