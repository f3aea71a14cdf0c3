"""Exact length-and-area generating functions for height-restricted
up-down lattice paths.

The package computes, with exact rational arithmetic throughout, the
joint length/area (and optionally floor-return) statistics of paths on
the heights 0..k, by several independent routes:

* ceiling determinants by their two-term recursion and matrix-element
  quotients for arbitrary endpoints (`genfun`),
* exclusion-statistics partition functions (`spectral`),
* cluster expansions of the logarithm (`cluster`),
* continued fractions (`genfun`),
* touchdown-marked refinements (`touchdown`),

all cross-checked against a brute-force dynamic-programming enumerator
(`oracle`) and bundled into identity suites (`verify`) behind the
`dyckgen` command-line tool (`cli`).

Submodules load on first use: `import dyckgen` registers each through
importlib's LazyLoader, which runs its code at the first attribute read,
and serves the names of `__all__` from their defining modules (PEP 562).
The package attribute `genfun` is the function; its module is
sys.modules["dyckgen.genfun"].  cli, genfun and verify call the route
modules through their module objects, so a job runs only cli, config,
exact and genfun, and the modules its routes use: touchdown for
`--touchdown`, cluster for the cluster-exp route (`--check`, `--method
cluster-exp`), oracle for `table`, and for `verify` the verify module
and the route modules of the suites it runs, spectral only where a
suite reproduces F_j (verify reads F_j from genfun).
"""

import importlib.util
import sys

__version__ = "0.1.0"

# defining submodule -> the public names it serves
_EXPORTS = {
    "config": ("GuardExceeded", "SpecOutOfRange", "UsageError"),
    "exact": ("BadConstantTerm", "InexactDivision", "LSeries",
              "NonUnitConstantTerm", "QLaurent", "TPoly", "lift_marker"),
    "spectral": ("bosonic_partition", "grand_partition_exclusion",
                 "height_generating_function", "qbinom",
                 "secular_det_direct", "secular_det_tilde", "secular_matrix"),
    "genfun": ("GenFun", "GenSpec", "check_duality", "continued_fraction",
               "det_degree", "fk_polynomial", "genfun"),
    "cluster": ("c2", "c2_factorial", "composition_energy", "compositions",
                "degree_check", "degree_formula", "genfun_via_cluster",
                "log_secular", "p_restricted"),
    "oracle": ("PathTable", "Unreachable", "enumerate_paths",
               "genfun_from_table", "max_area"),
    "touchdown": ("tilde_genfun", "tilde_genfun_openend",
                  "tilde_genfun_ratio", "tilde_secular",
                  "tilde_secular_direct", "tilde_secular_toprow"),
    "verify": ("CheckResult", "check_recursions", "run_suites"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}
__all__ = sorted(_HOME)


def _register_lazily(name):
    """Put the submodule `name` in sys.modules, its code left to run at
    the first attribute read."""
    fullname = f"{__name__}.{name}"
    if fullname in sys.modules:   # a reload of the package keeps it
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


# cli stays out: a pre-registered module makes `python -m dyckgen.cli`
# warn that it is found in sys.modules before it runs
for _name in _EXPORTS:
    _module = _register_lazily(_name)
    if _name != "genfun":
        globals()[_name] = _module
del _name, _module


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
