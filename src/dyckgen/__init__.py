"""Exact length-and-area generating functions for height-restricted
up-down lattice paths.

The package computes, with exact rational arithmetic throughout, the
joint length/area (and optionally floor-return) statistics of paths on
the heights 0..k, by several independent routes:

* ceiling determinants and their two-term recursion (`spectral`),
* matrix-element quotients for arbitrary endpoints (`genfun`),
* exclusion-statistics partition functions (`spectral`),
* cluster expansions of the logarithm (`cluster`),
* continued fractions (`genfun`),
* touchdown-marked refinements (`touchdown`),

all cross-checked against a brute-force dynamic-programming enumerator
(`oracle`) and bundled into identity suites (`verify`) behind the
`dyckgen` command-line tool (`cli`).
"""

__version__ = "0.1.0"

from .cluster import (c2, c2_factorial, composition_energy, compositions,
                      degree_check, degree_formula, genfun_via_cluster,
                      log_secular, p_restricted)
from .config import GuardExceeded, SpecOutOfRange, UsageError
from .exact import (BadConstantTerm, InexactDivision, LSeries,
                    NonUnitConstantTerm, QLaurent, TPoly, lift_marker)
from .genfun import (GenFun, GenSpec, check_duality, continued_fraction,
                     genfun)
from .oracle import (PathTable, Unreachable, enumerate_paths,
                     genfun_from_table, max_area)
from .spectral import (bosonic_partition, det_degree, fk_polynomial,
                       grand_partition_exclusion, height_generating_function,
                       qbinom, secular_det_direct, secular_det_tilde,
                       secular_matrix)
from .touchdown import (tilde_genfun, tilde_genfun_openend,
                        tilde_genfun_ratio, tilde_secular,
                        tilde_secular_direct, tilde_secular_toprow)
from .verify import CheckResult, check_recursions, run_suites

__all__ = [
    "BadConstantTerm", "CheckResult", "GenFun", "GenSpec", "GuardExceeded",
    "InexactDivision", "LSeries", "NonUnitConstantTerm", "PathTable",
    "QLaurent", "SpecOutOfRange", "TPoly", "Unreachable", "UsageError",
    "bosonic_partition", "c2", "c2_factorial", "check_duality",
    "check_recursions", "composition_energy", "compositions",
    "continued_fraction", "degree_check", "degree_formula", "det_degree",
    "enumerate_paths", "fk_polynomial", "genfun", "genfun_from_table",
    "genfun_via_cluster", "grand_partition_exclusion",
    "height_generating_function", "lift_marker", "log_secular", "max_area",
    "p_restricted", "qbinom", "run_suites", "secular_det_direct",
    "secular_det_tilde", "secular_matrix", "tilde_genfun",
    "tilde_genfun_openend", "tilde_genfun_ratio", "tilde_secular",
    "tilde_secular_direct", "tilde_secular_toprow",
]
