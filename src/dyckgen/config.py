"""Desk-scale guards for the enumerative code paths, and the errors that
report bad input.

The explicit enumerations are slow; these limits keep a casual
invocation from launching a huge one.  The closed forms are guarded
only through the ceiling determinant they all build (DET_CEILING_MAX),
though a cold unbounded genfun takes 0.19 s at order 100 and 16 s at
order 200, the most the guard admits (Python 3.11, 2-core VM).  Setting
DYCKGEN_GUARD_OVERRIDE (to any non-empty value) lifts all the guards.

Every error a caller can cause by what it asks for is a UsageError; the
command line turns it into exit code 2.
"""

import os

# Largest ceiling of the dense determinant elimination (and of verify's
# determinants suite, checked with every verify bound before any suite).
DIRECT_DET_K_MAX = 32

# Largest ceiling of the determinant recursion (fk_polynomial), which
# every closed form builds.  F_k holds about k^3/23 terms; built cold
# (Python 3.11, 2-core Xeon VM) F_100 took 0.9 s and 130 MB, F_150 5 s.
DET_CEILING_MAX = 100

# Largest k*N product accepted by the enumerative partition functions.
ENUM_PARTITION_MAX = 36

# Largest path length of the brute-force path counter and verify --len-max.
ORACLE_LEN_MAX = 24

# Largest --k-max of the verify suites but determinants (cost ~ its cube).
VERIFY_K_MAX = 12

# Entries kept by each builder cache (fk_polynomial, _packed_fk, _inv_fk,
# touchdown._arch, tilde_secular, and _largest_count, which sizes the
# packed slots), so a long-lived process holds bounded memory.
CACHE_ENTRIES = 64

# The identity suites of verify, in running order: verify's suite_<name>
# functions, named here so that the command line can offer them without
# loading verify.
SUITE_NAMES = ("determinants", "genfun", "duality", "recursions", "cluster",
               "touchdown")


class UsageError(ValueError):
    """A request that cannot be served as asked."""


class SpecOutOfRange(UsageError):
    """Ceiling, heights, order or length outside the admissible range."""


class GuardExceeded(UsageError):
    """Enumeration larger than the desk-scale guard allows; set
    DYCKGEN_GUARD_OVERRIDE to lift the limit."""


def guards_lifted() -> bool:
    return bool(os.environ.get("DYCKGEN_GUARD_OVERRIDE"))


def check_ceiling(k, lowest=0):
    """Raise SpecOutOfRange unless the ceiling k is an int >= lowest;
    an unbounded ceiling (None) is not one."""
    if not isinstance(k, int) or k < lowest:
        raise SpecOutOfRange(f"ceiling must be an integer >= {lowest}, "
                             f"got {k!r}")


def check_heights(k, m, n):
    """Raise SpecOutOfRange unless the ceiling k passes check_ceiling
    and both heights m and n lie in 0..k."""
    check_ceiling(k)
    if not (0 <= m <= k and 0 <= n <= k):
        raise SpecOutOfRange(f"heights ({m}, {n}) must lie in 0..{k}")


def check_order(order, what="truncation order"):
    """Raise SpecOutOfRange unless the order is an int >= 0."""
    if not isinstance(order, int):
        raise SpecOutOfRange(f"{what} must be an integer, got {order!r}")
    if order < 0:
        raise SpecOutOfRange(f"{what} must be >= 0")


def check_guard(value, limit, what):
    """Raise GuardExceeded when value is above limit and the guards are
    not lifted; `what` names the value in the message."""
    if value > limit and not guards_lifted():
        raise GuardExceeded(
            f"{what} {value} exceeds guard {limit} "
            "(set DYCKGEN_GUARD_OVERRIDE=1 to lift)")
