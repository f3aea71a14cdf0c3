"""Desk-scale guards for the enumerative code paths, and the errors that
report bad input.

The explicit enumerations are slow; these limits keep a casual
invocation from launching a huge one.  Every route checks its
effective ceiling against DET_CEILING_MAX, then a closed-form bound on
its answer's size against ANSWER_BITS_MAX, in GenSpec.check_guards,
before any work: a cold unbounded genfun takes 0.19 s at order 100 and
16 s at order 200 (Python 3.11, 2-core VM), and the guard admits a reach
(L + m + n)//2 of at most 100, so floor to floor order 201 runs and 202
exits 2, on every route, as do order 10^9 at ceiling 5 and marked
unbounded orders above 125.  Setting DYCKGEN_GUARD_OVERRIDE (to any
non-empty value) lifts all the guards.

Every error a caller can cause by what it asks for is a UsageError; the
command line turns it into exit code 2.
"""

import os

# Largest ceiling of the dense determinant elimination (and of verify's
# determinants suite, checked with every verify bound before any suite).
DIRECT_DET_K_MAX = 32

# Largest ceiling of the determinant recursion (fk_polynomial), checked
# once per request, on every route, on its effective ceiling.  F_k holds about
# k^3/23 terms; built cold (Python 3.11, 2-core Xeon VM) F_100 took 0.9 s
# and 130 MB, F_150 5 s.
DET_CEILING_MAX = 100

# Largest answer size in bits (GenSpec.check_guards).  Built cold, marked
# unbounded order 120 (1.6e9 bits) took 5.5 s and 95 MiB, 128 (2.2e9)
# 9.4 s; a cold genfun job at (12, 0, 0, 800) (1.4e9) 33 s, peak RSS 361 MiB.
ANSWER_BITS_MAX = 2 * 10 ** 9

# Largest k*N product accepted by the enumerative partition functions.
ENUM_PARTITION_MAX = 36

# Largest path length of the brute-force path counter and verify --len-max.
ORACLE_LEN_MAX = 24

# Largest --k-max of the verify suites but determinants (cost ~ its cube).
VERIFY_K_MAX = 12

# Entries kept by each builder cache (fk_polynomial, _packed_fk, _inv_fk,
# touchdown._arch, tilde_secular, and _largest_count, which sizes every
# route's slots), so a long-lived process holds bounded memory.
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


def check_order(value, what="truncation order", lowest=0):
    """Raise SpecOutOfRange unless value is an int, not a bool, >= lowest:
    the one check of an integer argument, `what` naming it in the message."""
    if type(value) is not int:
        raise SpecOutOfRange(f"{what} must be an integer, got {value!r}")
    if value < lowest:
        raise SpecOutOfRange(f"{what} must be an integer >= {lowest}, "
                             f"got {value!r}")


def check_ceiling(k, lowest=0):
    """check_order of the ceiling k; an unbounded ceiling (None) is not
    an int, so it fails."""
    check_order(k, "ceiling", lowest)


def check_heights(k, m, n):
    """Raise SpecOutOfRange unless the ceiling k passes check_ceiling
    and both heights m and n are ints in 0..k."""
    check_ceiling(k)
    check_order(m, "m")
    check_order(n, "n")
    if m > k or n > k:
        raise SpecOutOfRange(f"heights ({m}, {n}) must lie in 0..{k}")


def check_guard(value, limit, what):
    """Raise GuardExceeded when value is above limit and the guards are
    not lifted (DYCKGEN_GUARD_OVERRIDE unset or empty); `what` names the
    value in the message."""
    if value > limit and not os.environ.get("DYCKGEN_GUARD_OVERRIDE"):
        raise GuardExceeded(
            f"{what} {value} exceeds guard {limit} "
            "(set DYCKGEN_GUARD_OVERRIDE=1 to lift)")
