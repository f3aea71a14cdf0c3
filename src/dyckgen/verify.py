"""Identity suites behind the `verify` command.

Each suite recomputes a family of exact identities at configurable
desk-scale bounds and reports every parameter point checked.  A check
that fails carries a human-readable detail string locating the first
mismatching coefficient; the suites never stop early, so one run shows
the full damage.
"""

from collections import namedtuple
from itertools import combinations_with_replacement

from . import cluster, oracle, spectral, touchdown
from .config import (DIRECT_DET_K_MAX, ORACLE_LEN_MAX, SUITE_NAMES,
                     VERIFY_K_MAX, SpecOutOfRange, UsageError, check_guard,
                     check_order)
from .exact import LSeries, QLaurent
from .genfun import (GenSpec, check_duality, continued_fraction, det_degree,
                     fk_polynomial, genfun)


CheckResult = namedtuple("CheckResult", "suite name params ok detail",
                         defaults=("",))


def _series_detail(a, b):
    """Where two unequal series differ: their truncation orders when
    those differ, and the first step power (up to the lower order) at
    which the coefficients differ."""
    parts = []
    if a.order != b.order:
        parts.append(f"truncation orders differ: {a.order} != {b.order}")
    for l in range(min(a.order, b.order) + 1):
        if a.c[l] != b.c[l]:
            parts.append(f"first mismatch at step power {l}: "
                         f"{a.c[l]!r} != {b.c[l]!r}")
            break
    return "; ".join(parts)


# suite -> the guard on its --k-max (every other suite: VERIFY_K_MAX)
_K_MAX_GUARD = {"determinants": DIRECT_DET_K_MAX}


def _check_bounds(names, k_max=None, len_max=None):
    """The bound check of the named suites, before any of their work:
    a bound that is not an int >= 0 raises SpecOutOfRange, and one
    above its desk-scale guard GuardExceeded.  None stands for a
    suite's default, which is within every guard."""
    for flag, bound in (("k_max", k_max), ("len_max", len_max)):
        if bound is not None:
            check_order(bound, flag)
    if k_max is not None:
        for name in names:
            check_guard(k_max, _K_MAX_GUARD.get(name, VERIFY_K_MAX),
                        "ceiling")
    if len_max is not None:
        check_guard(len_max, ORACLE_LEN_MAX, "length bound")


def _check(suite, name, params, ok, detail):
    """A check result that keeps `detail` only when the check fails."""
    return CheckResult(suite, name, params, ok, "" if ok else detail)


def _eq_check(suite, name, params, a, b):
    ok = a == b
    return _check(suite, name, params, ok, "" if ok else _series_detail(a, b))


def _endpoints(k):
    """The endpoint pairs 0 <= m <= n <= k, in increasing m and, for
    each m, increasing n: the order of every endpoint suite's checks."""
    return combinations_with_replacement(range(k + 1), 2)


def suite_determinants(k_max=10, len_max=16):
    """Recursive / direct / variant-matrix / exclusion-sum agreement,
    determinant duality and degree, the four bosonic partition methods,
    and the height generating function."""
    _check_bounds(("determinants",), k_max, len_max)
    out = []
    for k in range(k_max + 1):
        f, top = fk_polynomial(k), det_degree(k)
        out.append(_eq_check("determinants", "recursive_vs_direct",
                             f"k={k}", f, spectral.secular_det_direct(k)))
        out.append(_eq_check("determinants", "recursive_vs_variant",
                             f"k={k}", f, spectral.secular_det_tilde(k)))
        out.append(_eq_check("determinants", "recursive_vs_exclusion",
                             f"k={k}", f,
                             spectral.grand_partition_exclusion(k, top)))
        dual = f.invert_q().substitute_scale(k - 1)
        out.append(_eq_check("determinants", "determinant_duality",
                             f"k={k}", f, dual))
        deg_ok = (f.coeff(0).is_one()
                  and all(v.degree() is not None for _, v in f.nonzero_terms()))
        deg_ok = deg_ok and (k == 0 or not f.coeff(top).is_zero())
        out.append(_check("determinants", "constant_and_degree", f"k={k}",
                          deg_ok, "degree or constant term off"))
    for k in range(1, min(k_max, 6) + 1):
        for n in range(0, min(k_max, 6) + 1):
            ref = spectral.bosonic_partition(k, n, "product")
            for meth in ("occupation", "excitation", "qbinomial"):
                out.append(_check(
                    "determinants", f"partition_{meth}_vs_product",
                    f"k={k} N={n}",
                    spectral.bosonic_partition(k, n, meth) == ref,
                    "partition polynomials differ"))
    w_max = min(k_max, 8)
    hs = spectral.height_generating_function(w_max, len_max)
    for k in range(w_max + 1):
        out.append(_eq_check("determinants", "height_gf_coefficient",
                             f"k={k}", hs[k],
                             fk_polynomial(k).resized(len_max)))
    return out


def suite_genfun(k_max=5, len_max=12):
    """Closed forms against the oracle, endpoint symmetry, parity and
    positivity, the continued fraction, ceiling duality at the top
    corner, and unbounded stabilization."""
    _check_bounds(("genfun",), k_max, len_max)
    out = []
    for k in range(k_max + 1):
        for m, n in _endpoints(k):
            gf = genfun(GenSpec(k, m, n, len_max)).full_series()
            tab = oracle.genfun_from_table(
                oracle.enumerate_paths(k, m, n, len_max))
            out.append(_eq_check("genfun", "oracle_equality",
                                 f"k={k} m={m} n={n}", gf, tab))
            # read backwards, a path from n to m has the same length and
            # area as one from m to n
            rev = oracle.genfun_from_table(
                oracle.enumerate_paths(k, n, m, len_max))
            out.append(_eq_check("genfun", "endpoint_symmetry",
                                 f"k={k} m={m} n={n}", gf, rev))
            ok = True
            for l, v in gf.nonzero_terms():
                if (l - (n - m)) % 2:
                    ok = False
                for _, cv in v.terms():
                    if not isinstance(cv, int) or cv < 0:
                        ok = False
            out.append(_check("genfun", "parity_and_positivity",
                              f"k={k} m={m} n={n}", ok,
                              "non-count coefficient found"))
        cf = continued_fraction(k, len_max)
        out.append(_eq_check("genfun", "continued_fraction",
                             f"k={k}", cf,
                             genfun(GenSpec(k, 0, 0, len_max)).full_series()))
        ceil_dual = genfun(GenSpec(k, k, k, len_max)).full_series()
        plain = (fk_polynomial(k - 1).resized(len_max)
                 .divide(fk_polynomial(k).resized(len_max)))
        out.append(_eq_check("genfun", "ceiling_excursions",
                             f"k={k}", ceil_dual, plain))
    for m, n in ((0, 0), (0, 1), (1, 1), (0, 2)):
        if n > len_max:
            continue
        spec = GenSpec(None, m, n, len_max)
        a = genfun(spec).full_series()
        b = genfun(GenSpec(spec.ceiling + 5, m, n, len_max)).full_series()
        out.append(_eq_check("genfun", "unbounded_stabilization",
                             f"m={m} n={n}", a, b))
    return out


def suite_duality(k_max=5, len_max=12):
    """Vertical-reflection identity at every endpoint pair."""
    _check_bounds(("duality",), k_max, len_max)
    return [_check("duality", "reflection", f"k={k} m={m} n={n}",
                   check_duality(GenSpec(k, m, n, len_max)),
                   "reflected series differs")
            for k in range(k_max + 1) for m, n in _endpoints(k)]


def _mono(order, step, area):
    return LSeries(order, {step: QLaurent.mono(area)})


def check_recursions(spec):
    """Verify the transfer identities available at this spec; returns one
    CheckResult per identity instance (empty detail on success).

    With m = min, n = max endpoint:
    * last_rise (m < n): peel the final ascent to n off the path.
    * intermediate_level (each ell in m..n-1): split at the last visit
      to level ell.
    * last_step (m < n < k): condition on the final step's direction.
    * first_return (m = n = 0 < k): condition on the first return to the
      floor.
    """
    if spec.k is None:
        raise SpecOutOfRange("recursions are checked at finite ceiling")
    k, L = spec.k, spec.order
    m, n = min(spec.m, spec.n), max(spec.m, spec.n)
    out = []

    def series(kk, mm, nn):
        return genfun(GenSpec(kk, mm, nn, L)).full_series()

    lhs = series(k, m, n)
    if m < n:
        rhs = (_mono(L, 1, n - 1) * series(k, m, n - 1)
               * series(k - n, 0, 0).substitute_scale(n))
        out.append(_eq_check("recursions", "last_rise",
                             f"k={k} m={m} n={n}", lhs, rhs))
    for ell in range(m, n):
        rhs = (_mono(L, 1, ell) * series(k, ell + 1, n) * series(ell, m, ell))
        out.append(_eq_check("recursions", "intermediate_level",
                             f"k={k} m={m} n={n} ell={ell}", lhs, rhs))
    if m < n < k:
        rhs = (_mono(L, 1, n - 1) * series(k, m, n - 1)
               + _mono(L, 1, n) * series(k, m, n + 1))
        out.append(_eq_check("recursions", "last_step",
                             f"k={k} m={m} n={n}", lhs, rhs))
    if m == n == 0 and k >= 1:
        g = series(k, 0, 0)
        below = series(k - 1, 0, 0).substitute_scale(1)
        rhs = LSeries.one(L) + below.shift_step(2) * g
        out.append(_eq_check("recursions", "first_return", f"k={k}", g, rhs))
    return out


def suite_recursions(k_max=5, len_max=12):
    """Transfer identities (last rise, intermediate level, last step,
    first return) at every endpoint pair."""
    _check_bounds(("recursions",), k_max, len_max)
    out = []
    for k in range(k_max + 1):
        for m, n in _endpoints(k):
            out.extend(check_recursions(GenSpec(k, m, n, len_max)))
    return out


def suite_cluster(k_max=4, len_max=16):
    """Cluster-weight forms, exp-log round trips (unbounded and
    restricted), the determinant logarithm, and the degree law with its
    oracle witness."""
    _check_bounds(("cluster",), k_max, len_max)
    out = []
    a_max = max(1, len_max // 2)
    ok = all(cluster.c2(c) == cluster.c2_factorial(c)
             for a in range(1, min(a_max, 12) + 1)
             for c in cluster.compositions(a))
    out.append(_check("cluster", "weight_two_forms", f"a<={min(a_max, 12)}",
                      ok, "c2 forms disagree"))
    spec = GenSpec(None, 0, 0, 2 * a_max)
    out.append(_eq_check("cluster", "unbounded_exp_log", f"a_max={a_max}",
                         cluster.genfun_via_cluster(spec),
                         genfun(spec).full_series()))
    r_order = max(1, min(a_max, 8))
    for k in range(k_max + 1):
        for m, n in _endpoints(k):
            spec = GenSpec(k, m, n, 2 * r_order + (n - m))
            out.append(_eq_check(
                "cluster", "restricted_exp_log", f"k={k} m={m} n={n}",
                cluster.genfun_via_cluster(spec), genfun(spec).full_series()))
    for k in range(1, k_max + 1):
        out.append(_eq_check(
            "cluster", "determinant_log", f"k={k}",
            fk_polynomial(k).resized(2 * a_max).log(),
            cluster.in_steps(cluster.log_secular(k, a_max), 2 * a_max)))
    a_top = min(a_max, 10)
    for k in range(1, min(k_max, 6) + 1):
        for n in range(k + 1):
            # one sum per (k, n): a z^a coefficient ignores the truncation
            p = cluster.p_restricted(k, 0, n, a_top)
            for a in range(1, a_top + 1):
                ok = p.coeff(a).degree() == cluster.degree_formula(k, n, a)
                out.append(_check("cluster", "degree_law",
                                  f"k={k} n={n} a={a}", ok,
                                  "degree formula missed"))
    for k, n, a in ((2, 0, 3), (3, 1, 4), (4, 2, 6)):
        if k > k_max:
            continue
        witness = oracle.max_area(k, 0, n, 2 * a + n)
        ok = witness == (2 * cluster.degree_formula(k, n, a)
                         + n * (n - 1) // 2)
        out.append(_check("cluster", "degree_oracle_witness",
                          f"k={k} n={n} a={a}", ok, f"max area {witness} off"))
    return out


def suite_touchdown(k_max=4, len_max=12):
    """Marked determinant three ways, marked functions against the
    oracle and the ratio route, t = 1 collapse, and both open-ended
    routes."""
    _check_bounds(("touchdown",), k_max, len_max)
    out = []
    for k in range(min(k_max + 5, 10) + 1):
        L = det_degree(k) + 2
        a = touchdown.tilde_secular(k, L)
        out.append(_eq_check("touchdown", "marked_det_toprow", f"k={k}",
                             a, touchdown.tilde_secular_toprow(k, L)))
        out.append(_eq_check("touchdown", "marked_det_direct", f"k={k}",
                             a, touchdown.tilde_secular_direct(k)))
    for k in range(k_max + 1):
        for m, n in _endpoints(k):
            tg = touchdown.tilde_genfun(k, m, n, len_max)
            tab = oracle.genfun_from_table(
                oracle.enumerate_paths(k, m, n, len_max),
                with_touchdowns=True)
            out.append(_eq_check("touchdown", "oracle_equality",
                                 f"k={k} m={m} n={n}", tg.full_series(), tab))
            ratio = touchdown.tilde_genfun_ratio(k, m, n, len_max)
            out.append(_eq_check("touchdown", "ratio_route",
                                 f"k={k} m={m} n={n}", tg.full_series(),
                                 ratio.full_series()))
            out.append(_eq_check(
                "touchdown", "collapse_at_one", f"k={k} m={m} n={n}",
                tg.at_t_one(),
                genfun(GenSpec(k, m, n, len_max)).full_series()))
        oe = touchdown.tilde_genfun_openend(k, len_max)
        shifted = touchdown.tilde_genfun_openend_shifted(k, len_max)
        out.append(_eq_check("touchdown", "openend_routes", f"k={k}",
                             oe.full_series(), shifted.full_series()))
        out.append(_eq_check("touchdown", "openend_collapse", f"k={k}",
                             oe.at_t_one(),
                             genfun(GenSpec(k, 0, 0, len_max)).full_series()))
    return out


# the suites are named once, in config.SUITE_NAMES: each name is the
# suite_<name> above (a KeyError at import if not)
_SUITES = {name: globals()["suite_" + name] for name in SUITE_NAMES}


def run_suites(names, k_max=None, len_max=None):
    """Run the named suites (or all of them) and return the flat list of
    results; bounds default per suite when not given.  Every bound of
    every named suite is checked before any suite runs (each suite also
    checks its own, through the same _check_bounds): negative bounds,
    and bounds at which no check runs, raise UsageError (a run that
    checks nothing must not pass), and a bound above its desk-scale
    guard GuardExceeded."""
    bounds = {"k_max": k_max, "len_max": len_max}
    kwargs = {f: b for f, b in bounds.items() if b is not None}
    _check_bounds(names, k_max, len_max)
    suites = [_SUITES[name] for name in names]
    results = []
    for fn in suites:
        results.extend(fn(**kwargs))
    if not results:
        raise UsageError("no checks run at these bounds")
    return results
