"""Identity suites behind the `verify` command.

Each suite recomputes a family of exact identities at configurable
desk-scale bounds and reports every parameter point checked.  A check
that fails carries a human-readable detail string locating the first
mismatching coefficient; the suites never stop early, so one run shows
the full damage.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cluster import (c2, c2_factorial, compositions, degree_check,
                      degree_formula, genfun_series_zq, genfun_via_cluster,
                      log_secular, p_restricted)
from .config import SpecOutOfRange, UsageError
from .exact import LSeries, QLaurent
from .genfun import (GenSpec, check_duality, continued_fraction, genfun,
                     genfun_excursion)
from .oracle import enumerate_paths, genfun_from_table, max_area
from .spectral import (bosonic_partition, det_degree, fk_polynomial,
                       grand_partition_exclusion, height_generating_function,
                       secular_det_direct, secular_det_recursive,
                       secular_det_tilde)
from .touchdown import (tilde_genfun, tilde_genfun_openend,
                        tilde_genfun_openend_shifted, tilde_genfun_ratio,
                        tilde_secular, tilde_secular_direct,
                        tilde_secular_toprow)

SUITE_NAMES = ("determinants", "genfun", "duality", "recursions",
               "cluster", "touchdown")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    params: str
    ok: bool
    detail: str = ""


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


def _eq_check(suite, name, params, a, b):
    ok = a == b
    return CheckResult(suite, name, params, ok,
                       "" if ok else _series_detail(a, b))


def suite_determinants(k_max=10, len_max=16):
    """Recursive / direct / variant-matrix / exclusion-sum agreement,
    determinant duality and degree, the four bosonic partition methods,
    and the height generating function."""
    out = []
    for k in range(k_max + 1):
        f = secular_det_recursive(k, det_degree(k))
        out.append(_eq_check("determinants", "recursive_vs_direct",
                             f"k={k}", f, secular_det_direct(k)))
        out.append(_eq_check("determinants", "recursive_vs_variant",
                             f"k={k}", f, secular_det_tilde(k)))
        out.append(_eq_check("determinants", "recursive_vs_exclusion",
                             f"k={k}", f,
                             grand_partition_exclusion(k, det_degree(k))))
        dual = f.invert_q().substitute_scale(k - 1)
        out.append(_eq_check("determinants", "determinant_duality",
                             f"k={k}", f, dual))
        deg_ok = (f.coeff(0).is_one()
                  and all(v.degree() is not None for _, v in f.nonzero_terms()))
        top = det_degree(k)
        deg_ok = deg_ok and (k == 0 or not f.coeff(top).is_zero())
        out.append(CheckResult("determinants", "constant_and_degree",
                               f"k={k}", deg_ok,
                               "" if deg_ok else "degree or constant term off"))
    for k in range(1, min(k_max, 6) + 1):
        for n in range(0, min(k_max, 6) + 1):
            ref = bosonic_partition(k, n, "product")
            for meth in ("occupation", "excitation", "qbinomial"):
                ok = bosonic_partition(k, n, meth) == ref
                out.append(CheckResult(
                    "determinants", f"partition_{meth}_vs_product",
                    f"k={k} N={n}", ok,
                    "" if ok else "partition polynomials differ"))
    w_max = min(k_max, 8)
    hs = height_generating_function(w_max, len_max)
    for k in range(w_max + 1):
        out.append(_eq_check("determinants", "height_gf_coefficient",
                             f"k={k}", hs[k],
                             fk_polynomial(k).resized(len_max)))
    return out


def suite_genfun(k_max=5, len_max=12):
    """Closed forms against the oracle, endpoint symmetry, parity and
    positivity, the continued fraction, ceiling duality at the top
    corner, and unbounded stabilization."""
    out = []
    for k in range(k_max + 1):
        for m in range(k + 1):
            for n in range(m, k + 1):
                gf = genfun(GenSpec(k, m, n, len_max)).full_series()
                tab = genfun_from_table(enumerate_paths(k, m, n, len_max))
                out.append(_eq_check("genfun", "oracle_equality",
                                     f"k={k} m={m} n={n}", gf, tab))
                sym = genfun(GenSpec(k, n, m, len_max)).full_series()
                out.append(_eq_check("genfun", "endpoint_symmetry",
                                     f"k={k} m={m} n={n}", gf, sym))
                ok = True
                for l, v in gf.nonzero_terms():
                    if (l - (n - m)) % 2:
                        ok = False
                    for _, cv in v.terms():
                        if not isinstance(cv, int) or cv < 0:
                            ok = False
                out.append(CheckResult(
                    "genfun", "parity_and_positivity",
                    f"k={k} m={m} n={n}", ok,
                    "" if ok else "non-count coefficient found"))
        cf = continued_fraction(k, len_max)
        out.append(_eq_check("genfun", "continued_fraction",
                             f"k={k}", cf,
                             genfun_excursion(k, len_max).full_series()))
        ceil_dual = genfun(GenSpec(k, k, k, len_max)).series
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
    out = []
    for k in range(k_max + 1):
        for m in range(k + 1):
            for n in range(m, k + 1):
                ok = check_duality(GenSpec(k, m, n, len_max))
                out.append(CheckResult(
                    "duality", "reflection", f"k={k} m={m} n={n}", ok,
                    "" if ok else "reflected series differs"))
    return out


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
               * genfun_excursion(k - n, L).full_series().substitute_scale(n))
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
        g = genfun_excursion(k, L).full_series()
        below = genfun_excursion(k - 1, L).full_series().substitute_scale(1)
        rhs = LSeries.one(L) + below.shift_step(2) * g
        out.append(_eq_check("recursions", "first_return", f"k={k}", g, rhs))
    return out


def suite_recursions(k_max=5, len_max=12):
    """Transfer identities (last rise, intermediate level, last step,
    first return) at every endpoint pair."""
    out = []
    for k in range(k_max + 1):
        for m in range(k + 1):
            for n in range(m, k + 1):
                out.extend(check_recursions(GenSpec(k, m, n, len_max)))
    return out


def suite_cluster(k_max=4, len_max=16):
    """Cluster-weight forms, exp-log round trips (unbounded and
    restricted), the determinant logarithm, and the degree law with its
    oracle witness."""
    out = []
    a_max = max(1, len_max // 2)
    ok = all(c2(c) == c2_factorial(c)
             for a in range(1, min(a_max, 12) + 1)
             for c in compositions(a))
    out.append(CheckResult("cluster", "weight_two_forms",
                           f"a<={min(a_max, 12)}", ok,
                           "" if ok else "c2 forms disagree"))
    out.append(_eq_check("cluster", "unbounded_exp_log", f"a_max={a_max}",
                         p_restricted(None, 0, 0, a_max).exp(),
                         genfun_series_zq(None, 0, 0, a_max)))
    r_order = max(1, min(a_max, 8))
    for k in range(k_max + 1):
        for m in range(k + 1):
            for n in range(m, k + 1):
                spec = GenSpec(k, m, n, 2 * r_order + (n - m))
                out.append(_eq_check(
                    "cluster", "restricted_exp_log", f"k={k} m={m} n={n}",
                    genfun_via_cluster(spec), genfun(spec).full_series()))
    for k in range(1, k_max + 1):
        f = fk_polynomial(k).resized(2 * a_max).to_double_step()
        out.append(_eq_check("cluster", "determinant_log", f"k={k}",
                             f.log(), log_secular(k, a_max)))
    for k in range(1, min(k_max, 6) + 1):
        for n in range(k + 1):
            for a in range(1, min(a_max, 10) + 1):
                ok = degree_check(k, 0, n, a)
                out.append(CheckResult("cluster", "degree_law",
                                       f"k={k} n={n} a={a}", ok,
                                       "" if ok else "degree formula missed"))
    for k, n, a in ((2, 0, 3), (3, 1, 4), (4, 2, 6)):
        if k > k_max:
            continue
        l = 2 * a + n
        witness = max_area(k, 0, n, l)
        ok = witness == 2 * degree_formula(k, n, a) + n * (n - 1) // 2
        out.append(CheckResult("cluster", "degree_oracle_witness",
                               f"k={k} n={n} a={a}", ok,
                               "" if ok else f"max area {witness} off"))
    return out


def suite_touchdown(k_max=4, len_max=12):
    """Marked determinant three ways, marked functions against the
    oracle and the ratio route, t = 1 collapse, and both open-ended
    routes."""
    out = []
    for k in range(min(k_max + 5, 10) + 1):
        L = det_degree(k) + 2
        a = tilde_secular(k, L)
        out.append(_eq_check("touchdown", "marked_det_toprow", f"k={k}",
                             a, tilde_secular_toprow(k, L)))
        out.append(_eq_check("touchdown", "marked_det_direct", f"k={k}",
                             a, tilde_secular_direct(k)))
    for k in range(k_max + 1):
        for m in range(k + 1):
            for n in range(m, k + 1):
                tg = tilde_genfun(k, m, n, len_max)
                tab = genfun_from_table(
                    enumerate_paths(k, m, n, len_max), with_touchdowns=True)
                out.append(_eq_check("touchdown", "oracle_equality",
                                     f"k={k} m={m} n={n}",
                                     tg.full_series(), tab))
                out.append(_eq_check(
                    "touchdown", "ratio_route", f"k={k} m={m} n={n}",
                    tg.series, tilde_genfun_ratio(k, m, n, len_max).series))
                out.append(_eq_check(
                    "touchdown", "collapse_at_one", f"k={k} m={m} n={n}",
                    tg.at_t_one(),
                    genfun(GenSpec(k, m, n, len_max)).full_series()))
        oe = tilde_genfun_openend(k, len_max)
        out.append(_eq_check("touchdown", "openend_routes", f"k={k}",
                             oe.series,
                             tilde_genfun_openend_shifted(k, len_max).series))
        out.append(_eq_check("touchdown", "openend_collapse", f"k={k}",
                             oe.at_t_one(),
                             genfun(GenSpec(k, 0, 0, len_max)).full_series()))
    return out


_SUITES = {
    "determinants": suite_determinants,
    "genfun": suite_genfun,
    "duality": suite_duality,
    "recursions": suite_recursions,
    "cluster": suite_cluster,
    "touchdown": suite_touchdown,
}


def run_suites(names, k_max=None, len_max=None):
    """Run the named suites (or all of them) and return the flat list of
    results; bounds default per suite when not given.  Negative bounds,
    and bounds at which no check runs, raise UsageError: a run that
    checks nothing must not pass."""
    for flag, bound in (("k_max", k_max), ("len_max", len_max)):
        if bound is not None and bound < 0:
            raise SpecOutOfRange(f"{flag} must be >= 0, got {bound}")
    results = []
    for name in names:
        fn = _SUITES[name]
        kwargs = {}
        if k_max is not None:
            kwargs["k_max"] = k_max
        if len_max is not None:
            kwargs["len_max"] = len_max
        results.extend(fn(**kwargs))
    if not results:
        raise UsageError("no checks run at these bounds")
    return results
