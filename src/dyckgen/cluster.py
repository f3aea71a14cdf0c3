"""Cluster expansion of the logarithms of the path generating functions.

Everything in this module works in double-step units: z marks a pair of
steps (one up, one down) and q marks a diamond of area.  The logarithm
of the floor-to-floor generating function with no ceiling is

    ln G = sum_a z^a p_a(q),

where p_a collects one term c_2(l_1..l_j) * q^(sum (i-1) l_i) for every
ordered composition (l_1, ..., l_j) of a: part l_i is the number of
exclusion-2 particles in the cluster sitting at the i-th level above the
bottom of the cluster, and c_2 is the linked-cluster weight.  With a
ceiling, and more generally for endpoints (m, n), each composition's
cluster can sit at a window of base levels, which contributes a finite
geometric sum in q^a instead of the bare term; the expansion stays
polynomial because the geometric sums are expanded, never written as
rational functions.

For m != n there is also a non-series prefactor carrying fractional
powers; its logarithm contributes (n-m)/2 * ln z plus
(n-m)(n+m-1)/4 * ln q, reported alongside the polynomial data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .config import SpecOutOfRange
from .exact import LSeries, QLaurent
from .genfun import GenSpec, genfun


def compositions(a, max_parts=None):
    """Ordered sequences of positive parts summing to a, streamed in
    colexicographic order (last part varying slowest)."""
    if a < 1:
        raise ValueError("need a positive total")
    limit = a if max_parts is None else min(max_parts, a)

    def rec(rem, budget):
        if rem == 0:
            yield ()
            return
        if budget <= 0:
            return
        for last in range(1, rem + 1):
            for head in rec(rem - last, budget - 1):
                yield head + (last,)

    yield from rec(a, limit)


def c2(comp):
    """Linked-cluster weight of a composition: 1/l_1 times the product
    over adjacent parts of C(l_i + l_{i+1} - 1, l_{i+1})."""
    if not comp or any(l < 1 for l in comp):
        raise ValueError("composition parts must be >= 1")
    out = Fraction(1, comp[0])
    for li, lj in zip(comp, comp[1:]):
        out *= comb(li + lj - 1, lj)
    return int(out) if out.denominator == 1 else out


def c2_factorial(comp):
    """Same weight as a single ratio of factorials (independent form,
    cross-checked against c2 in the tests)."""
    if not comp or any(l < 1 for l in comp):
        raise ValueError("composition parts must be >= 1")
    num = 1
    for li, lj in zip(comp, comp[1:]):
        num *= factorial(li + lj - 1)
    den = comp[0]
    for li in comp[:-1]:
        den *= factorial(li - 1)
    for lj in comp[1:]:
        den *= factorial(lj)
    out = Fraction(num, den)
    return int(out) if out.denominator == 1 else out


def composition_energy(comp):
    """q-exponent of a cluster at base level 0: sum of (i-1)*l_i."""
    return sum(i * l for i, l in enumerate(comp))


def _geom(step, r_min, r_max):
    """Finite geometric sum q^(step*r) for r = r_min..r_max, expanded."""
    if r_max < r_min:
        return QLaurent.zero()
    return QLaurent._wrap({step * r: 1 for r in range(r_min, r_max + 1)})


@dataclass(frozen=True)
class PPolynomial:
    """Coefficient of z^a in a cluster logarithm; `value` is a Laurent
    polynomial in q (here always an ordinary polynomial)."""

    a: int
    value: QLaurent


@dataclass(frozen=True)
class MeanderLog:
    """Logarithm of an endpoint generating function in double-step
    units: fractional-power prefactor contributions log_z * ln z +
    log_q * ln q, plus the z-power series coefficients."""

    k: int | None
    m: int
    n: int
    log_z: Fraction
    log_q: Fraction
    p: tuple


def p_unbounded(a):
    """Coefficient of z^a in ln G with no ceiling: sum over all
    compositions of a of c2 times q^energy."""
    out = QLaurent.zero()
    for comp in compositions(a):
        out = out + QLaurent.mono(composition_energy(comp), c2(comp))
    return out


def log_genfun_unbounded(a_max):
    """ln G with no ceiling, coefficients of z^1..z^a_max."""
    return tuple(PPolynomial(a, p_unbounded(a)) for a in range(1, a_max + 1))


def p_restricted(k, m, n, a):
    """Coefficient of z^a in the series part of ln G for ceiling k
    (None = unbounded) and endpoints m <= n: each composition with j
    parts is summed over base levels r with max(m-j, 0) <= r <= n and,
    for finite k, r <= k-j; parts are capped at k."""
    if not 0 <= m <= n:
        raise SpecOutOfRange("need 0 <= m <= n")
    if k is not None and n > k:
        raise SpecOutOfRange("endpoints must not exceed the ceiling")
    if a < 1:
        raise ValueError("need a positive z power")
    out = QLaurent.zero()
    max_parts = None if k is None else k
    for comp in compositions(a, max_parts):
        j = len(comp)
        r_min = max(m - j, 0)
        r_max = n if k is None else min(k - j, n)
        window = _geom(a, r_min, r_max)
        if window.is_zero():
            continue
        out = out + window.shift(composition_energy(comp)).scale(c2(comp))
    return out


def log_genfun_restricted(k, m, n, a_max):
    """Full logarithm data for the (k, m, n) generating function up to
    z^a_max."""
    p = tuple(PPolynomial(a, p_restricted(k, m, n, a))
              for a in range(1, a_max + 1))
    return MeanderLog(k, m, n,
                      Fraction(n - m, 2),
                      Fraction((n - m) * (n + m - 1), 4),
                      p)


def log_secular(k, a_max):
    """Coefficients of z^1..z^a_max in ln F_k: minus the sum over
    compositions with at most k parts of c2 * q^energy times the base
    window sum r = 0..k-j, which is p_restricted(k, 0, k, a)."""
    if k < 0:
        raise SpecOutOfRange("ceiling must be >= 0")
    return tuple(-p_restricted(k, 0, k, a) for a in range(1, a_max + 1))


def degree_formula(k, n, a):
    """Predicted q-degree of the z^a coefficient of the series part:
    a(a-1)/2 + a*n while the ceiling is out of reach (a <= k-n or no
    ceiling), then (k-n-1)(2a-k+n)/2 + a*n once it bites."""
    if n < 0 or a < 1:
        raise ValueError("need n >= 0 and a >= 1")
    if k is None or a <= k - n:
        return a * (a - 1) // 2 + a * n
    return (k - n - 1) * (2 * a - k + n) // 2 + a * n


def degree_check(k, m, n, a):
    """Does the computed z^a coefficient have exactly the predicted
    q-degree?"""
    value = p_restricted(k, m, n, a)
    return value.degree() == degree_formula(k, n, a)


def genfun_series_zq(k, m, n, z_order):
    """Series part of the (k, m, n) generating function rewritten in
    double-step units (coefficient of z^a is a polynomial in q).  The
    z^a coefficient counts paths of 2a + |n - m| steps, so the spec
    order covers that many."""
    m, n = min(m, n), max(m, n)
    gf = genfun(GenSpec(k, m, n, 2 * z_order + n - m))
    return gf.series.resized(2 * z_order).to_double_step()


def genfun_via_cluster(spec):
    """Full generating-function series (internal units) reconstructed by
    exponentiating the cluster logarithm; an independent multiplicative
    route to the same object as genfun."""
    m, n = min(spec.m, spec.n), max(spec.m, spec.n)
    step_shift, area_shift = spec.step_shift, spec.area_shift
    z_order = (spec.order - step_shift) // 2
    if z_order < 0:
        return LSeries.zeros(spec.order)
    lg = log_genfun_restricted(spec.k, m, n, z_order)
    zs = LSeries(z_order, {pp.a: pp.value for pp in lg.p})
    s = zs.exp()
    coeffs = {}
    for a in range(z_order + 1):
        v = s.coeff(a)
        if not v.is_zero():
            coeffs[2 * a + step_shift] = v.scale_exponents(2).shift(area_shift)
    return LSeries(spec.order, coeffs)
