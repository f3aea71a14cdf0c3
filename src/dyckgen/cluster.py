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

c_2 is 1/l_1 times a product over adjacent parts, and the energy adds
(i-1) l_i at part i, so the sum over compositions runs as a transfer
matrix over adjacent parts (p_restricted): polynomial in a, where
listing the 2^(a-1) compositions is not.  The explicit compositions
remain as the brute-force reference for the weights.

For m != n the monomial prefactor of the generating function carries
fractional powers in these units; its logarithm, step_shift/2 * ln z
plus area_shift/2 * ln q (GenSpec properties), is not part of the
series computed here.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .config import SpecOutOfRange, check_ceiling
from .exact import LSeries, QLaurent
from .genfun import GenFun, GenSpec, genfun


def compositions(a):
    """Ordered sequences of positive parts summing to a, streamed in
    colexicographic order (last part varying slowest)."""
    if a < 1:
        raise ValueError("need a positive total")

    def rec(rem):
        if rem == 0:
            yield ()
            return
        for last in range(1, rem + 1):
            for head in rec(rem - last):
                yield head + (last,)

    yield from rec(a)


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


def p_restricted(k, m, n, a_max):
    """Series part of ln G for ceiling k (None = unbounded) and endpoints
    m <= n, as an LSeries in z to order a_max with constant term 0.

    The z^a coefficient sums c2 * q^energy over the compositions of a
    with at most k parts (any number when unbounded), each with j parts
    summed over the base levels r with max(m-j, 0) <= r <= n and, for
    finite k, r <= k-j.  The sum runs as a transfer matrix over adjacent
    parts: layer j maps (last part l, running total s) to the weight of
    the j-part compositions ending that way, and appending a part l2 at
    index j multiplies it by C(l+l2-1, l2) * q^(j*l2)."""
    if k is not None:
        check_ceiling(k)
    if not 0 <= m <= n:
        raise SpecOutOfRange("need 0 <= m <= n")
    if k is not None and n > k:
        raise SpecOutOfRange("endpoints must not exceed the ceiling")
    if a_max < 0:
        raise ValueError("need a non-negative z order")
    zero = QLaurent.zero()
    p = [zero] * (a_max + 1)
    layer = {(l, l): QLaurent.const(c2((l,))) for l in range(1, a_max + 1)}
    j = 1
    while layer and (k is None or j <= k):
        r_max = n if k is None else min(n, k - j)
        totals = {}
        for (_, s), v in layer.items():
            totals[s] = totals.get(s, zero) + v
        for s, v in totals.items():
            for r in range(max(m - j, 0), r_max + 1):
                p[s] = p[s] + v.shift(s * r)
        grown = {}
        for (l, s), v in layer.items():
            for l2 in range(1, a_max - s + 1):
                w = v.scale(comb(l + l2 - 1, l2))
                grown[l2, s + l2] = grown.get((l2, s + l2), zero) + w
        layer = {(l2, s): v.shift(j * l2) for (l2, s), v in grown.items()}
        j += 1
    return LSeries(a_max, p)


def log_secular(k, a_max):
    """ln F_k in z to order a_max: minus the cluster sum over the
    compositions with at most k parts, each over the base levels
    r = 0..k-j, which is -p_restricted(k, 0, k, a_max)."""
    check_ceiling(k)
    return -p_restricted(k, 0, k, a_max)


def degree_formula(k, n, a):
    """Predicted q-degree of the z^a coefficient of the series part:
    a(a-1)/2 + a*n while the ceiling is out of reach (a <= k-n or no
    ceiling), then (k-n-1)(2a-k+n)/2 + a*n once it bites."""
    if k is not None:
        check_ceiling(k)
    if n < 0 or a < 1:
        raise ValueError("need n >= 0 and a >= 1")
    if k is None or a <= k - n:
        return a * (a - 1) // 2 + a * n
    return (k - n - 1) * (2 * a - k + n) // 2 + a * n


def degree_check(k, m, n, a):
    """Does the computed z^a coefficient have exactly the predicted
    q-degree?"""
    value = p_restricted(k, m, n, a).coeff(a)
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
    z_order = max((spec.order - spec.step_shift) // 2, 0)
    s = p_restricted(spec.k, m, n, z_order).exp()
    series = LSeries(spec.order,
                     {2 * a: v.scale_exponents(2) for a, v in enumerate(s.c)})
    return GenFun(spec, series).full_series()
