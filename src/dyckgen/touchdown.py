"""Generating functions refined by the number of returns to the floor.

Marking the down-step into height 0 with a formal variable t turns the
walk operator into an asymmetric variant whose determinant is

    tF_k = t * F_k + (1 - t) * F_{k-1}(zeta*theta),

with tF_{-1} = tF_0 = 1 (no marked step can occur below one level).
The marked endpoint generating function keeps the usual prefactor and
numerator upper factor but swaps both remaining determinants for their
marked versions:

    tG_{k,mn} = prefactor * tF_{m-1} * F_{k-n-1}(zeta*theta^(n+1)) / tF_k,

for 0 <= m <= n <= k (the marked operator is not symmetric in the
endpoints, so the order matters here).  Coefficients live in the marker
ring: the t^s part of the zeta^l coefficient counts paths with exactly
s floor returns.  t is formal throughout; specialize with at_t_one() or
by extracting marker coefficients.

The marked determinant is linear in t.  Its top-row expansion is

    tF_k = A - t * C,  A = F_{k-1}(zeta*theta),
                       C = zeta^2 * F_{k-2}(zeta*theta^2),

so 1/tF_k = sum_s t^s C^s / A^(s+1), and C/A = zeta^2 G_{k-1}(zeta*theta)
is one arch: an up-step, an excursion one level higher, and the marked
down-step back to the floor.  The t^s part of tG is therefore a plain
count series, the paths with s arches, and tilde_genfun computes one
per s in the packed ring of the determinant route, under the same area
cap.

Every route is cross-checkable: the determinant has a top-row expansion
and a literal matrix form, and the quotient has an equivalent expression
through ratios of unmarked excursion functions, which tilde_genfun_ratio
evaluates in marker-polynomial arithmetic.
"""

from __future__ import annotations

from functools import lru_cache

from .config import CACHE_ENTRIES, SpecOutOfRange, check_ceiling
from .exact import LSeries, PackedRing, QLaurent, TPoly, lift_marker
from .genfun import GenFun, GenSpec, genfun
from .spectral import det_elimination, fk_polynomial, tridiagonal

_T = TPoly.marker()


@lru_cache(maxsize=CACHE_ENTRIES, typed=True)
def tilde_secular(k, order):
    """Marked determinant t*F_k + (1-t)*F_{k-1}(zeta*theta) as a series
    with marker-polynomial coefficients; tF_{-1} = tF_0 = 1.  The cache
    is typed, so a float ceiling equal to a cached int still reaches the
    ceiling check."""
    check_ceiling(k, lowest=-1)
    if k <= 0:
        return LSeries.one(order, TPoly)
    fk = lift_marker(fk_polynomial(k).resized(order))
    fk1 = lift_marker(
        fk_polynomial(k - 1).resized(order).substitute_scale(1))
    return fk.scale(_T) + fk1 - fk1.scale(_T)


def tilde_secular_toprow(k, order):
    """Same determinant by expanding along the marked first row:
    F_{k-1}(zeta*theta) - t*zeta^2*F_{k-2}(zeta*theta^2)."""
    check_ceiling(k, lowest=-1)
    if k <= 0:
        return LSeries.one(order, TPoly)
    fk1 = lift_marker(
        fk_polynomial(k - 1).resized(order).substitute_scale(1))
    fk2 = lift_marker(
        fk_polynomial(k - 2).resized(order).substitute_scale(2))
    return fk1 - fk2.shift_step(2).scale(_T)


def tilde_secular_direct(k, order=None):
    """Same determinant by literal elimination on the marked matrix:
    the hop from height 1 down to 0 carries weight t*zeta, its partner
    up-hop plain zeta, all other hops the usual zeta*theta^n."""
    check_ceiling(k)
    L = order if order is not None else 2 * ((k + 1) // 2) + 2
    up = [{1: TPoly({0: QLaurent.mono(n, -1)})} for n in range(k)]
    # row n, column n+1: amplitude n+1 -> n
    down = [{1: TPoly({1: QLaurent.const(-1)})} if n == 0 else up[n]
            for n in range(k)]
    return det_elimination(tridiagonal(down, up, L, TPoly))


def _marked_parts(ring, k, order):
    """Packed A and C with tF_k = A - t*C, from the top-row expansion:
    A = F_(k-1)(zeta*theta) and C = zeta^2 * F_(k-2)(zeta*theta^2), or
    A = 1 and C = 0 when k <= 0."""
    if k <= 0:
        return ring.pack(LSeries.one(order)), (0,) * (order + 1)
    a = ring.pack(fk_polynomial(k - 1).resized(order), 1)
    c = ring.pack(fk_polynomial(k - 2).resized(order), 2)
    return a, ((0, 0) + c)[:order + 1]


@lru_cache(maxsize=CACHE_ENTRIES)
def _arch_factors(k, order, width, cap):
    """1/A and the arch C/A for tF_k = A - t*C, packed in
    PackedRing(width, cap): the key is everything that fixes them."""
    ring = PackedRing(width, cap)
    a, c = _marked_parts(ring, k, order)
    inv = ring.inverse(a)
    return inv, ring.mul(c, inv)


def tilde_genfun(k, m, n, order):
    """Floor-return-marked generating function for paths m -> n under
    ceiling k (None = unbounded, computed at GenSpec.ceiling); requires
    0 <= m <= n (no endpoint symmetry here).

    With tF_(m-1) = A' - t*C' and Y = F_(k-n-1)(zeta*theta^(n+1)) / A,
    the t^s part of the series is A' * Y for s = 0 and, for s >= 1,
    Y * (A' * C/A - C') * (C/A)^(s-1).  Y is formed first: the upper
    factor cancels the large area terms of 1/A, so the powers of the
    arch multiply count-sized values.  Every product runs in a packed
    ring of slot width spec.width, modulo the area cap of an unbounded
    spec; each t^s part is unpacked at the end and the marker
    polynomials are assembled from them."""
    spec = GenSpec(k, m, n, order)
    if m > n:
        raise SpecOutOfRange("need 0 <= m <= n <= ceiling")
    k = spec.ceiling
    ring = PackedRing(spec.width, spec.area_cap)
    upper = ring.pack(fk_polynomial(k - n - 1).resized(order), n + 1)
    a, c = _marked_parts(ring, m - 1, order)
    inv, ratio = _arch_factors(k, order, ring.width, spec.area_cap)
    y = ring.mul(upper, inv)
    first = tuple(u - v for u, v in zip(ring.mul(a, ratio), c))
    arches = [ring.mul(a, y), ring.mul(y, first)]
    while len(arches) <= order // 2:
        arches.append(ring.mul(arches[-1], ratio))
    cols = [ring.unpack(x).c for x in arches]
    return GenFun(spec, LSeries(order, [
        TPoly({s: col[l] for s, col in enumerate(cols)})
        for l in range(order + 1)], TPoly))


def _excursion_bracket(j, order):
    """t + (1 - t) * G_j as a marker series; G_{-1} is taken to be 1,
    collapsing the bracket to 1."""
    if j < 0:
        return LSeries.one(order, TPoly)
    g = lift_marker(genfun(GenSpec(j, 0, 0, order)).full_series())
    return g + (LSeries.one(order, TPoly) - g).scale(_T)


def tilde_genfun_ratio(k, m, n, order):
    """Cross-check route: the marked function equals the unmarked one
    times [t + (1-t) G_{m-1}] / [t + (1-t) G_k]."""
    spec = GenSpec(k, m, n, order)
    if m > n:
        raise SpecOutOfRange("need 0 <= m <= n <= ceiling")
    k = spec.ceiling
    base = lift_marker(genfun(GenSpec(k, m, n, order)).series)
    series = (base * _excursion_bracket(m - 1, order)).divide(
        _excursion_bracket(k, order))
    return GenFun(spec, series)


def tilde_genfun_openend(k, order):
    """Marked excursions with the final floor return left unmarked:
    1 + (G_k - 1) / [t + (1-t) G_k].  Every closed excursion ends with a
    return, so dividing the nontrivial part of the fully marked function
    by t removes exactly that last marker."""
    check_ceiling(k)
    spec = GenSpec(k, 0, 0, order)
    one = LSeries.one(order, TPoly)
    g = lift_marker(genfun(spec).full_series())
    series = one + (g - one).divide(_excursion_bracket(k, order))
    return GenFun(spec, series)


def tilde_genfun_openend_shifted(k, order):
    """Cross-check route for the open-ended function: divide the marked
    excursion function minus 1 by t, coefficient by coefficient."""
    g = tilde_genfun(k, 0, 0, order).series - LSeries.one(order, TPoly)
    shifted = g.map_coeffs(TPoly.div_t_exact)
    series = shifted + LSeries.one(order, TPoly)
    return GenFun(GenSpec(k, 0, 0, order), series)
