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
through ratios of unmarked excursion functions,

    tG_{k,mn} = G_{k,mn} * [t + (1-t) G_{m-1}] / [t + (1-t) G_k],

which tilde_genfun_ratio evaluates in the same packed ring, expanding
1/[t + (1-t) G_k] in powers of G_k - 1.
"""

from __future__ import annotations

from functools import lru_cache

from .config import CACHE_ENTRIES, SpecOutOfRange, check_ceiling, check_order
from .exact import LSeries, QLaurent, TPoly, lift_marker
from .genfun import GenFun, GenSpec, packed_genfun
from .spectral import det_elimination, fk_polynomial, tridiagonal

_T = TPoly.marker()


@lru_cache(maxsize=CACHE_ENTRIES, typed=True)
def tilde_secular(k, order):
    """Marked determinant t*F_k + (1-t)*F_{k-1}(zeta*theta) as a series
    with marker-polynomial coefficients; tF_{-1} = tF_0 = 1.  The cache
    is typed, so a float ceiling equal to a cached int still reaches the
    ceiling check."""
    check_ceiling(k, lowest=-1)
    check_order(order)
    if k <= 0:
        return LSeries.one(order, TPoly)
    fk = lift_marker(fk_polynomial(k).resized(order))
    fk1 = lift_marker(
        fk_polynomial(k - 1).resized(order).substitute_scale(1))
    return fk.scale(_T) + fk1 - fk1.scale(_T)


def tilde_secular_toprow(k, order):
    """Same determinant by expanding along the marked first row:
    A - t*C with A = F_{k-1}(zeta*theta), C = zeta^2*F_{k-2}(zeta*theta^2)
    (1 when k <= 0), by series substitutions."""
    check_ceiling(k, lowest=-1)
    check_order(order)
    if k <= 0:
        return LSeries.one(order, TPoly)
    a = fk_polynomial(k - 1).substitute_scale(1).resized(order)
    c = fk_polynomial(k - 2).substitute_scale(2).resized(order)
    return lift_marker(a) - lift_marker(c.shift_step(2)).scale(_T)


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


def _marker_series(ring, cols, spec):
    """The answer to spec whose series part has the packed t^s part
    cols[s]: every entry of every part is decoded in one batch, straight
    into the marker polynomial of its step power (as in unpack);
    decoded values are area polynomials already, so the rows are
    wrapped uncoerced."""
    order, step = spec.series_order, spec.step_shift
    size = order // 2 + 1
    rows = [{} for _ in range(size)]
    for j, v in enumerate(ring.decoded(cols, order, spec.area_shift)):
        if v:
            s, i = divmod(j, size)
            rows[i][s] = v
    out = [TPoly.zero()] * (max(spec.order, step) + 1)
    out[step::2] = map(TPoly._wrap, rows)
    return LSeries._wrap(spec.order, out[:spec.order + 1], TPoly)


def _marked_parts(ring, k, order):
    """A and C of tF_k = A - t*C (tilde_secular_toprow), packed in ring:
    zeta -> zeta*theta, zeta*theta^2 are pack shifts, zeta^2 one entry."""
    if k <= 0:
        return ring.pack(LSeries.one(order)), (0,) * (order // 2 + 1)
    c = ring.pack(fk_polynomial(k - 2).resized(order), 2)
    return ring.pack(fk_polynomial(k - 1).resized(order), 1), (0,) + c[:-1]


def tilde_genfun(k, m, n, order):
    """Floor-return-marked generating function for paths m -> n under
    ceiling k (None = unbounded, computed at GenSpec.ceiling); requires
    0 <= m <= n (no endpoint symmetry here).

    With tF_k = A - t*C and tF_(m-1) = A' - t*C', the t^s part of the
    series is A' * Y for s = 0 and Y * (A' * C/A - C') * (C/A)^(s-1)
    for s >= 1, where Y = F_(k-n-1)(zeta*theta^(n+1)) / A.  Y and the
    arch C/A are each one packed quotient by the polynomial A.  Every
    product and quotient runs to spec.series_order in spec.packed_ring;
    the t^s parts are decoded at the end, straight into the marker
    polynomials of the answer."""
    spec = GenSpec(k, m, n, order)
    if m > n:
        raise SpecOutOfRange("need 0 <= m <= n <= ceiling")
    k, ring, order = spec.ceiling, spec.packed_ring, spec.series_order
    upper = ring.pack(fk_polynomial(k - n - 1).resized(order), n + 1)
    a, c = _marked_parts(ring, k, order)
    y, ratio = ring.quotient(upper, a), ring.quotient(c, a)
    a, c = _marked_parts(ring, m - 1, order)   # now A' and C'
    first = tuple(u - v for u, v in zip(ring.mul(a, ratio), c))
    arches = [ring.mul(a, y), ring.mul(y, first)]
    while len(arches) <= order // 2:
        arches.append(ring.mul(arches[-1], ratio))
    return GenFun(spec, _marker_series(ring, arches, spec))


def _over_bracket(ring, h, x, y, order):
    """Packed t^s parts, s = 0..order//2, of (x + (t-1)*y) / [t + (1-t)*G]
    for an excursion function G, given h = G - 1 packed; y = None stands
    for 0, else it must start at z^1.

    The bracket is 1 - (t-1)*h, so the quotient is sum_r (t-1)^r * a_r
    with a_0 = x and a_r = h^(r-1) * (h*x + y) for r >= 1.  h starts at
    z^1, so a_r starts at z^r and r <= order//2 suffices.  A Taylor
    shift by -1 (a_j -= a_(j+1), sweeping down) turns the powers of t-1
    into powers of t by subtractions alone; the masked ring makes it
    exact whatever the intermediate signs."""
    top = order // 2
    cur = ring.mul(h, x)
    if y is not None:
        cur = tuple(u + v for u, v in zip(cur, y))
    a = [list(x), list(cur)]
    while len(a) <= top:
        a.append(list(ring.mul(a[-1], h)))
    for i in range(top):
        for j in range(top - 1, i - 1, -1):
            aj, above = a[j], a[j + 1]
            for e in range(j + 1, top + 1):   # a_(j+1) is 0 below z^(j+1)
                aj[e] -= above[e]
    return a[:top + 1]


def tilde_genfun_ratio(k, m, n, order):
    """Cross-check route: the marked function equals the unmarked one
    times [t + (1-t) G_(m-1)] / [t + (1-t) G_k], with G_(-1) = 1.

    The numerator is base * [1 - (t-1)(G_(m-1) - 1)], so x = base and
    y = base - base * G_(m-1) in _over_bracket.  base, G_k and G_(m-1)
    are the unmarked series parts, to spec.series_order in
    spec.packed_ring, as in tilde_genfun."""
    spec = GenSpec(k, m, n, order)
    if m > n:
        raise SpecOutOfRange("need 0 <= m <= n <= ceiling")
    k, ring, order = spec.ceiling, spec.packed_ring, spec.series_order
    base = packed_genfun(ring, k, m, n, order)
    y = None
    if m > 0:
        lower = ring.mul(base, packed_genfun(ring, m - 1, 0, 0, order))
        y = tuple(u - v for u, v in zip(base, lower))
    # G_k is the base series itself when m = n = 0
    g = base if n == 0 else packed_genfun(ring, k, 0, 0, order)
    cols = _over_bracket(ring, (0,) + g[1:], base, y, order)
    return GenFun(spec, _marker_series(ring, cols, spec))


def tilde_genfun_openend(k, order):
    """Marked excursions with the final floor return left unmarked:
    1 + (G_k - 1) / [t + (1-t) G_k].  Every closed excursion ends with a
    return, so dividing the nontrivial part of the fully marked function
    by t removes exactly that last marker."""
    check_ceiling(k)
    spec = GenSpec(k, 0, 0, order)
    ring = spec.packed_ring
    h = (0,) + packed_genfun(ring, spec.ceiling, 0, 0, order)[1:]
    cols = _over_bracket(ring, h, h, None, order)
    cols[0][0] += 1
    return GenFun(spec, _marker_series(ring, cols, spec))


def tilde_genfun_openend_shifted(k, order):
    """Cross-check route for the open-ended function: divide the marked
    excursion function minus 1 by t, coefficient by coefficient."""
    one = LSeries.one(order, TPoly)
    g = tilde_genfun(k, 0, 0, order).full_series() - one
    return GenFun(GenSpec(k, 0, 0, order),
                  g.map_coeffs(TPoly.div_t_exact) + one)
