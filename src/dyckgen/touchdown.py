"""Generating functions refined by the number of returns to the floor.

Marking the down-step into height 0 with a formal variable t turns the
walk operator into an asymmetric variant whose determinant is

    tF_k = t * F_k + (1 - t) * F_{k-1}(zeta*theta),

with tF_{-1} = tF_0 = 1 (no marked step can occur below one level).
The marked endpoint generating function keeps the usual prefactor and
numerator upper factor but swaps both remaining determinants for their
marked versions:

    tG_{k,mn} = prefactor * tF_{m-1} * F_{k-n-1}(zeta*theta^(n+1)) / tF_k,

for 0 <= m <= n <= k.  Coefficients live in the marker ring: the t^s
part of the zeta^l coefficient counts paths with exactly s floor
returns.  t is formal throughout; specialize with at_t_one() or by
extracting marker coefficients.  The marked operator is not symmetric
in the endpoints, but a path read backwards keeps its length and area
and turns each step onto the floor into one off it, and a path from
m > 0 to 0 lands on the floor once more than it leaves it.  So
tG_(m,n) = tG_(n,m) for n >= 1 and tG_(m,0) = t * tG_(0,m), and the
routes accept any endpoints in 0..k.

The marked determinant is linear in t.  Its top-row expansion is

    tF_k = A - t * C,  A = F_{k-1}(zeta*theta),
                       C = zeta^2 * F_{k-2}(zeta*theta^2),

so 1/tF_k = sum_s t^s C^s / A^(s+1), and R = C/A = zeta^2
G_{k-1}(zeta*theta) is one arch: an up-step, an excursion one level
higher, and the marked down-step back to the floor.  An excursion is a
sequence of arches, so every marked route is geometric in R: for
s >= 1 its t^s part, the count series of the paths with s floor
returns, is R^(s-1) times its t^1 part (_geometric).  The routes build
the parts in the packed ring of the determinant route.

Every route is cross-checkable: the determinant has a top-row expansion
and a literal matrix form, and the quotient has an equivalent expression
through ratios of unmarked excursion functions,

    tG_{k,mn} = G_{k,mn} * [t + (1-t) G_{m-1}] / [t + (1-t) G_k],

which tilde_genfun_ratio evaluates in the same packed ring, with the
same arch written as R = (G_k - 1)/G_k: 1/[t + (1-t) G_k] =
(1/G_k) * sum_s t^s R^s.
"""

from functools import lru_cache

from . import spectral
from .config import CACHE_ENTRIES, check_ceiling, check_order
from .exact import LSeries, PackedRing, QLaurent, TPoly, lift_marker
from .genfun import (GenFun, GenSpec, det_degree, fk_polynomial, packed_fk,
                     packed_genfun)

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
    (1 when k <= 0), by series substitutions, each F_j the exclusion sum
    (F_(-1) = 1): t*F_k + (1-t)*A = A - t*C by fk_polynomial's own
    recursion, so built from it the two would agree from any base."""
    check_ceiling(k, lowest=-1)
    check_order(order)
    if k <= 0:
        return LSeries.one(order, TPoly)
    a = spectral.grand_partition_exclusion(k - 1, order).substitute_scale(1)
    c = (spectral.grand_partition_exclusion(k - 2, order) if k > 1
         else LSeries.one(order)).substitute_scale(2)
    return lift_marker(a) - lift_marker(c.shift_step(2)).scale(_T)


def tilde_secular_direct(k):
    """Same determinant by literal elimination on the marked matrix, to
    two steps past its degree: the hop from height 1 down to 0 carries
    weight t*zeta, its partner up-hop plain zeta, all other hops the
    usual zeta*theta^n."""
    check_ceiling(k)
    L = det_degree(k) + 2
    up = [{1: TPoly({0: QLaurent.mono(n, -1)})} for n in range(k)]
    # row n, column n+1: amplitude n+1 -> n
    down = [{1: TPoly({1: -1})} if n == 0 else up[n]
            for n in range(k)]
    return spectral.det_elimination(spectral.tridiagonal(down, up, L, TPoly))


def _marker_series(ring, cols, spec):
    """The answer to spec whose series part has the packed t^s part
    cols[s]: every entry of every part is decoded in one batch, and part
    s's slice of it fills the t^s terms of the marker polynomials, one
    per step power (as in unpack); decoded values are area polynomials
    already, so the rows are wrapped uncoerced."""
    order, step = spec.series_order, spec.step_shift
    size = order // 2 + 1
    rows = [{} for _ in range(size)]
    vals = ring.decoded(cols, order, spec.area_shift)
    for s in range(len(cols)):
        for row, v in zip(rows, vals[s * size:(s + 1) * size]):
            if v._c:
                row[s] = v
    out = [TPoly.zero()] * (max(spec.order, step) + 1)
    out[step::2] = map(TPoly._wrap, rows)
    return LSeries._wrap(spec.order, out[:spec.order + 1], TPoly)


def _marked_parts(ring, k, order):
    """A and C of tF_k = A - t*C (tilde_secular_toprow), packed in ring:
    zeta -> zeta*theta, zeta*theta^2 are pack shifts, zeta^2 one entry."""
    if k <= 0:
        return packed_fk(ring, 0, order), (0,) * (order // 2 + 1)
    c = packed_fk(ring, k - 2, order, 2)
    return packed_fk(ring, k - 1, order, 1), (0,) + c[:-1]


@lru_cache(maxsize=CACHE_ENTRIES)
def _arch(k, order, width):
    """(A, R = C/A) of tF_k = A - t*C to `order` steps, packed in
    PackedRing(width), a spec's packed_ring; the key fixes the value."""
    ring = PackedRing(width)
    a, c = _marked_parts(ring, k, order)
    return a, ring.quotient(c, a)


def _geometric(spec, ring, p0, p1, ratio):
    """The answer to spec whose series part, with the endpoints in
    order, is p0 + t*p1 / (1 - t*R) for the packed arch R: its t^s
    parts are [p0, p1, p1*R, p1*R^2, ...] to s = max(L//2, 1) for the
    series order L (R and p1 start at z^1, so no part past L//2 holds
    a term).  For m > n = 0, tG_(m,0) = t * tG_(0,m) puts one zero part
    in front."""
    top = spec.series_order // 2
    parts = [p0, p1]
    while len(parts) <= top:
        parts.append(ring.mul(parts[-1], ratio))
    if spec.m > spec.n == 0:
        parts.insert(0, (0,) * (top + 1))
    return GenFun(spec, _marker_series(ring, parts, spec))


def tilde_genfun(k, m, n, order):
    """Floor-return-marked generating function for paths m -> n under
    ceiling k (None = unbounded, computed at GenSpec.ceiling); m > n
    by path reversal from n -> m.

    With tF_k = A - t*C and tF_(m-1) = A' - t*C' (m <= n), the t^0
    part is A' * Y and the t^1 part Y * (A' * R - C'), then geometric in
    the arch R = C/A, where Y = F_(k-n-1)(zeta*theta^(n+1)) / A.  Y and
    R are each one packed quotient by the polynomial A; A and R come
    from the `_arch` cache under the ring's width.  Every product
    and quotient runs to spec.series_order in spec.packed_ring; the t^s
    parts are decoded at the end, straight into the marker polynomials
    of the answer."""
    spec = GenSpec(k, m, n, order)
    spec.check_guards(marked=True)
    k, ring, order = spec.ceiling, spec.packed_ring, spec.series_order
    m, n = sorted((m, n))
    a, ratio = _arch(k, order, ring.width)
    y = ring.quotient(packed_fk(ring, k - n - 1, order, n + 1), a)
    a, c = _marked_parts(ring, m - 1, order)   # now A' and C'
    first = tuple(u - v for u, v in zip(ring.mul(a, ratio), c))
    return _geometric(spec, ring, ring.mul(a, y), ring.mul(y, first),
                      ratio)


def tilde_genfun_ratio(k, m, n, order):
    """Cross-check route: the marked function equals the unmarked one
    times [t + (1-t) G_(m-1)] / [t + (1-t) G_k], with G_(-1) = 1 (m > n
    by path reversal, as in tilde_genfun).

    With x = base/G_k and the arch R = (G_k - 1)/G_k, the t^0 part is
    p0 = x * G_(m-1) and the t^1 part p1 = x + p0 * R - p0, then
    geometric in R.  base, G_k and G_(m-1) are unmarked series parts
    (packed_genfun, never the marked determinant), to
    spec.series_order in spec.packed_ring, as in tilde_genfun."""
    spec = GenSpec(k, m, n, order)
    spec.check_guards(marked=True)
    k, ring, order = spec.ceiling, spec.packed_ring, spec.series_order
    m, n = sorted((m, n))
    base = packed_genfun(ring, k, m, n, order)
    # G_k is the base series itself when m = n = 0
    g = base if n == 0 else packed_genfun(ring, k, 0, 0, order)
    ratio, x = ring.quotient((0,) + g[1:], g), ring.quotient(base, g)
    p0 = ring.mul(x, packed_genfun(ring, m - 1, 0, 0, order))
    p1 = tuple(u + v - w for u, v, w in zip(x, ring.mul(p0, ratio), p0))
    return _geometric(spec, ring, p0, p1, ratio)


def _open_end(gf):
    """1 + (gf - 1)/t for a marked excursion function gf: every closed
    excursion ends with a return, so dividing its nontrivial part by t,
    coefficient by coefficient, leaves that last return unmarked."""
    one = LSeries.one(gf.spec.order, TPoly)
    g = gf.full_series() - one
    return GenFun(gf.spec, g.map_coeffs(TPoly.div_t_exact) + one)


def tilde_genfun_openend(k, order):
    """Marked excursions with the final floor return left unmarked:
    1 + (G_k - 1) / [t + (1-t) G_k], the ratio route's excursion
    function with its last marker divided out (_open_end)."""
    check_ceiling(k)
    return _open_end(tilde_genfun_ratio(k, 0, 0, order))


def tilde_genfun_openend_shifted(k, order):
    """Cross-check route for the open-ended function: the determinant
    route's excursion function with its last marker divided out."""
    check_ceiling(k)
    return _open_end(tilde_genfun(k, 0, 0, order))
