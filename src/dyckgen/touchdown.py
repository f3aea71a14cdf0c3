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

Every route is cross-checkable: the determinant has a top-row expansion
and a literal matrix form, and the quotient has an equivalent expression
through ratios of unmarked excursion functions.
"""

from __future__ import annotations

from functools import lru_cache

from .config import SpecOutOfRange
from .exact import LSeries, QLaurent, TPoly, lift_marker
from .genfun import GenFun, GenSpec, genfun, genfun_excursion
from .spectral import det_elimination, fk_polynomial, tridiagonal

_T = TPoly.marker()


@lru_cache(maxsize=None)
def tilde_secular(k, order):
    """Marked determinant t*F_k + (1-t)*F_{k-1}(zeta*theta) as a series
    with marker-polynomial coefficients; tF_{-1} = tF_0 = 1."""
    if k < -1:
        raise SpecOutOfRange(f"ceiling {k} must be >= -1")
    if k <= 0:
        return LSeries.one(order, TPoly)
    fk = lift_marker(fk_polynomial(k).resized(order))
    fk1 = lift_marker(
        fk_polynomial(k - 1).resized(order).substitute_scale(1))
    return fk.scale(_T) + fk1 - fk1.scale(_T)


def tilde_secular_toprow(k, order):
    """Same determinant by expanding along the marked first row:
    F_{k-1}(zeta*theta) - t*zeta^2*F_{k-2}(zeta*theta^2)."""
    if k < -1:
        raise SpecOutOfRange(f"ceiling {k} must be >= -1")
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
    if k < 0:
        raise SpecOutOfRange(f"ceiling {k} must be >= 0")
    L = order if order is not None else 2 * ((k + 1) // 2) + 2
    up = [{1: TPoly({0: QLaurent.mono(n, -1)})} for n in range(k)]
    # row n, column n+1: amplitude n+1 -> n
    down = [{1: TPoly({1: QLaurent.const(-1)})} if n == 0 else up[n]
            for n in range(k)]
    return det_elimination(tridiagonal(down, up, L, TPoly))


def tilde_genfun(k, m, n, order):
    """Floor-return-marked generating function for paths m -> n under
    ceiling k (None = unbounded, computed at GenSpec.ceiling); requires
    0 <= m <= n (no endpoint symmetry here)."""
    spec = GenSpec(k, m, n, order)
    if m > n:
        raise SpecOutOfRange("need 0 <= m <= n <= ceiling")
    k = spec.ceiling
    upper = lift_marker(
        fk_polynomial(k - n - 1).resized(order).substitute_scale(n + 1))
    num = tilde_secular(m - 1, order) * upper
    return GenFun(spec, num.divide(tilde_secular(k, order)))


def _excursion_bracket(j, order):
    """t + (1 - t) * G_j as a marker series; G_{-1} is taken to be 1,
    collapsing the bracket to 1."""
    if j < 0:
        return LSeries.one(order, TPoly)
    g = lift_marker(genfun_excursion(j, order).full_series())
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
    if k < 0:
        raise SpecOutOfRange(f"ceiling {k} must be >= 0")
    one = LSeries.one(order, TPoly)
    g = lift_marker(genfun_excursion(k, order).full_series())
    series = one + (g - one).divide(_excursion_bracket(k, order))
    return GenFun(GenSpec(k, 0, 0, order), series)


def tilde_genfun_openend_shifted(k, order):
    """Cross-check route for the open-ended function: divide the marked
    excursion function minus 1 by t, coefficient by coefficient."""
    g = tilde_genfun(k, 0, 0, order).series - LSeries.one(order, TPoly)
    shifted = g.map_coeffs(TPoly.div_t_exact)
    series = shifted + LSeries.one(order, TPoly)
    return GenFun(GenSpec(k, 0, 0, order), series)
