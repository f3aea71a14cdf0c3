"""Length-and-area generating functions for strip paths between two
heights, with the identities relating them.

The coefficient of zeta^l theta^A in the full generating function counts
the paths of l steps and area A from height m to height n inside the
strip 0..k.  Structurally each function is a monomial prefactor
zeta^(n-m) theta^((n-m)(n+m-1)/2) times an even series equal to

    F_{m-1}(zeta, theta) * F_{k-n-1}(zeta*theta^(n+1), theta) / F_k,

where F is the ceiling determinant; the prefactor is kept separate so
that callers can work with the polynomial part alone (its area exponents
stay integral even after the double-step rescale).

An unbounded ceiling is requested with k = None.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .config import SpecOutOfRange
from .exact import Convention, LSeries, QLaurent, TPoly
from .spectral import fk_polynomial


@dataclass(frozen=True)
class GenSpec:
    """Request for one generating function: ceiling k (None means
    unbounded), endpoint heights m and n, truncation order in steps, and
    the reporting convention."""

    k: int | None
    m: int
    n: int
    order: int
    convention: Convention = Convention.STEP_PLAQUETTE

    def __post_init__(self):
        if self.order < 0:
            raise SpecOutOfRange("order must be >= 0")
        if self.m < 0 or self.n < 0:
            raise SpecOutOfRange("heights must be >= 0")
        if self.k is not None:
            if self.k < 0:
                raise SpecOutOfRange("ceiling must be >= 0 (or None)")
            if self.m > self.k or self.n > self.k:
                raise SpecOutOfRange(
                    f"heights ({self.m}, {self.n}) must lie in 0..{self.k}")

    @property
    def ceiling(self):
        """Effective ceiling: k itself when finite.  When unbounded, the
        lowest ceiling that gives the exact unbounded coefficients: a
        path of l <= order steps from m to n rises (l - |n - m|)/2 above
        the higher endpoint at most, so it never climbs past
        (order + m + n)/2, and the path that goes straight up and then
        straight down reaches that height."""
        if self.k is not None:
            return self.k
        return max(self.m, self.n, (self.order + self.m + self.n) // 2)

    @property
    def area_cap(self):
        """Largest area exponent the series part can carry, or None for
        a finite ceiling (no truncation).  When unbounded, the most area
        at a = (order - |n - m|)/2 step pairs beyond the direct rise is
        a(a-1) + 2an plaquettes, from the path that climbs a above the
        higher endpoint n and comes back down.  When no path of at most
        `order` steps joins m and n, a < 0 and the cap goes negative, so
        every capped product, and the series, is empty."""
        if self.k is not None:
            return None
        n = max(self.m, self.n)
        a = (self.order - abs(self.n - self.m)) // 2
        return a * (a - 1) + 2 * a * n

    @property
    def step_shift(self):
        """Step exponent of the monomial prefactor: |n - m|."""
        return abs(self.n - self.m)

    @property
    def area_shift(self):
        """Area exponent of the monomial prefactor: (n-m)(n+m-1)/2 for
        m <= n (symmetric in the endpoints)."""
        return self.step_shift * (self.m + self.n - 1) // 2


@dataclass(frozen=True)
class GenFun:
    """A computed generating function: the series part, whose monomial
    prefactor is fixed by the spec (GenSpec.step_shift, area_shift).
    Coefficients are area polynomials, or marker polynomials whose t^s
    part counts paths with s floor returns (touchdown results).  Only
    the series coefficients up to order - step_shift are part of the
    result (the ones full_series keeps); for an unbounded spec the ones
    above are not the unbounded counts."""

    spec: GenSpec
    series: LSeries

    def _with_prefactor(self, s):
        s = s.shift_step(self.spec.step_shift)
        if self.spec.area_shift:
            s = s.scale(QLaurent.mono(self.spec.area_shift))
        return s

    def full_series(self):
        """Prefactor folded back in, truncated at the spec order."""
        return self._with_prefactor(self.series)

    def at_t_one(self):
        """Forget the touchdown statistic: the plain area series (the
        full series itself when unmarked)."""
        if self.series.ring is not TPoly:
            return self.full_series()
        return self._with_prefactor(self.series.map_coeffs(TPoly.at_t_one))

    def coefficient(self, l, area, touchdowns=None):
        """Exact number of paths with l steps, area `area` and, on a
        touchdown result, the given number of floor returns (any number
        when None); IndexError beyond the spec order."""
        if l > self.spec.order:
            raise IndexError(
                f"step power {l} beyond truncation {self.spec.order}")
        lp = l - self.spec.step_shift
        if lp < 0:
            return 0
        v = self.series.coeff(lp)
        if self.series.ring is TPoly:
            v = v.at_t_one() if touchdowns is None else v.coeff(touchdowns)
        elif touchdowns is not None:
            raise ValueError("floor returns are counted on touchdown results")
        return v.coeff(area - self.spec.area_shift)


@lru_cache(maxsize=None)
def _inv_fk(k, order, cap):
    """1/F_k to `order` steps, area exponents above `cap` dropped (None
    keeps them all)."""
    return LSeries.one(order).divide(fk_polynomial(k).resized(order), cap)


def genfun(spec):
    """Generating function for spec; symmetric in (m, n).

    Every factor has non-negative area exponents, so an unbounded spec
    drops the exponents above its area cap throughout; that is exact for
    the coefficients full_series keeps."""
    k = spec.ceiling
    m, n = min(spec.m, spec.n), max(spec.m, spec.n)
    L = spec.order
    cap = spec.area_cap
    num = fk_polynomial(m - 1).resized(L)
    upper = fk_polynomial(k - n - 1).resized(L).substitute_scale(n + 1)
    series = num.mul(upper, cap).mul(_inv_fk(k, L, cap), cap)
    return GenFun(spec, series)


def genfun_excursion(k, order):
    """Floor-to-floor paths under ceiling k: F_{k-1}(zeta*theta)/F_k."""
    spec = GenSpec(k, 0, 0, order)
    series = (fk_polynomial(k - 1).resized(order).substitute_scale(1)
              * _inv_fk(k, order, None))
    return GenFun(spec, series)


@dataclass(frozen=True)
class WeightedGenFun:
    """Step-resolved form: counts keyed by (up steps, down steps) rather
    than a single length power.  A path from m to n with l steps has
    (l + n - m)/2 ups and (l - n + m)/2 downs, so this is an exact
    relabeling; keeping the two exponents separate avoids fractional
    powers when up and down steps carry distinct weights."""

    spec: GenSpec
    terms: dict = field(compare=False)

    def collapse(self):
        """Set both step weights equal again, recovering the plain
        series."""
        coeffs = {}
        for (u, d), v in self.terms.items():
            coeffs[u + d] = coeffs.get(u + d, QLaurent.zero()) + v
        return LSeries(self.spec.order, coeffs)


def genfun_weighted(spec):
    gf = genfun(spec)
    full = gf.full_series()
    delta = spec.n - spec.m
    terms = {}
    for l, v in full.nonzero_terms():
        if (l + delta) % 2 or (l - delta) % 2:
            raise AssertionError("length parity violated")
        terms[((l + delta) // 2, (l - delta) // 2)] = v
    return WeightedGenFun(spec, terms)


def check_duality(spec):
    """Vertical reflection: sending heights (m, n) to (k-m, k-n),
    inverting the area variable and rescaling zeta -> zeta*theta^(k-1)
    must reproduce the original function exactly."""
    if spec.k is None:
        raise SpecOutOfRange("duality needs a finite ceiling")
    k = spec.k
    lhs = genfun(spec).full_series()
    reflected = genfun(
        GenSpec(k, k - spec.m, k - spec.n, spec.order, spec.convention))
    rhs = reflected.full_series().invert_q().substitute_scale(k - 1)
    return lhs == rhs


def continued_fraction(k, order):
    """Excursion generating function as a depth-k continued fraction:
    level j contributes a denominator 1 - zeta^2 theta^(2j) * (level
    j+1), for j = k-1 down to 0, with 1 below the last level.  Evaluated
    bottom-up entirely in the truncated-series ring."""
    if k < 0:
        raise SpecOutOfRange(f"ceiling {k} must be >= 0")
    one = LSeries.one(order)
    cur = one
    for j in range(k - 1, -1, -1):
        cur = one.divide(one - cur.scale(QLaurent.mono(2 * j)).shift_step(2))
    return cur
