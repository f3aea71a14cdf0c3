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

from .exact import Convention, LSeries, QLaurent
from .spectral import InvalidHeight, fk_polynomial


class SpecOutOfRange(ValueError):
    """Heights or order outside the admissible range."""


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
        elif self.m > self.order or self.n > self.order:
            raise SpecOutOfRange(
                "unbounded ceiling: heights must not exceed the order")

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
        higher endpoint n and comes back down."""
        if self.k is not None:
            return None
        n = max(self.m, self.n)
        a = (self.order - abs(self.n - self.m)) // 2
        return a * (a - 1) + 2 * a * n


@dataclass(frozen=True)
class GenFun:
    """A computed generating function: monomial prefactor exponents plus
    the even polynomial-part series.  Only the series coefficients up to
    order - step_shift are part of the result (the ones full_series
    keeps); for an unbounded spec the ones above are not the unbounded
    counts."""

    spec: GenSpec
    series: LSeries
    step_shift: int
    area_shift: int

    def full_series(self):
        """Prefactor folded back in, truncated at the spec order."""
        s = self.series.shift_step(self.step_shift)
        if self.area_shift:
            s = s.scale(QLaurent.mono(self.area_shift))
        return s

    def coefficient(self, l, area):
        """Exact number of paths with l steps and area `area`;
        IndexError beyond the spec order."""
        if l > self.spec.order:
            raise IndexError(
                f"step power {l} beyond truncation {self.spec.order}")
        lp = l - self.step_shift
        if lp < 0:
            return 0
        return self.series.coeff(lp).coeff(area - self.area_shift)


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
    return GenFun(spec, series, n - m, (n - m) * (n + m - 1) // 2)


def genfun_excursion(k, order):
    """Floor-to-floor paths under ceiling k: F_{k-1}(zeta*theta)/F_k."""
    spec = GenSpec(k, 0, 0, order)
    series = (fk_polynomial(k - 1).resized(order).substitute_scale(1)
              * _inv_fk(k, order, None))
    return GenFun(spec, series, 0, 0)


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


@dataclass(frozen=True)
class RecursionCheck:
    name: str
    params: str
    ok: bool
    detail: str = ""


def _first_mismatch(a, b):
    L = min(a.order, b.order)
    for l in range(L + 1):
        if a.c[l] != b.c[l]:
            return f"first mismatch at step power {l}: {a.c[l]!r} != {b.c[l]!r}"
    return ""


def _mono(order, step, area):
    return LSeries(order, {step: QLaurent.mono(area)})


def check_recursions(spec):
    """Verify the transfer identities available at this spec; returns one
    RecursionCheck per identity instance (empty detail on success).

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
        ok = lhs == rhs
        out.append(RecursionCheck(
            "last_rise", f"k={k} m={m} n={n}", ok,
            "" if ok else _first_mismatch(lhs, rhs)))
    for ell in range(m, n):
        rhs = (_mono(L, 1, ell) * series(k, ell + 1, n) * series(ell, m, ell))
        ok = lhs == rhs
        out.append(RecursionCheck(
            "intermediate_level", f"k={k} m={m} n={n} ell={ell}", ok,
            "" if ok else _first_mismatch(lhs, rhs)))
    if m < n < k:
        rhs = (_mono(L, 1, n - 1) * series(k, m, n - 1)
               + _mono(L, 1, n) * series(k, m, n + 1))
        ok = lhs == rhs
        out.append(RecursionCheck(
            "last_step", f"k={k} m={m} n={n}", ok,
            "" if ok else _first_mismatch(lhs, rhs)))
    if m == n == 0 and k >= 1:
        g = genfun_excursion(k, L).full_series()
        below = genfun_excursion(k - 1, L).full_series().substitute_scale(1)
        rhs = LSeries.one(L) + below.shift_step(2) * g
        ok = g == rhs
        out.append(RecursionCheck(
            "first_return", f"k={k}", ok,
            "" if ok else _first_mismatch(g, rhs)))
    return out


def continued_fraction(k, order):
    """Excursion generating function as a depth-k continued fraction:
    level j contributes a denominator 1 - zeta^2 theta^(2j) * (level
    j+1), for j = k-1 down to 0, with 1 below the last level.  Evaluated
    bottom-up entirely in the truncated-series ring."""
    if k < 0:
        raise InvalidHeight(f"ceiling {k} must be >= 0")
    one = LSeries.one(order)
    cur = one
    for j in range(k - 1, -1, -1):
        cur = one.divide(one - cur.scale(QLaurent.mono(2 * j)).shift_step(2))
    return cur
