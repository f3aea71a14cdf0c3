"""Length-and-area generating functions for strip paths between two
heights, with the identities relating them.

The coefficient of zeta^l theta^A in the full generating function counts
the paths of l steps and area A from height m to height n inside the
strip 0..k.  Structurally each function is a monomial prefactor
zeta^(n-m) theta^((n-m)(n+m-1)/2) times an even series equal to

    F_{m-1}(zeta, theta) * F_{k-n-1}(zeta*theta^(n+1), theta) / F_k,

where F is the ceiling determinant, built here by its recursion in the
ceiling (fk_polynomial).  The routes compute the series part and decode
it once, straight into the answer, the prefactor being a shift of the
decoded exponents.

An unbounded ceiling is requested with k = None.
"""

from collections import namedtuple
from functools import lru_cache
from operator import add

from . import config
from .config import (CACHE_ENTRIES, SpecOutOfRange, UsageError,
                     check_ceiling, check_guard, check_heights, check_order)
from .exact import LSeries, PackedRing, TPoly


class GenSpec(namedtuple("GenSpec", "k m n order")):
    """Request for one generating function: ceiling k (None means
    unbounded), endpoint heights m and n, and truncation order in steps;
    immutable, compared and hashed by value."""

    __slots__ = ()

    def __new__(cls, k, m, n, order):
        if k is None:
            check_order(m, "m")
            check_order(n, "n")
        else:
            check_heights(k, m, n)
        check_order(order, "order")
        return super().__new__(cls, k, m, n, order)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make and _replace would skip the checks above
        return cls(*iterable)

    @property
    def ceiling(self):
        """Effective ceiling: a path of l steps from m to n climbs at most
        (l + m + n)/2 high, and the straight rise-and-fall path gets
        there, so the reach of l <= order is the lowest exact ceiling.
        A finite k above that reach is clamped to it; no count changes."""
        reach = max(self.m, self.n, (self.order + self.m + self.n) // 2)
        return reach if self.k is None else min(self.k, reach)

    @property
    def series_order(self):
        """Truncation order of the series part: its zeta^l coefficient
        is the one of zeta^(l + |n - m|) in the answer, so only
        l <= order - |n - m| are part of it (clipped to 0 when no path
        fits: the one entry then lands past the order)."""
        return max(self.order - self.step_shift, 0)

    def check_guards(self, marked=False):
        """Every route's guards, before any work: the effective ceiling c
        against DET_CEILING_MAX, then the answer's size in bits against
        ANSWER_BITS_MAX, in closed form: order//2 + 1 rows, of at most
        order*(c - 1)/2 + 1 areas each, times order//2 + 1 touchdown
        counts when `marked`, of at most `order` bits each."""
        c, rows = self.ceiling, self.order // 2 + 1
        check_guard(c, config.DET_CEILING_MAX, "determinant ceiling")
        size = rows * (self.order * max(c - 1, 0) // 2 + 1) * self.order
        check_guard(size * rows if marked else size, config.ANSWER_BITS_MAX,
                    "answer size in bits")

    @property
    def largest_count(self):
        """N, the largest number of `order`-step paths in the strip
        0..ceiling from any start height (_largest_count), bounds every
        count a route decodes: each counts paths m -> n of one length
        l <= order with one area, or the t^s part of them.  At a ceiling
        >= 1 every height of the strip has a step that stays in it, so
        each such path extends to an `order`-step path from m, distinct
        paths to distinct ones.  At ceiling 0 only the empty path fits,
        and N is 1.  Reading it runs every route's guards (check_guards,
        unmarked) before any work: each route sizes its slots by N."""
        self.check_guards()
        return _largest_count(self.ceiling, self.order)

    @property
    def packed_ring(self):
        """The PackedRing every packed route computes in (the determinant
        and continued-fraction routes and both touchdown routes), slots
        just wide enough for largest_count (PackedRing says why that
        suffices).  It depends on the ceiling and the order alone, so an
        unbounded spec shares it, and every cached packed value, with
        GenSpec(spec.ceiling, m, n, order)."""
        return PackedRing(self.largest_count.bit_length())

    @property
    def step_shift(self):
        """Step exponent of the monomial prefactor: |n - m|."""
        return abs(self.n - self.m)

    @property
    def area_shift(self):
        """Area exponent of the monomial prefactor: (n-m)(n+m-1)/2 for
        m <= n (symmetric in the endpoints)."""
        return self.step_shift * (self.m + self.n - 1) // 2


class GenFun(namedtuple("GenFun", "spec full")):
    """A computed generating function: the spec and the answer to
    spec.order, monomial prefactor included, as one LSeries.  Its
    coefficients are area polynomials, or marker polynomials whose t^s
    part counts paths with s floor returns."""

    __slots__ = ()

    def full_series(self):
        """The answer, truncated at the spec order."""
        return self.full

    def at_t_one(self):
        """Forget the touchdown statistic: the plain area series (the
        full series itself when unmarked)."""
        if self.full.ring is not TPoly:
            return self.full
        return self.full.map_coeffs(TPoly.at_t_one)

    def coefficient(self, l, area, touchdowns=None):
        """Exact number of paths with l steps, area `area` and, on a
        touchdown result, the given number of floor returns (any number
        when None); IndexError beyond the spec order, which is the
        answer's."""
        v = self.full.coeff(l)
        if self.full.ring is TPoly:
            v = v.at_t_one() if touchdowns is None else v.coeff(touchdowns)
        elif touchdowns is not None:
            raise UsageError("floor returns are counted on touchdown results")
        return v.coeff(area)


@lru_cache(maxsize=CACHE_ENTRIES)
def _largest_count(ceiling, order):
    """Largest number of `order`-step paths in the strip 0..ceiling from
    any start height (1 at ceiling 0, for the empty path): paths[h + 1]
    counts the paths of the steps so far from h, and one more step
    from h goes to h - 1 or h + 1 (the 0 at each end is off the strip)."""
    if ceiling == 0:
        return 1
    paths = [0] + [1] * (ceiling + 1) + [0]
    for _ in range(order):
        paths[1:-1] = map(add, paths, paths[2:])
    return max(paths)


def det_degree(k):
    """Step degree of the ceiling-k determinant: 2*floor((k+1)/2)."""
    return 2 * ((k + 1) // 2)


# A cold fk_polynomial(k) first builds the _FILL_SPAN levels below k,
# lowest first, so each finds its two predecessors cached and F_k nests
# about k / _FILL_SPAN calls deep, not k.  The span is a quarter of the
# cache, so those levels are still cached when they are read (a fixed
# span in a smaller cache could evict them first, and rebuild each).
_FILL_SPAN = CACHE_ENTRIES // 4


@lru_cache(maxsize=CACHE_ENTRIES)
def fk_polynomial(k):
    """Exact ceiling-k determinant at its natural degree, by the
    recursion F_k = F_{k-1}(zeta*theta) - zeta^2 * F_{k-2}(zeta*theta^2),
    anchored at F_{-1} = F_0 = 1; guarded by config.DET_CEILING_MAX."""
    check_ceiling(k, lowest=-1)
    check_guard(k, config.DET_CEILING_MAX, "determinant ceiling")
    if k <= 0:
        return LSeries.one(0)
    for j in range(max(1, k - _FILL_SPAN), k):
        fk_polynomial(j)
    deg = det_degree(k)
    a = fk_polynomial(k - 1).resized(deg).substitute_scale(1)
    b = fk_polynomial(k - 2).resized(deg).substitute_scale(2)
    return a - b.shift_step(2)


@lru_cache(maxsize=CACHE_ENTRIES)
def _packed_fk(j, width, shift, length):
    """F_j(zeta*theta^shift) to `length` steps, packed in
    PackedRing(width): length is at most F_j's degree, so the key is the
    same for every order that reaches past it."""
    return PackedRing(width).pack(fk_polynomial(j).resized(length), shift)


def packed_fk(ring, j, order, shift=0):
    """F_j(zeta*theta^shift) packed in `ring` to the series order
    `order` (order//2 + 1 entries): F_(-1) = F_0 = 1 directly,
    else the `_packed_fk` cache holds it to the lesser of order and
    F_j's degree, and the zero entries past that are padded on."""
    if j <= 0:
        return (1,) + (0,) * (order // 2)
    x = _packed_fk(j, ring.width, shift, min(order, det_degree(j)))
    return x + (0,) * (order // 2 + 1 - len(x))


@lru_cache(maxsize=CACHE_ENTRIES)
def _inv_fk(k, order, width):
    """1/F_k to `order` steps, packed in PackedRing(width).  No route
    calls it (packed_genfun divides by F_k); it is deleted with ROADMAP
    items 1 and 14, as perfbench's tracer still looks it up."""
    ring = PackedRing(width)
    return ring.quotient((1,), packed_fk(ring, k, order))


def packed_genfun(ring, k, m, n, order):
    """The series part F_(m-1) * F_(k-n-1)(zeta*theta^(n+1)) / F_k for
    0 <= m <= n <= k, packed in `ring` to the series order `order`: one
    quotient by the packed F_k, at most k/2 + 1 nonzero entries."""
    num = packed_fk(ring, m - 1, order)
    upper = packed_fk(ring, k - n - 1, order, n + 1)
    return ring.quotient(ring.mul(num, upper), packed_fk(ring, k, order))


def genfun(spec):
    """Generating function for spec; symmetric in (m, n).

    F_(m-1) times F_(k-n-1)(zeta*theta^(n+1)), divided by F_k, to
    spec.series_order in spec.packed_ring, in zeta^2 and theta^2, and
    decoded straight into the answer.  An unbounded spec is computed at
    spec.ceiling, exactly as GenSpec(spec.ceiling, m, n, order) is."""
    m, n = min(spec.m, spec.n), max(spec.m, spec.n)
    ring = spec.packed_ring
    packed = packed_genfun(ring, spec.ceiling, m, n, spec.series_order)
    return GenFun(spec, ring.unpack(packed, spec.order, spec.step_shift,
                                    spec.area_shift))


def check_duality(spec):
    """Vertical reflection: sending heights (m, n) to (k-m, k-n),
    inverting the area variable and rescaling zeta -> zeta*theta^(k-1)
    must reproduce the original function exactly."""
    if spec.k is None:
        raise SpecOutOfRange("duality needs a finite ceiling")
    k = spec.k
    lhs = genfun(spec).full_series()
    reflected = genfun(GenSpec(k, k - spec.m, k - spec.n, spec.order))
    rhs = reflected.full_series().invert_q().substitute_scale(k - 1)
    return lhs == rhs


def continued_fraction(k, order):
    """Excursion generating function as a continued fraction: level j
    contributes a denominator 1 - zeta^2 theta^(2j) * (level j+1), for
    j = 0 .. c-1, with 1 below the last level, at the depth
    c = GenSpec(k, 0, 0, order).ceiling that genfun builds F_c at.

    Its convergents come from the Euler-Wallis recurrence: adding level
    j turns each of the numerator and denominator into X - zeta^2
    theta^(2j) X_prev, a shift by one entry and j slots in that spec's
    packed ring, from num = den = den_prev = 1 and num_prev = 0.  One
    quotient num/den then gives the series."""
    check_ceiling(k)
    spec = GenSpec(k, 0, 0, order)
    ring, size = spec.packed_ring, order // 2 + 1
    one = (1,) + (0,) * (size - 1)
    num, num_prev, den, den_prev = one, (0,) * size, one, one
    for j in range(spec.ceiling):
        s = j * ring.width
        num, num_prev = _wallis_step(num, num_prev, s), num
        den, den_prev = _wallis_step(den, den_prev, s), den
    return ring.unpack(ring.quotient(num, den), order)


def _wallis_step(x, prev, s):
    """x - z * 2**s * prev, truncated to the length of x."""
    return x[:1] + tuple(u - (v << s) for u, v in zip(x[1:], prev))
