"""Exact arithmetic kernel for path generating functions.

Three layers, all with exact rational coefficients (Python ints, promoted
to Fraction only when a value is genuinely non-integral; the fractions
module itself loads then, at the first series log or exp or the first
coefficient quotient that is not an int, so a job whose values all stay
integral never imports it):

* QLaurent -- sparse Laurent polynomial in the area variable theta over
  the rationals; one unit of exponent is one plaquette of area.
  Negative exponents are allowed (the reflection duality inverts the
  area variable).
* TPoly -- polynomial in the touchdown marker t whose coefficients are
  QLaurent values.  The marker exponent counts returns to the floor.
* LSeries -- power series in the step variable zeta, truncated at a fixed
  order, with QLaurent or TPoly coefficients.  One unit of exponent is
  one step.

Both polynomial rings are one sparse polynomial over a coefficient ring
(_SparsePoly), QLaurent over Q and TPoly over QLaurent, so every area and
marker product runs through one convolution (_SparsePoly.__mul__).
A series quotient needs a divisor with constant term exactly 1, in
LSeries.divide as in PackedRing.quotient, the packed ring's one
division; log is the integral of f'/f, so it reuses LSeries.divide.

The determinant, continued-fraction and touchdown routes run in a fourth
ring, PackedRing: a series in zeta^2 whose area polynomials in theta^2
are packed into one Python int each (theta^2 -> 2**width), exact ints
with no modulus, so it is exact for series whose final coefficients are
counts.  Values are decoded into QLaurent once, at the edge, all entries
of a series in one pass and one struct read by PackedRing.decoded, and
the endpoint prefactor is a shift of the exponents as they are read;
the touchdown routes decode every entry of every power of the marker t
in one batch, straight into the TPoly coefficients.

Internally every exponent is an integer.  The double-step convention
(z = zeta^2, q = theta^2, exponents counting step pairs and diamonds) is
the cluster route's working unit, which cluster.in_steps converts to
zeta, theta, and a reporting option of the CLI, which encodes the
half-integer exponents it can produce explicitly.

Everything here is immutable after construction: operations return new
objects, so values may be shared freely across threads.
"""

import struct
import sys
from itertools import chain, repeat

from .config import SpecOutOfRange, check_order


class NonUnitConstantTerm(ArithmeticError):
    """A series quotient needs a divisor with constant term exactly 1."""


class BadConstantTerm(ArithmeticError):
    """Series log needs constant term exactly 1; series exp exactly 0."""


class InexactDivision(ArithmeticError):
    """Polynomial division left a remainder."""


def _is_fraction(c):
    """Whether c is a Fraction.  None exists before the fractions module
    loads, so a job that never makes one never imports it."""
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(c, fractions.Fraction)


def _is_rational(c):
    """Whether c is an exact rational: an int or a Fraction."""
    return isinstance(c, int) or _is_fraction(c)


def _norm(c):
    """Demote integral Fractions to int so the common path stays fast."""
    if type(c) is int:
        return c
    if _is_fraction(c) and c.denominator == 1:
        return c.numerator
    return c


def _rational(c):
    """c as an exact rational coefficient (see _norm); TypeError for
    anything else, such as a float or a polynomial."""
    if type(c) is int:
        return c
    if not _is_rational(c):
        raise TypeError(f"coefficient must be an int or a Fraction, "
                        f"got {type(c).__name__}")
    return _norm(c)


class _SparsePoly:
    """Sparse polynomial over a coefficient ring: a dict from integer
    exponent to nonzero coefficient.

    The algebra both polynomial rings share is written here once: sums,
    the one convolution product, scaling, equality and hashing.  A
    subclass names its coefficient ring through class attributes:
    _is_scalar, which tells the values lifted as constants (the scalars
    of the coefficient ring); _COEFF_ZERO, that ring's zero; and
    _coerce_coeff, which brings a scalar into it.  _zero and _one are
    its own constants.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                v = self._coerce_coeff(v)
                if v:
                    c[int(e)] = v
        self._c = c

    @classmethod
    def _wrap(cls, c):
        out = object.__new__(cls)
        out._c = c
        return out

    @classmethod
    def zero(cls):
        return cls._zero

    @classmethod
    def one(cls):
        return cls._one

    @classmethod
    def coerce(cls, v):
        """v as a value of this ring; a scalar of the coefficient ring
        becomes a constant."""
        if type(v) is cls:
            return v
        if not cls._is_scalar(v):
            raise TypeError(
                f"cannot coerce {type(v).__name__} to {cls.__name__}")
        v = cls._coerce_coeff(v)
        return cls._wrap({0: v}) if v else cls._zero

    def coeff(self, exp):
        return self._c.get(exp, self._COEFF_ZERO)

    def terms(self):
        """Sorted (exponent, coefficient) pairs."""
        return sorted(self._c.items())

    def is_zero(self):
        return not self._c

    def __bool__(self):
        return bool(self._c)

    def is_one(self):
        return self._c.keys() == {0} and self._c[0] == 1

    def __add__(self, other):
        if type(other) is not type(self):
            if not self._is_scalar(other):
                return NotImplemented
            other = self.coerce(other)
        if not other._c:
            return self
        if not self._c:
            return other
        out = dict(self._c)
        for e, v in other._c.items():
            if e in out:
                s = out[e] + v
                if s:
                    out[e] = _norm(s)
                else:
                    del out[e]
            else:
                out[e] = v
        return self._wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap({e: -v for e, v in self._c.items()})

    def __sub__(self, other):
        if type(other) is not type(self) and not self._is_scalar(other):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product; the one convolution behind every area-polynomial and
        marker-polynomial product.  A dense product is accumulated in a
        list indexed by exponent, offset by the lowest (possibly
        negative) one; a sparse product whose exponent span exceeds its
        number of term pairs is accumulated in a dict, so it does not pay
        for the span.  Sums start from the coefficient ring's own zero."""
        if type(other) is not type(self):
            if self._is_scalar(other):
                return self.scale(other)
            return NotImplemented
        a, b = self._c, other._c
        if not a or not b:
            return self._zero
        if len(a) < len(b):
            a, b = b, a
        zero = self._COEFF_ZERO
        lo = min(a) + min(b)
        span = max(a) + max(b) - lo + 1
        if span > len(a) * len(b):
            acc = {}
            for eb, cb in b.items():
                for ea, ca in a.items():
                    acc[ea + eb] = acc.get(ea + eb, zero) + ca * cb
            items = acc.items()
        else:
            acc = [zero] * span
            a_items = [(e - lo, c) for e, c in a.items()]
            for eb, cb in b.items():
                for i, ca in a_items:
                    acc[i + eb] += ca * cb
            items = enumerate(acc, lo)
        return self._wrap({e: v if type(v) is int else _norm(v)
                           for e, v in items if v})

    __rmul__ = __mul__

    def scale(self, r):
        """Multiply every coefficient by r, a scalar of the coefficient
        ring."""
        if not self._is_scalar(r):
            raise TypeError(f"cannot scale {type(self).__name__} "
                            f"by {type(r).__name__}")
        r = _norm(r)
        if not r:
            return self._zero
        if r == 1:
            return self
        return self._wrap({e: _norm(v * r) for e, v in self._c.items()})

    def _coeff_sum(self):
        """Sum of the coefficients: the value at 1 of the variable."""
        total = self._COEFF_ZERO
        for v in self._c.values():
            total = total + v
        return _norm(total)

    def __eq__(self, other):
        if type(other) is not type(self):
            if not self._is_scalar(other):
                return NotImplemented
            other = self.coerce(other)
        return self._c == other._c

    def __hash__(self):
        # a constant equals its coefficient, so it hashes as that
        c = self._c
        if not c:
            return hash(0)
        if c.keys() == {0}:
            return hash(c[0])
        return hash(frozenset(c.items()))


class QLaurent(_SparsePoly):
    """Sparse Laurent polynomial in the area variable over the rationals.

    Zero coefficients are never kept and integral values are stored as
    int.
    """

    __slots__ = ()
    _is_scalar = staticmethod(_is_rational)
    _COEFF_ZERO = 0
    _coerce_coeff = staticmethod(_rational)
    # Bound here rather than inherited, so that each ring's own class
    # dict holds its sum and product (perfbench/tracer.py wraps them
    # per class).
    __add__ = __radd__ = _SparsePoly.__add__
    __mul__ = __rmul__ = _SparsePoly.__mul__

    @classmethod
    def mono(cls, exp, coeff=1):
        coeff = _rational(coeff)
        if not coeff:
            return _QL_ZERO
        return cls._wrap({int(exp): coeff})

    def degree(self):
        return max(self._c) if self._c else None

    def num_terms(self):
        return len(self._c)

    def shift(self, j):
        """Multiply by theta^j (add j to every exponent)."""
        if not j or not self._c:
            return self
        return QLaurent._wrap({e + j: v for e, v in self._c.items()})

    def scale_exponents(self, f):
        """Substitute theta -> theta^f (multiply exponents by f != 0)."""
        if f == 0:
            raise SpecOutOfRange("exponent scale must be nonzero")
        if f == 1:
            return self
        return QLaurent._wrap({e * f: v for e, v in self._c.items()})

    def invert_q(self):
        """Substitute theta -> 1/theta (negate every exponent)."""
        return self.scale_exponents(-1)

    def divexact(self, other):
        """Exact polynomial quotient self / other.

        Ascending long division from the lowest exponent; raises
        InexactDivision if a remainder would be left over.
        """
        if not isinstance(other, QLaurent) or other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return _QL_ZERO
        o_items = other.terms()
        e0, c0 = o_items[0]
        top = self.degree() - other.degree()
        rem = dict(self._c)
        out = {}
        while rem:
            e = min(rem)
            qe = e - e0
            if qe > top:
                raise InexactDivision("polynomial division left a remainder")
            r = rem[e]
            if type(r) is int and type(c0) is int and not r % c0:
                qc = r // c0
            else:
                from fractions import Fraction
                qc = _norm(Fraction(r) / c0)
            out[qe] = qc
            for oe, oc in o_items:
                ne = oe + qe
                nv = rem.get(ne, 0) - oc * qc
                if nv:
                    rem[ne] = _norm(nv)
                else:
                    rem.pop(ne, None)
        return QLaurent._wrap(out)

    # forget the area statistic
    eval_at_one = _SparsePoly._coeff_sum

    def __repr__(self):
        if not self._c:
            return "0"
        parts = []
        for e, v in self.terms():
            if e == 0:
                parts.append(str(v))
            else:
                head = "" if v == 1 else ("-" if v == -1 else f"{v}*")
                parts.append(f"{head}q^{e}" if e != 1 else f"{head}q")
        return " + ".join(parts).replace("+ -", "- ")


_QL_ZERO = QLaurent._zero = QLaurent._wrap({})
_QL_ONE = QLaurent._one = QLaurent._wrap({0: 1})


class TPoly(_SparsePoly):
    """Polynomial in the touchdown marker t over QLaurent.

    The marker exponent is always >= 0 (a path cannot return to the floor
    a negative number of times).  A TPoly whose only entry sits at t^0
    acts as a plain area polynomial; series division accepts it as a
    pivot when that entry is 1.
    """

    __slots__ = ()
    _is_scalar = staticmethod(
        lambda v: isinstance(v, QLaurent) or _is_rational(v))
    _COEFF_ZERO = _QL_ZERO
    _coerce_coeff = staticmethod(QLaurent.coerce)
    __mul__ = __rmul__ = _SparsePoly.__mul__   # see QLaurent

    def __init__(self, coeffs=None):
        if coeffs and min(coeffs) < 0:
            raise SpecOutOfRange("negative marker exponent")
        super().__init__(coeffs)

    @classmethod
    def marker(cls):
        """The bare marker t."""
        return _TP_T

    def shift(self, j):
        """Multiply every coefficient by theta^j."""
        if not j:
            return self
        return TPoly._wrap({s: v.shift(j) for s, v in self._c.items()})

    # forget the touchdown statistic (set t = 1)
    at_t_one = _SparsePoly._coeff_sum

    def div_t_exact(self):
        """Divide by t; raises InexactDivision if a t^0 term is present."""
        if 0 in self._c:
            raise InexactDivision("constant marker term blocks division by t")
        return TPoly._wrap({s - 1: v for s, v in self._c.items()})

    def __repr__(self):
        if not self._c:
            return "0"
        parts = []
        for s, v in self.terms():
            if s == 0:
                parts.append(f"({v!r})")
            else:
                tpow = "t" if s == 1 else f"t^{s}"
                parts.append(f"({v!r})*{tpow}")
        return " + ".join(parts)


TPoly._zero = TPoly._wrap({})
TPoly._one = TPoly._wrap({0: _QL_ONE})
_TP_T = TPoly._wrap({1: _QL_ONE})


class LSeries:
    """Power series in the step variable, truncated at a fixed order.

    `c[l]` is the coefficient of zeta^l, an element of the coefficient
    ring (QLaurent by default, TPoly when the touchdown marker is live).
    Arithmetic never consults anything beyond the truncation order, and
    combining series of different orders truncates to the shorter one.
    Equality is order-strict: series of different orders are unequal, so
    a result truncated early cannot pass a comparison.
    """

    __slots__ = ("order", "c", "ring")

    def __init__(self, order, coeffs=None, ring=QLaurent):
        check_order(order)
        zero = ring.zero()
        c = [zero] * (order + 1)
        if isinstance(coeffs, dict):
            for l, v in coeffs.items():
                if 0 <= l <= order:
                    c[l] = ring.coerce(v)
                elif l < 0:
                    raise SpecOutOfRange("negative step exponent")
        elif coeffs is not None:
            for l, v in enumerate(coeffs):
                if l > order:
                    break
                c[l] = ring.coerce(v)
        self.order = order
        self.c = c
        self.ring = ring

    @classmethod
    def _wrap(cls, order, c, ring):
        out = object.__new__(cls)
        out.order = order
        out.c = c
        out.ring = ring
        return out

    @classmethod
    def one(cls, order, ring=QLaurent):
        return cls(order, {0: 1}, ring)

    @classmethod
    def zeros(cls, order, ring=QLaurent):
        return cls(order, None, ring)

    def coeff(self, l):
        """Coefficient of zeta^l; IndexError beyond the truncation."""
        if l < 0:
            return self.ring.zero()
        if l > self.order:
            raise IndexError(f"step power {l} beyond truncation {self.order}")
        return self.c[l]

    def is_zero(self):
        return all(v.is_zero() for v in self.c)

    def nonzero_terms(self):
        return [(l, v) for l, v in enumerate(self.c) if not v.is_zero()]

    def _coerce_other(self, other):
        if isinstance(other, LSeries):
            if self.ring is not other.ring:
                raise TypeError("mixed coefficient rings; lift explicitly")
            return other
        if isinstance(other, (int, _SparsePoly)) or _is_fraction(other):
            return LSeries(self.order, {0: self.ring.coerce(other)}, self.ring)
        return None

    def __add__(self, other):
        b = self._coerce_other(other)
        if b is None:
            return NotImplemented
        L = min(self.order, b.order)
        return LSeries._wrap(
            L, [self.c[l] + b.c[l] for l in range(L + 1)], self.ring)

    __radd__ = __add__

    def __neg__(self):
        return LSeries._wrap(self.order, [-v for v in self.c], self.ring)

    def __sub__(self, other):
        b = self._coerce_other(other)
        if b is None:
            return NotImplemented
        L = min(self.order, b.order)
        return LSeries._wrap(
            L, [self.c[l] - b.c[l] for l in range(L + 1)], self.ring)

    def __mul__(self, other):
        if not isinstance(other, LSeries):
            if isinstance(other, (int, _SparsePoly)) or _is_fraction(other):
                return self.scale(other)
            return NotImplemented
        if self.ring is not other.ring:
            raise TypeError("mixed coefficient rings; lift explicitly")
        L = min(self.order, other.order)
        zero = self.ring.zero()
        out = [zero] * (L + 1)
        a_nz = [(i, v) for i, v in enumerate(self.c[:L + 1]) if not v.is_zero()]
        b_nz = [(j, v) for j, v in enumerate(other.c[:L + 1]) if not v.is_zero()]
        if len(a_nz) > len(b_nz):
            a_nz, b_nz = b_nz, a_nz
        for i, vi in a_nz:
            for j, vj in b_nz:
                l = i + j
                if l > L:
                    break
                out[l] = out[l] + vi * vj
        return LSeries._wrap(L, out, self.ring)

    __rmul__ = __mul__

    def scale(self, v):
        """Multiply every coefficient by a ring element or rational."""
        v = self.ring.coerce(v)
        if v.is_zero():
            return LSeries.zeros(self.order, self.ring)
        if v.is_one():
            return self
        return LSeries._wrap(
            self.order, [w * v for w in self.c], self.ring)

    def divide(self, other):
        """Series quotient, by the recurrence out_n = self_n - (b_1
        out_(n-1) + ... + b_n out_0); requires divisor constant term 1."""
        b = self._coerce_other(other)
        if b is None:
            raise TypeError(f"cannot divide by {type(other).__name__}")
        if not b.c[0].is_one():
            raise NonUnitConstantTerm("divisor constant term must be 1")
        L = min(self.order, b.order)
        b_nz = [(j, v) for j, v in enumerate(b.c[1:L + 1], start=1)
                if not v.is_zero()]
        out = []
        for n in range(L + 1):
            acc = self.c[n]
            for j, vj in b_nz:
                if j > n:
                    break
                prev = out[n - j]
                if not prev.is_zero():
                    acc = acc - vj * prev
            out.append(acc)
        return LSeries._wrap(L, out, self.ring)

    def log(self):
        """Series logarithm, the integral of f'/f; requires constant
        term 1."""
        from fractions import Fraction
        if not self.c[0].is_one():
            raise BadConstantTerm("log needs constant term 1")
        L = self.order
        if L == 0:
            return LSeries.zeros(0, self.ring)
        deriv = LSeries._wrap(
            L - 1, [v.scale(l) for l, v in enumerate(self.c[1:], 1)],
            self.ring)
        g = deriv.divide(self)
        return LSeries._wrap(
            L, [self.ring.zero()]
            + [v.scale(Fraction(1, l)) for l, v in enumerate(g.c, 1)],
            self.ring)

    def exp(self):
        """Series exponential; requires constant term 0."""
        from fractions import Fraction
        if not self.c[0].is_zero():
            raise BadConstantTerm("exp needs constant term 0")
        L = self.order
        # n*b_n = sum_i (i*a_i)*b_(n-i): scale each a_i by i once
        a_nz = [(i, v.scale(i)) for i, v in enumerate(self.c)
                if not v.is_zero()]
        b = [self.ring.one()]
        for n in range(1, L + 1):
            s = self.ring.zero()
            for i, ai in a_nz:
                if i > n:
                    break
                bi = b[n - i]
                if not bi.is_zero():
                    s = s + ai * bi
            b.append(s.scale(Fraction(1, n)))
        return LSeries._wrap(L, b, self.ring)

    def substitute_scale(self, j):
        """Substitute zeta -> zeta * theta^j: the zeta^l coefficient picks
        up a factor theta^(j*l)."""
        if j == 0:
            return self
        return LSeries._wrap(
            self.order,
            [v.shift(j * l) for l, v in enumerate(self.c)],
            self.ring)

    def invert_q(self):
        """Substitute theta -> 1/theta in every coefficient."""
        return LSeries._wrap(
            self.order, [v.invert_q() for v in self.c], self.ring)

    def shift_step(self, d):
        """Multiply by zeta^d (d >= 0), keeping the truncation order."""
        check_order(d, "step shift")
        if d == 0:
            return self
        if d > self.order:
            return LSeries.zeros(self.order, self.ring)
        zero = self.ring.zero()
        keep = self.c[:self.order + 1 - d]
        return LSeries._wrap(self.order, [zero] * d + keep, self.ring)

    def resized(self, order):
        """Same series re-truncated (padded with zeros when growing; only
        valid for growth when the tail is known to vanish, e.g. an exact
        polynomial)."""
        check_order(order)
        if order == self.order:
            return self
        if order < self.order:
            return LSeries._wrap(order, self.c[:order + 1], self.ring)
        zero = self.ring.zero()
        return LSeries._wrap(
            order, self.c + [zero] * (order - self.order), self.ring)

    def map_coeffs(self, fn):
        """Apply fn to every coefficient (used to change rings)."""
        out = [fn(v) for v in self.c]
        ring = type(out[0]) if out else self.ring
        return LSeries._wrap(self.order, out, ring)

    def __eq__(self, other):
        if not isinstance(other, LSeries):
            return NotImplemented
        return (self.ring is other.ring and self.order == other.order
                and self.c == other.c)

    __hash__ = None

    def __repr__(self):
        parts = [f"z^{l}*({v!r})" for l, v in self.nonzero_terms()]
        body = " + ".join(parts) if parts else "0"
        return f"<LSeries O(z^{self.order + 1}): {body}>"


# Slots wider than 64 bits are read _WIDE_RUN at a time, so one run's
# bytes objects, not the batch's, live beside the buffer and the result;
# a run this long still spreads the per-call cost of the struct read.
_WIDE_RUN = 1024


class PackedRing:
    """Truncated series in z = zeta^2 whose area polynomials in
    q = theta^2 are packed into one int each: q -> 2**width, so the
    coefficient of zeta^(2i) theta^(2j) sits in `width`-bit slot j of
    entry i (Kronecker substitution).  Every value the packed routes
    hold is even in both variables, as F_k pairs each up-hop
    zeta*theta^h with its down-hop: z*q^h.  `pack` raises ValueError on
    a term outside this ring, which would land in the wrong slot.

    Substituting a power of two for q is a ring homomorphism onto Z, so
    sums, products and quotients are exact whatever signs,
    cancellations or overflowing slots the intermediate values hold;
    only the final coefficients must be counts in 0..2**width - 1, so
    `decoded` can read them slot by slot.  The width is rounded up to
    whole bytes, so that every slot starts on a byte of the entry and
    is a whole number of bytes: up to 64 bits, what a strided copy
    moves into a 64-bit word.  A series of step order L packs into
    L//2 + 1 ints, one per power of z."""

    __slots__ = ("width",)

    def __init__(self, width):
        check_order(width, "slot width", 1)
        self.width = -(-width // 8) * 8

    def pack(self, series, shift=0):
        """Packed form of an integral area series, after substituting
        zeta -> zeta * theta^shift: zeta^l theta^e goes to slot
        (e + shift*l)/2 of entry l/2, which must be whole and >= 0."""
        if any(v._c for v in series.c[1::2]):
            raise ValueError("odd step power in the packed ring")
        w = self.width
        out = []
        for i, v in enumerate(series.c[::2]):
            acc = 0
            for e, c in v._c.items():
                e += 2 * i * shift
                if e % 2:
                    raise ValueError(f"odd area exponent {e} in the "
                                     "packed ring")
                acc += c << w * (e >> 1)
            out.append(acc)
        return tuple(out)

    def mul(self, x, y):
        """Product of two packed series, truncated to the shorter."""
        L = min(len(x), len(y)) - 1
        acc = [0] * (L + 1)
        y_nz = [(j, v) for j, v in enumerate(y[:L + 1]) if v]
        for i, u in enumerate(x[:L + 1]):
            if u:
                for j, v in y_nz:
                    if i + j > L:
                        break
                    acc[i + j] += u * v
        return tuple(acc)

    def quotient(self, x, d):
        """x/d to the length of d, for d with constant term 1: y_n =
        x_n - (d_1 y_(n-1) + ... + d_n y_0), with x_n = 0 past its end."""
        if d[0] != 1:
            raise NonUnitConstantTerm("divisor constant term must be 1")
        d_nz = [(j, v) for j, v in enumerate(d) if j and v]
        y = []
        for n in range(len(d)):
            acc = x[n] if n < len(x) else 0
            for j, v in d_nz:
                if j > n:
                    break
                acc -= v * y[n - j]
            y.append(acc)
        return tuple(y)

    def decoded(self, cols, order, shift=0):
        """The area polynomials, times theta^shift, that the entries of
        the packed series in cols stand for, in one batch: the first
        series' at zeta^0, zeta^2, ..., then the next one's.  Slot j
        holds the coefficient of theta^(2j + shift), a count below
        2**width, and a negative entry raises ArithmeticError.  Each
        series is of step order `order` and must hold order//2 + 1
        entries (L and L - 1 alike).  The bytes of each nonzero entry,
        past its empty bottom slots, join one buffer that one struct
        format reads: slots of up to 64 bits as words (a strided copy
        spreads them into 8-byte cells), wider ones as byte strings;
        each entry's dict takes its slots in turn from one iterator over
        them.  An entry's top and bottom slots are nonzero, so only an
        interior slot can be empty: the per-entry filter that drops
        empty slots runs on wide slots, and on words only when the batch
        holds a zero word."""
        w = self.width
        nb = w // 8
        out, spans, raw = [], [], bytearray()
        for x in cols:
            if len(x) != order // 2 + 1:
                raise ValueError(f"{len(x)} packed entries for order {order}")
            for v in x:
                if v > 0:
                    low = ((v & -v).bit_length() - 1) // w
                    v >>= w * low
                    n = -(-v.bit_length() // w)
                    spans.append((len(out), 2 * low + shift, n))
                    raw += v.to_bytes(n * nb, "little")
                elif v:
                    raise ArithmeticError("packed value is not a count series")
                out.append(_QL_ZERO)
        total = len(raw) // nb
        if nb <= 8:
            buf = bytearray(8 * total)
            for j in range(nb):
                buf[j::8] = raw[j::nb]
            words = struct.unpack_from(f"<{total}Q", buf)
            gaps = 0 in words
            words = iter(words)
        else:
            run = min(total, _WIDE_RUN) or 1
            raw += bytes(-total % run * nb)
            cells = struct.Struct("<" + f"{nb}s" * run).iter_unpack(raw)
            words = map(int.from_bytes, chain.from_iterable(cells),
                        repeat("little"))
            gaps = True
        for i, e0, n in spans:
            # the range comes first, so zip stops before an extra word
            c = dict(zip(range(e0, e0 + 2 * n, 2), words))
            if gaps and 0 in c.values():
                c = {e: v for e, v in c.items() if v}
            out[i] = QLaurent._wrap(c)
        return out

    def unpack(self, x, order, step=0, shift=0):
        """The LSeries of step order `order` that zeta^step theta^shift
        times the packed series x stands for (see decoded): x is of step
        order max(order - step, 0), and what lands past `order` drops."""
        out = [_QL_ZERO] * (max(order, step) + 1)
        out[step::2] = self.decoded((x,), max(order - step, 0), shift)
        return LSeries._wrap(order, out[:order + 1], QLaurent)


def lift_marker(series):
    """Lift a plain area series into the touchdown-marker ring (every
    coefficient becomes a t^0 term)."""
    if series.ring is TPoly:
        return series
    return series.map_coeffs(TPoly.coerce)

