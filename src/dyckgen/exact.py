"""Exact arithmetic kernel for path generating functions.

Three layers, all with exact rational coefficients (Python ints, promoted
to Fraction only when a value is genuinely non-integral):

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
Every series quotient runs through one recurrence (LSeries.divide); log
is the integral of f'/f, so it reuses that quotient.

The determinant, continued-fraction and touchdown routes run in a fourth
ring, PackedRing: a series whose area polynomials are packed into one
Python int each (theta -> 2**width).  It is exact for series whose final
coefficients are counts, and an area cap is its modulus, a bit mask, so
no product here takes a cap.  Values are unpacked into QLaurent once, at
the edge; the touchdown route unpacks one count series per power of the
marker t and assembles the TPoly coefficients from them.

Internally every exponent is an integer.  The double-step convention
(z = zeta^2, q = theta^2, exponents counting step pairs and diamonds) is
a reporting transform applied at the edges; it can produce half-integer
exponents, which the CLI encodes explicitly.

Everything here is immutable after construction: operations return new
objects, so values may be shared freely across threads.
"""

from __future__ import annotations

from fractions import Fraction


class NonUnitConstantTerm(ArithmeticError):
    """Series division needs a divisor whose constant term is a single
    nonzero rational sitting at area exponent zero."""


class BadConstantTerm(ArithmeticError):
    """Series log needs constant term exactly 1; series exp exactly 0."""


class InexactDivision(ArithmeticError):
    """Polynomial division left a remainder."""


def _norm(c):
    """Demote integral Fractions to int so the common path stays fast."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


def _rational(c):
    """c as an exact rational coefficient (see _norm); TypeError for
    anything else, such as a float or a polynomial."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficient must be an int or a Fraction, "
                        f"got {type(c).__name__}")
    return _norm(c)


class _SparsePoly:
    """Sparse polynomial over a coefficient ring: a dict from integer
    exponent to nonzero coefficient.

    The algebra both polynomial rings share is written here once: sums,
    the one convolution product, scaling, equality and hashing.  A
    subclass names its coefficient ring through class attributes:
    _SCALARS, the types lifted as constants (the scalars of the
    coefficient ring); _COEFF_ZERO, that ring's zero; and _coerce_coeff,
    which brings a scalar into it.  _zero and _one are its own constants.
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
        if not isinstance(v, cls._SCALARS):
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

    def is_scalar(self):
        """Is this a rational constant?"""
        c = self._c
        return not c or (c.keys() == {0} and (
            not isinstance(c[0], _SparsePoly) or c[0].is_scalar()))

    def scalar_value(self):
        if not self.is_scalar():
            raise ValueError("not a scalar")
        v = self._c.get(0, 0)
        return v.scalar_value() if isinstance(v, _SparsePoly) else v

    def __add__(self, other):
        if type(other) is not type(self):
            if not isinstance(other, self._SCALARS):
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
        if type(other) is not type(self) and not isinstance(
                other, self._SCALARS):
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
            if isinstance(other, self._SCALARS):
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
        if not isinstance(r, self._SCALARS):
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
            if not isinstance(other, self._SCALARS):
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
    _SCALARS = (int, Fraction)
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

    @classmethod
    def const(cls, c):
        return cls.mono(0, c)

    def min_exp(self):
        return min(self._c) if self._c else None

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
            raise ValueError("exponent scale must be nonzero")
        if f == 1:
            return self
        return QLaurent._wrap({e * f: v for e, v in self._c.items()})

    def invert_q(self):
        """Substitute theta -> 1/theta (negate every exponent)."""
        return self.scale_exponents(-1)

    def halved(self):
        """Divide every exponent by 2; exact only when all are even."""
        if any(e % 2 for e in self._c):
            raise InexactDivision("odd area exponent cannot be halved")
        return QLaurent._wrap({e // 2: v for e, v in self._c.items()})

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
            qc = _norm(Fraction(rem[e]) / c0)
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
    pivot when that entry is scalar.
    """

    __slots__ = ()
    _SCALARS = (int, Fraction, QLaurent)
    _COEFF_ZERO = _QL_ZERO
    _coerce_coeff = staticmethod(QLaurent.coerce)
    __mul__ = __rmul__ = _SparsePoly.__mul__   # see QLaurent

    def __init__(self, coeffs=None):
        if coeffs and min(coeffs) < 0:
            raise ValueError("negative marker exponent")
        super().__init__(coeffs)

    @classmethod
    def marker(cls):
        """The bare marker t."""
        return _TP_T

    @classmethod
    def from_area(cls, q):
        """The area polynomial (or rational) q as a constant in t."""
        return cls.coerce(QLaurent.coerce(q))

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

    def __init__(self, order, coeffs=None, ring=None):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if ring is None:
            ring = QLaurent
            if coeffs:
                values = coeffs.values() if isinstance(coeffs, dict) else coeffs
                if any(isinstance(v, TPoly) for v in values):
                    ring = TPoly
        zero = ring.zero()
        c = [zero] * (order + 1)
        if isinstance(coeffs, dict):
            for l, v in coeffs.items():
                if 0 <= l <= order:
                    c[l] = ring.coerce(v)
                elif l < 0:
                    raise ValueError("negative step exponent")
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
        if isinstance(other, (int, Fraction, _SparsePoly)):
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

    def __rsub__(self, other):
        b = self._coerce_other(other)
        if b is None:
            return NotImplemented
        return b - self

    def __mul__(self, other):
        if not isinstance(other, LSeries):
            if isinstance(other, (int, Fraction, _SparsePoly)):
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
        """Series quotient; the divisor's constant term must be a nonzero
        rational scalar (the standard invertibility condition here)."""
        b = self._coerce_other(other)
        if b is None:
            raise TypeError(f"cannot divide by {type(other).__name__}")
        L = min(self.order, b.order)
        b0 = b.c[0]
        if b0.is_zero() or not b0.is_scalar():
            raise NonUnitConstantTerm(
                "divisor constant term must be a nonzero scalar")
        r = b0.scalar_value()
        inv_r = None if r == 1 else Fraction(1, 1) / r
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
            out.append(acc if inv_r is None else acc.scale(inv_r))
        return LSeries._wrap(L, out, self.ring)

    def log(self):
        """Series logarithm, the integral of f'/f; requires constant
        term 1."""
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
        if d < 0:
            raise ValueError("negative step shift")
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
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if order == self.order:
            return self
        if order < self.order:
            return LSeries._wrap(order, self.c[:order + 1], self.ring)
        zero = self.ring.zero()
        return LSeries._wrap(
            order, self.c + [zero] * (order - self.order), self.ring)

    def to_double_step(self):
        """Reinterpret in double-step units: coefficient of zeta^(2a)
        becomes the coefficient of z^a with its area exponents halved.
        Exact only when odd step powers vanish and area exponents are
        even; otherwise raises InexactDivision."""
        if self.ring is not QLaurent:
            raise TypeError("double-step view defined for plain area series")
        for l, v in enumerate(self.c):
            if l % 2 and not v.is_zero():
                raise InexactDivision("odd step power cannot be halved")
        out = [self.c[2 * a].halved() for a in range(self.order // 2 + 1)]
        return LSeries._wrap(self.order // 2, out, QLaurent)

    def map_coeffs(self, fn):
        """Apply fn to every coefficient (used to change rings)."""
        out = [fn(v) for v in self.c]
        ring = type(out[0]) if out else self.ring
        return LSeries._wrap(self.order, out, ring)

    def eval_at_one(self):
        """Per-step-power coefficient sums (forget area and marker)."""
        if self.ring is TPoly:
            return [v.at_t_one().eval_at_one() for v in self.c]
        return [v.eval_at_one() for v in self.c]

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


class PackedRing:
    """Truncated step series whose area polynomials are packed into one
    int each: theta -> 2**width, so the coefficient of theta^e sits in
    the `width`-bit slot e (Kronecker substitution).

    Substituting a power of two for theta is a ring homomorphism, onto Z
    or, with an area cap, onto Z/2**(width*(cap+1)), where dropping the
    exponents above the cap is the mask `& (2**(width*(cap+1)) - 1)`.
    Sums, products and the series inverse are therefore exact whatever
    signs, cancellations or overflowing slots the intermediate values
    hold; only the final coefficients must be counts in 0..2**width - 1,
    so `unpack` can read them slot by slot.  A cap below 0 keeps nothing.
    The width is rounded up to whole bytes, so that `unpack` reads each
    slot straight from the value's bytes.  Packed series are tuples of
    ints, one per step power.
    """

    __slots__ = ("width", "cap", "mask")

    def __init__(self, width, cap=None):
        if width < 1:
            raise ValueError("slot width must be >= 1")
        width = -(-width // 8) * 8
        self.width = width
        self.cap = cap
        self.mask = (None if cap is None
                     else (1 << width * max(cap + 1, 0)) - 1)

    def _reduce(self, v):
        return v if self.mask is None else v & self.mask

    def pack(self, series, shift=0):
        """Packed form of an integral area series, after substituting
        zeta -> zeta * theta^shift; every exponent must end up >= 0."""
        w, cap = self.width, self.cap
        out = []
        for l, v in enumerate(series.c):
            s = shift * l
            top = None if cap is None else cap - s
            acc = 0
            for e, c in v._c.items():
                if top is None or e <= top:
                    acc += c << w * (e + s)
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
        return tuple(self._reduce(v) for v in acc)

    def inverse(self, x):
        """1/x for a packed series with constant term 1, by the
        recurrence y_n = -(x_1 y_(n-1) + ... + x_n y_0)."""
        if self._reduce(x[0]) != self._reduce(1):
            raise NonUnitConstantTerm("packed inverse needs constant term 1")
        x_nz = [(j, v) for j, v in enumerate(x) if j and v]
        y = [self._reduce(1)]
        for n in range(1, len(x)):
            acc = 0
            for j, v in x_nz:
                if j > n:
                    break
                acc -= v * y[n - j]
            y.append(self._reduce(acc))
        return tuple(y)

    def unpack(self, x):
        """The LSeries of area polynomials a packed series stands for;
        every coefficient, reduced by the cap, must be a count below
        2**width."""
        nb = self.width // 8
        zero = bytes(nb)
        out = []
        for v in map(self._reduce, x):
            if v <= 0:
                if v:
                    raise ArithmeticError(
                        "packed value is not a count series")
                out.append(_QL_ZERO)
                continue
            raw = v.to_bytes((v.bit_length() + 7) // 8, "little")
            low = ((v & -v).bit_length() - 1) // self.width
            out.append(QLaurent._wrap(
                {e: int.from_bytes(slot, "little")
                 for e, i in enumerate(range(low * nb, len(raw), nb), low)
                 if (slot := raw[i:i + nb]) != zero}))
        return LSeries._wrap(len(out) - 1, out, QLaurent)


def lift_marker(series):
    """Lift a plain area series into the touchdown-marker ring (every
    coefficient becomes a t^0 term)."""
    if series.ring is TPoly:
        return series
    return series.map_coeffs(TPoly.from_area)

