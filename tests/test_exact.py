"""Exact-arithmetic kernel: Laurent polynomials, marker polynomials,
truncated series."""

import gc
import random
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyckgen.exact import (_WIDE_RUN, BadConstantTerm, InexactDivision,
                           LSeries, NonUnitConstantTerm, PackedRing,
                           QLaurent, TPoly, lift_marker)
from dyckgen.genfun import GenSpec
from dyckgen.spectral import fk_polynomial

COEFFS = [1, -1, 2, 3, -5, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 4)]


def rand_qlaurent(rng, max_terms=4, span=6):
    return QLaurent({rng.randrange(-span, span + 1): rng.choice(COEFFS)
                     for _ in range(rng.randrange(max_terms + 1))})


# integral polynomials in q = theta^2, the area values a packed ring
# holds (even exponents only): counts (what it may return) and signed
# intermediates
even_exponents = st.integers(0, 6).map(lambda e: 2 * e)
counts = st.dictionaries(even_exponents, st.integers(0, 4),
                         max_size=6).map(QLaurent)
signed = st.dictionaries(even_exponents, st.integers(-4, 4),
                         max_size=6).map(QLaurent)


# Laurent polynomials with negative exponents and Fraction coefficients
laurents = st.dictionaries(
    st.integers(-6, 6),
    st.integers(-4, 4) | st.fractions(-2, 2, max_denominator=3),
    max_size=4).map(QLaurent)


def brute_mul(a, b):
    """Schoolbook product over every pair of terms, accumulated in a
    dict: the reference for the one convolution kernel."""
    out = {}
    for ea, ca in a.terms():
        for eb, cb in b.terms():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return QLaurent(out)


# marker polynomials over the Laurent polynomials above
tpolys = st.dictionaries(st.integers(0, 4), laurents, max_size=4).map(TPoly)


def brute_tmul(a, b):
    """Schoolbook product over every pair of (marker, area) terms,
    accumulated in one dict of rationals: the reference for the marker
    product, independent of the polynomial algebra."""
    acc = {}
    for sa, va in a.terms():
        for sb, vb in b.terms():
            for ea, ca in va.terms():
                for eb, cb in vb.terms():
                    key = (sa + sb, ea + eb)
                    acc[key] = acc.get(key, 0) + ca * cb
    rows = {}
    for (s, e), c in acc.items():
        rows.setdefault(s, {})[e] = c
    return TPoly({s: QLaurent(row) for s, row in rows.items()})


def rand_series(rng, order=8, ring=QLaurent):
    if ring is QLaurent:
        return LSeries(order, {l: rand_qlaurent(rng)
                               for l in range(order + 1)})
    return LSeries(order, {l: TPoly({s: rand_qlaurent(rng, 2)
                                     for s in range(3)})
                           for l in range(order + 1)}, ring=TPoly)


class TestQLaurent:
    def test_construction_drops_zeros_and_demotes(self):
        p = QLaurent({0: Fraction(2, 1), 3: 0, -1: Fraction(1, 2)})
        assert p.terms() == [(-1, Fraction(1, 2)), (0, 2)]
        assert isinstance(p.coeff(0), int)

    def test_coefficients_must_be_rational(self):
        # a float or a polynomial coefficient would break exactness
        for bad in (1.5, QLaurent({1: 1})):
            with pytest.raises(TypeError):
                QLaurent({0: bad})
            with pytest.raises(TypeError):
                QLaurent.mono(2, bad)

    def test_basic_algebra(self):
        a = QLaurent({0: 1, 2: -1})
        b = QLaurent({0: 1, 1: 1})
        assert (a * b).terms() == [(0, 1), (1, 1), (2, -1), (3, -1)]
        assert (a + b).terms() == [(0, 2), (1, 1), (2, -1)]
        assert (a - a).is_zero()
        assert a * 0 == QLaurent.zero()

    def test_scalar_ops_mix_with_ints(self):
        a = QLaurent({1: 2})
        assert a + 1 == QLaurent({0: 1, 1: 2})
        assert 1 - a == QLaurent({0: 1, 1: -2})
        assert (a * Fraction(1, 2)).terms() == [(1, 1)]

    @pytest.mark.parametrize("seed", range(8))
    def test_ring_axioms_random(self, seed):
        rng = random.Random(seed)
        a, b, c = (rand_qlaurent(rng) for _ in range(3))
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert (a * b).eval_at_one() == a.eval_at_one() * b.eval_at_one()

    def test_shift_and_exponent_maps(self):
        a = QLaurent({0: 1, 3: 2})
        assert a.shift(2).terms() == [(2, 1), (5, 2)]
        assert a.scale_exponents(2).terms() == [(0, 1), (6, 2)]
        assert a.invert_q().invert_q() == a
        with pytest.raises(ValueError):
            a.scale_exponents(0)

    @pytest.mark.parametrize("seed", range(8))
    def test_divexact_roundtrip(self, seed):
        rng = random.Random(100 + seed)
        a = rand_qlaurent(rng)
        b = rand_qlaurent(rng)
        if b.is_zero():
            b = QLaurent({0: 1, 1: -1})
        assert (a * b).divexact(b) == a

    def test_divexact_remainder_raises(self):
        with pytest.raises(InexactDivision):
            QLaurent({0: 1, 1: 1}).divexact(QLaurent({0: 1, 1: -1}))

    @settings(deadline=None)
    @given(laurents, laurents)
    @example(QLaurent({-1: 1, 0: Fraction(1, 2)}), QLaurent({-1: 2, 0: -1}))
    @example(QLaurent({0: Fraction(1, 2), 3: Fraction(2, 3)}),
             QLaurent({0: 2, 1: 3}))
    @example(QLaurent({0: 1, 10**6: 1}), QLaurent({0: 1, 10**6: -1}))
    @example(QLaurent({-10**5: Fraction(1, 2), 3: 2}),
             QLaurent({-7: 4, 10**5: -1}))
    def test_product_matches_brute_force(self, a, b):
        # negative exponents, Fractions and cancellation to zero included;
        # the wide sparse examples take the dict branch of the kernel
        product = a * b
        assert product == brute_mul(a, b)
        for _, c in product.terms():
            assert c != 0
            assert type(c) is int or c.denominator != 1

    def test_hash_consistent_across_int_fraction(self):
        a = QLaurent({2: 2})
        b = QLaurent({2: Fraction(4, 2)})
        assert a == b and hash(a) == hash(b)
        # a constant equals its value, in either ring, so it hashes as it
        q = QLaurent({1: 1, 3: Fraction(1, 2)})
        for poly, value in [
                (QLaurent.coerce(1), 1), (QLaurent.zero(), 0),
                (QLaurent.coerce(Fraction(1, 2)), Fraction(1, 2)),
                (TPoly.coerce(q), q), (TPoly.one(), 1), (TPoly.zero(), 0),
                (TPoly.one(), QLaurent.one()),
                (TPoly.coerce(Fraction(2, 3)), Fraction(2, 3))]:
            assert poly == value and value == poly
            assert hash(poly) == hash(value)
            assert len({poly, value}) == 1

    def test_scale_takes_only_a_rational(self):
        a = QLaurent({0: 1, 2: 3})
        assert a.scale(Fraction(1, 3)) == QLaurent({0: Fraction(1, 3), 2: 1})
        assert a.scale(0) == QLaurent.zero()
        for bad in (QLaurent({1: 1}), TPoly.marker(), 1.5):
            with pytest.raises(TypeError):
                a.scale(bad)


class TestTPoly:
    def test_marker_algebra(self):
        t = TPoly.marker()
        q = QLaurent({1: 1})
        p = (t + q) * (t - q)
        assert p == TPoly({2: 1, 0: QLaurent({2: -1})})
        assert p.coeff(1).is_zero()
        assert p.at_t_one() == QLaurent({0: 1, 2: -1})

    @settings(deadline=None, max_examples=40)
    @given(tpolys, tpolys)
    def test_at_t_one_is_ring_map(self, a, b):
        # both coefficient sums: t = 1, then theta = 1
        assert (a * b).at_t_one() == a.at_t_one() * b.at_t_one()
        assert (a + b).at_t_one() == a.at_t_one() + b.at_t_one()
        assert (a - b).at_t_one() == a.at_t_one() - b.at_t_one()
        assert TPoly.one().at_t_one() == QLaurent.one()
        x, y = a.at_t_one(), b.at_t_one()
        assert (x * y).eval_at_one() == x.eval_at_one() * y.eval_at_one()
        assert (x + y).eval_at_one() == x.eval_at_one() + y.eval_at_one()

    @settings(deadline=None)
    @given(tpolys, tpolys)
    @example(TPoly({0: QLaurent({1: 1}), 1: 1}),
             TPoly({0: QLaurent({1: -1}), 1: 1}))
    @example(TPoly({0: 1, 1: Fraction(1, 2)}),
             TPoly({0: 1, 1: Fraction(-1, 2)}))
    @example(TPoly({0: QLaurent({-3: 2}), 50: QLaurent({4: Fraction(1, 3)})}),
             TPoly({0: 1, 60: QLaurent({-4: 3})}))
    def test_product_matches_brute_force(self, a, b):
        # Laurent and Fraction area coefficients and cancellation to zero;
        # the wide example takes the dict branch of the kernel
        product = a * b
        assert product == brute_tmul(a, b)
        for _, v in product.terms():
            assert type(v) is QLaurent and not v.is_zero()
            for _, c in v.terms():
                assert type(c) is int or c.denominator != 1

    @settings(deadline=None, max_examples=40)
    @given(tpolys, tpolys, tpolys)
    def test_ring_laws(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a

    @settings(deadline=None, max_examples=40)
    @given(tpolys, laurents,
           st.integers(-3, 3) | st.fractions(-2, 2, max_denominator=3))
    def test_mixed_products_agree(self, tp, q, r):
        assert q * tp == tp * q == TPoly.coerce(q) * tp
        assert r * tp == tp * r == TPoly.coerce(r) * tp
        assert tp.scale(q) == tp * q and tp.scale(r) == tp * r

    def test_scale_by_an_area_polynomial(self):
        tp = TPoly({1: QLaurent({0: 1, 2: 3})})
        q = QLaurent({1: 1})
        assert tp.scale(q) == TPoly({1: QLaurent({1: 1, 3: 3})})
        assert repr(tp.scale(q)) == "(q + 3*q^3)*t"
        third = QLaurent({0: Fraction(1, 3), 2: 1})
        assert tp.scale(Fraction(1, 3)) == TPoly({1: third})
        assert tp.scale(0) == TPoly.zero()
        for bad in (TPoly.marker(), 1.5):
            with pytest.raises(TypeError):
                tp.scale(bad)

    def test_div_t(self):
        t = TPoly.marker()
        assert (t * t).div_t_exact() == t
        assert TPoly.zero().div_t_exact() == TPoly.zero()
        with pytest.raises(InexactDivision):
            TPoly.one().div_t_exact()

    def test_no_negative_marker_power(self):
        with pytest.raises(ValueError):
            TPoly({-1: 1})


class TestLSeries:
    def test_truncation_and_equality_semantics(self):
        # equality is order-strict: agreeing up to the shorter truncation
        # is not enough
        a = LSeries(4, {0: 1, 2: 1})
        b = LSeries(8, {0: 1, 2: 1, 6: 5})
        assert a != b
        assert b.resized(4) == a
        with pytest.raises(IndexError):
            a.coeff(5)
        assert a.coeff(-3).is_zero()

    def test_resized_rejects_negative_order(self):
        with pytest.raises(ValueError,
                           match="truncation order must be an integer >= 0"):
            LSeries(3, {0: 1, 2: 1}).resized(-1)

    def test_mul_truncates_to_shorter(self):
        a = LSeries(10, {0: 1, 1: 1})
        b = LSeries(4, {0: 1})
        assert (a * b).order == 4

    @pytest.mark.parametrize("seed", range(6))
    def test_series_algebra_random(self, seed):
        rng = random.Random(200 + seed)
        a, b, c = (rand_series(rng) for _ in range(3))
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)

    @pytest.mark.parametrize("seed", range(6))
    def test_divide_roundtrip(self, seed):
        rng = random.Random(300 + seed)
        a = rand_series(rng)
        b = rand_series(rng)
        b = b - b.coeff(0) + 1  # force unit constant term
        assert (a * b).divide(b) == a

    def test_divide_requires_scalar_unit(self):
        bad = LSeries(4, {0: QLaurent({1: 1})})
        with pytest.raises(NonUnitConstantTerm):
            LSeries.one(4).divide(bad)
        with pytest.raises(NonUnitConstantTerm):
            LSeries.one(4).divide(LSeries.zeros(4))
        # so does a nonzero rational != 1
        half = LSeries(4, {0: Fraction(1, 2), 1: 1})
        with pytest.raises(NonUnitConstantTerm):
            half.divide(half)

    @pytest.mark.parametrize("seed", range(4))
    def test_exp_log_inverse(self, seed):
        rng = random.Random(400 + seed)
        a = rand_series(rng, order=7)
        a = a - a.coeff(0)  # constant term 0
        assert a.exp().log() == a
        one_plus = a + 1
        assert one_plus.log().exp() == one_plus

    def test_exp_log_preconditions(self):
        with pytest.raises(BadConstantTerm):
            LSeries(4, {0: 2}).log()
        with pytest.raises(BadConstantTerm):
            LSeries(4, {0: 1}).exp()

    def test_log_at_order_zero(self):
        # no derivative to divide at order 0: the log is the zero series
        assert LSeries.one(0).log() == LSeries.zeros(0)
        assert LSeries.one(0, TPoly).log() == LSeries.zeros(0, TPoly)

    def test_log_of_product_is_sum(self):
        rng = random.Random(17)
        a = rand_series(rng, 7) - 1
        b = rand_series(rng, 7) - 1
        a, b = a - a.coeff(0) + 1, b - b.coeff(0) + 1
        assert (a * b).log() == a.log() + b.log()

    def test_substitute_scale_and_shift(self):
        s = LSeries(6, {2: QLaurent({1: 3})})
        assert s.substitute_scale(2).coeff(2) == QLaurent({5: 3})
        assert s.substitute_scale(3).substitute_scale(-3) == s
        assert s.shift_step(2).coeff(4) == QLaurent({1: 3})
        assert s.shift_step(0) is s
        with pytest.raises(ValueError):
            s.shift_step(-1)

    @pytest.mark.parametrize("ring", [QLaurent, TPoly])
    @pytest.mark.parametrize("d", [6, 7, 8, 20])
    def test_shift_past_truncation_keeps_order(self, ring, d):
        s = LSeries(6, {0: ring.one(), 5: ring.one()}, ring)
        shifted = s.shift_step(d)
        assert len(shifted.c) == 7
        expected = {6: ring.one()} if d == 6 else {}
        assert shifted == LSeries(6, expected, ring)

    def test_mixed_rings_require_lift(self):
        plain = LSeries(4, {0: 1, 1: 1})
        marked = LSeries(4, {0: 1}, ring=TPoly)
        with pytest.raises(TypeError):
            plain * marked
        lifted = lift_marker(plain)
        assert lifted.ring is TPoly
        assert (lifted * marked).coeff(1) == TPoly({0: 1})
        # equality across rings is simply False, never an error
        assert plain != marked

    def test_marker_series_division(self):
        # 1/(1 - t*z^2) has coefficient t^a at z^(2a)
        one = LSeries.one(8, TPoly)
        den = one - LSeries(8, {2: TPoly.marker()}, ring=TPoly)
        g = one.divide(den)
        for a in range(5):
            assert g.coeff(2 * a) == TPoly({a: 1})
        for l in range(1, 8, 2):
            assert g.coeff(l).is_zero()


def _series_quotient(d):
    return LSeries.one(d.order).divide(d)


def _packed_quotient(d):
    ring = PackedRing(8)
    return ring.unpack(ring.quotient((1,), ring.pack(d)), d.order)


@pytest.mark.parametrize("invert", [_series_quotient, _packed_quotient],
                         ids=["LSeries.divide", "PackedRing.quotient"])
@pytest.mark.parametrize("const", [0, 2, QLaurent({2: 1}),
                                   QLaurent({0: 1, 4: 1}), 1])
def test_quotient_needs_constant_term_one(invert, const):
    # one quotient contract: 1 - zeta^2 with its constant term replaced;
    # 1 + q^2 is no unit either, whatever slot its area term packs into
    d = LSeries(4, [const, 0, -1])
    if const == 1:
        assert invert(d) == LSeries(4, [1, 0, 1, 0, 1])
    else:
        with pytest.raises(NonUnitConstantTerm):
            invert(d)


def packed_series(values, order):
    """Series in z = zeta^2 of step order `order`: `values` at the even
    step powers and zero at the odd ones."""
    half = order // 2 + 1
    return st.lists(values, min_size=half, max_size=half).map(
        lambda c: LSeries(order, dict(zip(range(0, order + 1, 2), c))))


def brute_series_mul(a, b):
    L = min(a.order, b.order)
    out = [QLaurent.zero()] * (L + 1)
    for i in range(L + 1):
        for j in range(L + 1 - i):
            out[i + j] = out[i + j] + brute_mul(a.c[i], b.c[j])
    return out


RUN_SLOTS = 8   # slots per run of a drawn packed entry


def entries(width):
    """A packed entry of the given slot width: 0 to 4 runs of slot
    values (zero, small, saturated at 2**width - 1 or anything in
    between), or a raw signed int as wide as 3 runs."""
    top = 2 ** width - 1
    slot = st.sampled_from([0, 0, 1, top]) | st.integers(0, top)
    return (st.lists(slot, max_size=4 * RUN_SLOTS)
            | st.integers(-(1 << 3 * RUN_SLOTS * width),
                          1 << 3 * RUN_SLOTS * width))


def slot_by_slot(width, x, order, step=0, shift=0):
    """Reference for PackedRing.unpack: every width-bit slot of each
    entry read from its bytes on its own, and the series multiplied by
    zeta^step theta^shift to order + step."""
    if len(x) != order // 2 + 1:
        raise ValueError("entry count")
    nb = width // 8
    out = {}
    for i, v in enumerate(x):
        if v < 0:
            raise ArithmeticError("negative entry")
        raw = v.to_bytes(-(-v.bit_length() // 8), "little")
        out[2 * i + step] = QLaurent({
            2 * j + shift: int.from_bytes(raw[nb * j:nb * j + nb], "little")
            for j in range(-(-len(raw) // nb))})
    return LSeries(order + step, out)


# A product slot sums at most 5 step pairs x 36 term pairs of counts up to
# 4, so every final coefficient stays below 2**16.
WIDTH = 16


class TestPackedRing:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 9).flatmap(
        lambda o: st.tuples(packed_series(counts, o),
                            packed_series(counts, o))),
        st.integers(0, 3))
    @example((LSeries(0, [QLaurent({4: 2})]), LSeries(0, [QLaurent({2: 3})])),
             0)
    @example((LSeries(2, [1, 0, QLaurent({6: 1})]), LSeries.one(2)), 1)
    @example((LSeries(3, [1, 0, QLaurent({2: 1})]),
              LSeries(3, [QLaurent({0: 1, 2: 1}), 0, 1])), 1)
    def test_product_matches_brute_mul(self, ab, shift):
        a, b = ab
        ring = PackedRing(WIDTH)
        product = ring.mul(ring.pack(a), ring.pack(b, shift))
        expected = brute_series_mul(a, b.substitute_scale(shift))
        assert ring.unpack(product, a.order).c == expected

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 9).flatmap(
        lambda o: st.tuples(packed_series(counts, o),
                            packed_series(signed, o))))
    @example((LSeries(0, [QLaurent({2: 1})]), LSeries.one(0)))
    @example((LSeries(3, [1, 0, 0, 0]), LSeries(3, [1, 0, QLaurent({0: -1}),
                                                    0])))
    def test_quotient_undoes_signed_product(self, pd):
        # p * d carries negative coefficients; dividing it by d, as the
        # routes divide, must cancel back to the counts of p
        p, d = pd
        d = LSeries(d.order, [QLaurent.one(), *d.c[1:]])
        ring = PackedRing(WIDTH)
        quotient = ring.quotient(ring.pack(p * d), ring.pack(d))
        assert ring.unpack(quotient, p.order).c == p.c

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 16), st.integers(0, 9).flatmap(
        lambda o: st.tuples(packed_series(signed, o),
                            packed_series(signed, o))),
        st.integers(0, 3))
    @example(1, (LSeries(2, [QLaurent({0: -4, 2: 4}), 0, 3]),
                 LSeries(2, [QLaurent({0: 4}), 0, QLaurent({4: -3})])), 2)
    def test_signed_product_is_the_packed_product(self, width, ab, shift):
        # q -> 2**width is a ring homomorphism onto Z, so the product of
        # signed packs is the pack of the product, also when its slots
        # overflow into each other at narrow widths
        a, b = ab
        ring = PackedRing(width)
        product = LSeries(a.order,
                          brute_series_mul(a, b.substitute_scale(shift)))
        assert (ring.mul(ring.pack(a), ring.pack(b, shift))
                == ring.pack(product))

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 16), st.integers(0, 9).flatmap(
        lambda o: st.tuples(packed_series(signed, o),
                            packed_series(signed, o))))
    @example(1, (LSeries(4, [QLaurent({2: 4}), 0, 0, 0, 1]),
                 LSeries(4, [1, 0, QLaurent({0: -4, 2: 4}), 0, 0])))
    def test_signed_quotient_is_the_packed_quotient(self, width, xd):
        # the same homomorphism carries x/d, whatever signs and
        # overflowing slots its coefficients hold
        x, d = xd
        d = LSeries(d.order, [QLaurent.one(), *d.c[1:]])
        ring = PackedRing(width)
        assert (ring.quotient(ring.pack(x), ring.pack(d))
                == ring.pack(x.divide(d)))

    @pytest.mark.parametrize("width", [8, WIDTH, 72])
    def test_quotient_reads_a_short_dividend_as_zero_padded(self, width):
        # x = 1 + z q, shorter than d = 1 - z - z^2: x/d to the length of d
        ring = PackedRing(width)
        x = LSeries(2, [1, 0, QLaurent({2: 1})])
        d = LSeries(8, {0: 1, 2: -1, 4: -1})
        quotient = ring.quotient(ring.pack(x), ring.pack(d))
        assert len(quotient) == 5
        assert ring.unpack(quotient, 8) == x.resized(8).divide(d)

    @pytest.mark.parametrize("series,shift", [
        (LSeries(2, [1, QLaurent({0: 1})]), 0),     # odd step power
        (LSeries(3, [1, 0, 0, QLaurent({4: 2})]), 1),
        (LSeries(0, [QLaurent({1: 1})]), 0),        # odd area
        (LSeries(2, [1, 0, QLaurent({3: 1})]), 1),  # e + 2 = 5
        (LSeries(0, [QLaurent({0: 1, 3: 1})]), 0),  # odd beside even
    ])
    def test_pack_rejects_series_outside_the_even_ring(self, series, shift):
        with pytest.raises(ValueError, match="odd"):
            PackedRing(8).pack(series, shift)

    @pytest.mark.parametrize("width", range(1, 71))
    def test_unpack_round_trips_every_width(self, width):
        # the largest count a slot holds, next to runs of empty slots at
        # the bottom and in the middle, and an empty coefficient, at an
        # odd and an even order
        top = 2 ** width - 1
        ring = PackedRing(width)
        assert ring.width % 8 == 0 and ring.width >= width
        for order in (5, 6):
            series = LSeries(order, {
                0: QLaurent({14: top, 16: 1, 60: 2 ** (width - 1)}),
                4: QLaurent({0: top, 2: 1})})
            assert ring.unpack(ring.pack(series), order) == series

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 70).flatmap(lambda w: st.tuples(
        st.just(w), st.lists(st.dictionaries(
            st.integers(0, 20).map(lambda e: 2 * e),
            st.integers(0, 2 ** w - 1), max_size=8),
            min_size=1, max_size=4))), st.integers(0, 1), st.integers(0, 3))
    def test_unpack_round_trips_counts(self, wc, odd, shift):
        width, coeffs = wc
        order = 2 * (len(coeffs) - 1) + odd
        series = LSeries(order, {2 * i: QLaurent(c)
                                 for i, c in enumerate(coeffs)})
        ring = PackedRing(width)
        assert (ring.unpack(ring.pack(series, shift), order)
                == series.substitute_scale(shift))

    def test_unpack_rejects_non_counts(self):
        with pytest.raises(ArithmeticError):
            PackedRing(8).unpack((1, -1), 3)
        with pytest.raises(ValueError):
            PackedRing(8).unpack((1, 1), 4)   # order 4 holds 3 entries
        with pytest.raises(ValueError):
            PackedRing(8).unpack((1, 1), 5, 1)   # zeta^1..zeta^5: 3 entries
        with pytest.raises(ValueError):
            PackedRing(8).unpack((0, 0), 2, 3)   # past the order: 1 entry

    def test_pack_keeps_negative_entries_short(self):
        # F_k's odd powers of zeta^2 are negative; pack sums each entry's
        # signed slots as they are, so they stay short negative ints
        ring = PackedRing(32)
        fk = fk_polynomial(12).resized(40)
        packed = ring.pack(fk)
        assert packed == tuple(sum(c << 32 * (e // 2) for e, c in v.terms())
                               for v in fk.c[::2])
        assert min(packed) < 0

    def test_wide_decode_peaks_near_its_result(self):
        # one decode of the packed excursion series at (12, 0, 0, 200),
        # 200-bit slots, holds its batch of bytes and one run of slot
        # strings beside the result, not one bytes object per slot
        spec = GenSpec(12, 0, 0, 200)
        ring, L = spec.packed_ring, spec.series_order
        upper = ring.pack(fk_polynomial(11).resized(L), 1)
        fk = ring.pack(fk_polynomial(12).resized(L))
        packed = ring.mul(upper, ring.quotient((1,), fk))
        assert ring.width > 64
        gc.collect()
        tracemalloc.start()
        try:
            out = ring.decoded((packed,), L)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [sum(c for _, c in v.terms()) for v in out[:13]] == [
            comb(2 * i, i) // (i + 1) for i in range(13)]   # Catalan
        assert peak < 1.75 * held

    def test_unpack_past_the_order_is_empty(self):
        # with step > order nothing fits; the one entry is still checked
        assert PackedRing(8).unpack((0,), 2, 3) == LSeries.zeros(2)
        assert PackedRing(8).unpack((1,), 2, 3) == LSeries.zeros(2)
        with pytest.raises(ArithmeticError):
            PackedRing(8).unpack((-1,), 2, 3)
        with pytest.raises(ValueError):
            PackedRing(0)

    @settings(deadline=None, max_examples=200)
    @given((st.sampled_from([56, 64, 72]) | st.integers(1, 208)).flatmap(
        lambda w: st.tuples(st.just(w),
                            st.lists(entries(-(-w // 8) * 8), max_size=4))),
        st.integers(0, 1), st.integers(0, 3), st.integers(0, 9))
    @example((8, [[255] * (RUN_SLOTS - 1) + [0] * (RUN_SLOTS + 1) + [1],
                  [0] * (RUN_SLOTS - 1) + [255, 255]]), 0, 0, 0)
    @example((208, [[2 ** 208 - 1] + [0] * (2 * RUN_SLOTS) + [7]]), 1, 0, 0)
    @example((40, [5, -1]), 1, 0, 0)
    # on both sides of the 64-bit split and at it: zero entries, empty
    # bottom slots, an empty slot inside an entry and saturated slots
    @example((56, [0, [0, 0, 5, 0, 2 ** 56 - 1], [3], 0, [0] * 9 + [1]]),
             0, 0, 0)
    @example((64, [[0, 2 ** 64 - 1, 0, 1], 0, [0] * 20 + [2 ** 63], [7]]),
             1, 0, 0)
    @example((72, [0, [0] * 3 + [2 ** 72 - 1, 0, 0, 9], [1] * 17, 0]),
             0, 0, 0)
    # the same batches decoded with an odd area shift, and placed from an
    # odd step, on both sides of the split
    @example((56, [0, [0, 0, 5, 0, 2 ** 56 - 1], [3], 0, [0] * 9 + [1]]),
             0, 1, 3)
    @example((64, [[0, 2 ** 64 - 1, 0, 1], 0, [0] * 20 + [2 ** 63], [7]]),
             1, 3, 5)
    @example((72, [0, [0] * 3 + [2 ** 72 - 1, 0, 0, 9], [1] * 17, 0]),
             0, 2, 7)
    # a negative entry between counts raises on either side of the split
    @example((64, [[1, 2], -5, [3]]), 0, 0, 0)
    @example((72, [[1, 2], -5, [3]]), 0, 0, 0)
    @example((208, [-1]), 0, 0, 0)
    # wide batches of a run of slots less one, a run, a run and one, and
    # two runs and one, over one entry or two
    @example((72, [[1] * (_WIDE_RUN - 1)]), 0, 0, 0)
    @example((208, [[2 ** 208 - 1] * (_WIDE_RUN - 1)]), 1, 0, 0)
    @example((72, [[0] * 3 + [2 ** 72 - 1] * _WIDE_RUN]), 0, 0, 0)
    @example((208, [[7] * 24, [0] * 5 + [1, 2] * (_WIDE_RUN // 2 - 12)]),
             1, 1, 1)
    @example((72, [[3] * _WIDE_RUN, [0] * 9 + [1]]), 0, 0, 0)
    @example((208, [[2 ** 208 - 1] * (_WIDE_RUN + 1)]), 0, 0, 0)
    @example((72, [[5] * _WIDE_RUN, [0] * 4 + [9] * (_WIDE_RUN + 1)]),
             0, 0, 0)
    @example((208, [[1] + [0] * (2 * _WIDE_RUN - 1) + [2 ** 208 - 1]]),
             0, 0, 0)
    # every entry takes its slots in turn from the batch's one stream of
    # words: one with empty slots inside, then one with empty bottom
    # slots and an empty slot inside, a zero entry and one with empty
    # bottom slots, on each side of the split
    @example((8, [[255, 0, 0, 2], [0] * 4 + [5, 0, 7], 0, [0, 0, 3]]),
             0, 0, 1)
    @example((64, [[2 ** 64 - 1, 0, 0, 2], [0] * 4 + [5, 0, 7], 0,
                   [0, 0, 3]]), 1, 0, 0)
    @example((72, [[2 ** 72 - 1, 0, 0, 2], [0] * 4 + [5, 0, 7], 0,
                   [0, 0, 3]]), 0, 1, 2)
    @example((72, [[2 ** 72 - 1, 0, 0, 2], [0] * 4 + [5, 0, 7], 0,
                   [0, 0, 3]]), 0, 0, 0)
    # the batch's words are tested for a zero once, at slots of 64 bits
    # or fewer: exactly one entry of several has an empty slot inside,
    # in the middle of the batch or last, and no entry has one (empty
    # bottom slots, zero entries and saturated slots around them)
    @example((16, [[3, 4], [0, 9, 0, 2], [2 ** 16 - 1], [0, 0, 1, 1]]),
             0, 0, 0)
    @example((64, [[1], [0, 2 ** 64 - 1, 5], 0, [7, 0, 0, 8]]), 1, 0, 1)
    @example((24, [[1, 2, 3], 0, [0, 0, 5, 6], [2 ** 24 - 1] * 3, [4]]),
             0, 1, 2)
    @example((64, [[0, 2 ** 64 - 1], [1, 1], 0, [0] * 7 + [2]]), 1, 0, 0)
    def test_unpack_matches_slot_by_slot_reference(self, wx, odd, step,
                                                   shift):
        # unpack decodes a series in one batch, reading the slots of
        # any width through one struct format, each exponent raised by
        # the area shift as it is read, and places it from zeta^step;
        # the reference reads every slot from the entry's bytes.  An
        # entry is a list of slot values (empty runs and slots saturated
        # at 2**width - 1 on run boundaries included) or a raw, possibly
        # negative, int
        width, slots = wx
        ring = PackedRing(width)
        w = ring.width
        x = tuple(v if isinstance(v, int)
                  else sum(c << w * j for j, c in enumerate(v))
                  for v in slots) or (0,)
        order = 2 * (len(x) - 1) + odd
        try:
            expected = slot_by_slot(w, x, order, step, shift)
        except ArithmeticError:
            with pytest.raises(ArithmeticError):
                ring.unpack(x, order + step, step, shift)
            return
        assert ring.unpack(x, order + step, step, shift) == expected
        assert (ring.decoded((x, x), order, shift)
                == 2 * expected.c[step::2])


# Ring laws over small random values: the cluster route rests on exp and
# the determinant route on divide, so both inverses are checked too.

def series(order=4, unit=None):
    """Series of the given order; `unit` fixes the constant term."""
    coeffs = st.lists(laurents, min_size=order + 1, max_size=order + 1)
    if unit is None:
        return coeffs.map(lambda c: LSeries(order, c))
    return coeffs.map(lambda c: LSeries(order, [QLaurent.coerce(unit), *c[1:]]))


class TestRingLaws:
    @settings(deadline=None, max_examples=40)
    @given(laurents, laurents, laurents)
    def test_laurent_associative_and_distributive(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(deadline=None, max_examples=20)
    @given(series(), series(), series())
    def test_series_associative_and_distributive(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(deadline=None, max_examples=20)
    @given(series(), series(unit=1))
    def test_divide_undoes_multiply(self, a, b):
        assert a.divide(b) * b == a

    @settings(deadline=None, max_examples=20)
    @given(series(unit=1))
    def test_exp_undoes_log(self, s):
        assert s.log().exp() == s

    @settings(deadline=None, max_examples=20)
    @given(series(unit=0))
    def test_log_undoes_exp(self, s):
        assert s.exp().log() == s
