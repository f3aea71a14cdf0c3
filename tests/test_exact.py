"""Exact-arithmetic kernel: Laurent polynomials, marker polynomials,
truncated series."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyckgen.exact import (BadConstantTerm, InexactDivision, LSeries,
                           NonUnitConstantTerm, PackedRing, QLaurent, TPoly,
                           lift_marker)

COEFFS = [1, -1, 2, 3, -5, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 4)]


def rand_qlaurent(rng, max_terms=4, span=6):
    return QLaurent({rng.randrange(-span, span + 1): rng.choice(COEFFS)
                     for _ in range(rng.randrange(max_terms + 1))})


# integral area polynomials with non-negative exponents, the values a
# packed ring holds: counts (what it may return) and signed intermediates
counts = st.dictionaries(st.integers(0, 12), st.integers(0, 4),
                         max_size=6).map(QLaurent)
signed = st.dictionaries(st.integers(0, 12), st.integers(-4, 4),
                         max_size=6).map(QLaurent)


# Laurent polynomials with negative exponents and Fraction coefficients
laurents = st.dictionaries(
    st.integers(-6, 6),
    st.integers(-4, 4) | st.fractions(-2, 2, max_denominator=3),
    max_size=4).map(QLaurent)


def dropped_above(q, cap):
    if cap is None:
        return q
    return QLaurent({e: c for e, c in q.terms() if e <= cap})


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
        assert a.scale_exponents(2).halved() == a
        with pytest.raises(InexactDivision):
            a.halved()
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

    def test_scalar_introspection(self):
        assert QLaurent.const(Fraction(3, 2)).scalar_value() == Fraction(3, 2)
        assert QLaurent.zero().is_scalar()
        assert not QLaurent({1: 1}).is_scalar()
        with pytest.raises(ValueError):
            QLaurent({1: 1}).scalar_value()

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
                (QLaurent.const(1), 1), (QLaurent.zero(), 0),
                (QLaurent.const(Fraction(1, 2)), Fraction(1, 2)),
                (TPoly.from_area(q), q), (TPoly.one(), 1), (TPoly.zero(), 0),
                (TPoly.one(), QLaurent.one()),
                (TPoly.from_area(Fraction(2, 3)), Fraction(2, 3))]:
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
        assert q * tp == tp * q == TPoly.from_area(q) * tp
        assert r * tp == tp * r == TPoly.from_area(r) * tp
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

    def test_scalar_detection(self):
        assert TPoly({0: 5}).is_scalar() and TPoly({0: 5}).scalar_value() == 5
        assert not TPoly({1: 1}).is_scalar()
        assert not TPoly({0: QLaurent({1: 1})}).is_scalar()


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
        with pytest.raises(ValueError, match="truncation order must be >= 0"):
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
        # a nonzero rational != 1 is fine
        half = LSeries(4, {0: Fraction(1, 2), 1: 1})
        assert half.divide(half) == LSeries.one(4)

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

    def test_double_step_view(self):
        s = LSeries(6, {0: 1, 2: QLaurent({2: 5}), 4: QLaurent({0: 1, 4: 1})})
        d = s.to_double_step()
        assert d.order == 3
        assert d.coeff(1) == QLaurent({1: 5})
        assert d.coeff(2) == QLaurent({0: 1, 2: 1})
        with pytest.raises(InexactDivision):
            LSeries(4, {1: 1}).to_double_step()
        with pytest.raises(InexactDivision):
            LSeries(4, {2: QLaurent({1: 1})}).to_double_step()

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


def packed_series(values, order):
    return st.lists(values, min_size=order + 1, max_size=order + 1).map(
        lambda c: LSeries(order, c))


def brute_series_mul(a, b):
    L = min(a.order, b.order)
    out = [QLaurent.zero()] * (L + 1)
    for i in range(L + 1):
        for j in range(L + 1 - i):
            out[i + j] = out[i + j] + brute_mul(a.c[i], b.c[j])
    return out


# A product slot sums at most 5 step pairs x 36 term pairs of counts up to
# 4, so every final coefficient stays below 2**16.
WIDTH = 16
caps = st.none() | st.integers(-3, 30)


class TestPackedRing:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 4).flatmap(
        lambda o: st.tuples(packed_series(counts, o),
                            packed_series(counts, o))),
        st.integers(0, 3), caps)
    @example((LSeries(0, [QLaurent({3: 2})]), LSeries(0, [QLaurent({1: 3})])),
             0, None)
    @example((LSeries(2, [1, 0, QLaurent({5: 1})]), LSeries.one(2)), 1, -1)
    def test_product_matches_brute_mul(self, ab, shift, cap):
        a, b = ab
        ring = PackedRing(WIDTH, cap)
        product = ring.mul(ring.pack(a), ring.pack(b, shift))
        expected = brute_series_mul(a, b.substitute_scale(shift))
        assert ring.unpack(product).c == [dropped_above(v, cap)
                                          for v in expected]

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 4).flatmap(
        lambda o: st.tuples(packed_series(counts, o),
                            packed_series(signed, o))),
        caps)
    @example((LSeries(0, [QLaurent({2: 1})]), LSeries.one(0)), None)
    @example((LSeries(3, [1, 0, 0, 0]), LSeries(3, [1, QLaurent({0: -1}),
                                                    0, 0])), 4)
    def test_inverse_undoes_signed_product(self, pd, cap):
        # q = p * d carries negative coefficients and 1/d more of them;
        # q * (1/d) must cancel back to the counts of p, with every
        # exponent above the cap dropped
        p, d = pd
        d = LSeries(d.order, [QLaurent.one(), *d.c[1:]])
        q = p * d
        ring = PackedRing(WIDTH, cap)
        quotient = ring.mul(ring.pack(q), ring.inverse(ring.pack(d)))
        expected = [dropped_above(v, cap) for v in q.divide(d).c]
        assert ring.unpack(quotient).c == expected
        assert expected == [dropped_above(v, cap) for v in p.c]

    def test_negative_cap_is_the_empty_series(self):
        ring = PackedRing(8, -1)
        one = ring.pack(LSeries.one(3))
        assert ring.unpack(ring.inverse(one)) == LSeries.zeros(3)

    def test_inverse_needs_constant_term_one(self):
        ring = PackedRing(8)
        with pytest.raises(NonUnitConstantTerm):
            ring.inverse(ring.pack(LSeries(2, [2, 1])))

    @pytest.mark.parametrize("width", range(1, 71))
    def test_unpack_round_trips_every_width(self, width):
        # the largest count a slot holds, next to runs of empty slots at
        # the bottom and in the middle, and an empty coefficient
        top = 2 ** width - 1
        series = LSeries(3, [QLaurent({7: top, 8: 1, 30: 2 ** (width - 1)}),
                             0, QLaurent({0: top}), QLaurent({1: 1})])
        ring = PackedRing(width)
        assert ring.width % 8 == 0 and ring.width >= width
        assert ring.unpack(ring.pack(series)) == series

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 70).flatmap(lambda w: st.tuples(
        st.just(w), st.lists(st.dictionaries(
            st.integers(0, 40), st.integers(0, 2 ** w - 1), max_size=8),
            min_size=1, max_size=4))), st.integers(0, 3))
    def test_unpack_round_trips_counts(self, wc, shift):
        width, coeffs = wc
        series = LSeries(len(coeffs) - 1, [QLaurent(c) for c in coeffs])
        ring = PackedRing(width)
        assert (ring.unpack(ring.pack(series, shift))
                == series.substitute_scale(shift))

    def test_unpack_rejects_non_counts(self):
        with pytest.raises(ArithmeticError):
            PackedRing(8).unpack((1, -1))
        with pytest.raises(ValueError):
            PackedRing(0)


# Ring laws over small random values: the cluster route rests on exp and
# the determinant route on divide, so both inverses are checked too.

def series(order=4, unit=None):
    """Series of the given order; `unit` fixes the constant term."""
    coeffs = st.lists(laurents, min_size=order + 1, max_size=order + 1)
    if unit is None:
        return coeffs.map(lambda c: LSeries(order, c))
    return coeffs.map(lambda c: LSeries(order, [QLaurent.const(unit), *c[1:]]))


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
