"""Exact-arithmetic kernel: Laurent polynomials, marker polynomials,
truncated series."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyckgen.exact import (BadConstantTerm, InexactDivision, LSeries,
                           NonUnitConstantTerm, QLaurent, TPoly, lift_marker)

COEFFS = [1, -1, 2, 3, -5, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 4)]


def rand_qlaurent(rng, max_terms=4, span=6):
    return QLaurent({rng.randrange(-span, span + 1): rng.choice(COEFFS)
                     for _ in range(rng.randrange(max_terms + 1))})


# polynomials in the area variable with non-negative exponents, the
# domain on which dropping the exponents above a cap is a ring map
polys = st.dictionaries(
    st.integers(0, 12),
    st.integers(-4, 4) | st.fractions(-2, 2, max_denominator=3),
    max_size=6).map(QLaurent)


def dropped_above(q, cap):
    return QLaurent({e: c for e, c in q.terms() if e <= cap})


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

    def test_basic_algebra(self):
        a = QLaurent({0: 1, 2: -1})
        b = QLaurent({0: 1, 1: 1})
        assert (a * b).terms() == [(0, 1), (1, 1), (2, -1), (3, -1)]
        assert (a + b).terms() == [(0, 2), (1, 1), (2, -1)]
        assert (a - a).is_zero()
        assert a * 0 == QLaurent.zero()
        assert (a ** 2) == a * a

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
    @given(polys, polys, st.integers(-1, 26))
    def test_mul_upto_drops_exponents_above_cap(self, a, b, cap):
        assert a.mul_upto(b, cap) == dropped_above(a * b, cap)

    def test_hash_consistent_across_int_fraction(self):
        a = QLaurent({2: 2})
        b = QLaurent({2: Fraction(4, 2)})
        assert a == b and hash(a) == hash(b)


class TestTPoly:
    def test_marker_algebra(self):
        t = TPoly.marker()
        q = QLaurent({1: 1})
        p = (t + q) * (t - q)
        assert p == TPoly({2: 1, 0: QLaurent({2: -1})})
        assert p.coeff(1).is_zero()
        assert p.at_t_one() == QLaurent({0: 1, 2: -1})

    def test_at_t_one_is_ring_map(self):
        rng = random.Random(7)
        a = TPoly({0: rand_qlaurent(rng), 1: rand_qlaurent(rng)})
        b = TPoly({1: rand_qlaurent(rng), 2: rand_qlaurent(rng)})
        assert (a * b).at_t_one() == a.at_t_one() * b.at_t_one()
        assert (a + b).at_t_one() == a.at_t_one() + b.at_t_one()

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

    @settings(deadline=None)
    @given(st.lists(polys, min_size=1, max_size=5),
           st.lists(polys, min_size=1, max_size=5),
           st.sampled_from([1, -1, 2, Fraction(1, 3)]),
           st.integers(0, 30))
    def test_capped_product_and_quotient_drop_above_cap(self, a, b, unit,
                                                        cap):
        order = 4
        a = LSeries(order, a)
        b = LSeries(order, [QLaurent.const(unit), *b[1:]])
        capped = [dropped_above(v, cap) for v in (a * b).c]
        assert a.mul(b, cap).c == capped
        capped = [dropped_above(v, cap) for v in a.divide(b).c]
        assert a.divide(b, cap).c == capped

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


# Ring laws over small random values: the cluster route rests on exp and
# the determinant route on divide, so both inverses are checked too.
laurents = st.dictionaries(
    st.integers(-6, 6),
    st.integers(-4, 4) | st.fractions(-2, 2, max_denominator=3),
    max_size=4).map(QLaurent)


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
