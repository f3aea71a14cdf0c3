"""Floor-return-marked generating functions."""

import pytest
from conftest import assert_routes_match_oracle, specs, with_prefactor
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyckgen.config import SpecOutOfRange
from dyckgen.exact import LSeries, PackedRing, QLaurent, TPoly, lift_marker
from dyckgen.genfun import GenSpec, genfun
from dyckgen.oracle import enumerate_paths, genfun_from_table
from dyckgen.spectral import det_degree, fk_polynomial
from dyckgen import touchdown
from dyckgen.touchdown import (tilde_genfun, tilde_genfun_openend,
                               tilde_genfun_openend_shifted,
                               tilde_genfun_ratio, tilde_secular,
                               tilde_secular_direct, tilde_secular_toprow)


class TestMarkedDeterminant:
    def test_frozen_small_cases(self):
        # k=1: 1 - t zeta^2 (marked corner of the 2x2 matrix)
        assert tilde_secular(1, 2) == LSeries(
            2, {0: 1, 2: TPoly({1: -1})}, ring=TPoly)
        # k=2: 1 - t zeta^2 - zeta^2 theta^2
        assert tilde_secular(2, 2) == LSeries(
            2, {0: 1, 2: TPoly({0: QLaurent({2: -1}), 1: -1})}, ring=TPoly)

    def test_base_cases(self):
        assert tilde_secular(-1, 4) == LSeries.one(4, TPoly)
        assert tilde_secular(0, 4) == LSeries.one(4, TPoly)
        with pytest.raises(SpecOutOfRange):
            tilde_secular(-2, 4)
        # a negative order is the truncation's error, not a ring mismatch
        with pytest.raises(ValueError,
                           match="truncation order must be an integer >= 0"):
            tilde_secular(3, -1)

    @pytest.mark.parametrize("k", range(0, 11))
    def test_three_routes_agree(self, k):
        L = det_degree(k) + 2
        a = tilde_secular(k, L)
        assert a == tilde_secular_toprow(k, L)
        assert a == tilde_secular_direct(k)

    @pytest.mark.parametrize("k", range(0, 8))
    def test_collapse_to_plain_determinant(self, k):
        L = det_degree(k)
        collapsed = tilde_secular(k, L).map_coeffs(TPoly.at_t_one)
        assert collapsed == fk_polynomial(k).resized(L)


class TestMarkedGenFun:
    @pytest.mark.parametrize("k", range(0, 6))
    def test_collapse_at_one(self, k):
        for m in range(k + 1):
            for n in range(m, k + 1):
                assert (tilde_genfun(k, m, n, 12).at_t_one()
                        == genfun(GenSpec(k, m, n, 12)).full_series())

    def test_one_level_closed_form(self):
        # the zigzag: (UD)^a carries exactly a markers
        series = tilde_genfun(1, 0, 0, 12).full_series()
        for a in range(7):
            assert series.coeff(2 * a) == TPoly({a: 1})

    def test_first_excursion_carries_one_marker(self):
        for k in range(1, 5):
            assert (tilde_genfun(k, 0, 0, 4).full_series().coeff(2)
                    == TPoly({1: 1}))

    def test_coefficient_accessor(self):
        tg = tilde_genfun(4, 1, 2, 13)
        assert tg.coefficient(13, 21, 1) == 34  # frozen from the enumerator
        assert tg.coefficient(13, 21, 0) == 35
        assert tg.coefficient(13, 21, 2) == 3
        assert tg.coefficient(0, 0, 0) == 0

    def test_one_result_type_with_plain_genfun(self):
        tg = tilde_genfun(4, 1, 2, 13)
        gf = genfun(GenSpec(4, 1, 2, 13))
        assert type(tg) is type(gf)
        # touchdowns=None counts paths with any number of floor returns
        assert tg.coefficient(13, 21) == gf.coefficient(13, 21) == 72
        assert gf.at_t_one() == gf.full_series()
        with pytest.raises(IndexError):
            tg.coefficient(14, 21, 1)
        with pytest.raises(ValueError):
            gf.coefficient(13, 21, 1)

    @pytest.mark.parametrize("k", [None, 4])
    @pytest.mark.parametrize("m,n", [(3, 1), (4, 0), (2, 0), (1, 0)])
    def test_endpoints_in_either_order(self, k, m, n):
        # m > n by path reversal: tG_(m,n) = tG_(n,m) for n >= 1 and
        # tG_(m,0) = t * tG_(0,m), against the enumerator
        _, marked = assert_routes_match_oracle(GenSpec(k, m, n, 13))
        # the reversed spec has the same prefactor
        swapped = tilde_genfun(k, n, m, 13).full_series()
        if n == 0:
            swapped = swapped.map_coeffs(lambda v: v * TPoly.marker())
        assert marked == swapped

    def test_end_above_the_ceiling_is_refused(self):
        for route in (tilde_genfun, tilde_genfun_ratio):
            for m, n in [(0, 3), (3, 0)]:
                with pytest.raises(SpecOutOfRange):
                    route(2, m, n, 8)

    @pytest.mark.parametrize("m,n,L", [(0, 0, 8), (1, 2, 11), (0, 3, 9),
                                       (2, 2, 10), (0, 7, 3)])
    def test_unbounded_is_computed_at_the_ceiling(self, m, n, L):
        # both routes compute an unbounded spec at its ceiling, in the
        # ring of the finite spec there, so each answers as at the ceiling
        spec = GenSpec(None, m, n, L)
        for route in (tilde_genfun, tilde_genfun_ratio):
            unbounded = route(None, m, n, L)
            assert unbounded.spec == spec
            assert (unbounded.full_series()
                    == route(spec.ceiling, m, n, L).full_series())

    @pytest.mark.parametrize("k", [None, 4])
    @pytest.mark.parametrize("m,n", [(-1, 2), (2, -1)])
    def test_negative_height_is_a_usage_error(self, k, m, n):
        for route in (tilde_genfun, tilde_genfun_ratio):
            with pytest.raises(SpecOutOfRange):
                route(k, m, n, 8)


class TestOpenEnded:
    @pytest.mark.parametrize("order", [0, 1, 2, 12])
    @pytest.mark.parametrize("k", range(0, 9))
    def test_two_routes_agree(self, k, order):
        # orders 0 and 1 have the one t^0 part
        assert (tilde_genfun_openend(k, order).full_series()
                == tilde_genfun_openend_shifted(k, order).full_series())

    def test_one_level_closed_form(self):
        # 1 + zeta^2/(1 - t zeta^2): (UD)^a carries a-1 markers
        series = tilde_genfun_openend(1, 12).full_series()
        assert series.coeff(0) == TPoly.one()
        for a in range(1, 7):
            assert series.coeff(2 * a) == TPoly({a - 1: 1})

    def test_empty_path_unmarked(self):
        for k in range(0, 4):
            assert (tilde_genfun_openend(k, 8).full_series().coeff(0)
                    == TPoly.one())

    @pytest.mark.parametrize("order", [0, 1, 12])
    @pytest.mark.parametrize("k", range(0, 9))
    def test_collapse_is_plain_excursions(self, k, order):
        assert (tilde_genfun_openend(k, order).at_t_one()
                == genfun(GenSpec(k, 0, 0, order)).full_series())

    @settings(max_examples=60)
    @given(st.integers(0, 6), st.integers(0, 14))
    @example(0, 14)
    @example(3, 10)
    @example(6, 14)
    def test_oracle_with_last_return_unmarked(self, k, L):
        # every nonempty excursion ends with a return: its count moves
        # from t^s to t^(s-1), and the empty path stays at t^0
        table = enumerate_paths(k, 0, 0, L)
        counts = {(l, a, s - (l > 0)): c
                  for (l, a, s), c in table.counts.items()}
        expected = genfun_from_table(table._replace(counts=counts),
                                     with_touchdowns=True)
        assert tilde_genfun_openend(k, L).full_series() == expected


def quotient_reference(spec):
    """tF_(m-1) * F_(k-n-1)(zeta*theta^(n+1)) / tF_k to the series order
    by marker-polynomial arithmetic, at the spec's own ceiling when
    finite (not the clamped one): the reference for the packed arch
    expansions of both routes, whatever arch each writes.  It needs
    m <= n; the routes take any endpoints, m > n by path reversal,
    which the oracle checks instead."""
    k = spec.ceiling if spec.k is None else spec.k
    L = spec.series_order
    upper = lift_marker(fk_polynomial(k - spec.n - 1).resized(L)
                        .substitute_scale(spec.n + 1))
    return (tilde_secular(spec.m - 1, L) * upper).divide(
        tilde_secular(k, L))


@settings(max_examples=300)
@given(specs(8, 20))
@example(GenSpec(None, 0, 6, 20))
@example(GenSpec(None, 6, 6, 19))
@example(GenSpec(8, 2, 6, 20))
@example(GenSpec(8, 0, 8, 20))
@example(GenSpec(None, 5, 6, 0))
@example(GenSpec(0, 0, 0, 7))
@example(GenSpec(8, 0, 1, 23))     # large series orders, with
@example(GenSpec(7, 0, 0, 15))     # order + 1 a whole number of bytes
@example(GenSpec(4, 0, 0, 39))     # and with the largest count of
@example(GenSpec(8, 0, 1, 25))     # 32, 24 and 24 bits
@example(GenSpec(None, 1, 3, 24))
@example(GenSpec(8, 0, 0, 7))      # ceiling clamped to 3
@example(GenSpec(None, 6, 0, 20))  # reversed, one zero part in front
@example(GenSpec(5, 4, 2, 17))
@example(GenSpec(3, 3, 0, 2))      # no path fits
def test_whole_series_matches_quotient_reference(spec):
    # every coefficient, area power and marker power the answer holds,
    # to its order; the quotient needs m <= n
    _, marked = assert_routes_match_oracle(spec)
    if spec.m <= spec.n:
        assert marked == with_prefactor(spec, quotient_reference(spec))


@pytest.mark.parametrize("width", [1, 8, 16, 64, 72])
def test_marked_parts_are_the_packed_top_row(width):
    # A and C are packed by the ring's own shift, straight from F_(k-1)
    # and F_(k-2); the t^0 part and minus the t^1 part of the top-row
    # expansion by series substitutions, packed, are the reference.
    # k <= 0 (A = 1, C = 0) and orders below 2 (C = 0 at zeta^0) included,
    # at every slot size the routes pick, up to 64 bits and wider
    ring = PackedRing(width)
    for k in range(-1, 9):
        for order in range(13):
            toprow = tilde_secular_toprow(k, order)
            expected = tuple(
                ring.pack(sign * toprow.map_coeffs(lambda v: v.coeff(s)))
                for s, sign in ((0, 1), (1, -1)))
            assert touchdown._marked_parts(ring, k, order) == expected


def column_assembly(ring, cols, order):
    """The marker series of packed t^s parts cols[s], built column by
    column: each part unpacked whole, then the marker polynomial of
    every step power gathered from the unpacked columns."""
    cols = [ring.unpack(x, order) for x in cols]
    return LSeries(order, [TPoly({s: col.c[l] for s, col in enumerate(cols)})
                           for l in range(order + 1)], TPoly)


@pytest.mark.parametrize("route,args", [
    (tilde_genfun, (None, 1, 3, 40)),
    (tilde_genfun, (6, 0, 0, 33)),
    (tilde_genfun, (12, 2, 5, 24)),
    (tilde_genfun, (3, 3, 3, 0)),
    (tilde_genfun, (5, 4, 0, 21)),     # reversed: a zero t^0 part
    (tilde_genfun_ratio, (None, 0, 2, 30)),
    (tilde_genfun_ratio, (None, 3, 0, 19)),
    (tilde_genfun_ratio, (5, 0, 0, 26)),
])
def test_marker_rows_match_column_assembly(route, args, monkeypatch):
    # the routes decode each entry of each t^s part straight into the
    # marker polynomial of its step power
    seen = []

    def spy(ring, cols, spec):
        seen.append((ring, [tuple(x) for x in cols], spec))
        return marker_series(ring, cols, spec)

    marker_series = touchdown._marker_series
    monkeypatch.setattr(touchdown, "_marker_series", spy)
    answer = route(*args).full_series()
    [(ring, cols, spec)] = seen
    assert answer == with_prefactor(
        spec, column_assembly(ring, cols, spec.series_order))


def test_ratio_route_at_a_finite_ceiling_above_the_grid():
    # m > 0 takes the two-term numerator base * [t + (1-t) G_(m-1)]
    assert_routes_match_oracle(GenSpec(10, 1, 1, 40))
