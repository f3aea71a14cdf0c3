"""Floor-return-marked generating functions."""

import pytest

from dyckgen.config import SpecOutOfRange
from dyckgen.exact import LSeries, QLaurent, TPoly
from dyckgen.genfun import GenSpec, genfun
from dyckgen.oracle import enumerate_paths, genfun_from_table
from dyckgen.spectral import det_degree, fk_polynomial
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
    def test_oracle_equality_with_markers(self, k):
        for m in range(k + 1):
            for n in range(m, k + 1):
                tg = tilde_genfun(k, m, n, 12)
                tab = genfun_from_table(enumerate_paths(k, m, n, 12),
                                        with_touchdowns=True)
                assert tg.full_series() == tab, (k, m, n)

    @pytest.mark.parametrize("k", range(0, 6))
    def test_ratio_route(self, k):
        for m in range(k + 1):
            for n in range(m, k + 1):
                assert (tilde_genfun(k, m, n, 12).series
                        == tilde_genfun_ratio(k, m, n, 12).series)

    @pytest.mark.parametrize("k", range(0, 6))
    def test_collapse_at_one(self, k):
        for m in range(k + 1):
            for n in range(m, k + 1):
                assert (tilde_genfun(k, m, n, 12).at_t_one()
                        == genfun(GenSpec(k, m, n, 12)).full_series())

    def test_one_level_closed_form(self):
        # the zigzag: (UD)^a carries exactly a markers
        tg = tilde_genfun(1, 0, 0, 12)
        for a in range(7):
            assert tg.series.coeff(2 * a) == TPoly({a: 1})

    def test_first_excursion_carries_one_marker(self):
        for k in range(1, 5):
            assert tilde_genfun(k, 0, 0, 4).series.coeff(2) == TPoly({1: 1})

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

    def test_endpoint_order_enforced(self):
        with pytest.raises(SpecOutOfRange):
            tilde_genfun(4, 3, 1, 8)
        with pytest.raises(SpecOutOfRange):
            tilde_genfun(2, 0, 3, 8)

    @pytest.mark.parametrize("m,n,L", [(0, 0, 8), (1, 2, 11), (0, 3, 9),
                                       (2, 2, 10), (0, 7, 3)])
    def test_unbounded_is_computed_at_the_ceiling(self, m, n, L):
        ceiling = GenSpec(None, m, n, L).ceiling
        for route in (tilde_genfun, tilde_genfun_ratio):
            unbounded = route(None, m, n, L)
            assert unbounded.spec == GenSpec(None, m, n, L)
            assert unbounded.series == route(ceiling, m, n, L).series

    @pytest.mark.parametrize("k", [None, 4])
    @pytest.mark.parametrize("m,n", [(-1, 2), (3, 1)])
    def test_bad_start_height_is_a_usage_error(self, k, m, n):
        for route in (tilde_genfun, tilde_genfun_ratio):
            with pytest.raises(SpecOutOfRange):
                route(k, m, n, 8)


class TestOpenEnded:
    @pytest.mark.parametrize("k", range(0, 6))
    def test_two_routes_agree(self, k):
        assert (tilde_genfun_openend(k, 12).series
                == tilde_genfun_openend_shifted(k, 12).series)

    def test_one_level_closed_form(self):
        # 1 + zeta^2/(1 - t zeta^2): (UD)^a carries a-1 markers
        oe = tilde_genfun_openend(1, 12)
        assert oe.series.coeff(0) == TPoly.one()
        for a in range(1, 7):
            assert oe.series.coeff(2 * a) == TPoly({a - 1: 1})

    def test_empty_path_unmarked(self):
        for k in range(0, 4):
            assert tilde_genfun_openend(k, 8).series.coeff(0) == TPoly.one()

    @pytest.mark.parametrize("k", range(0, 5))
    def test_collapse_is_plain_excursions(self, k):
        assert (tilde_genfun_openend(k, 12).at_t_one()
                == genfun(GenSpec(k, 0, 0, 12)).full_series())

    def test_shifted_marker_counts(self):
        # every monomial's marker degree is the oracle count minus one
        oe = tilde_genfun_openend(3, 10)
        tab = enumerate_paths(3, 0, 0, 10)
        for (l, a, s), c in tab.counts.items():
            if l == 0:
                continue
            assert oe.coefficient(l, a, s - 1) == c
