"""Endpoint generating functions and the identities tying them
together."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyckgen.cluster import degree_formula, genfun_via_cluster
from dyckgen.config import SpecOutOfRange
from dyckgen.exact import LSeries, QLaurent
from dyckgen.genfun import (GenSpec, check_duality, continued_fraction,
                            genfun, genfun_excursion, genfun_weighted)
from dyckgen.oracle import enumerate_paths, genfun_from_table, max_area
from dyckgen.spectral import fk_polynomial
from dyckgen.touchdown import tilde_genfun
from dyckgen.verify import check_recursions


class TestGenSpec:
    def test_validation(self):
        with pytest.raises(SpecOutOfRange):
            GenSpec(2, 0, 3, 8)
        with pytest.raises(SpecOutOfRange):
            GenSpec(-1, 0, 0, 8)
        with pytest.raises(SpecOutOfRange):
            GenSpec(2, -1, 0, 8)
        with pytest.raises(SpecOutOfRange):
            GenSpec(2, 0, 0, -1)
        with pytest.raises(SpecOutOfRange):
            GenSpec(None, 0, -1, 8)

    def test_effective_ceiling_clears_reachable_heights(self):
        # a path of l steps from m to n climbs at most (l+m+n)/2 high,
        # and the straight rise-and-fall path gets there
        assert GenSpec(None, 2, 2, 2).ceiling == 3
        assert GenSpec(None, 0, 0, 10).ceiling == 5
        assert GenSpec(7, 1, 1, 4).ceiling == 7
        for m in range(4):
            for n in range(m, 4):
                for L in range(n, 13):
                    c = GenSpec(None, m, n, L).ceiling
                    assert c == max(n, (L + m + n) // 2)
                    at = enumerate_paths(c, m, n, L).counts
                    assert enumerate_paths(c + 1, m, n, L).counts == at
                    if c > n:
                        below = enumerate_paths(c - 1, m, n, L).counts
                        assert below != at, (m, n, L)

    def test_area_cap_is_largest_reachable_area(self):
        for m in range(5):
            for n in range(m, 5):
                for L in range(n, 17):
                    spec = GenSpec(None, m, n, L)
                    top = L - (L - n + m) % 2   # longest admissible length
                    shift = (n - m) * (n + m - 1) // 2
                    widest = max_area(L + n, m, n, top)   # no ceiling in reach
                    assert spec.area_cap == widest - shift, (m, n, L)
                    a = (L - n + m) // 2
                    if a >= 1:
                        assert spec.area_cap == 2 * degree_formula(None, n, a)
        assert GenSpec(4, 1, 2, 10).area_cap is None


class TestAgainstOracle:
    @pytest.mark.parametrize("k", range(0, 6))
    def test_all_endpoints(self, k):
        for m in range(k + 1):
            for n in range(m, k + 1):
                gf = genfun(GenSpec(k, m, n, 12))
                tab = genfun_from_table(enumerate_paths(k, m, n, 12))
                assert gf.full_series() == tab, (k, m, n)

    def test_coefficient_accessor(self):
        gf = genfun(GenSpec(4, 1, 2, 13))
        # frozen from the enumerator: 35 + 34 + 3 paths by touchdowns
        assert gf.coefficient(13, 21) == 72
        assert gf.coefficient(0, 0) == 0    # parity: no 0-step 1->2 path
        assert gf.coefficient(1, 1) == 1    # the single up-step
        assert gf.coefficient(2, 5) == 0
        with pytest.raises(IndexError):
            gf.coefficient(14, 21)   # beyond the spec order

    def test_zigzag_closed_form(self):
        gf = genfun(GenSpec(1, 0, 0, 10))
        for l in range(0, 11, 2):
            assert gf.coefficient(l, 0) == 1
        assert gf.full_series().eval_at_one() == [1, 0] * 5 + [1]

    def test_unbounded_small_coefficients(self):
        gf = genfun(GenSpec(None, 0, 0, 6))
        assert gf.full_series().coeff(4) == QLaurent({0: 1, 2: 1})
        assert gf.full_series().coeff(6) == QLaurent({0: 1, 2: 2, 4: 1,
                                                      6: 1})


class TestStructure:
    def test_prefactor_exponents(self):
        gf = genfun(GenSpec(5, 1, 4, 10))
        assert gf.spec.step_shift == 3
        assert gf.spec.area_shift == 3 * (4 + 1 - 1) // 2  # == 6
        # series part carries only even powers
        assert all(l % 2 == 0 for l, _ in gf.series.nonzero_terms())

    def test_endpoint_symmetry(self):
        a = genfun(GenSpec(5, 1, 3, 12)).full_series()
        b = genfun(GenSpec(5, 3, 1, 12)).full_series()
        assert a == b

    def test_parity_and_positivity(self):
        gf = genfun(GenSpec(4, 1, 2, 12)).full_series()
        for l, v in gf.nonzero_terms():
            assert (l - 1) % 2 == 0
            for _, c in v.terms():
                assert isinstance(c, int) and c > 0

    def test_excursion_equals_general_route(self):
        for k in range(0, 5):
            a = genfun_excursion(k, 12).full_series()
            b = genfun(GenSpec(k, 0, 0, 12)).full_series()
            assert a == b

    def test_excursion_is_determinant_ratio(self):
        # k=2: (1 - zeta^2 theta^2) / (1 - zeta^2 - zeta^2 theta^2)
        num = LSeries(10, {0: 1, 2: QLaurent({2: -1})})
        den = LSeries(10, {0: 1, 2: QLaurent({0: -1, 2: -1})})
        assert genfun_excursion(2, 10).full_series() == num.divide(den)

    def test_ceiling_corner_is_plain_determinant_ratio(self):
        for k in range(1, 6):
            corner = genfun(GenSpec(k, k, k, 12)).series
            plain = fk_polynomial(k - 1).resized(12).divide(
                fk_polynomial(k).resized(12))
            assert corner == plain

    def test_unbounded_stabilization(self):
        for m, n, L in ((0, 0, 12), (0, 2, 10), (2, 2, 2), (3, 3, 4)):
            spec = GenSpec(None, m, n, L)
            higher = genfun(GenSpec(spec.ceiling + 5, m, n, L))
            assert genfun(spec).full_series() == higher.full_series()

    def test_capped_unbounded_matches_uncapped_finite_ceiling(self):
        # one finite ceiling per order, at or above every endpoint pair's
        # unbounded ceiling, so its uncapped 1/F_k is shared
        for L in (*range(17), 23, 32):
            finite_k = L // 2 + 3
            for m in range(4):
                for n in range(m, min(3, L) + 1):
                    finite = GenSpec(finite_k, m, n, L)
                    assert finite.area_cap is None
                    assert (genfun(GenSpec(None, m, n, L)).full_series()
                            == genfun(finite).full_series()), (m, n, L)

    def test_unbounded_matches_tall_oracle(self):
        # m=n=2 with only 2 steps needs height 3; the enumerator at a
        # comfortably tall ceiling is the ground truth
        gf = genfun(GenSpec(None, 2, 2, 6)).full_series()
        tab = genfun_from_table(enumerate_paths(9, 2, 2, 6))
        assert gf == tab

    @pytest.mark.parametrize("m,n,L", [(3, 0, 2), (0, 3, 1), (4, 4, 2),
                                       (5, 5, 0), (0, 7, 3)])
    def test_heights_above_the_order(self, m, n, L):
        # an unbounded spec is served whatever its heights: the series is
        # the tall-ceiling one, empty when no path of L steps joins m, n
        spec = GenSpec(None, m, n, L)
        tall = genfun(GenSpec(12, m, n, L)).full_series()
        assert tall == genfun_from_table(enumerate_paths(12, m, n, L))
        assert genfun(spec).full_series() == tall
        if abs(n - m) > L:
            assert spec.area_cap < 0 and tall.is_zero()


class TestWeighted:
    def test_step_counts_and_collapse(self):
        spec = GenSpec(4, 1, 3, 11)
        w = genfun_weighted(spec)
        assert all(u - d == 2 for u, d in w.terms)  # n - m extra ups
        assert w.collapse() == genfun(spec).full_series()

    def test_excursions_balance(self):
        w = genfun_weighted(GenSpec(3, 0, 0, 10))
        assert all(u == d for u, d in w.terms)


class TestDuality:
    @pytest.mark.parametrize("k", range(0, 6))
    def test_reflection(self, k):
        for m in range(k + 1):
            for n in range(m, k + 1):
                assert check_duality(GenSpec(k, m, n, 12)), (k, m, n)

    def test_needs_finite_ceiling(self):
        with pytest.raises(SpecOutOfRange):
            check_duality(GenSpec(None, 0, 0, 8))


class TestRecursions:
    @pytest.mark.parametrize("k", range(0, 6))
    def test_all_identities(self, k):
        for m in range(k + 1):
            for n in range(m, k + 1):
                for chk in check_recursions(GenSpec(k, m, n, 12)):
                    assert chk.ok, (chk.name, chk.params, chk.detail)

    def test_identity_coverage(self):
        names = {c.name for c in check_recursions(GenSpec(4, 1, 3, 10))}
        assert names == {"last_rise", "intermediate_level", "last_step"}
        names0 = {c.name for c in check_recursions(GenSpec(4, 0, 0, 10))}
        assert names0 == {"first_return"}


class TestContinuedFraction:
    @pytest.mark.parametrize("k", range(0, 7))
    def test_matches_excursions(self, k):
        assert continued_fraction(k, 16) == genfun_excursion(
            k, 16).full_series()

    def test_depth_matters(self):
        # one level too few or too many changes the series
        g2 = genfun_excursion(2, 10).full_series()
        assert continued_fraction(1, 10) != g2
        assert continued_fraction(3, 10) != g2

    def test_small_closed_forms(self):
        # depth 1: 1/(1 - zeta^2); depth 2: (1 - zeta^2 theta^2) / (1 -
        # zeta^2 - zeta^2 theta^2)
        assert continued_fraction(1, 10) == genfun(
            GenSpec(1, 0, 0, 10)).full_series()
        num = LSeries(10, {0: 1, 2: QLaurent({2: -1})})
        den = LSeries(10, {0: 1, 2: QLaurent({0: -1, 2: -1})})
        assert continued_fraction(2, 10) == num.divide(den)


@st.composite
def route_specs(draw):
    k = draw(st.sampled_from([None, 0, 1, 2, 3, 4, 5, 6]))
    n = draw(st.integers(0, 6 if k is None else k))
    m = draw(st.integers(0, n))
    return GenSpec(k, m, n, draw(st.integers(0, 14)))


@settings(deadline=None, max_examples=100, derandomize=True)
@given(route_specs())
def test_every_route_matches_oracle(spec):
    table = enumerate_paths(spec.ceiling, spec.m, spec.n, spec.order)
    oracle = genfun_from_table(table)
    assert genfun(spec).full_series() == oracle
    assert genfun_via_cluster(spec) == oracle
    if spec.m == spec.n == 0:
        assert continued_fraction(spec.ceiling, spec.order) == oracle
    marked = tilde_genfun(spec.k, spec.m, spec.n, spec.order)
    assert marked.full_series() == genfun_from_table(table,
                                                     with_touchdowns=True)
    assert marked.at_t_one() == oracle
