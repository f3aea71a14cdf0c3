"""Cluster expansion of the generating-function logarithms."""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dyckgen
from dyckgen import cluster
from dyckgen.cluster import (_scaled_log, c2, c2_factorial, composition_energy,
                             compositions, degree_check, degree_formula,
                             genfun_via_cluster, in_steps, log_secular,
                             p_restricted)
from dyckgen.exact import LSeries, QLaurent
from dyckgen.genfun import GenSpec, genfun
from dyckgen.oracle import max_area
from dyckgen.spectral import fk_polynomial


def brute_p(k, m, n, a_max):
    """Small-a reference for p_restricted: every composition of a with at
    most k parts (any number when k is None), weighted by c2 times
    q^energy, summed over its base levels r with max(m-j, 0) <= r <= n
    and, for finite k, r <= k-j."""
    coeffs = {}
    for a in range(1, a_max + 1):
        total = QLaurent.zero()
        for comp in compositions(a):
            j = len(comp)
            r_max = n if k is None else min(n, k - j)
            for r in range(max(m - j, 0), r_max + 1):
                total = total + QLaurent.mono(
                    composition_energy(comp) + a * r, c2(comp))
        coeffs[a] = total
    return LSeries(a_max, coeffs)


@st.composite
def cluster_specs(draw):
    k = draw(st.sampled_from([None, 0, 1, 2, 3, 4, 5, 6]))
    n = draw(st.integers(0, 4 if k is None else k))
    m = draw(st.integers(0, n))
    return k, m, n, draw(st.integers(0, 10))


class TestCompositions:
    def test_counts_are_powers_of_two(self):
        for a in range(1, 11):
            assert len(list(compositions(a))) == 2 ** (a - 1)

    def test_colex_order(self):
        assert list(compositions(3)) == [(1, 1, 1), (2, 1), (1, 2), (3,)]
        got = list(compositions(4))
        assert got == sorted(got, key=lambda c: tuple(reversed(c)))

    def test_is_a_stream(self):
        import types
        assert isinstance(compositions(30), types.GeneratorType)
        gen = compositions(30)
        assert next(gen) == (1,) * 30

    def test_domain(self):
        with pytest.raises(ValueError):
            list(compositions(0))


class TestClusterWeights:
    def test_frozen_examples(self):
        assert c2((2,)) == Fraction(1, 2)
        assert c2((1, 1)) == 1
        assert c2((2, 1)) == 1
        assert c2((1,)) == 1
        assert c2((3,)) == Fraction(1, 3)

    def test_two_forms_agree(self):
        for a in range(1, 13):
            for comp in compositions(a):
                assert c2(comp) == c2_factorial(comp), comp

    def test_positive(self):
        for a in range(1, 10):
            for comp in compositions(a):
                assert c2(comp) > 0

    def test_energy(self):
        assert composition_energy((5,)) == 0
        assert composition_energy((2, 1)) == 1
        assert composition_energy((1, 1, 1)) == 3

    def test_domain(self):
        with pytest.raises(ValueError):
            c2(())
        with pytest.raises(ValueError):
            c2((0, 1))


class TestUnbounded:
    def test_first_p_polynomials(self):
        p = p_restricted(None, 0, 0, 3)
        assert p.coeff(0).is_zero()
        assert p.coeff(1) == QLaurent.one()
        assert p.coeff(2) == QLaurent({0: Fraction(1, 2), 1: 1})
        assert p.coeff(3) == QLaurent({0: Fraction(1, 3), 1: 1, 2: 1, 3: 1})

    def test_degree_law(self):
        p = p_restricted(None, 0, 0, 8)
        for a in range(1, 9):
            assert p.coeff(a).degree() == a * (a - 1) // 2

    def test_coefficients_nonnegative(self):
        # observed property of the floor-to-floor expansion
        p = p_restricted(None, 0, 0, 10)
        for a in range(1, 11):
            assert all(c > 0 for _, c in p.coeff(a).terms())

    def test_exp_recovers_generating_function(self):
        zs = p_restricted(None, 0, 0, 10)
        assert zs.order == 10
        assert (in_steps(zs.exp(), 20)
                == genfun(GenSpec(None, 0, 0, 20)).full_series())

    def test_exp_matches_determinant_route_at_order_48(self):
        # far past the reach of composition enumeration (2^23 at a = 24)
        spec = GenSpec(None, 0, 0, 48)
        assert genfun_via_cluster(spec) == genfun(spec).full_series()

    def test_sum_partitioning_is_exact(self):
        # the composition sum may be chunked arbitrarily; rational
        # arithmetic makes the result identical, not just close
        rng = random.Random(5)
        for a in (5, 7):
            comps = list(compositions(a))
            rng.shuffle(comps)
            third = len(comps) // 3
            chunks = [comps[:third], comps[third:2 * third],
                      comps[2 * third:]]
            total = QLaurent.zero()
            for chunk in chunks:
                part = QLaurent.zero()
                for comp in chunk:
                    part = part + QLaurent.mono(composition_energy(comp),
                                                c2(comp))
                total = total + part
            assert total == p_restricted(None, 0, 0, a).coeff(a)


class TestRestricted:
    def test_floor_case_drops_window(self):
        # for m=n=0 every composition contributes at a single base level
        p = p_restricted(None, 0, 0, 6)
        for a in range(1, 7):
            assert p.coeff(a) == sum(
                (QLaurent.mono(composition_energy(c), c2(c))
                 for c in compositions(a)), QLaurent.zero())

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(cluster_specs())
    def test_transfer_matrix_matches_composition_sum(self, spec):
        assert p_restricted(*spec) == brute_p(*spec)

    def test_exp_recovers_genfun(self):
        for k in range(0, 5):
            for m in range(k + 1):
                for n in range(m, k + 1):
                    spec = GenSpec(k, m, n, 16 + (n - m))
                    assert (genfun_via_cluster(spec)
                            == genfun(spec).full_series()), (k, m, n)

    def test_exp_recovers_genfun_unbounded_endpoints(self):
        spec = GenSpec(None, 1, 2, 13)
        assert genfun_via_cluster(spec) == genfun(spec).full_series()

    def test_series_zq_unbounded_covers_its_top_power(self):
        # z^4 of (0, 2) counts 10-step paths, which climb to height 6
        assert (genfun(GenSpec(None, 0, 2, 10)).full_series()
                == genfun(GenSpec(6, 0, 2, 10)).full_series())

    def test_domain(self):
        assert p_restricted(3, 0, 0, 0) == LSeries.zeros(0)
        with pytest.raises(ValueError):
            p_restricted(3, 0, 0, -1)
        from dyckgen.config import SpecOutOfRange
        with pytest.raises(SpecOutOfRange):
            p_restricted(3, 2, 1, 2)
        with pytest.raises(SpecOutOfRange):
            p_restricted(3, 0, 4, 2)


class TestDeterminantLog:
    def test_matches_series_log(self):
        for k in range(1, 6):
            f = fk_polynomial(k).resized(16)
            assert f.log() == in_steps(log_secular(k, 8), 16), k

    def test_polynomial_by_construction(self):
        # geometric-sum expansion keeps everything in the polynomial
        # ring: exponents never go negative, coefficients stay rational
        for value in log_secular(4, 8).c:
            assert all(e >= 0 for e, _ in value.terms())

    def test_one_level_strip(self):
        # F_1 = 1 - z so the log coefficients are -1/a
        expected = {a: Fraction(-1, a) for a in range(1, 7)}
        assert log_secular(1, 6) == LSeries(6, expected)


class TestDegreeLaw:
    def test_two_branches(self):
        assert degree_formula(None, 0, 7) == 21
        assert degree_formula(10, 3, 2) == 2 * 1 // 2 + 6  # first branch
        assert degree_formula(4, 2, 6) == 17               # second branch
        assert 6 > 4 - 2  # the example above really is past the seam

    def test_branches_agree_at_seam(self):
        for k in range(2, 8):
            for n in range(k):
                a = k - n
                if a < 1:
                    continue
                first = a * (a - 1) // 2 + a * n
                second = (k - n - 1) * (2 * a - k + n) // 2 + a * n
                assert first == second == degree_formula(k, n, a)

    def test_degree_check_grid(self):
        for k in range(1, 7):
            for n in range(k + 1):
                for a in range(1, 11):
                    assert degree_check(k, 0, n, a), (k, n, a)

    def test_degree_check_nonzero_start(self):
        # raising the start height narrows the window but not the top
        assert degree_check(4, 1, 2, 6)
        assert degree_check(5, 2, 3, 4)

    def test_oracle_witness(self):
        # q-degree of the z^a term, doubled and offset by the prefactor,
        # is the maximal plaquette area of the corresponding paths
        for k, n, a in ((2, 0, 3), (3, 1, 4), (4, 2, 6), (5, 0, 4)):
            l = 2 * a + n
            predicted = 2 * degree_formula(k, n, a) + n * (n - 1) // 2
            assert predicted == max_area(k, 0, n, l), (k, n, a)


class TestScaledRoute:
    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(cluster_specs())
    def test_scaled_sums_are_d_times_the_composition_sum(self, spec):
        k, m, n, a = spec
        d, sums = _scaled_log(GenSpec(k, m, n, 2 * a + n - m))
        assert d == lcm(*range(1, spec[3] + 1))
        assert all(type(c) is int for v in sums for _, c in v.terms())
        assert LSeries(spec[3], sums) == brute_p(*spec).scale(d)

    @pytest.mark.parametrize("k", [None] + list(range(1, 13)))
    def test_route_matches_genfun(self, k):
        # both endpoint orders, heights up to 3, orders up to 40
        top = 3 if k is None else min(k, 3)
        for m in range(top + 1):
            for n in range(top + 1):
                for order in (0, 1, 6, 13, 40):
                    spec = GenSpec(k, m, n, order)
                    assert (genfun_via_cluster(spec)
                            == genfun(spec).full_series()), spec

    def test_exp_divides_exactly(self, monkeypatch):
        # one unit too many in D * p_1 leaves b_1 = P_1 / D a remainder
        real = cluster._scaled_log

        def off_by_one(*args):
            d, sums = real(*args)
            return d, [sums[0], sums[1] + 1, *sums[2:]]

        monkeypatch.setattr(cluster, "_scaled_log", off_by_one)
        with pytest.raises(ArithmeticError, match="remainder"):
            genfun_via_cluster(GenSpec(None, 0, 0, 12))


SRC = os.path.dirname(os.path.dirname(dyckgen.__file__))


@pytest.mark.parametrize("k,order,budget", [("inf", 80, 3.0),
                                            ("12", 120, 10.0)])
def test_check_jobs_keep_to_their_budget(k, order, budget):
    """`genfun --check` runs the cluster route beside genfun and the
    continued fraction.  Cold, as a subprocess on a 2-core VM (Python
    3.11), (inf, 80) took 1.4-1.9 s and (12, 120) 4.0-4.7 s; with the
    route's sums and exp on Fractions the jobs took 3.2-4.4 s and
    12.4-14.2 s, past these budgets.  The shared host's speed drifts by
    up to a half, so a job over budget runs again, up to three times."""
    argv = [sys.executable, "-m", "dyckgen.cli", "genfun", "--k", k, "--m",
            "0", "--n", "0", "--max-len", str(order), "--check"]
    times = []
    while len(times) < 3 and not any(t < budget for t in times):
        t0 = time.perf_counter()
        run = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=SRC),
                             capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        assert run.returncode == 0, run.stderr[-2000:]
    assert min(times) < budget, times
