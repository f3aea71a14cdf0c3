"""Endpoint generating functions and the identities tying them
together."""

import importlib
import pkgutil
import random
import time

import pytest
from conftest import (assert_routes_match_oracle, clear_caches, run_python,
                      specs, with_prefactor)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dyckgen
from dyckgen.cluster import degree_formula, p_restricted
from dyckgen import cli, config
from dyckgen.cli import routes
from dyckgen.config import CACHE_ENTRIES, GuardExceeded, SpecOutOfRange
from dyckgen.exact import LSeries, PackedRing, QLaurent, TPoly
from dyckgen.genfun import (GenSpec, _inv_fk, _largest_count, _packed_fk,
                            check_duality, continued_fraction, fk_polynomial,
                            genfun, packed_fk, packed_genfun)
from dyckgen.oracle import enumerate_paths, genfun_from_table, max_area
from dyckgen.touchdown import (_arch, tilde_genfun, tilde_genfun_openend,
                               tilde_genfun_openend_shifted,
                               tilde_genfun_ratio)
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
        # a finite ceiling above the reach of the paths of <= L steps,
        # the longest the answer holds, is clamped to that reach, which
        # is exact and the lowest exact ceiling
        assert GenSpec(7, 1, 1, 4).ceiling == 3
        assert GenSpec(7, 1, 1, 12).ceiling == 7
        assert GenSpec(9, 0, 3, 5).ceiling == 4
        for k in range(9):
            for m in range(k + 1):
                for n in range(k + 1):
                    for L in range(13):
                        c = GenSpec(k, m, n, L).ceiling
                        assert c == min(k, max(m, n, (L + m + n) // 2))
                        at = enumerate_paths(c, m, n, L).counts
                        assert enumerate_paths(k, m, n, L).counts == at
                        # below max(m, n) no strip holds the endpoints
                        if max(m, n) < c < k:
                            below = enumerate_paths(c - 1, m, n, L).counts
                            assert below != at, (k, m, n, L)
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

    def test_top_area_is_largest_reachable_area(self):
        # the answer's top area power at the longest length is the
        # oracle's largest area, the path that climbs a step pairs above
        # n and comes back: twice the cluster degree law, plus the
        # prefactor
        for m in range(5):
            for n in range(m, 5):
                for L in range(n, 17):
                    spec = GenSpec(None, m, n, L)
                    top = L - (L - n + m) % 2   # longest admissible length
                    shift = (n - m) * (n + m - 1) // 2
                    widest = max_area(L + n, m, n, top)   # no ceiling in reach
                    answer = genfun(spec).full_series()
                    assert answer.coeff(top).degree() == widest, (m, n, L)
                    a = (L - n + m) // 2
                    if a >= 1:
                        assert widest == 2 * degree_formula(None, n, a) + shift

    def test_packed_ring_width_follows_the_largest_count(self):
        # strip 0..1 holds one path from each height; order + 1 would be
        # 33, 33, 65 and 10 bits
        assert GenSpec(1, 0, 0, 32).packed_ring.width == 8
        assert GenSpec(8, 0, 0, 32).packed_ring.width == 32
        assert GenSpec(None, 0, 0, 64).packed_ring.width == 64
        # ceiling 0: only the empty path, count 1
        assert GenSpec(0, 0, 0, 9).packed_ring.width == 8

    def test_largest_count_is_the_oracle_count(self):
        # the most `order`-step paths from one start height, any end
        assert _largest_count(0, 7) == 1
        for c in range(1, 7):
            for order in range(13):
                counts = [sum(enumerate_paths(c, m, n, order).total(order)
                              for n in range(c + 1))
                          for m in range(c + 1)]
                assert _largest_count(c, order) == max(counts), (c, order)


@settings(max_examples=100)
@given(specs(12, 30))
@example(GenSpec(12, 6, 6, 24))
@example(GenSpec(None, 0, 6, 24))
@example(GenSpec(0, 0, 0, 5))
def test_every_count_fits_a_packed_slot(spec):
    # the slot holds every length's count over all areas and floor
    # returns together, at every length the oracle reaches
    width = spec.packed_ring.width
    table = enumerate_paths(spec.ceiling, spec.m, spec.n,
                            min(spec.order, 24))
    for l in range(table.l_max + 1):
        assert table.total(l) < 2 ** width, (spec, l)


class TestAgainstOracle:
    @pytest.mark.parametrize("k", range(0, 6))
    def test_all_endpoints(self, k):
        for m in range(k + 1):
            for n in range(m, k + 1):
                assert_routes_match_oracle(GenSpec(k, m, n, 12))

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
        assert ([v.eval_at_one() for v in gf.full_series().c]
                == [1, 0] * 5 + [1])

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
        # past the prefactor the answer carries only even powers
        assert all((l - 3) % 2 == 0
                   for l, _ in gf.full_series().nonzero_terms())

    def test_endpoint_symmetry(self):
        # a path from 3 to 1, read backwards, goes from 1 to 3
        a = genfun(GenSpec(5, 1, 3, 12)).full_series()
        assert a == genfun_from_table(enumerate_paths(5, 3, 1, 12))

    def test_parity_and_positivity(self):
        gf = genfun(GenSpec(4, 1, 2, 12)).full_series()
        for l, v in gf.nonzero_terms():
            assert (l - 1) % 2 == 0
            for _, c in v.terms():
                assert isinstance(c, int) and c > 0

    def test_excursion_is_determinant_ratio(self):
        # k=2: (1 - zeta^2 theta^2) / (1 - zeta^2 - zeta^2 theta^2)
        num = LSeries(10, {0: 1, 2: QLaurent({2: -1})})
        den = LSeries(10, {0: 1, 2: QLaurent({0: -1, 2: -1})})
        assert genfun(GenSpec(2, 0, 0, 10)).full_series() == num.divide(den)

    def test_ceiling_corner_is_plain_determinant_ratio(self):
        for k in range(1, 6):
            # m = n = k: the prefactor is 1
            corner = genfun(GenSpec(k, k, k, 12)).full_series()
            plain = fk_polynomial(k - 1).resized(12).divide(
                fk_polynomial(k).resized(12))
            assert corner == plain

    def test_unbounded_stabilization(self):
        for m, n, L in ((0, 0, 12), (0, 2, 10), (2, 2, 2), (3, 3, 4)):
            spec = GenSpec(None, m, n, L)
            higher = genfun(GenSpec(spec.ceiling + 5, m, n, L))
            assert genfun(spec).full_series() == higher.full_series()

    def test_unbounded_answer_is_its_at_ceiling_answer(self):
        # an unbounded spec is computed at its ceiling, in the ring of
        # the finite spec there
        for L in (*range(17), 23, 32):
            for m in range(4):
                for n in range(m, min(3, L) + 1):
                    spec = GenSpec(None, m, n, L)
                    finite = GenSpec(spec.ceiling, m, n, L)
                    assert finite.ceiling == spec.ceiling
                    assert (genfun(spec).full_series()
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
            assert tall.is_zero()
            assert_every_route_is_empty(spec)

    @pytest.mark.parametrize("k", [None, 4, 9])
    @pytest.mark.parametrize("m,n,L", [(0, 3, 2), (3, 0, 2), (1, 4, 1),
                                       (4, 0, 3), (0, 4, 0), (4, 1, 0)])
    def test_no_path_is_the_empty_answer(self, k, m, n, L):
        # |n - m| > L: every route drops the one entry of its series
        # part, past the order
        assert_every_route_is_empty(GenSpec(k, m, n, L))


def assert_every_route_is_empty(spec):
    """Every plain and marked route answers spec with the oracle's empty
    series of the spec's order."""
    plain, marked = assert_routes_match_oracle(spec)
    assert plain.is_zero() and marked.is_zero() and plain.order == spec.order


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
        assert_routes_match_oracle(GenSpec(k, 0, 0, 16))

    @pytest.mark.parametrize("L", [0, 1, 2, 3, 7, 12, 13, 24, 31])
    def test_truncated_levels_at_every_depth(self, L):
        # the convergents are truncated to the powers of z that survive,
        # so depths below, at and above L/2 (where the depth is clamped)
        # must all still match the determinant
        for k in sorted({0, 1, 2, 3, L // 2 - 1, L // 2, L // 2 + 3}):
            if k >= 0:
                assert continued_fraction(k, L) == genfun(
                    GenSpec(k, 0, 0, L)).full_series(), (k, L)

    @pytest.mark.parametrize("k,L", [(3, 40), (12, 40), (20, 40),
                                     (40, 80), (12, 200), (None, 48),
                                     (None, 80)])
    def test_matches_genfun_above_the_verify_grid(self, k, L):
        # ceilings below and at L//2, and the unbounded spec's clamped
        # ceiling, where both routes run in the same ring.  The
        # Euler-Wallis recurrence adds a level by one shift of each
        # convergent and divides once, so the fraction alone keeps to a
        # 10 s budget: (12, 200) takes well under a second, where
        # dividing level by level took 30 s
        spec = GenSpec(k, 0, 0, L)
        t0 = time.perf_counter()
        cf = continued_fraction(spec.ceiling, L)
        assert time.perf_counter() - t0 < 10
        assert cf == genfun(spec).full_series()

    def test_depth_matters(self):
        # one level too few or too many changes the series
        g2 = genfun(GenSpec(2, 0, 0, 10)).full_series()
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


# a request on each route whose effective ceiling is 7: every entry of
# the route table, plain and marked, and the entry points no table lists
_SPEC_7 = GenSpec(None, 0, 0, 14)
CEILING_7 = {
    **routes(_SPEC_7),
    **{f"marked {name}": fn for name, fn in routes(_SPEC_7, True).items()},
    "check_duality": lambda: check_duality(GenSpec(7, 0, 1, 14)),
    "tilde_genfun": lambda: tilde_genfun(7, 0, 0, 14),
    "tilde_genfun_openend": lambda: tilde_genfun_openend(7, 14),
    "p_restricted": lambda: p_restricted(None, 0, 0, 7),
}


@pytest.mark.parametrize("guard,limit,message", [
    ("DET_CEILING_MAX", 6, "determinant ceiling 7 exceeds guard 6"),
    ("ANSWER_BITS_MAX", 10, r"answer size in bits \d+ exceeds guard 10")],
    ids=["ceiling", "size"])
@pytest.mark.parametrize("route", CEILING_7)
def test_guard_fires_before_any_determinant_is_built(monkeypatch, route,
                                                     guard, limit, message):
    # under a low guard, each request refuses its ceiling or the size of
    # its answer before it counts its slots or builds or packs a single
    # F_j
    monkeypatch.setattr(config, guard, limit)
    monkeypatch.delenv("DYCKGEN_GUARD_OVERRIDE", raising=False)
    clear_caches()
    with pytest.raises(GuardExceeded, match=message):
        CEILING_7[route]()
    assert fk_polynomial.cache_info().misses == 0
    assert _packed_fk.cache_info().misses == 0
    assert _largest_count.cache_info().misses == 0


class TestBuilderCaches:
    def test_caches_are_bounded(self):
        # every functools cache of every module of the package
        caches = set()
        for module in pkgutil.iter_modules(dyckgen.__path__):
            names = vars(importlib.import_module(f"dyckgen.{module.name}"))
            caches.update(value for value in names.values()
                          if hasattr(value, "cache_info"))
        assert fk_polynomial in caches
        for cached in caches:
            assert cached.cache_info().maxsize == CACHE_ENTRIES, cached

    @pytest.mark.parametrize("width", [8, 72])
    def test_packed_fk_is_the_packed_determinant(self, width):
        # the cache holds F_j to the lesser of the order and its degree:
        # orders below the degree truncate it, orders past it pad zero
        # entries on; slots of up to 64 bits and wider alike
        ring = PackedRing(width)
        for j in range(-1, 14):
            for order in range(41):
                for shift in range(5):
                    assert packed_fk(ring, j, order, shift) == ring.pack(
                        fk_polynomial(j).resized(order), shift), (j, order)

    def test_packed_constant_skips_the_cache(self):
        # F_(-1) = F_0 = 1 is served directly, so it takes no cache slot
        _packed_fk.cache_clear()
        ring = PackedRing(8)
        for j in (-1, 0):
            assert packed_fk(ring, j, 6, 2) == ring.pack(
                fk_polynomial(j).resized(6), 2)
        info = _packed_fk.cache_info()
        assert (info.hits, info.misses) == (0, 0)

    def test_shared_caches_replay_cold_answers(self):
        # the perfbench sweep's jobs, every 0 <= m <= n <= k <= 8 at
        # order 32 on both routes, in two shuffled orders sharing every
        # cache (with evictions), each give the answer of a cold call
        def run(job):
            route, k, m, n = job
            return route(k, m, n, 32).full_series()

        def unmarked(k, m, n, order):
            return genfun(GenSpec(k, m, n, order))

        jobs = [(route, k, m, n) for k in range(1, 9)
                for m in range(k + 1) for n in range(m, k + 1)
                for route in (unmarked, tilde_genfun)]
        cold = []
        for job in jobs:
            clear_caches()
            cold.append(run(job))
        for seed in (1, 2):
            replay = list(range(len(jobs)))
            random.Random(seed).shuffle(replay)
            for i in replay:
                assert run(jobs[i]) == cold[i], jobs[i][1:]

    def test_eviction_keeps_results_exact(self):
        # 70 other keys (widths of 9 and up) evict the first one
        first = _inv_fk(2, 5, 6)
        for k in range(7):
            for order in range(10):
                _inv_fk(k, order, order + 9)
        assert _inv_fk.cache_info().currsize <= CACHE_ENTRIES
        misses = _inv_fk.cache_info().misses
        again = _inv_fk(2, 5, 6)
        assert _inv_fk.cache_info().misses == misses + 1
        assert again == first and again is not first

    @settings(max_examples=60)
    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 30))
    @example(0, 1, 41)
    def test_unbounded_spec_shares_its_finite_twins_caches(self, m, n, L):
        # the packed ring depends on the ceiling and the order alone, so
        # the finite spec at an unbounded spec's ceiling reads the packed
        # F_j and the arch the unbounded one cached, and answers the same
        spec = GenSpec(None, m, n, L)
        twin = GenSpec(spec.ceiling, m, n, L)
        assert spec.packed_ring.width == twin.packed_ring.width
        plain = genfun(spec).full_series()
        misses = _packed_fk.cache_info().misses
        assert genfun(twin).full_series() == plain
        assert _packed_fk.cache_info().misses == misses
        marked = tilde_genfun(None, m, n, L).full_series()
        hits = _arch.cache_info().hits
        assert tilde_genfun(spec.ceiling, m, n, L).full_series() == marked
        assert _arch.cache_info().hits == hits + 1

    def test_no_route_fills_the_inverse_cache(self):
        # every route divides by the packed F_k itself: cold, none of
        # them builds the dense 1/F_k
        clear_caches()
        for k, m, n, L in [(None, 0, 0, 24), (None, 2, 5, 20),
                           (None, 4, 1, 17), (6, 0, 0, 30), (6, 1, 3, 25),
                           (5, 5, 2, 16), (0, 0, 0, 4)]:
            genfun(GenSpec(k, m, n, L))
            tilde_genfun(k, m, n, L)
            tilde_genfun_ratio(k, m, n, L)
            if m == n == 0:
                ceiling = GenSpec(k, 0, 0, L).ceiling
                continued_fraction(ceiling, L)
                tilde_genfun_openend(ceiling, L)
            if k is not None:
                check_duality(GenSpec(k, m, n, L))
        assert _inv_fk.cache_info().misses == 0


@settings(max_examples=100)
@given(specs(6, 14, ordered=True))
def test_every_route_matches_oracle(spec):
    plain, _ = assert_routes_match_oracle(spec)
    assert tilde_genfun(*spec).at_t_one() == plain


def quotient_series(spec):
    """The series part to its series order by plain QLaurent arithmetic,
    at the spec's own ceiling when finite (not the clamped one): the
    reference for the packed ring."""
    k = spec.ceiling if spec.k is None else spec.k
    m, n = min(spec.m, spec.n), max(spec.m, spec.n)
    L = spec.series_order
    num = (fk_polynomial(m - 1).resized(L)
           * fk_polynomial(k - n - 1).resized(L).substitute_scale(n + 1))
    return num.divide(fk_polynomial(k).resized(L))


@settings(max_examples=300)
@given(specs(8, 20))
@example(GenSpec(None, 0, 6, 20))
@example(GenSpec(None, 6, 2, 20))
@example(GenSpec(8, 2, 6, 20))
@example(GenSpec(None, 5, 0, 3))
@example(GenSpec(4, 1, 3, 0))
@example(GenSpec(8, 0, 1, 23))     # large series orders, with
@example(GenSpec(None, 0, 1, 31))  # order + 1 a whole number of bytes
@example(GenSpec(4, 0, 0, 39))     # and with the largest count of
@example(GenSpec(8, 0, 1, 25))     # 32, 24 and 24 bits
@example(GenSpec(None, 1, 3, 24))
@example(GenSpec(7, 0, 0, 15))
@example(GenSpec(8, 0, 1, 5))      # ceiling clamped to 3
def test_whole_series_matches_quotient_reference(spec):
    # every coefficient and area power the answer holds, to its order
    assert (genfun(spec).full_series()
            == with_prefactor(spec, quotient_series(spec)))


def inverse_product(ring, k, m, n, order):
    """The series part as the product of F_(m-1),
    F_(k-n-1)(zeta*theta^(n+1)) and the dense 1/F_k: the reference for
    the one quotient of packed_genfun."""
    num = packed_fk(ring, m - 1, order)
    upper = packed_fk(ring, k - n - 1, order, n + 1)
    inv = ring.quotient((1,), packed_fk(ring, k, order))
    return ring.mul(ring.mul(num, upper), inv)


@st.composite
def packed_genfun_args(draw):
    k = draw(st.integers(0, 12))
    n = draw(st.integers(0, k))
    return (PackedRing(draw(st.integers(1, 144))), k,
            draw(st.integers(0, n)), n, draw(st.integers(0, 40)))


@settings(max_examples=200)
@given(packed_genfun_args())
@example((PackedRing(64), 12, 0, 0, 40))
@example((PackedRing(72), 12, 3, 7, 40))
@example((PackedRing(8), 0, 0, 0, 0))
def test_packed_genfun_is_the_inverse_product(args):
    # dividing by F_k gives the same packed ints as multiplying by
    # 1/F_k, with slots of up to 64 bits and wider, whether or not the
    # slots can hold the counts
    assert packed_genfun(*args) == inverse_product(*args)


def _held_after(imports, call, spec_args):
    """Bytes tracemalloc still traces after gc.collect() in a fresh
    interpreter that ran `call` (an expression in `spec`) on each of
    spec_args, dropping each answer: what the builder caches keep."""
    code = (f"import gc, tracemalloc\n{imports}\ntracemalloc.start()\n"
            f"for spec in {spec_args!r}:\n    {call}\n"
            "gc.collect()\nprint(tracemalloc.get_traced_memory()[0])\n")
    run = run_python("-c", code, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    return int(run.stdout)


# bytes that stay traced after the nine cold genfun calls below
MEMORY_BUDGET = 8 * 2**20


def test_cold_genfun_holds_memory_to_a_budget():
    # nine distinct large specs: what stays reachable is the builder
    # caches, the packed F_j and fk_polynomial's dicts, about 5.8 MiB
    # by tracemalloc; a dense 1/F_k cached per spec would bring it to
    # 10 MiB
    spec_args = ([(None, 0, 0, L) for L in (64, 72, 80, 88, 96)]
                 + [(None, 2, 5, 80), (12, 0, 0, 120), (12, 0, 0, 160),
                    (12, 1, 3, 180)])
    assert _held_after("from dyckgen.genfun import GenSpec, genfun",
                       "genfun(GenSpec(*spec))", spec_args) < MEMORY_BUDGET


# bytes that stay traced after the nine cold tilde_genfun calls below
MARKED_MEMORY_BUDGET = 3 * 2**20


def test_cold_tilde_genfun_holds_memory_to_a_budget():
    # the same for the marked determinant route: the packed F_j,
    # fk_polynomial's dicts and the _arch cache's dense (A, R) per spec,
    # about 1.9 MiB by tracemalloc, 0.4 MiB of it _arch
    spec_args = ([(None, 0, 0, L) for L in (48, 56, 64, 72)]
                 + [(None, 2, 5, 64), (None, 1, 3, 64), (12, 0, 0, 64),
                    (12, 1, 3, 80), (4, 0, 0, 96)])
    assert _held_after("from dyckgen.touchdown import tilde_genfun",
                       "tilde_genfun(*spec)", spec_args) < MARKED_MEMORY_BUDGET


@pytest.mark.parametrize("k", [None, *range(9)])
def test_series_runs_to_the_series_order(k):
    # the answer runs to the spec order and starts at zeta^|n-m|, the
    # shortest path, its series part filling the series order; with
    # |n - m| > order no path fits and the answer is empty at any
    # ceiling
    top = 6 if k is None else k
    for m in range(top + 1):
        for n in range(m, top + 1):
            d = n - m
            for order in sorted({d - 1, d, d + 1, 9} - {-1}):
                for full in assert_routes_match_oracle(
                        GenSpec(k, m, n, order)):
                    assert full.order == order
                    if d > order:
                        assert full.is_zero()
                    else:
                        assert min(l for l, _ in full.nonzero_terms()) == d


def coefficient_reference(answer, l, area, touchdowns=None):
    """GenFun.coefficient read off a reference answer instead (0 at a
    negative step power)."""
    if l < 0:
        return 0
    v = answer.coeff(l)
    if answer.ring is TPoly:
        v = v.at_t_one() if touchdowns is None else v.coeff(touchdowns)
    return v.coeff(area)


@settings(max_examples=150)
@given(specs(8, 24, ordered=True))
@example(GenSpec(5, 0, 3, 17))      # area shift 3, odd
@example(GenSpec(None, 2, 5, 24))   # unbounded, odd area shift
@example(GenSpec(8, 1, 6, 4))       # |n - m| > order: no path fits
def test_answer_is_the_series_part_times_the_prefactor(spec):
    # every route decodes straight into the answer; the answer, its
    # t = 1 collapse and its coefficients are the series part with the
    # prefactor put back on: the plain quotient, of which the
    # enumerator's marked counts, the marked routes' reference, are a
    # refinement, and for the open end its shifted route
    k, m, n, L = spec
    plain = with_prefactor(spec, quotient_series(spec))
    marked = genfun_from_table(enumerate_paths(spec.ceiling, m, n, L),
                               with_touchdowns=True)
    assert marked.map_coeffs(TPoly.at_t_one) == plain
    results = [(genfun(spec), plain), (tilde_genfun(k, m, n, L), marked),
               (tilde_genfun_ratio(k, m, n, L), marked)]
    if k is not None and m == n == 0:
        results.append((tilde_genfun_openend(k, L),
                        tilde_genfun_openend_shifted(k, L).full_series()))
    for gf, answer in results:
        assert gf.full_series() == answer
        assert gf.at_t_one() == (answer if answer.ring is not TPoly
                                 else answer.map_coeffs(TPoly.at_t_one))
        with pytest.raises(IndexError):
            gf.coefficient(L + 1, 0)
        for l, v in [(-1, answer.ring.zero()), *enumerate(answer.c)]:
            marks = [None]
            if answer.ring is TPoly:
                top = max((t for t, _ in v.terms()), default=-1)
                marks += range(top + 2)
                v = v.at_t_one()
            areas = {e for e, _ in v.terms()} | {spec.area_shift - 1, -1}
            for area in areas:
                for t in marks:
                    assert (gf.coefficient(l, area, t)
                            == coefficient_reference(answer, l, area, t))


@pytest.mark.parametrize("k,m,n,L", [
    (None, 0, 0, 23), (None, 0, 3, 21), (None, 1, 2, 19),
    (5, 0, 0, 23), (5, 1, 4, 21), (3, 0, 1, 17),
    (None, 0, 3, 20), (None, 2, 3, 24), (5, 1, 4, 22), (3, 0, 3, 4),
    (None, 0, 4, 4), (6, 1, 6, 5), (2, 0, 2, 1)])
def test_odd_order_routes_match_oracle(k, m, n, L):
    # a packed series of odd order holds as many entries as at the even
    # order below: the odd top step must still come out, whether it is
    # the order L or the series order L - |n - m|, which is 0 when
    # |n - m| = L and clipped to 0 when no path fits
    assert_routes_match_oracle(GenSpec(k, m, n, L))
    if m == n == 0:
        assert continued_fraction(2 * L, L) == genfun_from_table(
            enumerate_paths(L, 0, 0, L))


@pytest.mark.parametrize("m,n,L", [(0, 0, 48), (0, 0, 64), (0, 0, 66),
                                   (2, 5, 56), (0, 3, 41), (1, 3, 40)])
def test_routes_match_oracle_above_its_guard(monkeypatch, m, n, L):
    # every entry of the route table, plain and marked, against brute
    # force at lengths the guard refuses
    monkeypatch.setenv("DYCKGEN_GUARD_OVERRIDE", "1")
    assert_routes_match_oracle(GenSpec(None, m, n, L))


@pytest.mark.parametrize("marked", [False, True])
@pytest.mark.parametrize("order", [8, 30], ids=["oracle", "past-guard"])
def test_oracle_helper_fails_a_faulty_entry(monkeypatch, order, marked):
    # below the enumerator's length guard and past it, where the
    # determinant entry is the reference
    real = cli.routes

    def with_faulty_entry(spec, form=False):
        table = real(spec, form)
        if form == marked:
            table["faulty"] = lambda: table["determinant"]() + 1
        return table

    monkeypatch.setattr(cli, "routes", with_faulty_entry)
    monkeypatch.delenv("DYCKGEN_GUARD_OVERRIDE", raising=False)
    with pytest.raises(AssertionError, match=f"faulty .marked={marked}"):
        assert_routes_match_oracle(GenSpec(4, 1, 2, order))


@pytest.mark.parametrize("marked", [False, True])
def test_oracle_helper_fails_an_empty_table(monkeypatch, marked):
    real = cli.routes
    monkeypatch.setattr(cli, "routes", lambda spec, form=False:
                        {} if form == marked else real(spec, form))
    with pytest.raises(AssertionError, match=f"marked={marked}"):
        assert_routes_match_oracle(GenSpec(4, 1, 2, 8))
