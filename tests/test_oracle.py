"""Brute-force enumerator: the ground truth for everything else."""

import pytest

from dyckgen.config import GuardExceeded, SpecOutOfRange
from dyckgen.exact import LSeries, QLaurent, TPoly
from dyckgen.oracle import (Unreachable, enumerate_paths, genfun_from_table,
                            max_area)


class TestEnumerate:
    def test_empty_and_trivial_paths(self):
        t = enumerate_paths(3, 1, 1, 0)
        assert t.counts == {(0, 0, 0): 1}
        t = enumerate_paths(3, 0, 1, 0)
        assert t.counts == {}

    def test_zigzag_strip(self):
        # ceiling 1 admits exactly the alternating excursion
        t = enumerate_paths(1, 0, 0, 12)
        assert t.counts == {(l, 0, l // 2): 1 for l in range(0, 13, 2)}

    def test_four_step_excursions(self):
        # UDUD (area 0, two touchdowns) and UUDD (area 2, one touchdown)
        t = enumerate_paths(4, 0, 0, 4)
        assert t.count(4, 0, 2) == 1
        assert t.count(4, 2, 1) == 1
        assert t.total(4) == 2

    def test_catalan_totals(self):
        t = enumerate_paths(10, 0, 0, 10)
        assert [t.total(l) for l in range(0, 11, 2)] == [1, 1, 2, 5, 14, 42]

    def test_parity_and_degenerate_lengths(self):
        t = enumerate_paths(5, 1, 2, 9)
        assert all((l - 1) % 2 == 0 for (l, _, _) in t.counts)
        assert t.total(0) == 0

    def test_area_is_nonnegative(self):
        t = enumerate_paths(6, 2, 4, 12)
        assert all(a >= 0 for (_, a, _) in t.counts)

    def test_strip4_length13_area21_touchdown1(self):
        # count computed by this DP and frozen; must stay >= 1
        t = enumerate_paths(4, 1, 2, 13)
        assert t.count(13, 21, 1) == 34

    def test_time_reversal_swaps_endpoints(self):
        a = enumerate_paths(4, 1, 3, 11).counts
        b = enumerate_paths(4, 3, 1, 11).counts
        # reversal preserves l and A but relabels touchdowns, so compare
        # with the touchdown statistic summed out
        def flatten(counts):
            out = {}
            for (l, ar, _), c in counts.items():
                out[(l, ar)] = out.get((l, ar), 0) + c
            return out
        assert flatten(a) == flatten(b)

    def test_domain_errors(self):
        with pytest.raises(SpecOutOfRange):
            enumerate_paths(2, 0, 3, 4)
        with pytest.raises(SpecOutOfRange):
            enumerate_paths(-1, 0, 0, 4)
        with pytest.raises(SpecOutOfRange):
            enumerate_paths(2, 0, 0, -1)

    def test_guard_and_override(self, monkeypatch):
        with pytest.raises(GuardExceeded):
            enumerate_paths(2, 0, 0, 25)
        monkeypatch.setenv("DYCKGEN_GUARD_OVERRIDE", "1")
        t = enumerate_paths(2, 0, 0, 26)
        assert t.total(26) > 0


class TestMaxArea:
    def test_roof_for_unbounded_excursions(self):
        # tallest excursion of length 2a is the triangle, area a(a-1)
        for a in range(1, 8):
            assert max_area(20, 0, 0, 2 * a) == a * (a - 1)

    def test_zigzag_has_no_area(self):
        for l in range(0, 10, 2):
            assert max_area(1, 0, 0, l) == 0

    def test_strip4_skew_roof(self):
        assert max_area(4, 1, 2, 13) == 35

    def test_unreachable(self):
        with pytest.raises(Unreachable):
            max_area(3, 0, 1, 4)  # parity mismatch
        with pytest.raises(Unreachable):
            max_area(2, 0, 0, 1)


class TestPackaging:
    def test_plain_series(self):
        t = enumerate_paths(2, 0, 0, 6)
        s = genfun_from_table(t)
        assert s.order == 6
        assert s.coeff(4) == QLaurent({0: 1, 2: 1})
        assert s.coeff(6) == QLaurent({0: 1, 2: 2, 4: 1})

    @pytest.mark.parametrize("k,m,n,L", [(2, 0, 0, 10), (5, 1, 3, 14),
                                         (6, 4, 0, 12), (3, 0, 3, 2)])
    def test_plain_series_sums_the_counts_over_touchdowns(self, k, m, n, L):
        # the plain series is the marked one at t = 1: each (l, A) sums
        # its counts over every number of touchdowns
        t = enumerate_paths(k, m, n, L)
        per_l = {}
        for (l, a, _), c in t.counts.items():
            d = per_l.setdefault(l, {})
            d[a] = d.get(a, 0) + c
        reference = LSeries(L, {l: QLaurent(av) for l, av in per_l.items()})
        assert genfun_from_table(t) == reference

    def test_marked_series(self):
        t = enumerate_paths(2, 0, 0, 4)
        s = genfun_from_table(t, with_touchdowns=True)
        assert s.ring is TPoly
        assert s.coeff(4) == TPoly({1: QLaurent({2: 1}), 2: QLaurent({0: 1})})
