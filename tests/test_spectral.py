"""Ceiling determinants, partition functions, and the height generating
function."""

import os
import random
import subprocess
import sys
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dyckgen
from dyckgen.exact import LSeries, NonUnitConstantTerm, QLaurent, TPoly
from dyckgen.oracle import enumerate_paths, genfun_from_table
from dyckgen.config import GuardExceeded, SpecOutOfRange
from dyckgen.spectral import (bosonic_partition, det_degree,
                              det_elimination, fk_polynomial,
                              grand_partition_exclusion,
                              height_generating_function, qbinom,
                              secular_det_direct, secular_det_tilde,
                              secular_matrix)

# first few determinants, expanded by hand from the two-term recursion
# and cross-checked against the exclusion sum
F1 = LSeries(2, {0: 1, 2: -1})
F2 = LSeries(2, {0: 1, 2: QLaurent({0: -1, 2: -1})})
F3 = LSeries(4, {0: 1, 2: QLaurent({0: -1, 2: -1, 4: -1}),
                 4: QLaurent({4: 1})})
F4 = LSeries(4, {0: 1, 2: QLaurent({0: -1, 2: -1, 4: -1, 6: -1}),
                 4: QLaurent({4: 1, 6: 1, 8: 1})})


class TestDeterminants:
    def test_base_cases(self):
        assert fk_polynomial(-1) == LSeries.one(0)
        assert fk_polynomial(0) == LSeries.one(0)
        with pytest.raises(SpecOutOfRange):
            fk_polynomial(-2)

    @pytest.mark.parametrize("k,expected", [(1, F1), (2, F2), (3, F3),
                                            (4, F4)])
    def test_first_determinants(self, k, expected):
        assert fk_polynomial(k) == expected
        assert fk_polynomial(k).order == det_degree(k)

    @pytest.mark.parametrize("k", [*range(0, 11), 16, 24, 40])
    def test_three_routes_agree(self, k):
        # the routes build F_j far past the elimination guard (32), so
        # the deep ceilings are checked against the exclusion sum alone
        f = fk_polynomial(k)
        assert f == grand_partition_exclusion(k, det_degree(k))
        if k <= 10:
            assert f == secular_det_direct(k)
            assert f == secular_det_tilde(k)

    @pytest.mark.parametrize("k", range(0, 9))
    def test_determinant_duality(self, k):
        # inverting the area variable and rescaling the step variable by
        # theta^(k-1) leaves the determinant invariant
        f = fk_polynomial(k)
        assert f.invert_q().substitute_scale(k - 1) == f

    def test_degree_and_constant_term(self):
        for k in range(1, 12):
            f = fk_polynomial(k)
            assert f.coeff(0).is_one()
            assert not f.coeff(det_degree(k)).is_zero()

    def test_deep_ceiling_builds_a_few_calls_deep(self):
        # a cold F_80 fills the cache bottom-up, so it nests a few calls
        # deep, not 80: it builds under a recursion limit of 60 in a
        # fresh interpreter; its step-2 coefficient is minus the sum of
        # the 80 squared hop weights
        code = ("import sys\n"
                "from dyckgen.exact import QLaurent\n"
                "from dyckgen.spectral import fk_polynomial\n"
                "sys.setrecursionlimit(60)\n"
                "f = fk_polynomial(80)\n"
                "print(f.order, f.coeff(2) == "
                "QLaurent({2 * n: -1 for n in range(80)}))\n")
        src = os.path.dirname(os.path.dirname(dyckgen.__file__))
        run = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr[-2000:]
        assert run.stdout.split() == ["80", "True"]

    def test_matrix_shape(self):
        m = secular_matrix(3)
        assert len(m) == 4
        assert m[1][2].coeff(1) == QLaurent.mono(1, -1)
        assert m[2][1] == m[1][2]
        assert m[0][2].is_zero()
        with pytest.raises(SpecOutOfRange):
            secular_matrix(-1)

    def test_direct_guard(self):
        with pytest.raises(GuardExceeded):
            secular_det_direct(33)
        with pytest.raises(GuardExceeded):
            secular_det_tilde(33)

    def test_inverse_determinant_counts_excursions(self):
        # 1/F_k with the shifted numerator reproduces oracle excursions;
        # spot check k=2 against the enumerator
        f2 = fk_polynomial(2).resized(8)
        f1 = fk_polynomial(1).resized(8).substitute_scale(1)
        g = f1.divide(f2)
        assert g == genfun_from_table(enumerate_paths(2, 0, 0, 8))


class TestQBinom:
    def test_small_values(self):
        assert qbinom(4, 2) == QLaurent({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
        assert qbinom(5, 0) == QLaurent.one()
        assert qbinom(3, 4).is_zero()
        assert qbinom(6, 1) == QLaurent({e: 1 for e in range(6)})

    @pytest.mark.parametrize("m", range(0, 9))
    def test_symmetry_and_counting_limit(self, m):
        from math import comb
        for r in range(m + 1):
            b = qbinom(m, r)
            assert b == qbinom(m, m - r)
            assert b.eval_at_one() == comb(m, r)
            # palindromic coefficient list
            assert b.invert_q().shift(r * (m - r)) == b


class TestBosonicPartition:
    def test_frozen_examples(self):
        assert bosonic_partition(2, 1) == QLaurent({0: 1, 1: 1})
        assert bosonic_partition(3, 1) == QLaurent({0: 1, 1: 1, 2: 1})
        assert bosonic_partition(2, 2) == QLaurent({0: 1, 1: 1, 2: 1})
        assert bosonic_partition(5, 0) == QLaurent.one()

    @pytest.mark.parametrize("method", ["occupation", "excitation",
                                        "qbinomial"])
    def test_methods_agree_with_product(self, method):
        for k in range(1, 7):
            for n in range(0, 6):
                assert (bosonic_partition(k, n, method)
                        == bosonic_partition(k, n)), (k, n, method)

    def test_degree_and_normalization(self):
        for k in range(1, 7):
            for n in range(0, 6):
                z = bosonic_partition(k, n)
                assert z.coeff(0) == 1
                assert (z.degree() or 0) == n * (k - 1)

    def test_level_particle_duality(self):
        # k levels with N particles matches N+1 levels with k-1 particles
        for k in range(1, 7):
            for n in range(0, 6):
                assert bosonic_partition(k, n) == bosonic_partition(n + 1,
                                                                    k - 1)

    def test_guard_and_override(self, monkeypatch):
        with pytest.raises(GuardExceeded):
            bosonic_partition(10, 4, "occupation")
        assert bosonic_partition(10, 4) is not None  # closed form unguarded
        monkeypatch.setenv("DYCKGEN_GUARD_OVERRIDE", "1")
        assert bosonic_partition(10, 4, "occupation") == bosonic_partition(
            10, 4)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bosonic_partition(0, 1)
        with pytest.raises(ValueError):
            bosonic_partition(2, -1)
        with pytest.raises(ValueError):
            bosonic_partition(2, 1, "nope")


class TestHeightGF:
    def test_coefficients_are_determinants(self):
        hs = height_generating_function(6, 12)
        for k in range(7):
            assert hs[k] == fk_polynomial(k).resized(12), k


def condensation_reference(cells):
    """One-step condensation that updates every trailing entry of every
    row at every step, dividing by the previous pivot each time (the
    form det_elimination had before it left idle rows alone)."""
    n = len(cells)
    m = [list(row) for row in cells]
    prev = None
    for p in range(n - 1):
        pivot = m[p][p]
        for i in range(p + 1, n):
            rip = m[i][p]
            for j in range(p + 1, n):
                t = pivot * m[i][j]
                if not rip.is_zero() and not m[p][j].is_zero():
                    t = t - rip * m[p][j]
                m[i][j] = t if prev is None else t.divide(prev)
        prev = pivot
    return m[n - 1][n - 1]


def leibniz(cells):
    """Determinant as the signed sum over permutations."""
    n = len(cells)
    total = LSeries.zeros(cells[0][0].order, cells[0][0].ring)
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n)
                         for b in range(a + 1, n))
        term = LSeries.one(total.order, total.ring)
        for i, j in enumerate(perm):
            term = term * cells[i][j]
        total = total - term if inversions % 2 else total + term
    return total


RINGS = {"area": lambda c: QLaurent(c),
         "marked": lambda c: TPoly({s: QLaurent({e: v}) for (e, v), s
                                    in zip(c.items(), (0, 1, 0, 1))})}


@st.composite
def elimination_matrices(draw):
    """Square matrices of truncated series, dense, banded or tridiagonal,
    in either coefficient ring.  Unit matrices have constant term 1 on
    the diagonal and 0 off it, so every leading minor is invertible; the
    others draw constant terms freely, so some pivot may not be."""
    n = draw(st.integers(1, 6))
    order = draw(st.integers(0, 4))
    band = draw(st.sampled_from([n, 2, 1]))  # dense, banded, tridiagonal
    ring = draw(st.sampled_from(sorted(RINGS)))
    unit = draw(st.booleans())
    coeff = st.dictionaries(st.integers(-1, 3), st.integers(-2, 2),
                            max_size=2)
    cells = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = {}
            if abs(i - j) <= band and draw(st.integers(0, 4)):
                terms = {l: RINGS[ring](draw(coeff))
                         for l in range(1, order + 1)}
                if unit:
                    terms[0] = RINGS[ring]({0: int(i == j)})
                else:
                    terms[0] = RINGS[ring](draw(coeff))
            elif i == j and unit:
                terms = {0: RINGS[ring]({0: 1})}
            row.append(LSeries(order, terms, TPoly if ring == "marked"
                               else QLaurent))
        cells.append(row)
    return cells


def assert_same_outcome(cells):
    """det_elimination returns what the reference returns, or raises
    NonUnitConstantTerm exactly where it does; the input is unchanged.
    Returns whether it raised."""
    before = [list(row) for row in cells]
    try:
        expected = condensation_reference(cells)
    except NonUnitConstantTerm:
        with pytest.raises(NonUnitConstantTerm):
            det_elimination(cells)
        return True
    assert det_elimination(cells) == expected
    assert cells == before
    if len(cells) <= 4 and cells[0][0].ring is QLaurent:
        assert expected == leibniz(cells)
    return False


class TestElimination:
    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(elimination_matrices())
    def test_matches_full_condensation(self, cells):
        assert_same_outcome(cells)

    def test_raises_where_full_condensation_does(self):
        # a unit-free dense draw often has a pivot with a constant term
        # other than 1; both forms must raise on exactly those matrices
        rng = random.Random(7)
        raised = 0
        for _ in range(200):
            n, order = rng.randint(3, 5), rng.randint(0, 3)
            cells = [[LSeries(order, {l: QLaurent(
                {rng.randint(0, 2): rng.choice((-1, 0, 1, 1, 2))})
                for l in range(order + 1)}) for _ in range(n)]
                for _ in range(n)]
            raised += assert_same_outcome(cells)
        assert 0 < raised < 200

    def test_idle_rows_catch_up(self):
        # block-diagonal: row 3 has nothing to eliminate at steps 0 and
        # 1, so it stays as given until step 2 divides it by M_0 = 1
        z = {1: QLaurent({2: 1})}
        a, b = LSeries(4, {0: 1, 1: QLaurent({0: -1})}), LSeries(4, z)
        o = LSeries.zeros(4)
        cells = [[a, b, o, o], [b, a, o, o], [o, o, a, b], [o, o, b, a]]
        block = a * a - b * b
        assert det_elimination(cells) == block * block
        assert_same_outcome(cells)
