"""Exclusion-statistics partition functions and matrix eliminations
that reproduce the ceiling determinant.

The walk operator on heights 0..k hops between neighbours n and n+1 with
weight zeta*theta^n (the step picks up the plaquettes under it).  The
object everything else is built from is the determinant

    F_k = det(1 - walk operator),

a polynomial in zeta of degree 2*floor((k+1)/2) whose inverse generates
the strip paths.  genfun builds it by a two-term recursion in the
ceiling height (fk_polynomial, served here too); this module computes
it independently by

* literal fraction-free elimination on the (k+1) x (k+1) matrix,
* an alternating sum over N of Gaussian-binomial partition functions,
  i.e. the grand partition function of particles with exclusion-2
  statistics on the levels theta^(2n) with fugacity -zeta^2.

The bosonic building block of the exclusion sum is itself computed four
ways (two enumerations, a Gaussian binomial, a telescoping product).
"""

from itertools import combinations, combinations_with_replacement

from . import config
from .exact import LSeries, NonUnitConstantTerm, QLaurent
from .genfun import det_degree, fk_polynomial  # noqa: F401  (re-exported)


def tridiagonal(above, below, order, ring=QLaurent):
    """Cells of a unit-diagonal tridiagonal matrix of truncated series in
    the given coefficient ring: above[n] (a {step power: coefficient}
    dict) at row n, column n+1 and below[n] at row n+1, column n."""
    config.check_order(order)
    size = len(above) + 1
    zero = LSeries.zeros(order, ring)
    cells = [[zero] * size for _ in range(size)]
    for i in range(size):
        cells[i][i] = LSeries.one(order, ring)
    for n, (a, b) in enumerate(zip(above, below)):
        cells[n][n + 1] = LSeries(order, a, ring)
        cells[n + 1][n] = LSeries(order, b, ring)
    return cells


def secular_matrix(k):
    """1 minus the height-hopping walk operator, entrywise as truncated
    series to order k + 3: symmetric tridiagonal, 1 on the diagonal,
    -zeta*theta^n between heights n and n+1."""
    config.check_ceiling(k)
    hops = [{1: QLaurent.mono(n, -1)} for n in range(k)]
    return tridiagonal(hops, hops, k + 3)


def det_elimination(cells):
    """Fraction-free determinant of a square matrix of truncated series.

    Bareiss's one-step condensation: step p turns each trailing entry
    of a row into (pivot*entry - column*pivot row) / M_p, a genuine minor
    of the matrix, so the division by M_p, the leading principal minor
    of order p, is exact; M_p must have constant term 1
    (NonUnitConstantTerm otherwise).  A row below p + 1 with a zero in
    the pivot column would only be multiplied by M_(p+1)/M_p, so it stays
    as step r - 1 left it, and dividing by M_r when it is next
    eliminated brings it up to date.  Row p + 1 is always eliminated, so
    the pivot rows and the last entry are current, and on a tridiagonal
    matrix each step touches one row.  No rational-function arithmetic
    ever appears.
    """
    n = len(cells)
    if n == 0:
        raise ValueError("empty matrix")
    m = [list(row) for row in cells]
    minors, stage = [None], [0] * n  # M_0 = 1 is None
    for p in range(n - 1):
        row = m[p]
        if p and not minors[p].c[0].is_one():
            raise NonUnitConstantTerm("divisor constant term must be 1")
        minors.append(row[p])
        for i in range(p + 1, n):
            target, div = m[i], minors[stage[i]]
            if i > p + 1 and target[p].is_zero():
                continue
            for j in range(p + 1, n):
                if not (row[j].is_zero() and target[j].is_zero()):
                    t = row[p] * target[j] - target[p] * row[j]
                    target[j] = t if div is None else t.divide(div)
            stage[i] = p + 1
    return m[n - 1][n - 1]


def secular_det_direct(k):
    """Ceiling-k determinant by literal elimination on the matrix."""
    config.check_ceiling(k)
    config.check_guard(k, config.DIRECT_DET_K_MAX, "ceiling")
    return det_elimination(secular_matrix(k)).resized(det_degree(k))


def secular_det_tilde(k):
    """Same determinant from the asymmetric variant matrix whose
    above-diagonal entries are all -1 and whose below-diagonal entry at
    row i is -zeta^2*theta^(2(i-1)): the step and area weights are
    shuffled between the two hop directions but the determinant is
    unchanged."""
    config.check_ceiling(k)
    config.check_guard(k, config.DIRECT_DET_K_MAX, "ceiling")
    below = [{2: QLaurent.mono(2 * n, -1)} for n in range(k)]
    cells = tridiagonal([{0: -1}] * k, below, 2 * k + 4)
    return det_elimination(cells).resized(det_degree(k))


def qbinom(m, r):
    """Gaussian binomial coefficient [m choose r]_q, exponents in
    diamond (q) units.

    Computed row by row by the q-Pascal rule [i choose j] =
    [i-1 choose j-1] + q^j [i-1 choose j]: additions and shifts only, so
    it shares no division with the product formula it is checked
    against.
    """
    config.check_order(m, "upper index")
    # any int lower index: one out of range gives 0
    config.check_order(r, "lower index", float("-inf"))
    if r < 0 or r > m:
        return QLaurent.zero()
    r = min(r, m - r)
    row = [QLaurent.one()] + [QLaurent.zero()] * r
    for i in range(1, m + 1):
        for j in range(min(i, r), 0, -1):
            row[j] = row[j - 1] + row[j].shift(j)
    return row[r]


def bosonic_partition(k, N, method="product"):
    """Energy generating function Z_{k,N} for N bosons on the k levels
    0..k-1, exponents in diamond (q) units.

    methods:
      "occupation"  enumerate level multisets directly (guarded);
      "excitation"  enumerate gap increments m_0..m_N >= 0 summing to
                    k-1 with weight q^(sum j*m_j), by stars and bars:
                    N bars among k-1+N places (guarded);
      "qbinomial"   the Gaussian binomial [k+N-1 choose N]_q;
      "product"     telescoping product of (1-q^(j+N))/(1-q^j).
    """
    config.check_order(k, "level count", 1)
    config.check_order(N, "particle number")
    if method in ("occupation", "excitation"):
        config.check_guard(k * N, config.ENUM_PARTITION_MAX, "k*N =")
    if method == "occupation":
        out = {}
        for levels in combinations_with_replacement(range(k), N):
            e = sum(levels)
            out[e] = out.get(e, 0) + 1
        return QLaurent(out)
    if method == "excitation":
        out = {}
        for bars in combinations(range(k - 1 + N), N):
            # m_j is the number of stars between bars j - 1 and j
            ends = (-1,) + bars + (k - 1 + N,)
            e = sum(j * (ends[j + 1] - ends[j] - 1) for j in range(N + 1))
            out[e] = out.get(e, 0) + 1
        return QLaurent(out)
    if method == "qbinomial":
        return qbinom(k + N - 1, N)
    if method == "product":
        out = QLaurent.one()
        for j in range(1, k):
            num = QLaurent({0: 1, j + N: -1})
            den = QLaurent({0: 1, j: -1})
            out = (out * num).divexact(den)
        return out
    raise config.SpecOutOfRange(f"unknown method {method!r}")


def grand_partition_exclusion(k, order):
    """Ceiling-k determinant as the grand partition function of
    exclusion-2 particles: sum over particle number N of
    (-zeta^2)^N * q^(N(N-1)) * [k-N+1 choose N]_q, exponents converted
    to internal (step, plaquette) units."""
    config.check_ceiling(k)
    config.check_order(order)
    coeffs = {}
    for N in range((k + 1) // 2 + 1):
        if 2 * N > order:
            break
        term = qbinom(k - N + 1, N).scale_exponents(2).shift(2 * N * (N - 1))
        coeffs[2 * N] = term.scale(-1) if N % 2 else term
    return LSeries(order, coeffs)


def height_generating_function(w_order, order):
    """Coefficients [w^j] of the ceiling generating sum, j = 0..w_order.

    The sum over particle number N of
        (-w^2*zeta^2)^N * q^(N(N-1)) * w^(-1) / ((w;q)-type product)
    minus the bare 1/w pole packages every ceiling at once: the w^k
    coefficient equals the ceiling-k determinant.  The pole cancels
    identically (asserted here).  Returned as a list of truncated step
    series indexed by the power of w.
    """
    config.check_order(w_order, "w order")
    config.check_order(order)
    acc = [dict() for _ in range(w_order + 2)]  # index j+1 holds w^j
    for N in range((w_order + 1) // 2 + 1):
        m_max = w_order - (2 * N - 1)
        if m_max < 0:
            break
        # product over j=0..N of the geometric tail 1/(1 - w*theta^(2j)),
        # truncated at w^m_max
        pw = [QLaurent.one()] + [QLaurent.zero()] * m_max
        for j in range(N + 1):
            npw = [pw[0]]
            for m in range(1, m_max + 1):
                npw.append(pw[m] + npw[m - 1].shift(2 * j))
            pw = npw
        base = 2 * N * (N - 1)
        sign = -1 if N % 2 else 1
        for m, ql in enumerate(pw):
            jw = 2 * N - 1 + m
            if jw > w_order or ql.is_zero():
                continue
            contrib = ql.shift(base).scale(sign)
            d = acc[jw + 1]
            d[2 * N] = d.get(2 * N, QLaurent.zero()) + contrib
    pole = acc[0]
    leftover = pole.get(0, QLaurent.zero()) - QLaurent.one()
    if not leftover.is_zero() or any(not v.is_zero() for e, v in pole.items() if e):
        raise AssertionError("1/w pole failed to cancel")
    return [LSeries(order, acc[j + 1]) for j in range(w_order + 1)]
