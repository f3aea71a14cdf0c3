"""Cluster expansion of the logarithms of the path generating functions.

Everything in this module works in double-step units: z marks a pair of
steps (one up, one down) and q marks a diamond of area.  The logarithm
of the floor-to-floor generating function with no ceiling is

    ln G = sum_a z^a p_a(q),

where p_a collects one term c_2(l_1..l_j) * q^(sum (i-1) l_i) for every
ordered composition (l_1, ..., l_j) of a: part l_i is the number of
exclusion-2 particles in the cluster sitting at the i-th level above the
bottom of the cluster, and c_2 is the linked-cluster weight.  With a
ceiling, and more generally for endpoints (m, n), each composition's
cluster can sit at a window of base levels, which contributes a finite
geometric sum in q^a instead of the bare term; the expansion stays
polynomial because the geometric sums are expanded, never written as
rational functions.

c_2 is 1/l_1 times a product over adjacent parts, and the energy adds
(i-1) l_i at part i, so the sum over compositions runs as a transfer
matrix over adjacent parts (_scaled_log), polynomial in a, where the
2^(a-1) compositions, the weights' reference, are not.  Times D =
lcm(1..a) every weight is an int, and with q -> 2**w an area polynomial
is one int, so a step is an int product and a shift.  Width: exp(sum_s
p_s z^s) is the series part of G, b_s <= N counting paths (N as in
GenSpec.largest_count), and every term of s*D*b_s = sum_i i*P_i*b_(s-i)
is >= 0 with b_0 = 1, so P_s = D*p_s is at most D*N < 2**w slotwise
for w = bits(N) + bits(D), the bound the final read needs (carries in
between are exact).  genfun_via_cluster runs that recurrence in int
QLaurent; it shares no arithmetic helper with the determinant routes.

For m != n the monomial prefactor of the generating function carries
fractional powers in these units; its logarithm, step_shift/2 * ln z
plus area_shift/2 * ln q (GenSpec properties), is not part of the
series computed here.

The other routes work in single steps zeta and plaquettes theta, with
z = zeta^2 and q = theta^2.  Cluster series meet them there: in_steps is
the one conversion, from z, q to zeta, theta, prefactor included.
"""

from fractions import Fraction
from math import comb, factorial, lcm

from .config import check_ceiling, check_order
from .exact import LSeries, QLaurent
from .genfun import GenSpec


def compositions(a):
    """Ordered sequences of positive parts summing to a, streamed in
    colexicographic order (last part varying slowest)."""
    check_order(a, "total", 1)

    def rec(rem):
        if rem == 0:
            yield ()
            return
        for last in range(1, rem + 1):
            for head in rec(rem - last):
                yield head + (last,)

    return rec(a)


def _check_parts(comp):
    """Raise SpecOutOfRange unless comp has at least one part, each an
    int >= 1."""
    check_order(len(comp), "number of parts", 1)
    for l in comp:
        check_order(l, "composition part", 1)


def c2(comp):
    """Linked-cluster weight of a composition: 1/l_1 times the product
    over adjacent parts of C(l_i + l_{i+1} - 1, l_{i+1})."""
    _check_parts(comp)
    out = Fraction(1, comp[0])
    for li, lj in zip(comp, comp[1:]):
        out *= comb(li + lj - 1, lj)
    return int(out) if out.denominator == 1 else out


def c2_factorial(comp):
    """Same weight as a single ratio of factorials (independent form,
    cross-checked against c2 in the tests)."""
    _check_parts(comp)
    num = 1
    for li, lj in zip(comp, comp[1:]):
        num *= factorial(li + lj - 1)
    den = comp[0]
    for li in comp[:-1]:
        den *= factorial(li - 1)
    for lj in comp[1:]:
        den *= factorial(lj)
    out = Fraction(num, den)
    return int(out) if out.denominator == 1 else out


def composition_energy(comp):
    """q-exponent of a cluster at base level 0: sum of (i-1)*l_i."""
    _check_parts(comp)
    return sum(i * l for i, l in enumerate(comp))


def p_restricted(k, m, n, a_max):
    """Series part of ln G for ceiling k (None = unbounded) and endpoints
    m <= n, as an LSeries in z to order a_max with constant term 0.

    The z^a coefficient sums c2 * q^energy over the compositions of a
    with at most k parts (any number when unbounded), each with j parts
    summed over the base levels r with max(m-j, 0) <= r <= n and, for
    finite k, r <= k-j: _scaled_log's sum, divided by D at the edge."""
    check_order(m, "m")
    check_order(n, "n", m)
    check_order(a_max, "z order")
    d, sums = _scaled_log(GenSpec(k, m, n, 2 * a_max + n - m))
    return LSeries(a_max, [v.scale(Fraction(1, d)) for v in sums])


def _scaled_log(spec):
    """D = lcm(1..a_max) and the z^a coefficients of D * p_restricted
    as int QLaurents for the spec (k, m <= n, a_max = series_order//2):
    layer j maps (last part l, total s) to the packed weight of the
    j-part compositions ending that way."""
    k, m, n = spec.k, min(spec.m, spec.n), max(spec.m, spec.n)
    a_max, bits = spec.series_order // 2, spec.largest_count.bit_length()
    d = lcm(*range(1, a_max + 1))
    w = -(-(bits + d.bit_length()) // 8) * 8
    p = [0] * (a_max + 1)
    layer = {(l, l): int(d * c2((l,))) for l in range(1, a_max + 1)}
    j = 1
    while layer and (k is None or j <= k):
        r_max = n if k is None else min(n, k - j)
        totals = {}
        for (_, s), v in layer.items():
            totals[s] = totals.get(s, 0) + v
        for s, v in totals.items():
            for r in range(max(m - j, 0), r_max + 1):
                p[s] += v << w * s * r
        grown = {}
        for (l, s), v in layer.items():
            for l2 in range(1, a_max - s + 1):
                key = l2, s + l2
                grown[key] = grown.get(key, 0) + v * comb(l + l2 - 1, l2)
        layer = {(l2, s): v << w * j * l2 for (l2, s), v in grown.items()}
        j += 1
    nb, raws = w // 8, [v.to_bytes(-(-v.bit_length() // 8), "little")
                        for v in p]
    return d, [QLaurent._wrap({e: c for e, c in enumerate(int.from_bytes(
        r[i:i + nb], "little") for i in range(0, len(r), nb)) if c})
        for r in raws]


def log_secular(k, a_max):
    """ln F_k in z to order a_max: minus the cluster sum over the
    compositions with at most k parts, each over the base levels
    r = 0..k-j, which is -p_restricted(k, 0, k, a_max)."""
    check_ceiling(k)
    return -p_restricted(k, 0, k, a_max)


def degree_formula(k, n, a):
    """Predicted q-degree of the z^a coefficient of the series part:
    a(a-1)/2 + a*n while the ceiling is out of reach (a <= k-n or no
    ceiling), then (k-n-1)(2a-k+n)/2 + a*n once it bites."""
    if k is not None:
        check_ceiling(k)
    check_order(n, "n")
    check_order(a, "a", 1)
    if k is None or a <= k - n:
        return a * (a - 1) // 2 + a * n
    return (k - n - 1) * (2 * a - k + n) // 2 + a * n


def degree_check(k, m, n, a):
    """Does the computed z^a coefficient have exactly the predicted
    q-degree?"""
    value = p_restricted(k, m, n, a).coeff(a)
    return value.degree() == degree_formula(k, n, a)


def in_steps(s, order, step=0, shift=0):
    """The series s in z, q rewritten in zeta, theta to step order
    `order`, times zeta^step theta^shift: z^a q^e becomes
    zeta^(2a + step) theta^(2e + shift)."""
    return LSeries(order, {2 * a + step: QLaurent._wrap(
        {2 * e + shift: c for e, c in v.terms()}) for a, v in enumerate(s.c)})


def genfun_via_cluster(spec):
    """Full generating-function series (internal units) reconstructed by
    exponentiating the cluster logarithm, by the Newton recurrence on
    _scaled_log's sums; an independent multiplicative route to the same
    object as genfun (in_steps puts the prefactor on)."""
    d, sums = _scaled_log(spec)
    terms = [(i, v.scale(i)) for i, v in enumerate(sums) if v]
    b = [QLaurent.one()]
    for s in range(1, len(sums)):
        acc = sum((v * b[s - i] for i, v in terms if i <= s), QLaurent.zero())
        parts = {e: divmod(c, s * d) for e, c in acc._c.items()}
        if any(rem for _, rem in parts.values()):
            raise ArithmeticError("cluster exp left a remainder")
        b.append(QLaurent._wrap({e: c for e, (c, _) in parts.items()}))
    return in_steps(LSeries(len(b) - 1, b), spec.order, spec.step_shift,
                    spec.area_shift)
