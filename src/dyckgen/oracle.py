"""Brute-force path counter used to cross-check every closed form.

Paths live on the integer heights 0..k and move by single up or down
steps.  Three statistics are tracked exactly:

* length l: number of steps;
* area A: sum over steps of the plaquette count, an up step from height
  j contributing j and a down step from height j contributing j - 1
  (equivalently, the area below the path and above the floor, minus half
  the length).  A down step leaves a height j >= 1, so every step adds
  at least 0 and A is never negative;
* touchdowns s: down steps that land on height 0.  Starting at 0 does
  not count; a final step down to 0 does.

The counter is a forward dynamic program over (height, area, touchdowns)
and never consults the generating-function machinery, so agreement with
the closed forms is a genuine two-route check.
"""

from collections import namedtuple

from . import config
from .config import SpecOutOfRange
from .exact import LSeries, QLaurent, TPoly


class Unreachable(SpecOutOfRange):
    """No path with the requested endpoints and length exists."""


class PathTable(namedtuple("PathTable", "k m n l_max counts")):
    """Exact counts N[(l, A, s)] of paths from m to n below ceiling k,
    lengths 0..l_max; counts is a dict keyed by (l, A, s)."""

    __slots__ = ()

    def count(self, l, area, s):
        return self.counts.get((l, area, s), 0)

    def total(self, l):
        """Number of paths of length l regardless of area/touchdowns."""
        return sum(c for (ll, _, _), c in self.counts.items() if ll == l)


def enumerate_paths(k, m, n, l_max):
    """Count all strip paths from height m to height n, lengths 0..l_max.

    Returns a PathTable keyed by (length, area, touchdowns).
    """
    config.check_heights(k, m, n)
    config.check_order(l_max, "length bound")
    config.check_guard(l_max, config.ORACLE_LEN_MAX, "length bound")
    counts = {}
    state = {(m, 0, 0): 1}
    if m == n:
        counts[(0, 0, 0)] = 1
    for l in range(1, l_max + 1):
        new = {}
        for (j, a, s), c in state.items():
            if j < k:
                key = (j + 1, a + j, s)
                new[key] = new.get(key, 0) + c
            if j > 0:
                key = (j - 1, a + j - 1, s + (1 if j == 1 else 0))
                new[key] = new.get(key, 0) + c
        state = new
        for (j, a, s), c in state.items():
            if j == n:
                counts[(l, a, s)] = counts.get((l, a, s), 0) + c
    return PathTable(k, m, n, l_max, counts)


def max_area(k, m, n, l):
    """Largest area statistic over paths of exactly l steps; raises
    Unreachable when no such path exists."""
    config.check_heights(k, m, n)
    config.check_order(l, "length")
    best = [None] * (k + 1)
    best[m] = 0
    for _ in range(l):
        new = [None] * (k + 1)
        for j, a in enumerate(best):
            if a is None:
                continue
            if j < k and (new[j + 1] is None or new[j + 1] < a + j):
                new[j + 1] = a + j
            if j > 0 and (new[j - 1] is None or new[j - 1] < a + j - 1):
                new[j - 1] = a + j - 1
        best = new
    if best[n] is None:
        raise Unreachable(f"no path of length {l} from {m} to {n} under {k}")
    return best[n]


def genfun_from_table(table, with_touchdowns=False):
    """Package exact counts as a truncated series for coefficientwise
    comparison with the closed forms.

    With touchdowns: coefficients are marker polynomials whose t^s
    parts are the area polynomials of the s-touchdown counts.  Plain:
    that series at t = 1, whose zeta^l coefficient is the area
    polynomial of the length-l counts (as GenFun.at_t_one).
    """
    per_l = {}
    for (l, a, s), c in table.counts.items():
        per_l.setdefault(l, {}).setdefault(s, {})[a] = c
    coeffs = {
        l: TPoly({s: QLaurent(av) for s, av in sv.items()})
        for l, sv in per_l.items()
    }
    marked = LSeries(table.l_max, coeffs, ring=TPoly)
    return marked if with_touchdowns else marked.map_coeffs(TPoly.at_t_one)
