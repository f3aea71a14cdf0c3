"""Canonical form and digest of a library result.

A series is written as its truncation order plus the sorted list of
(l, A[, s], coeff) rows.  Including the order means a result truncated
early cannot match a golden, which `LSeries.__eq__` (it compares only up
to the shorter truncation) would let through.
"""

from __future__ import annotations

import hashlib
import json

from dyckgen.exact import TPoly


def series_rows(series):
    """Sorted (l, A, coeff) or (l, A, s, coeff) rows of a full series.
    A coeff is an int or a Fraction, as the series holds it; both print
    the same through str()."""
    rows = []
    for l, v in series.nonzero_terms():
        if series.ring is TPoly:
            for s, ql in v.terms():
                for a, c in ql.terms():
                    rows.append((l, a, s, c))
        else:
            for a, c in v.terms():
                rows.append((l, a, c))
    rows.sort()
    return rows


def rows_digest(order, rows):
    """Digest of sorted rows (as series_rows gives them) and the order."""
    doc = {"order": order,
           "terms": [[*r[:-1], str(r[-1])] for r in rows]}
    return hashlib.sha256(
        json.dumps(doc, separators=(",", ":")).encode()).hexdigest()


def series_digest(series):
    return rows_digest(series.order, series_rows(series))
