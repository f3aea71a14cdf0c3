"""Acceptance gate: ten end-to-end criteria, one per test.

Each test prints a single pass/fail line (bypassing pytest capture, so
the report is visible in any run mode) and then asserts, so a failure
still surfaces normally.  Criteria with runtime expectations assert the
elapsed wall time too.
"""

import time
from fractions import Fraction

from dyckgen.cluster import (degree_check, genfun_series_zq,
                             genfun_via_cluster, p_restricted)
from dyckgen.exact import QLaurent, TPoly
from dyckgen.genfun import (GenSpec, check_duality, continued_fraction,
                            genfun, genfun_excursion)
from dyckgen.oracle import enumerate_paths, genfun_from_table, max_area
from dyckgen.spectral import (det_degree, fk_polynomial,
                              grand_partition_exclusion,
                              height_generating_function, secular_det_direct,
                              secular_det_recursive, secular_det_tilde)
from dyckgen.touchdown import tilde_genfun
from dyckgen.verify import check_recursions


def _gate(capsys, number, label, started, ok, detail="", limit=None):
    elapsed = time.perf_counter() - started
    if limit is not None and elapsed >= limit:
        ok = False
        detail = detail or f"runtime {elapsed:.1f}s not under {limit:.0f}s"
    verdict = "PASS" if ok else "FAIL"
    line = f"[acceptance {number:02d}] {label}: {verdict} ({elapsed:.1f}s)"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, f"criterion {number}: {label}: {detail}"


def test_01_determinant_triple_agreement(capsys):
    started = time.perf_counter()
    bad = []
    for k in range(13):
        order = det_degree(k)
        f = secular_det_recursive(k, order)
        if f != secular_det_direct(k):
            bad.append((k, "direct"))
        if f != grand_partition_exclusion(k, order):
            bad.append((k, "exclusion"))
        if f != secular_det_tilde(k):
            bad.append((k, "variant"))
    _gate(capsys, 1, "determinant triple agreement k<=12", started, not bad,
          f"disagreements at {bad}", limit=10.0)


def test_02_master_oracle_check(capsys):
    started = time.perf_counter()
    bad = []
    for k in range(7):
        for m in range(k + 1):
            for n in range(m, k + 1):
                gf = genfun(GenSpec(k, m, n, 16)).full_series()
                tab = genfun_from_table(enumerate_paths(k, m, n, 16))
                if gf != tab:
                    bad.append((k, m, n))
    _gate(capsys, 2, "closed forms equal oracle counts k<=6 l<=16", started,
          not bad, f"mismatches at {bad}", limit=60.0)


def test_03_marked_path_of_length_13_area_21(capsys):
    started = time.perf_counter()
    count = enumerate_paths(4, 1, 2, 13).count(13, 21, 1)
    _gate(capsys, 3, "a 13-step path with area 21 and one floor return exists",
          started, count >= 1, f"count = {count}")


def test_04_max_area_and_degree_law(capsys):
    started = time.perf_counter()
    area = max_area(4, 1, 2, 13)
    ok = area == 35 and Fraction(area, 2) == Fraction(35, 2)
    second_branch = 6 > 4 - 2  # ceiling in reach, so the capped branch
    ok = ok and second_branch and degree_check(4, 1, 2, 6)
    _gate(capsys, 4, "max area 35 plaquettes (17.5 diamonds) and capped degree law",
          started, ok, f"max area = {area}")


def test_05_cluster_consistency(capsys):
    started = time.perf_counter()
    zs = p_restricted(None, 0, 0, 10)
    ok = (zs.coeff(1) == QLaurent.one()
          and zs.coeff(2) == QLaurent({0: Fraction(1, 2), 1: 1})
          and zs.coeff(3) == QLaurent({0: Fraction(1, 3), 1: 1, 2: 1, 3: 1}))
    detail = "" if ok else "closed-form cluster coefficients differ"
    if zs.exp() != genfun_series_zq(None, 0, 0, 10):
        ok = False
        detail = "unbounded exp-log mismatch"
    for k in range(5):
        for m in range(k + 1):
            for n in range(m, k + 1):
                spec = GenSpec(k, m, n, 16 + (n - m))
                if genfun_via_cluster(spec) != genfun(spec).full_series():
                    ok = False
                    detail = f"restricted exp-log mismatch at {(k, m, n)}"
    _gate(capsys, 5, "cluster coefficients and exp-log round trips", started, ok,
          detail, limit=60.0)


def test_06_duality_and_recursions(capsys):
    started = time.perf_counter()
    bad = []
    for k in range(6):
        for m in range(k + 1):
            for n in range(m, k + 1):
                spec = GenSpec(k, m, n, 12)
                if not check_duality(spec):
                    bad.append((k, m, n, "duality"))
                for chk in check_recursions(spec):
                    if not chk.ok:
                        bad.append((k, m, n, chk.name))
    _gate(capsys, 6, "reflection duality and all four transfer identities",
          started, not bad, f"failures at {bad}")


def test_07_continued_fraction(capsys):
    started = time.perf_counter()
    bad = [k for k in range(7)
           if continued_fraction(k, 16)
           != genfun_excursion(k, 16).full_series()]
    _gate(capsys, 7, "continued fraction equals floor excursions k<=6", started,
          not bad, f"mismatches at k={bad}")


def test_08_touchdown_suite(capsys):
    started = time.perf_counter()
    bad = []
    for k in range(6):
        for m in range(k + 1):
            for n in range(m, k + 1):
                tg = tilde_genfun(k, m, n, 14)
                tab = genfun_from_table(enumerate_paths(k, m, n, 14),
                                        with_touchdowns=True)
                if tg.full_series() != tab:
                    bad.append((k, m, n, "oracle"))
                if tg.at_t_one() != genfun(GenSpec(k, m, n, 14)).full_series():
                    bad.append((k, m, n, "collapse"))
    one = tilde_genfun(1, 0, 0, 14).series
    if any(one.coeff(2 * a) != TPoly({a: 1}) for a in range(8)):
        bad.append((1, 0, 0, "closed form"))
    _gate(capsys, 8, "floor-return markers match the oracle and collapse at one",
          started, not bad, f"failures at {bad}")


def test_09_catalan_sanity(capsys):
    started = time.perf_counter()
    table = enumerate_paths(5, 0, 0, 10)
    got = [table.total(l) for l in range(0, 11, 2)]
    _gate(capsys, 9, "unbounded excursion counts are Catalan", started,
          got == [1, 1, 2, 5, 14, 42], f"got {got}")


def test_10_height_generating_function(capsys):
    started = time.perf_counter()
    hs = height_generating_function(8, 20)
    bad = [k for k in range(9)
           if hs[k] != fk_polynomial(k).resized(20)]
    _gate(capsys, 10, "height-variable coefficients are the secular determinants",
          started, not bad, f"mismatches at k={bad}")
