"""The identity suites behind the `verify` command."""

import os

import pytest
from conftest import SRC, run_python

from dyckgen import config, touchdown, verify
from dyckgen.cli import main
from dyckgen.config import GuardExceeded, SpecOutOfRange, UsageError
from dyckgen.exact import LSeries, QLaurent
from dyckgen.genfun import GenFun, GenSpec, genfun
from dyckgen.verify import (SUITE_NAMES, CheckResult, _eq_check, run_suites,
                            suite_determinants, suite_genfun,
                            suite_touchdown)


def test_suite_names_cover_registry():
    assert SUITE_NAMES == ("determinants", "genfun", "duality",
                           "recursions", "cluster", "touchdown")
    # named once, in config, where the command line reads them, and
    # naming every suite function of verify
    assert SUITE_NAMES is config.SUITE_NAMES
    assert ({name for name in vars(verify) if name.startswith("suite_")}
            == {"suite_" + name for name in SUITE_NAMES})


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_passes_at_small_bounds(name):
    results = run_suites([name], k_max=3, len_max=8)
    assert results, name
    bad = [r for r in results if not r.ok]
    assert not bad, bad[:3]
    for r in results:
        assert r.suite == name
        assert r.name
        assert r.params
        assert r.detail == ""


def test_run_all_suites_at_once():
    results = run_suites(SUITE_NAMES, k_max=2, len_max=6)
    seen = {r.suite for r in results}
    assert seen == set(SUITE_NAMES)
    assert all(r.ok for r in results)


@pytest.mark.parametrize("len_max", [0, 1, 2])
def test_all_suites_pass_at_short_orders(len_max):
    # prefactors longer than the order must truncate to zero, not wrap
    results = run_suites(SUITE_NAMES, k_max=4, len_max=len_max)
    bad = [r for r in results if not r.ok]
    assert not bad, bad[:3]


def test_negative_bounds_raise():
    with pytest.raises(SpecOutOfRange):
        run_suites(["cluster"], k_max=-1)
    with pytest.raises(SpecOutOfRange):
        run_suites(["genfun"], len_max=-1)
    with pytest.raises(SpecOutOfRange):
        suite_genfun(len_max=-1)


def test_determinants_guard_fires_before_any_elimination(monkeypatch,
                                                         capsys):
    # k_max above DIRECT_DET_K_MAX must fail at once, not after the
    # eliminations at every smaller ceiling have run
    monkeypatch.delenv("DYCKGEN_GUARD_OVERRIDE", raising=False)
    calls = []
    monkeypatch.setattr("dyckgen.spectral.secular_det_direct", calls.append)
    with pytest.raises(GuardExceeded, match="ceiling 33 exceeds guard 32"):
        run_suites(["determinants"], k_max=33)
    with pytest.raises(GuardExceeded, match="ceiling 33 exceeds guard 32"):
        verify.suite_determinants(k_max=33)
    assert calls == []
    assert main(["verify", "--suite", "determinants", "--k-max", "40"]) == 2
    err = capsys.readouterr().err
    assert "ceiling 40 exceeds guard 32" in err
    assert "DYCKGEN_GUARD_OVERRIDE" in err
    assert calls == []


# suite -> the first call that does the suite's work
SUITE_FIRST_WORK = {
    "determinants": "dyckgen.spectral.secular_det_direct",
    "genfun": "dyckgen.verify.genfun",
    "duality": "dyckgen.verify.check_duality",
    "recursions": "dyckgen.verify.check_recursions",
    "cluster": "dyckgen.cluster.c2",
    "touchdown": "dyckgen.touchdown.tilde_secular",
}

# (suite, bound, value for run_suites, value on the command line, message)
GUARD_CASES = (
    [pytest.param(s, "k_max", 13, 60, "ceiling {} exceeds guard 12", id=s)
     for s in SUITE_FIRST_WORK if s != "determinants"]
    + [pytest.param(s, "len_max", 25, 200, "length bound {} exceeds guard 24",
                    id=s + "-len-max") for s in SUITE_FIRST_WORK]
    + [pytest.param("all", "k_max", 13, 13, "ceiling {} exceeds guard 12",
                    id="all")])


@pytest.mark.parametrize("suite,bound,value,cli_value,message", GUARD_CASES)
def test_suite_guard_fires_before_any_work(suite, bound, value, cli_value,
                                           message, monkeypatch, capsys):
    # a bound above its guard must fail at once, not after the checks
    # at every smaller bound (or every earlier suite) have run
    monkeypatch.delenv("DYCKGEN_GUARD_OVERRIDE", raising=False)
    names = SUITE_NAMES if suite == "all" else (suite,)
    calls = []
    for name in names:
        monkeypatch.setattr(SUITE_FIRST_WORK[name],
                            lambda *a: calls.append(a))
    with pytest.raises(GuardExceeded, match=message.format(value)):
        run_suites(names, **{bound: value})
    if suite != "all":   # a suite called directly checks its own bounds
        with pytest.raises(GuardExceeded, match=message.format(value)):
            getattr(verify, "suite_" + suite)(**{bound: value})
    flag = "--" + bound.replace("_", "-")
    assert main(["verify", "--suite", suite, flag, str(cli_value)]) == 2
    err = capsys.readouterr().err
    assert message.format(cli_value) in err
    assert "DYCKGEN_GUARD_OVERRIDE" in err
    assert calls == []


def test_traced_run_records_every_suite_span():
    # the benchmark tracer wraps each suite function where it is bound,
    # the suite table included; run_suites must call the wrapped one
    perfbench = os.path.join(os.path.dirname(SRC), "perfbench")
    if not os.path.isfile(os.path.join(perfbench, "tracer.py")):
        pytest.skip("no perfbench tracer next to the package")
    code = ("from collections import Counter\n"
            "from tracer import Tracer, install\n"
            "t = Tracer()\n"
            "install(t)\n"
            "from dyckgen.verify import SUITE_NAMES, run_suites\n"
            "run_suites(SUITE_NAMES, k_max=1, len_max=6)\n"
            "spans = Counter(t.names[i] for i in t.name_ids if i >= 0)\n"
            "print(*(spans['verify.' + s] for s in SUITE_NAMES))\n")
    out = run_python("-c", code, path=[perfbench], check=True).stdout
    assert out.split() == ["1"] * len(SUITE_NAMES)


def test_run_without_checks_raises():
    with pytest.raises(UsageError):
        run_suites(["recursions"], k_max=0)


def test_mismatch_detail_reports_orders():
    a = genfun(GenSpec(2, 0, 0, 6)).full_series()
    r = _eq_check("s", "n", "p", a, a.resized(10))
    assert not r.ok
    assert "truncation orders differ: 6 != 10" in r.detail
    b = a + LSeries(6, {4: 1})
    r = _eq_check("s", "n", "p", a, b.resized(4))
    assert r.detail.startswith("truncation orders differ: 6 != 4; "
                               "first mismatch at step power 4")


def test_default_bounds_pass():
    # the duality suite is the cheapest at its default bounds
    results = run_suites(["duality"])
    assert len(results) == sum((k + 1) * (k + 2) // 2 for k in range(6))
    assert all(r.ok for r in results)


def test_every_suite_passes_at_default_bounds():
    # the gate behind `dyckgen verify --suite all`
    results = run_suites(SUITE_NAMES)
    assert len(results) == 851
    bad = [r for r in results if not r.ok]
    assert not bad, bad[:3]


def test_result_fields_are_frozen():
    r = CheckResult("s", "n", "p", True)
    with pytest.raises(AttributeError):
        r.ok = False


@pytest.mark.parametrize("names", [["spectra"], "genfun", ["all"],
                                   ["genfun", "bogus"]],
                         ids=["unknown", "bare-string", "all", "one-unknown"])
def test_unknown_suite_name_raises(names):
    # a bare string, "all" and any name outside SUITE_NAMES, before the
    # bound check: k_max=99 is past every suite's guard
    with pytest.raises(SpecOutOfRange, match="the suites are determinants"):
        run_suites(names, k_max=99)


def test_endpoint_symmetry_fails_on_a_wrong_series(monkeypatch):
    # the reversed endpoints are counted by the oracle, so a wrong
    # closed form cannot agree with itself
    def wrong(spec):
        return GenFun(spec, genfun(spec).full_series() + 1)

    monkeypatch.setattr("dyckgen.verify.genfun", wrong)
    results = [r for r in suite_genfun(k_max=3, len_max=8)
               if r.name == "endpoint_symmetry"]
    assert len(results) == 20
    assert not any(r.ok for r in results)


def test_qbinomial_check_fails_on_a_wrong_division(monkeypatch):
    # the Gaussian binomial is built by additions and shifts, so a wrong
    # exact division breaks the product formula alone
    monkeypatch.setattr(QLaurent, "divexact", lambda self, other: self)
    results = [r for r in suite_determinants(k_max=4, len_max=8)
               if r.name == "partition_qbinomial_vs_product"
               and not r.params.startswith("k=1 ")]
    assert len(results) == 15
    assert not any(r.ok for r in results)


def _wrong_base_fk(k):
    """fk_polynomial's recursion F_k = F_(k-1)(zeta*theta) -
    zeta^2 F_(k-2)(zeta*theta^2) from the wrong base F_0 = 1 + zeta^2
    (F_(-1) = 1), to step order 16, past every order the marked
    determinant checks read."""
    if k <= 0:
        return LSeries(16, {0: 1, 2: 1} if k == 0 else {0: 1})
    a = _wrong_base_fk(k - 1).substitute_scale(1)
    b = _wrong_base_fk(k - 2).substitute_scale(2)
    return a - b.shift_step(2)


def test_marked_determinant_checks_fail_on_a_wrong_family(monkeypatch):
    # t*F_k + (1-t)*A equals A - t*C by fk_polynomial's own recursion,
    # so a top-row route built from that recursion would pass on any
    # family it makes; it reads the exclusion sum instead, and both
    # marked-determinant checks fail at every k >= 1
    monkeypatch.setattr(touchdown, "fk_polynomial", _wrong_base_fk)
    touchdown.tilde_secular.cache_clear()
    try:
        results = [r for r in suite_touchdown(k_max=2, len_max=4)
                   if r.name.startswith("marked_det_") and r.params != "k=0"]
    finally:
        touchdown.tilde_secular.cache_clear()
    assert len(results) == 14
    assert not any(r.ok for r in results)
