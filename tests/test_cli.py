"""Command-line interface: dispatch, formats, conventions, exit codes."""

import argparse
import csv
import gc
import io
import json
import os
import resource
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from conftest import run_python
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyckgen import __version__, config, touchdown
from dyckgen.cli import (COMMANDS, REQUIRED, Convention, _emit, cmd_genfun,
                         cmd_table, cmd_verify, main, parse_args, routes,
                         table_from_json)
from dyckgen.exact import LSeries, PackedRing, QLaurent, TPoly
from dyckgen.genfun import GenFun, GenSpec, genfun
from dyckgen.oracle import enumerate_paths
from dyckgen.touchdown import tilde_genfun
from dyckgen.verify import SUITE_NAMES, CheckResult


def choices(command, flag):
    """The values cli.COMMANDS accepts for a command's flag."""
    return next(kind for option, kind, _, _ in COMMANDS[command][2]
                if option == flag)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _touchdown_rows(out):
    """(l, A, s, count) of each row of `genfun --touchdown` CSV output,
    whose coefficients must be whole counts."""
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(row["den"] == "1" for row in rows)
    return [tuple(int(row[f]) for f in ("l", "A", "s", "num"))
            for row in rows]


class TestGenfunCommand:
    def test_zigzag_csv(self, capsys):
        code, out, _ = run_cli(capsys, "genfun", "--k", "1", "--m", "0",
                               "--n", "0", "--max-len", "6",
                               "--format", "csv")
        assert code == 0
        assert out == ("l,A,num,den\n"
                       "0,0,1,1\n"
                       "2,0,1,1\n"
                       "4,0,1,1\n"
                       "6,0,1,1\n")

    def test_unbounded_diamond_csv(self, capsys):
        code, out, _ = run_cli(capsys, "genfun", "--k", "inf", "--m", "0",
                               "--n", "0", "--max-len", "6",
                               "--convention", "double-step-diamond",
                               "--format", "csv")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        # coefficient of the cubed step variable: 1 + 2q + q^2 + q^3
        cubic = {(r[1], r[2]) for r in rows if r[0] == "3"}
        assert cubic == {("0", "1"), ("1", "2"), ("2", "1"), ("3", "1")}

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "genfun", "--k", "2", "--m", "0",
                               "--n", "0", "--max-len", "6")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"spec", "convention", "method", "version",
                            "terms"}
        assert doc["spec"] == {"k": 2, "m": 0, "n": 0, "max_len": 6}
        assert doc["convention"] == "step-plaquette"
        assert doc["method"] == "determinant"
        for t in doc["terms"]:
            assert set(t) == {"l", "A", "coeff"}
            assert set(t["coeff"]) == {"num", "den"}
            assert t["coeff"]["den"] == "1"

    def test_unbounded_spec_echo(self, capsys):
        code, out, _ = run_cli(capsys, "genfun", "--k", "inf", "--m", "1",
                               "--n", "2", "--max-len", "5")
        assert code == 0
        assert json.loads(out)["spec"]["k"] == "inf"

    def test_touchdown_marks_floor_returns(self, capsys):
        code, out, _ = run_cli(capsys, "genfun", "--k", "1", "--m", "0",
                               "--n", "0", "--max-len", "4", "--touchdown")
        assert code == 0
        doc = json.loads(out)
        assert [(t["l"], t["A"], t["s"]) for t in doc["terms"]] == [
            (0, 0, 0), (2, 0, 1), (4, 0, 2)]

    def test_long_meander_includes_marked_row(self, capsys):
        code, out, _ = run_cli(capsys, "genfun", "--k", "4", "--m", "1",
                               "--n", "2", "--max-len", "13", "--touchdown")
        assert code == 0
        hits = [t for t in json.loads(out)["terms"]
                if (t["l"], t["A"], t["s"]) == (13, 21, 1)]
        assert len(hits) == 1
        assert int(hits[0]["coeff"]["num"]) >= 1

    def test_methods_agree_under_check(self, capsys):
        for method in routes(GenSpec(2, 0, 0, 8)):
            code, out, err = run_cli(capsys, "genfun", "--k", "2", "--m", "0",
                                     "--n", "0", "--max-len", "8",
                                     "--method", method, "--check")
            assert code == 0, err
            assert json.loads(out)["method"] == method

    @pytest.mark.parametrize("k,n,max_len", [(4, 4, 2), (3, 3, 1)])
    def test_rise_longer_than_max_len_emits_nothing(self, capsys, k, n,
                                                    max_len):
        # the prefactor zeta^n shifts every term past the truncation
        argv = ("genfun", "--k", str(k), "--m", "0", "--n", str(n),
                "--max-len", str(max_len), "--format", "csv")
        assert run_cli(capsys, *argv) == (0, "l,A,num,den\n", "")
        assert run_cli(capsys, *argv, "--check") == (0, "l,A,num,den\n", "")

    def test_unbounded_heights_above_max_len_print_empty_table(self, capsys):
        # no path of 2 steps joins 3 and 0, with or without a ceiling
        argv = ("--m", "3", "--n", "0", "--max-len", "2", "--format", "csv")
        for k in ("inf", "5"):
            assert run_cli(capsys, "genfun", "--k", k, *argv) == (
                0, "l,A,num,den\n", "")

    @pytest.mark.parametrize("m,n,max_len", [(3, 0, 2), (0, 3, 1), (4, 4, 2),
                                             (5, 5, 0), (0, 7, 3)])
    @pytest.mark.parametrize("command", [
        ("genfun",), ("genfun", "--check"), ("genfun", "--touchdown"),
        ("genfun", "--method", "cluster-exp", "--check"), ("table",)])
    def test_unbounded_heights_above_max_len_match_tall_ceiling(
            self, capsys, m, n, max_len, command):
        argv = ("--m", str(m), "--n", str(n), "--max-len", str(max_len),
                "--format", "csv", *command[1:])
        unbounded = run_cli(capsys, command[0], "--k", "inf", *argv)
        assert unbounded == run_cli(capsys, command[0], "--k", "8", *argv)
        assert unbounded[0] == 0
        if "--touchdown" in command:
            # m > n too, by path reversal: the enumerator's rows
            ceiling = GenSpec(None, m, n, max_len).ceiling
            assert _touchdown_rows(unbounded[1]) == [
                (l, a, s, c) for (l, a, s), c
                in sorted(enumerate_paths(ceiling, m, n, max_len)
                          .counts.items())]

    @pytest.mark.parametrize("k,m,n,max_len", [
        ("3", 2, 0, 10), ("3", 3, 1, 11), ("inf", 4, 0, 12),
        ("inf", 5, 2, 13), ("4", 4, 3, 9)])
    def test_touchdown_endpoints_in_either_order(self, capsys, k, m, n,
                                                 max_len):
        # the marked routes reverse a path from m > n; the table counts
        # it directly
        argv = ("--k", k, "--m", str(m), "--n", str(n),
                "--max-len", str(max_len), "--format", "csv")
        code, out, err = run_cli(capsys, "genfun", *argv, "--touchdown",
                                 "--check")
        assert code == 0, err
        table = run_cli(capsys, "table", *argv, "--touchdowns")[1]
        assert _touchdown_rows(out) == [
            tuple(map(int, row)) for row in csv.reader(io.StringIO(table))
            if row[0] != "l"]
        assert _touchdown_rows(out)

    @pytest.mark.parametrize("k,flags", [
        (2000, ()), (2000, ("--check",)), (600, ("--touchdown",)),
        (600, ("--touchdown", "--check"))])
    def test_ceiling_out_of_reach_is_clamped(self, capsys, k, flags):
        # no path of 2 steps climbs above height 1: the ceiling is
        # clamped there instead of building F_k at its full degree
        argv = ("--m", "0", "--n", "0", "--max-len", "2", "--format", "csv",
                *flags)
        start = time.perf_counter()
        clamped = run_cli(capsys, "genfun", "--k", str(k), *argv)
        assert time.perf_counter() - start < 1.0
        assert clamped[0] == 0
        assert clamped == run_cli(capsys, "genfun", "--k", "1", *argv)

    @pytest.mark.parametrize("m,n,max_len", [(1, 3, 12), (0, 2, 9),
                                             (2, 5, 14)])
    def test_unbounded_touchdown_check_passes(self, capsys, m, n, max_len):
        # both routes compute at the unbounded ceiling: the check
        # compares the results both print
        argv = ("genfun", "--k", "inf", "--m", str(m), "--n", str(n),
                "--max-len", str(max_len), "--format", "csv", "--touchdown")
        plain = run_cli(capsys, *argv)
        assert plain[0] == 0
        assert run_cli(capsys, *argv, "--check") == plain

    def test_unbounded_touchdown_check_at_order_64(self, capsys):
        """The CLI goldens run --touchdown --check only up to order 40.
        At order 64 the command took 0.6-0.9 s cold as a subprocess on a
        2-core VM (Python 3.11), against 3.4-3.9 s while the ratio route
        divided marker polynomials; no wall-clock assertion, as the
        machine's speed drifts."""
        argv = ("genfun", "--k", "inf", "--m", "0", "--n", "0",
                "--max-len", "64", "--format", "csv", "--touchdown")
        checked = run_cli(capsys, *argv, "--check")
        assert checked[0] == 0
        assert checked == run_cli(capsys, *argv)

    def test_diamond_half_integer_encoding(self, capsys):
        code, out, _ = run_cli(capsys, "genfun", "--k", "2", "--m", "0",
                               "--n", "1", "--max-len", "3",
                               "--convention", "double-step-diamond")
        assert code == 0
        ls = [t["l"] for t in json.loads(out)["terms"]]
        assert {"twice": 1} in ls and {"twice": 3} in ls

    def test_diamond_half_integer_csv(self, capsys):
        code, out, _ = run_cli(capsys, "genfun", "--k", "2", "--m", "0",
                               "--n", "1", "--max-len", "3",
                               "--convention", "double-step-diamond",
                               "--format", "csv")
        assert code == 0
        assert out.splitlines()[1].startswith("1/2,")


class TestTableCommand:
    def test_touchdown_resolved_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--k", "2", "--m", "0",
                               "--n", "0", "--max-len", "4", "--touchdowns",
                               "--format", "csv")
        assert code == 0
        assert out == ("l,A,s,count\n"
                       "0,0,0,1\n"
                       "2,0,1,1\n"
                       "4,0,2,1\n"
                       "4,2,1,1\n")

    def test_merged_rows_sum_touchdowns(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--k", "2", "--m", "0",
                               "--n", "0", "--max-len", "4",
                               "--format", "csv")
        assert code == 0
        assert out == ("l,A,count\n"
                       "0,0,1\n"
                       "2,0,1\n"
                       "4,0,1\n"
                       "4,2,1\n")

    def test_unreachable_endpoint_gives_empty_table(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--k", "2", "--m", "0",
                               "--n", "1", "--max-len", "0",
                               "--format", "csv")
        assert code == 0
        assert out == "l,A,count\n"

    def test_lf_line_endings(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--k", "1", "--m", "0",
                            "--n", "0", "--max-len", "4", "--format", "csv")
        assert "\r" not in out

    @pytest.mark.parametrize("convention",
                             ["step-plaquette", "double-step-diamond"])
    def test_json_round_trip(self, capsys, convention):
        code, out, _ = run_cli(capsys, "table", "--k", "3", "--m", "1",
                               "--n", "2", "--max-len", "9", "--touchdowns",
                               "--convention", convention)
        assert code == 0
        assert table_from_json(json.loads(out)) == enumerate_paths(3, 1, 2, 9)

    def test_round_trip_keeps_a_ceiling_out_of_reach(self, capsys):
        # the table is enumerated at the clamped ceiling, but rebuilt at
        # the one asked for
        code, out, _ = run_cli(capsys, "table", "--k", "40", "--m", "1",
                               "--n", "0", "--max-len", "5", "--touchdowns")
        assert code == 0
        assert table_from_json(json.loads(out)) == enumerate_paths(40, 1, 0,
                                                                   5)

    def test_round_trip_unbounded_spec(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--k", "inf", "--m", "0",
                               "--n", "0", "--max-len", "6", "--touchdowns")
        assert code == 0
        doc = json.loads(out)
        assert doc["spec"]["k"] == "inf"
        # the effective ceiling for an unbounded spec at this length is 3
        assert table_from_json(doc) == enumerate_paths(3, 0, 0, 6)


def _reference_json(spec_echo, convention, method, terms):
    """The JSON document of `terms` as json.dumps writes the nested
    dicts, the reference for _emit's template writer."""
    halve = convention == "double-step-diamond"

    def exp(v):
        if not halve:
            return v
        return v // 2 if v % 2 == 0 else {"twice": v}

    jterms = []
    for l, a, s, c in terms:
        t = {"l": exp(l), "A": exp(a)}
        if s is not None:
            t["s"] = s
        f = Fraction(c)
        t["coeff"] = {"num": str(f.numerator), "den": str(f.denominator)}
        jterms.append(t)
    doc = {"spec": spec_echo, "convention": convention, "method": method,
           "version": __version__, "terms": jterms}
    return json.dumps(doc, indent=2) + "\n"


def _reference_csv(convention, terms, count_label=None, marked=False):
    """The CSV rows of `terms` with every coefficient read as a
    Fraction, the reference for _emit's CSV path; a marked answer has
    the s column even when it has no term."""
    halve = convention == "double-step-diamond"

    def exp(v):
        if not halve:
            return str(v)
        return str(v // 2) if v % 2 == 0 else f"{v}/2"

    lines = [",".join(["l", "A"] + (["s"] if marked else [])
                      + ([count_label] if count_label else ["num", "den"]))]
    for l, a, s, c in terms:
        f = Fraction(c)
        row = [exp(l), exp(a)] + ([str(s)] if marked else [])
        row += [str(f.numerator)] if count_label else [str(f.numerator),
                                                       str(f.denominator)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _series(terms, marked, order=9):
    """The LSeries of `terms`, (l, A, s, coeff) tuples with distinct
    (l, A, s), s None throughout when unmarked."""
    rows = {}
    for l, a, s, c in terms:
        rows.setdefault(l, {}).setdefault(s, {})[a] = c
    if marked:
        return LSeries(order, {l: TPoly({s: QLaurent(p)
                                         for s, p in row.items()})
                               for l, row in rows.items()}, TPoly)
    return LSeries(order, {l: QLaurent(row[None])
                           for l, row in rows.items()})


def _flat_terms(full):
    """The (l, A, s, coeff) terms of a series in (l, A, s) order, s
    None throughout when unmarked: what the writer writes, in order."""
    out = []
    for l, v in full.nonzero_terms():
        parts = v.terms() if full.ring is TPoly else [(None, v)]
        out += [(l, a, s, c) for s, q in parts for a, c in q.terms()]
    return sorted(out, key=lambda t: (t[0], t[1], t[2] or 0))


SPEC_ECHO = {"k": "inf", "m": 1, "n": 4, "max_len": 9}
# the terms of each answer in the order the writer writes them; the
# marked length 4 interleaves its t^0 and t^1 parts by area
PLAIN_TERMS = [(0, 0, None, 1), (1, 3, None, Fraction(-7, 3)),
               (3, 5, None, -2), (4, 6, None, 10 ** 30),
               (7, 11, None, Fraction(5, 1))]
MARKED_TERMS = [(1, 1, 0, 1), (3, 4, 2, Fraction(5, 2)), (4, 2, 0, 3),
                (4, 2, 1, Fraction(-1, 7)), (4, 3, 0, 10 ** 30),
                (4, 5, 1, -4), (5, 7, 1, -1), (9, 15, 3, 12)]
ANSWERS = {"plain": (PLAIN_TERMS, False), "marked": (MARKED_TERMS, True),
           "empty": ([], False), "empty-marked": ([], True)}
CONVENTIONS = choices("genfun", "--convention")


def _check_emit(terms, marked, convention, fmt, count_label=None):
    """_emit of the series of `terms` writes what the reference writes
    of `terms`."""
    args = argparse.Namespace(convention=convention, format=fmt)
    full = _series(terms, marked)
    with redirect_stdout(io.StringIO()) as sink:
        assert _emit(args, SPEC_ECHO, "cluster-exp", full, count_label) == 0
    out = sink.getvalue()
    if fmt == "json":
        assert out == _reference_json(SPEC_ECHO, convention, "cluster-exp",
                                      terms)
    else:
        assert out == _reference_csv(convention, terms, count_label, marked)


_TERM_KEYS = st.tuples(st.integers(0, 9), st.integers(-6, 20),
                       st.integers(0, 4))
_COEFFS = st.one_of(st.integers(-10 ** 30, 10 ** 30),
                    st.fractions(-10 ** 30, 10 ** 30, max_denominator=50),
                    st.sampled_from([10 ** 30, -10 ** 30])).filter(bool)


# tracemalloc peak of _emit of one answer to a null sink: written length
# by length, 0.3-1.7 MiB on the answers below; joined into one string
# before one write, 4.8-29 MiB
EMIT_BUDGET = 3 * 2**20


class TestEmitBytes:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("build", [
        lambda: genfun(GenSpec(12, 0, 0, 200)),
        lambda: tilde_genfun(None, 0, 0, 64)], ids=["plain", "marked"])
    def test_writer_holds_one_length_at_a_time(self, build, fmt):
        full = build().full_series()
        args = argparse.Namespace(convention="step-plaquette", format=fmt)
        with open(os.devnull, "w") as sink, redirect_stdout(sink):
            gc.collect()
            tracemalloc.start()
            try:
                _emit(args, SPEC_ECHO, "determinant", full)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < EMIT_BUDGET

    @pytest.mark.parametrize("convention", CONVENTIONS)
    @pytest.mark.parametrize("answer", ANSWERS)
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_synthetic_terms_match_the_reference(self, convention, answer,
                                                 fmt):
        terms, marked = ANSWERS[answer]
        _check_emit(terms, marked, convention, fmt)

    @settings(max_examples=150)
    @given(terms=st.dictionaries(_TERM_KEYS, _COEFFS, max_size=30),
           marked=st.booleans(), convention=st.sampled_from(CONVENTIONS),
           fmt=st.sampled_from(["json", "csv"]),
           count_label=st.sampled_from([None, "count"]))
    def test_random_series_match_the_reference(self, terms, marked,
                                               convention, fmt, count_label):
        terms = sorted((l, a, s if marked else None, c)
                       for (l, a, s), c in terms.items()
                       if marked or s == 0)
        _check_emit(terms, marked, convention, fmt, count_label)

    @pytest.mark.parametrize("argv,label", [
        (("genfun", "--k", "inf", "--m", "0", "--n", "3", "--max-len", "1",
          "--touchdown"), None),
        (("table", "--k", "3", "--m", "0", "--n", "3", "--max-len", "1",
          "--touchdowns"), "count")], ids=["genfun", "table"])
    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_empty_marked_csv_has_the_s_column(self, capsys, argv, label,
                                               convention):
        code, out, _ = run_cli(capsys, *argv, "--convention", convention,
                               "--format", "csv")
        assert code == 0
        assert out == _reference_csv(convention, [], label, marked=True)

    def test_empty_genfun(self, capsys):
        code, out, _ = run_cli(capsys, "genfun", "--k", "inf", "--m", "0",
                               "--n", "3", "--max-len", "1")
        assert code == 0
        assert out == _reference_json(
            {"k": "inf", "m": 0, "n": 3, "max_len": 1}, "step-plaquette",
            "determinant", [])
        assert out.endswith('"terms": []\n}\n')

    @pytest.mark.parametrize("k", ["inf", "5"])
    @pytest.mark.parametrize("m,n", [("0", "4"), ("4", "0")])
    @pytest.mark.parametrize("touchdown", [(), ("--touchdown",)])
    def test_empty_answer_checks(self, capsys, k, m, n, touchdown):
        # no path of 2 steps joins heights 4 apart: every route agrees
        # on the empty answer
        code, out, err = run_cli(capsys, "genfun", "--k", k, "--m", m,
                                 "--n", n, "--max-len", "2", "--check",
                                 *touchdown)
        assert (code, err) == (0, "")
        assert out.endswith('"terms": []\n}\n')

    @pytest.mark.parametrize("convention",
                             ["step-plaquette", "double-step-diamond"])
    def test_touchdown_genfun(self, capsys, convention):
        code, out, _ = run_cli(capsys, "genfun", "--k", "3", "--m", "0",
                               "--n", "1", "--max-len", "9", "--touchdown",
                               "--convention", convention)
        assert code == 0
        terms = _flat_terms(tilde_genfun(3, 0, 1, 9).full_series())
        assert out == _reference_json(
            {"k": 3, "m": 0, "n": 1, "max_len": 9}, convention,
            "determinant", terms)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("convention",
                             ["step-plaquette", "double-step-diamond"])
    def test_table_touchdowns(self, capsys, convention, fmt):
        code, out, _ = run_cli(capsys, "table", "--k", "3", "--m", "1",
                               "--n", "2", "--max-len", "9", "--touchdowns",
                               "--convention", convention, "--format", fmt)
        assert code == 0
        terms = [(l, a, s, c) for (l, a, s), c
                 in sorted(enumerate_paths(3, 1, 2, 9).counts.items())]
        if fmt == "json":
            assert out == _reference_json(
                {"k": 3, "m": 1, "n": 2, "max_len": 9}, convention,
                "oracle", terms)
        else:
            assert out == _reference_csv(convention, terms, "count",
                                         marked=True)


class TestVerifyCommand:
    def test_small_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "duality",
                               "--k-max", "2", "--len-max", "6")
        assert code == 0
        lines = out.splitlines()
        assert all(l.startswith("PASS duality/") for l in lines[:-1])
        assert lines[-1] == f"{len(lines) - 1} checks, 0 failures"

    def test_failure_reporting(self, capsys, monkeypatch):
        fake = [CheckResult("genfun", "oracle_equality", "k=0", True),
                CheckResult("genfun", "oracle_equality", "k=1", False,
                            "first mismatch at step power 2")]
        monkeypatch.setattr("dyckgen.verify.run_suites",
                            lambda names, k_max, len_max: fake)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert ("FAIL genfun/oracle_equality k=1: "
                "first mismatch at step power 2") in out
        assert out.splitlines()[-1] == "2 checks, 1 failures"


    @pytest.mark.parametrize("argv", [
        ("--suite", "cluster", "--k-max", "-1"),
        ("--suite", "genfun", "--len-max", "-1"),
        ("--suite", "recursions", "--k-max", "0"),
    ])
    def test_vacuous_or_negative_bounds_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestExitCodes:
    def test_usage_errors_exit_two(self, capsys):
        bad_argvs = [
            ("genfun", "--k", "x", "--m", "0", "--n", "0", "--max-len", "4"),
            ("genfun", "--k", "-1", "--m", "0", "--n", "0", "--max-len", "4"),
            ("genfun", "--k", "2", "--m", "3", "--n", "0", "--max-len", "4"),
            ("genfun", "--k", "2", "--m", "0", "--n", "0", "--max-len", "-1"),
            ("genfun", "--k", "2", "--m", "0", "--n", "1", "--max-len", "4",
             "--method", "continued-fraction"),
            ("genfun", "--k", "2", "--m", "0", "--n", "0", "--max-len", "4",
             "--touchdown", "--method", "cluster-exp"),
        ]
        for argv in bad_argvs:
            code, out, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert err.startswith("error: ")

    def test_missing_subcommand_exits_two(self, capsys):
        code, out, err = run_cli(capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_a_reader_that_stops_early_ends_the_job_quietly(self):
        # stdout's reader is gone, as after `| head`: the first write
        # that reaches the pipe raises BrokenPipeError, which ends the
        # job with 0 and no traceback
        code = ("import os, sys\n"
                "r, w = os.pipe()\n"
                "os.close(r)\n"
                "sys.stdout = os.fdopen(w, 'w')\n"
                "from dyckgen.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
        run = run_python("-c", code, "genfun", "--k", "12", "--m", "0",
                         "--n", "0", "--max-len", "100", timeout=60)
        assert (run.returncode, run.stderr) == (0, "")

    def test_internal_mismatch_exits_three(self, capsys, monkeypatch):
        wrong = LSeries(4, {0: 1})
        # the package attribute dyckgen.genfun is the function
        monkeypatch.setattr(sys.modules["dyckgen.genfun"],
                            "continued_fraction", lambda k, order: wrong)
        code, out, err = run_cli(capsys, "genfun", "--k", "1", "--m", "0",
                                 "--n", "0", "--max-len", "4", "--check")
        assert code == 3
        assert "internal mismatch" in err

    def test_touchdown_mismatch_exits_three(self, capsys, monkeypatch):
        fake = GenFun(GenSpec(1, 0, 0, 4),
                      full=LSeries(4, {0: TPoly.one()}, ring=TPoly))
        monkeypatch.setattr("dyckgen.touchdown.tilde_genfun_ratio",
                            lambda k, m, n, order: fake)
        code, _, err = run_cli(capsys, "genfun", "--k", "1", "--m", "0",
                               "--n", "0", "--max-len", "4", "--touchdown",
                               "--check")
        assert code == 3
        assert "determinant vs ratio" in err

    @pytest.mark.parametrize("marked", [False, True])
    def test_check_runs_every_entry_of_the_route_table(self, capsys,
                                                       monkeypatch, marked):
        def with_faulty_entry(spec, marked=False):
            table = routes(spec, marked)
            table["faulty"] = lambda: table["determinant"]() + 1
            return table
        monkeypatch.setattr(sys.modules["dyckgen.cli"], "routes",
                            with_faulty_entry)
        code, out, err = run_cli(capsys, "genfun", "--k", "4", "--m", "1",
                                 "--n", "2", "--max-len", "8", "--check",
                                 *["--touchdown"] * marked)
        assert code == 3
        assert out == ""
        assert "internal mismatch: determinant vs faulty" in err

    @pytest.mark.parametrize("heights,marked,names", [
        ((0, 0), False, ["determinant", "cluster-exp", "continued-fraction"]),
        ((1, 2), False, ["determinant", "cluster-exp"]),
        ((0, 0), True, ["determinant", "ratio"]),
        ((1, 2), True, ["determinant", "ratio"])])
    def test_route_table_names_the_routes_of_each_form(self, heights,
                                                       marked, names):
        for k in (4, None):
            assert list(routes(GenSpec(k, *heights, 8), marked)) == names

    def test_internal_error_exits_three(self, capsys, monkeypatch):
        # exit code 1 means a failed check and nothing else
        def boom(spec):
            raise RuntimeError("route broke")
        monkeypatch.setattr(sys.modules["dyckgen.genfun"], "genfun", boom)
        code, out, err = run_cli(capsys, "genfun", "--k", "2", "--m", "0",
                                 "--n", "0", "--max-len", "4")
        assert code == 3
        assert out == ""
        assert err.startswith("Traceback")
        assert "RuntimeError: route broke" in err

    @staticmethod
    def guarded_genfun(argv):
        """stderr of `genfun argv`, run in a fresh process under a 1 GiB
        address-space limit, so that a missing guard fails here instead
        of filling the memory, after checking that it exits 2 at a
        guard within 10 s."""
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        t0 = time.perf_counter()
        run = run_python("-m", "dyckgen.cli", "genfun", *argv,
                         env={"DYCKGEN_GUARD_OVERRIDE": ""}, timeout=60,
                         preexec_fn=limit)
        assert (run.returncode, run.stdout) == (2, ""), run.stderr
        assert run.stderr.startswith("error: ")
        assert "exceeds guard" in run.stderr
        assert "DYCKGEN_GUARD_OVERRIDE" in run.stderr
        assert time.perf_counter() - t0 < 10
        return run.stderr

    @pytest.mark.parametrize("heights", [
        ("--m", "900", "--n", "900"), ("--m", "5000", "--n", "0"),
        ("--m", "5000", "--n", "0", "--touchdown"),
        ("--m", "400", "--n", "400")])
    def test_large_heights_hit_the_determinant_guard(self, capsys, heights):
        argv = ("--k", "inf", *heights, "--max-len", "4", "--format", "csv")
        assert "error: determinant ceiling " in self.guarded_genfun(argv)
        # the table builds no determinant, so it still answers
        table = [a for a in argv if a != "--touchdown"]
        assert run_cli(capsys, "table", *table)[0] == 0

    @pytest.mark.parametrize("k,length,route", [
        ("inf", "202", ()), ("inf", "202", ("--method", "continued-fraction")),
        ("inf", "203", ("--touchdown",)), ("101", "202", ("--touchdown",)),
        ("inf", "202", ("--method", "cluster-exp"))],
        ids=["genfun", "continued-fraction", "touchdown", "touchdown-k101",
             "cluster-exp"])
    def test_reach_above_the_guard_exits_at_once(self, k, length, route):
        # every route checks the request's effective ceiling, 101 here,
        # before it builds any F_j or sums any composition
        argv = ("--k", k, "--m", "0", "--n", "0", "--max-len", length)
        err = self.guarded_genfun(argv + route)
        assert "determinant ceiling 101 exceeds guard 100" in err

    @pytest.mark.parametrize("argv", [
        ("--k", "5", "--m", "0", "--n", "0", "--max-len", "999999999"),
        ("--k", "5", "--m", "0", "--n", "0", "--max-len", "999999999",
         "--method", "cluster-exp"),
        ("--k", "inf", "--m", "0", "--n", "0", "--max-len", "200",
         "--touchdown")], ids=["huge-order", "huge-order-cluster-exp",
                               "touchdown-200"])
    def test_answer_size_above_the_guard_exits_at_once(self, argv):
        # the size of the answer is bounded in closed form before any
        # path is counted
        err = self.guarded_genfun(argv)
        assert "error: answer size in bits " in err

    def test_size_guard_is_marked_only_on_marked_routes(self, capsys,
                                                        monkeypatch):
        # at (inf, 3, 3, 4): 3 rows of at most 9 areas of 4-bit counts,
        # times 3 touchdown counts when marked
        argv = ("genfun", "--k", "inf", "--m", "3", "--n", "3",
                "--max-len", "4", "--format", "csv")
        expected = run_cli(capsys, *argv, "--touchdown")
        assert expected[0] == 0
        monkeypatch.setattr(config, "ANSWER_BITS_MAX", 108)
        assert run_cli(capsys, *argv)[0] == 0
        code, out, err = run_cli(capsys, *argv, "--touchdown")
        assert (code, out) == (2, "")
        assert "answer size in bits 324 exceeds guard 108" in err
        monkeypatch.setenv("DYCKGEN_GUARD_OVERRIDE", "1")
        assert run_cli(capsys, *argv, "--touchdown") == expected

    def test_determinant_guard_and_override(self, capsys, monkeypatch):
        argv = ("genfun", "--k", "inf", "--m", "3", "--n", "3",
                "--max-len", "4", "--format", "csv")
        expected = run_cli(capsys, *argv)
        assert expected[0] == 0
        monkeypatch.setattr(config, "DET_CEILING_MAX", 1)
        # the request's effective ceiling trips the guard before any
        # F_j is read, so warm caches do not hide it
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "determinant ceiling 5 exceeds guard 1" in err
        monkeypatch.setenv("DYCKGEN_GUARD_OVERRIDE", "1")
        assert run_cli(capsys, *argv) == expected

    def test_oracle_guard_and_override(self, capsys, monkeypatch):
        argv = ("table", "--k", "1", "--m", "0", "--n", "0",
                "--max-len", "26", "--format", "csv")
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "DYCKGEN_GUARD_OVERRIDE" in err
        monkeypatch.setenv("DYCKGEN_GUARD_OVERRIDE", "1")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "26,0,1\n" in out


def _off_by_one(real):
    """`real` with one coefficient of each result one too high: the last
    entry of a packed series or of a decoded batch, or the constant term
    of a series."""
    def faulty(*args):
        out = real(*args)
        if isinstance(out, LSeries):
            return out + 1
        return out[:-1] + type(out)([out[-1] + 1])
    return faulty


FAULT_SPEC = ("--k", "4", "--max-len", "12", "--check")
FAULT_HEIGHTS = {"0-0": ("--m", "0", "--n", "0"),
                 "1-2": ("--m", "1", "--n", "2")}
# (helper, heights) whose fault --touchdown --check misses: both marked
# routes decode through _marker_series
TOUCHDOWN_MISSES = {("decoded", "0-0"), ("decoded", "1-2"),
                    ("_marker_series", "0-0"), ("_marker_series", "1-2")}
TOUCHDOWN_FAULTS = [
    pytest.param(owner, name, heights, id=f"{name}-{key}",
                 marks=pytest.mark.xfail(
                     strict=True, reason="ROADMAP item 11: a helper both "
                     "marked routes share")
                 if (name, key) in TOUCHDOWN_MISSES else ())
    for owner, name in ((PackedRing, "decoded"), (PackedRing, "mul"),
                        (PackedRing, "quotient"),
                        (touchdown, "_marker_series"))
    for key, heights in FAULT_HEIGHTS.items()]


class TestCheckCatchesFaults:
    """A one-coefficient fault in a helper that a --check route shares
    must exit 3, as a mismatch with a route that does not share it."""

    @pytest.mark.parametrize("name", ["decoded", "mul", "quotient"])
    @pytest.mark.parametrize("heights", FAULT_HEIGHTS.values(),
                             ids=FAULT_HEIGHTS)
    def test_plain_check(self, capsys, monkeypatch, cold_caches, name,
                         heights):
        monkeypatch.setattr(PackedRing, name,
                            _off_by_one(getattr(PackedRing, name)))
        code, _, err = run_cli(capsys, "genfun", *FAULT_SPEC, *heights)
        assert code == 3
        assert "internal mismatch" in err

    @pytest.mark.parametrize("owner,name,heights", TOUCHDOWN_FAULTS)
    def test_touchdown_check(self, capsys, monkeypatch, cold_caches, owner,
                             name, heights):
        monkeypatch.setattr(owner, name, _off_by_one(getattr(owner, name)))
        code, _, err = run_cli(capsys, "genfun", *FAULT_SPEC, *heights,
                               "--touchdown")
        assert code == 3
        assert "internal mismatch" in err


def _run_quietly(argv):
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _emitted_lengths(fmt, out):
    if fmt == "json":
        return [t["l"] for t in json.loads(out)["terms"]]
    return [int(row["l"]) for row in csv.DictReader(io.StringIO(out))]


@settings(max_examples=150)
@example("4", 0, 4, 2, "determinant", True, False, "csv")
@given(k=st.sampled_from(["0", "1", "2", "3", "4", "5", "inf"]),
       m=st.integers(-1, 6), n=st.integers(-1, 6),
       max_len=st.integers(0, 10),
       method=st.sampled_from(choices("genfun", "--method")),
       check=st.booleans(), touchdown=st.booleans(),
       fmt=st.sampled_from(choices("genfun", "--format")))
def test_genfun_fuzz_exits_cleanly_within_max_len(k, m, n, max_len, method,
                                                  check, touchdown, fmt):
    argv = ["genfun", "--k", k, f"--m={m}", f"--n={n}",
            "--max-len", str(max_len), "--method", method, "--format", fmt]
    argv += ["--check"] * check + ["--touchdown"] * touchdown
    code, out, err = _run_quietly(argv)
    assert code in (0, 2), (argv, err)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ")
    else:
        assert all(l <= max_len for l in _emitted_lengths(fmt, out))


@settings(max_examples=300)
@given(k=st.sampled_from(["0", "1", "2", "3", "4", "5", "inf"]),
       m=st.integers(-1, 6), n=st.integers(-1, 6),
       max_len=st.integers(0, 12), touchdowns=st.booleans(),
       convention=st.sampled_from(choices("table", "--convention")),
       fmt=st.sampled_from(choices("table", "--format")))
def test_table_fuzz_exits_cleanly_and_round_trips(k, m, n, max_len,
                                                  touchdowns, convention,
                                                  fmt):
    argv = ["table", "--k", k, f"--m={m}", f"--n={n}",
            "--max-len", str(max_len), "--convention", convention,
            "--format", fmt] + ["--touchdowns"] * touchdowns
    code, out, err = _run_quietly(argv)
    assert code in (0, 2), (argv, err)
    if code == 2:
        assert out == "" and err.startswith("error: ")
        return
    if convention == "step-plaquette":
        assert all(l <= max_len for l in _emitted_lengths(fmt, out))
    if touchdowns and fmt == "json":
        ceiling = GenSpec(None, m, n, max_len).ceiling if k == "inf" else k
        assert table_from_json(json.loads(out)) == enumerate_paths(
            int(ceiling), m, n, max_len)


@settings(max_examples=40)
@given(suite=st.sampled_from(SUITE_NAMES + ("all",)),
       k_max=st.integers(-1, 3), len_max=st.integers(-1, 6))
def test_verify_fuzz_exits_cleanly(suite, k_max, len_max):
    argv = ["verify", "--suite", suite, f"--k-max={k_max}",
            f"--len-max={len_max}"]
    code, out, err = _run_quietly(argv)
    assert code in (0, 2), (argv, err, out[-400:])
    if code == 2:
        assert out == "" and err.startswith("error: ")
    else:
        lines = out.splitlines()
        assert all(l.startswith("PASS ") for l in lines[:-1])
        assert lines[-1] == f"{len(lines) - 1} checks, 0 failures"


# -- argv parsing ---------------------------------------------------------

def build_parser():
    """The argparse parser the command line used before parse_args: the
    reference its namespaces are checked against."""
    p = argparse.ArgumentParser(prog="dyckgen")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--k", required=True)
        sp.add_argument("--m", type=int, required=True)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--max-len", type=int, required=True,
                        dest="max_len")
        sp.add_argument("--convention",
                        choices=[c.value for c in Convention],
                        default=Convention.STEP_PLAQUETTE.value)
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    g = sub.add_parser("genfun")
    common(g)
    g.add_argument("--touchdown", action="store_true")
    g.add_argument("--method",
                   choices=("determinant", "continued-fraction",
                            "cluster-exp"),
                   default="determinant")
    g.add_argument("--check", action="store_true")
    g.set_defaults(func=cmd_genfun)

    t = sub.add_parser("table")
    common(t)
    t.add_argument("--touchdowns", action="store_true")
    t.set_defaults(func=cmd_table)

    v = sub.add_parser("verify")
    v.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    v.add_argument("--k-max", type=int, default=None, dest="k_max")
    v.add_argument("--len-max", type=int, default=None, dest="len_max")
    v.set_defaults(func=cmd_verify)
    return p


def _values(kind, flag):
    """Strategy for the text of a valid value of an option."""
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    if flag == "--k":
        return st.sampled_from(["0", "3", "12", "-1", "inf"])
    return st.integers(-3, 40).map(str)


@st.composite
def _argvs(draw):
    """A valid argv: every required flag and some optional ones, each
    spelled `--flag value` or `--flag=value`, some given twice, in a
    shuffled order."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    pairs = []
    for flag, kind, default, _ in COMMANDS[command][2]:
        times = draw(st.integers(1 if default is REQUIRED else 0, 2))
        for _ in range(times):
            if kind is bool:
                pairs.append([flag])
            elif draw(st.booleans()):
                pairs.append([f"{flag}={draw(_values(kind, flag))}"])
            else:
                pairs.append([flag, draw(_values(kind, flag))])
    pairs = draw(st.permutations(pairs))
    return [command] + [token for pair in pairs for token in pair]


@settings(max_examples=300)
@example(["genfun", "--k", "-1", "--m=-2", "--n", "0", "--max-len", "4"])
@example(["genfun", "--m", "1", "--k", "inf", "--n", "0", "--max-len=3",
          "--m", "0", "--check", "--check"])
@given(argv=_argvs())
def test_parse_args_matches_argparse(argv):
    assert vars(parse_args(argv)) == vars(build_parser().parse_args(argv))


SPEC_ARGV = ["--k", "1", "--m", "0", "--n", "0", "--max-len", "4"]


@pytest.mark.parametrize("argv,named", [
    (["genfun"] + SPEC_ARGV + ["--bogus"], "--bogus"),
    (["genfun", "--k", "1", "--m", "0", "--n", "0", "--max", "4"], "--max"),
    (["table"] + SPEC_ARGV + ["--touchdown"], "--touchdown"),
    (["genfun"] + SPEC_ARGV + ["stray"], "stray"),
    (["genfun"] + SPEC_ARGV + ["--format"], "--format"),
    (["genfun", "--k", "--m", "0", "--n", "0", "--max-len", "4"], "--k"),
    (["genfun", "--k", "1", "--m", "x", "--n", "0", "--max-len", "4"],
     "--m"),
    (["verify", "--k-max=2.5"], "--k-max"),
    (["genfun"] + SPEC_ARGV + ["--format", "xml"], "--format"),
    (["verify", "--suite", "nope"], "--suite"),
    (["genfun"] + SPEC_ARGV + ["--check=yes"], "--check"),
    (["genfun", "--k", "1", "--m", "0", "--max-len", "4"], "--n"),
    (["table"], "--max-len"),
    ([], "genfun"),
    (["frobnicate"] + SPEC_ARGV, "frobnicate"),
    (["--k", "1"], "genfun"),
], ids=["unknown-flag", "abbreviation", "other-command-flag", "positional",
        "missing-value", "flag-as-value", "bad-int", "non-int",
        "bad-choice", "bad-suite", "switch-with-value", "missing-required",
        "all-required-missing", "no-command", "unknown-command",
        "flag-before-command"])
def test_malformed_argv_exits_two(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert named in err


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_flag(capsys, command, flag):
    code, out, err = run_cli(capsys, command, flag)
    assert code == 0
    assert err == ""
    listed = [line.split()[0] for line in out.splitlines()
              if line.startswith("  --")]
    assert listed == [option[0] for option in COMMANDS[command][2]]


def test_help_lists_every_command(capsys):
    code, out, err = run_cli(capsys, "--help")
    assert code == 0
    assert err == ""
    assert all(f"  {command} " in out for command in COMMANDS)
