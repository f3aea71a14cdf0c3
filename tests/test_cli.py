"""Command-line interface: dispatch, formats, conventions, exit codes."""

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyckgen.cli import main, table_from_json
from dyckgen.exact import LSeries, TPoly
from dyckgen.oracle import enumerate_paths
from dyckgen.verify import CheckResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        for method in ("determinant", "continued-fraction", "cluster-exp"):
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
        assert unbounded[0] == (2 if m > n and "--touchdown" in command
                                else 0)

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

    def test_round_trip_unbounded_spec(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--k", "inf", "--m", "0",
                               "--n", "0", "--max-len", "6", "--touchdowns")
        assert code == 0
        doc = json.loads(out)
        assert doc["spec"]["k"] == "inf"
        # the effective ceiling for an unbounded spec at this length is 3
        assert table_from_json(doc) == enumerate_paths(3, 0, 0, 6)


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
        monkeypatch.setattr("dyckgen.cli.run_suites",
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
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_internal_mismatch_exits_three(self, capsys, monkeypatch):
        wrong = LSeries(4, {0: 1})
        monkeypatch.setattr("dyckgen.cli.continued_fraction",
                            lambda k, order: wrong)
        code, out, err = run_cli(capsys, "genfun", "--k", "1", "--m", "0",
                                 "--n", "0", "--max-len", "4", "--check")
        assert code == 3
        assert "internal mismatch" in err

    def test_touchdown_mismatch_exits_three(self, capsys, monkeypatch):
        class Fake:
            series = LSeries(4, {0: TPoly.one()}, ring=TPoly)

        monkeypatch.setattr("dyckgen.cli.tilde_genfun_ratio",
                            lambda k, m, n, order: Fake())
        code, _, err = run_cli(capsys, "genfun", "--k", "1", "--m", "0",
                               "--n", "0", "--max-len", "4", "--touchdown",
                               "--check")
        assert code == 3
        assert "determinant vs ratio" in err

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


def _emitted_lengths(fmt, out):
    if fmt == "json":
        return [t["l"] for t in json.loads(out)["terms"]]
    return [int(row["l"]) for row in csv.DictReader(io.StringIO(out))]


@settings(max_examples=150, deadline=None, derandomize=True)
@example("4", 0, 4, 2, "determinant", True, False, "csv")
@given(k=st.sampled_from(["0", "1", "2", "3", "4", "5", "inf"]),
       m=st.integers(-1, 6), n=st.integers(-1, 6),
       max_len=st.integers(0, 10),
       method=st.sampled_from(["determinant", "continued-fraction",
                               "cluster-exp"]),
       check=st.booleans(), touchdown=st.booleans(),
       fmt=st.sampled_from(["json", "csv"]))
def test_genfun_fuzz_exits_cleanly_within_max_len(k, m, n, max_len, method,
                                                  check, touchdown, fmt):
    argv = ["genfun", "--k", k, f"--m={m}", f"--n={n}",
            "--max-len", str(max_len), "--method", method, "--format", fmt]
    argv += ["--check"] * check + ["--touchdown"] * touchdown
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
    else:
        assert all(l <= max_len for l in _emitted_lengths(fmt, out.getvalue()))
