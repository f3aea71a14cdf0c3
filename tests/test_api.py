"""The package surface: one integer check behind every integer argument
(the ceiling's among them), public names that all resolve, value
semantics of the record types, and a stdlib-only import."""

import importlib
import json
import sys
import types

import pytest
from conftest import run_python

import dyckgen
from dyckgen import cli, cluster, exact, spectral
from dyckgen.cluster import (c2, c2_factorial, composition_energy,
                             compositions, degree_check, degree_formula,
                             log_secular, p_restricted)
from dyckgen.config import SpecOutOfRange, UsageError
from dyckgen.exact import LSeries, QLaurent, TPoly
from dyckgen.genfun import GenFun, GenSpec, continued_fraction, genfun
from dyckgen.oracle import PathTable, enumerate_paths, max_area
from dyckgen.spectral import (bosonic_partition, fk_polynomial,
                              grand_partition_exclusion,
                              height_generating_function, qbinom,
                              secular_det_direct, secular_det_tilde,
                              secular_matrix, tridiagonal)
from dyckgen.touchdown import (tilde_genfun, tilde_genfun_openend,
                               tilde_genfun_openend_shifted, tilde_secular,
                               tilde_secular_direct, tilde_secular_toprow)
from dyckgen.verify import CheckResult, check_recursions, run_suites

# name -> (call with the ceiling k, lowest admissible ceiling)
CEILING_ENTRY_POINTS = {
    "fk_polynomial": (fk_polynomial, -1),
    "secular_matrix": (secular_matrix, 0),
    "secular_det_direct": (secular_det_direct, 0),
    "secular_det_tilde": (secular_det_tilde, 0),
    "grand_partition_exclusion": (
        lambda k: grand_partition_exclusion(k, 4), 0),
    "tilde_secular": (lambda k: tilde_secular(k, 4), -1),
    "tilde_secular_toprow": (lambda k: tilde_secular_toprow(k, 4), -1),
    "tilde_secular_direct": (tilde_secular_direct, 0),
    "tilde_genfun_openend": (lambda k: tilde_genfun_openend(k, 4), 0),
    "tilde_genfun_openend_shifted": (
        lambda k: tilde_genfun_openend_shifted(k, 4), 0),
    "continued_fraction": (lambda k: continued_fraction(k, 4), 0),
    "GenSpec": (lambda k: GenSpec(k, 0, 0, 4), 0),
    "log_secular": (lambda k: log_secular(k, 3), 0),
    "p_restricted": (lambda k: p_restricted(k, 0, 0, 3), 0),
    "degree_formula": (lambda k: degree_formula(k, 0, 3), 0),
    "degree_check": (lambda k: degree_check(k, 0, 0, 3), 0),
    "enumerate_paths": (lambda k: enumerate_paths(k, 0, 0, 4), 0),
    "max_area": (lambda k: max_area(k, 0, 0, 0), 0),
}

# entry points where a ceiling of None means unbounded
UNBOUNDED_OK = {"GenSpec", "p_restricted", "degree_formula", "degree_check"}

BAD_CEILINGS = [(name, k) for name in CEILING_ENTRY_POINTS
                for k in (None, -2, 2.5)
                if not (name in UNBOUNDED_OK and k is None)]


@pytest.mark.parametrize("name,k", BAD_CEILINGS)
def test_bad_ceiling_is_a_spec_error(name, k):
    call, _ = CEILING_ENTRY_POINTS[name]
    with pytest.raises(SpecOutOfRange, match="ceiling must be an integer"):
        call(k)


@pytest.mark.parametrize("name", CEILING_ENTRY_POINTS)
def test_lowest_ceiling_is_accepted(name):
    call, lowest = CEILING_ENTRY_POINTS[name]
    call(lowest)
    with pytest.raises(SpecOutOfRange):
        call(lowest - 1)


# name -> a call with an argument out of range (not the ceiling)
BAD_ARGUMENTS = {
    "p_restricted": lambda: p_restricted(None, 0, 0, -1),
    "log_secular": lambda: log_secular(2, -1),
    "degree_formula-a": lambda: degree_formula(None, 0, 0),
    "degree_formula-n": lambda: degree_formula(3, -1, 1),
    "degree_check": lambda: degree_check(None, 0, 0, 0),
    "compositions": lambda: compositions(0),
    "c2": lambda: c2(()),
    "c2_factorial": lambda: c2_factorial(()),
    "bosonic_partition-k": lambda: bosonic_partition(0, 1),
    "bosonic_partition-N": lambda: bosonic_partition(2, -1),
    "bosonic_partition-method": lambda: bosonic_partition(2, 1, "nope"),
    "qbinom": lambda: qbinom(-1, 0),
    "height_generating_function-w": lambda: height_generating_function(-1, 4),
    "height_generating_function-order":
        lambda: height_generating_function(2, -1),
    "tilde_secular": lambda: tilde_secular(2, -1),
    "tilde_secular_toprow": lambda: tilde_secular_toprow(2, -1),
    "grand_partition_exclusion": lambda: grand_partition_exclusion(2, -1),
    "tridiagonal": lambda: tridiagonal([{1: -1}], [{1: -1}], -1),
    "GenFun.coefficient": lambda: genfun(GenSpec(2, 0, 0, 4)).coefficient(
        2, 0, touchdowns=1),
    "LSeries-order": lambda: LSeries(-1),
    "LSeries-non-int-order": lambda: LSeries(2.5),
    "LSeries-step": lambda: LSeries(3, {-1: 1}),
    "LSeries.resized": lambda: LSeries.one(3).resized(-1),
    "LSeries.shift_step": lambda: LSeries.one(3).shift_step(-1),
    "TPoly": lambda: TPoly({-1: 1}),
    "QLaurent.scale_exponents": lambda: QLaurent.mono(1).scale_exponents(0),
    "composition_energy": lambda: composition_energy((0, -1)),
    "LSeries.shift_step-type": lambda: LSeries.one(3).shift_step(1.0),
    "PackedRing": lambda: exact.PackedRing(0),
}


@pytest.mark.parametrize("name", BAD_ARGUMENTS)
def test_bad_argument_is_a_usage_error(name):
    # raised at the call, compositions included, though it streams; an
    # argument out of its range is a SpecOutOfRange
    error = UsageError if name == "GenFun.coefficient" else SpecOutOfRange
    with pytest.raises(error):
        BAD_ARGUMENTS[name]()


def test_cached_entry_point_still_checks_the_ceiling():
    tilde_secular(2, 4)
    with pytest.raises(SpecOutOfRange):
        tilde_secular(2.0, 4)


@pytest.mark.parametrize("route", [lambda *a: genfun(GenSpec(*a)),
                                   tilde_genfun])
@pytest.mark.parametrize("args,field", [
    ((3, 1.5, 2, 4), "m"), ((None, 1.5, 2, 4), "m"), ((3, 0, 2.0, 4), "n"),
    ((3, 0, 0, 2.5), "order"), ((None, 0, 0, 2.5), "order"),
    ((None, 0, "1", 4), "n"),
])
def test_non_integer_height_or_order_is_a_spec_error(route, args, field):
    with pytest.raises(SpecOutOfRange, match=f"^{field} must be an integer"):
        route(*args)


# 72 paths of 13 steps and area 21 from height 1 to 2 under ceiling 4,
# 34 of them with one floor return
_MEANDER = genfun(GenSpec(4, 1, 2, 13))
_MEANDERS = enumerate_paths(4, 1, 2, 13)

# name -> a call with a non-int order, length bound or other integer
# argument (a whole float included)
NON_INT_ORDERS = {
    "tilde_secular": lambda: tilde_secular(3, 4.0),
    "tilde_secular_toprow": lambda: tilde_secular_toprow(3, 4.0),
    "tilde_genfun_openend_shifted":
        lambda: tilde_genfun_openend_shifted(3, 2.0),
    "p_restricted": lambda: p_restricted(None, 0, 0, 2.0),
    "log_secular": lambda: log_secular(2, 2.0),
    "grand_partition_exclusion": lambda: grand_partition_exclusion(2, 4.0),
    "height_generating_function-w":
        lambda: height_generating_function(2.0, 4),
    "height_generating_function-order":
        lambda: height_generating_function(2, 4.0),
    "tridiagonal": lambda: tridiagonal([{1: -1}], [{1: -1}], 4.0),
    "enumerate_paths": lambda: enumerate_paths(3, 0, 0, 4.0),
    "max_area": lambda: max_area(3, 0, 0, 2.0),
    "enumerate_paths-m": lambda: enumerate_paths(3, 0.5, 0, 4),
    "max_area-m": lambda: max_area(3, 0.0, 0, 2),
    "bosonic_partition-N": lambda: bosonic_partition(2, 1.5),
    "bosonic_partition-k": lambda: bosonic_partition(2.5, 1),
    "qbinom-upper": lambda: qbinom(3.0, 1),
    "qbinom-lower": lambda: qbinom(3, 1.5),
    "compositions": lambda: compositions(2.5),
    "c2": lambda: c2((1.5, 2)),
    "c2_factorial": lambda: c2_factorial((1.5, 2)),
    "composition_energy": lambda: composition_energy((1, 2.0)),
    "degree_formula-n": lambda: degree_formula(None, 0.5, 3),
    "degree_formula-a": lambda: degree_formula(3, 0, 2.0),
    "p_restricted-n": lambda: p_restricted(None, 0, "1", 3),
    "run_suites": lambda: run_suites(["genfun"], k_max=2.5),
    # the read-outs: a wrong type must not read as a count of 0
    "GenFun.coefficient-l": lambda: _MEANDER.coefficient(13.0, 21),
    "GenFun.coefficient-l-None": lambda: _MEANDER.coefficient(None, 21),
    "GenFun.coefficient-area": lambda: _MEANDER.coefficient(13, "21"),
    "GenFun.coefficient-area-half": lambda: _MEANDER.coefficient(13, 20.5),
    "GenFun.coefficient-touchdowns":
        lambda: tilde_genfun(4, 1, 2, 13).coefficient(13, 21, "1"),
    "LSeries.coeff": lambda: LSeries(4, {0: 1}).coeff(1.0),
    "QLaurent.coeff": lambda: QLaurent({0: 1}).coeff(0.5),
    "TPoly.coeff": lambda: TPoly({0: 1}).coeff("0"),
    "PathTable.count-l": lambda: _MEANDERS.count(13.0, 21, 1),
    "PathTable.count-area": lambda: _MEANDERS.count(13, "21", 1),
    "PathTable.count-s": lambda: _MEANDERS.count(13, 21, 1.0),
    "PathTable.total": lambda: _MEANDERS.total(13.0),
    # a bool is no integer: not a field, an exponent or a read-out
    "GenSpec-bool": lambda: GenSpec(True, 0, False, 4),
    "tilde_genfun-bool": lambda: tilde_genfun(True, 0, 0, 4),
    "QLaurent-bool-exponent": lambda: QLaurent({True: 3}),
    "GenFun.coefficient-bool": lambda: _MEANDER.coefficient(True, True),
}


@pytest.mark.parametrize("name", NON_INT_ORDERS)
def test_non_integer_order_is_a_spec_error(name):
    # one integer check (config.check_order) behind every entry point
    with pytest.raises(SpecOutOfRange, match="must be an integer, got "):
        NON_INT_ORDERS[name]()


# a count of 1/2 in a table's JSON
_HALF_COUNT = {"convention": "step-plaquette",
               "spec": {"k": 2, "m": 0, "n": 0, "max_len": 2},
               "terms": [{"l": 0, "A": 0, "s": 0,
                          "coeff": {"num": "1", "den": "2"}}]}


@pytest.mark.parametrize("call,error,message", [
    pytest.param(lambda: check_recursions(GenSpec(None, 0, 0, 4)),
                 SpecOutOfRange, "at finite ceiling", id="check_recursions"),
    pytest.param(lambda: cli.table_from_json(_HALF_COUNT), ValueError,
                 "path counts must be integers", id="table_from_json"),
    pytest.param(lambda: QLaurent({0: 1}).divexact(QLaurent.zero()),
                 ZeroDivisionError, "zero polynomial", id="divexact"),
    pytest.param(lambda: LSeries.one(4).divide("1"), TypeError,
                 "cannot divide by str", id="divide"),
    pytest.param(lambda: LSeries.one(4) + LSeries.one(4, TPoly), TypeError,
                 "mixed coefficient rings", id="mixed-rings"),
    pytest.param(lambda: QLaurent.coerce(1.5), TypeError,
                 "cannot coerce float", id="coerce"),
    pytest.param(lambda: spectral.det_elimination([]), ValueError,
                 "empty matrix", id="det_elimination"),
])
def test_each_error_branch_raises_with_a_message(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_openend_checks_the_order_before_building_a_series():
    with pytest.raises(SpecOutOfRange,
                       match="order must be an integer >= 0, got -1"):
        tilde_genfun_openend(3, -1)


def test_unbounded_spec_is_accepted():
    assert GenSpec(None, 0, 0, 4).ceiling == 2


def test_every_public_name_resolves():
    for name in dyckgen.__all__:
        assert hasattr(dyckgen, name), name


@pytest.mark.parametrize("owner,name", [
    (cluster, "log_genfun_restricted"), (cluster, "MeanderLog"),
    (spectral, "spectral_function"), (spectral, "secular_det_recursive"),
    (exact.TPoly, "invert_q"), (exact, "Convention"),
    (exact.LSeries, "__rsub__"),
])
def test_names_without_callers_are_gone(owner, name):
    assert not hasattr(owner, name)
    assert not hasattr(dyckgen, name)
    assert name not in dyckgen.__all__


def test_convention_lives_in_the_cli():
    assert [c.value for c in cli.Convention] == [
        "step-plaquette", "double-step-diamond"]


# record type -> (a maker of equal values, one that differs, the repr
# of the first, its first field)
RECORDS = {
    "GenSpec": (lambda: GenSpec(None, 0, 0, 4),
                lambda: GenSpec(k=None, m=0, n=0, order=5),
                "GenSpec(k=None, m=0, n=0, order=4)", "k"),
    "GenFun": (lambda: GenFun(GenSpec(2, 0, 0, 2), full=LSeries(2, {0: 1})),
               lambda: GenFun(GenSpec(2, 0, 0, 2), full=LSeries(2, {2: 1})),
               "GenFun(spec=GenSpec(k=2, m=0, n=0, order=2), full="
               + repr(LSeries(2, {0: 1})) + ")", "spec"),
    "PathTable": (lambda: PathTable(1, 0, 0, 2, {(0, 0, 0): 1}),
                  lambda: PathTable(1, 0, 0, 2, {(0, 0, 0): 2}),
                  "PathTable(k=1, m=0, n=0, l_max=2, "
                  "counts={(0, 0, 0): 1})", "k"),
    "CheckResult": (lambda: CheckResult("genfun", "oracle", "k=0", True),
                    lambda: CheckResult("genfun", "oracle", "k=0", False,
                                        "first mismatch"),
                    "CheckResult(suite='genfun', name='oracle', "
                    "params='k=0', ok=True, detail='')", "suite"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_repr_equality_and_immutability(name):
    make, other, text, field = RECORDS[name]
    a, b = make(), make()
    assert repr(a) == text
    assert a == b and a is not b
    assert not a != b
    assert a != other()
    if name in ("GenFun", "PathTable"):   # an LSeries, a dict inside
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, other()}) == 2
    with pytest.raises(AttributeError):
        setattr(a, field, 1)
    with pytest.raises(AttributeError):
        a.extra = 1


@pytest.mark.parametrize("args,message", [
    ((None, -1, 0, 4), "m must be an integer >= 0, got -1"),
    ((2, 0, -1, 4), "n must be an integer >= 0, got -1"),
    ((None, 0, 0, -1), "order must be an integer >= 0, got -1"),
    ((2, 3, 0, 4), r"heights \(3, 0\) must lie in 0..2"),
    ((2, 0, 1.0, 4), "n must be an integer, got 1.0"),
    ((-1, 0, 0, 4), "ceiling must be an integer >= 0, got -1"),
])
def test_genspec_validation(args, message):
    with pytest.raises(SpecOutOfRange, match=message):
        GenSpec(*args)
    kwargs = dict(zip(("k", "m", "n", "order"), args))
    with pytest.raises(SpecOutOfRange, match=message):
        GenSpec(**kwargs)
    with pytest.raises(SpecOutOfRange, match=message):
        GenSpec(None, 0, 0, 4)._replace(**kwargs)


def test_cli_import_is_stdlib_only():
    # a fresh interpreter: the modules `import dyckgen.cli` adds must be
    # the package's own or the standard library's, and the costly
    # dataclasses and inspect, json and csv (the writers fill string
    # templates), argparse and what it loads (the parser reads a table),
    # and fractions and what it loads, stay out of the start-up path
    code = ("import sys; before = set(sys.modules); import dyckgen.cli; "
            "print('\\n'.join(sorted(set(sys.modules) - before)))")
    run = run_python("-c", code)
    assert run.returncode == 0, run.stderr
    out = run.stdout.split()
    assert "dyckgen.cli" in out
    assert "dataclasses" not in out and "inspect" not in out
    assert "json" not in out and "csv" not in out
    assert not set(out) & (ARGPARSE_MODULES | FRACTIONS_MODULES)
    foreign = [m for m in out if m != "dyckgen"
               and not m.startswith("dyckgen.")
               and m.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


# the modules every job runs: `cli` reads the spec into a GenSpec
EVERY_JOB = {"cli", "config", "exact", "genfun"}
# standard library modules that no job loads: argparse and the modules
# it imports ...
ARGPARSE_MODULES = {"argparse", "gettext", "locale"}
# ... and fractions with its own, which a job loads only through the
# cluster route, or at a value that is not an int
FRACTIONS_MODULES = {"fractions", "decimal", "numbers"}
SPEC = ("--k", "3", "--m", "0", "--n", "0", "--max-len", "6")
VERIFY_BOUNDS = ("--k-max", "2", "--len-max", "4")

# a fresh process records the package modules whose code runs: importlib
# execs a module's code object, so an audit hook sees it, and a module
# that is registered but never read does not count
RECORD_RAN = """
import json, os, sys
ran = set()
def hook(event, args):
    if event == "exec" and isinstance(args[0], type(hook.__code__)):
        path = args[0].co_filename
        if os.path.basename(os.path.dirname(path)) == "dyckgen":
            ran.add(os.path.basename(path)[:-3])
sys.addaudithook(hook)
"""

# ... runs the command in process, with stdout discarded, and prints its
# exit code, the submodules that ran and every module loaded in the end
RUN_COMMAND = RECORD_RAN + """
import io
from contextlib import redirect_stdout
from dyckgen.cli import main
with redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(ran - {"__init__"}), sorted(sys.modules)]))
"""

# (argv, submodules run beyond the command line and the genfun module,
# whether the job loads fractions)
@pytest.mark.parametrize("argv,extra,loads_fractions", [
    (("genfun",) + SPEC, set(), False),
    (("genfun",) + SPEC + ("--touchdown",), {"touchdown"}, False),
    (("genfun",) + SPEC + ("--check",), {"cluster"}, True),
    (("genfun",) + SPEC + ("--method", "cluster-exp"), {"cluster"}, True),
    # F_(-1) = F_0 = 1: no determinant is built
    (("genfun", "--k", "0", "--m", "0", "--n", "0", "--max-len", "6"),
     set(), False),
    (("table",) + SPEC + ("--touchdowns",), {"oracle"}, False),
    (("verify", "--suite", "determinants") + VERIFY_BOUNDS,
     {"spectral", "verify"}, False),
    (("verify", "--suite", "genfun") + VERIFY_BOUNDS,
     {"oracle", "verify"}, False),
    (("verify", "--suite", "duality") + VERIFY_BOUNDS, {"verify"}, False),
    (("verify", "--suite", "recursions") + VERIFY_BOUNDS, {"verify"}, False),
    (("verify", "--suite", "cluster") + VERIFY_BOUNDS,
     {"cluster", "oracle", "verify"}, True),
    (("verify", "--suite", "touchdown") + VERIFY_BOUNDS,
     {"spectral", "oracle", "touchdown", "verify"}, False),
    # the ratio route builds its F_j in genfun too
    (("genfun",) + SPEC + ("--touchdown", "--check"), {"touchdown"}, False),
], ids=["genfun", "touchdown", "check", "cluster-exp", "genfun-k0", "table",
        "verify-determinants", "verify-genfun", "verify-duality",
        "verify-recursions", "verify-cluster", "verify-touchdown",
        "touchdown-check"])
def test_a_command_runs_only_the_modules_it_uses(argv, extra,
                                                 loads_fractions):
    run = run_python("-c", RUN_COMMAND, *argv)
    assert run.returncode == 0, run.stderr
    code, ran, loaded = json.loads(run.stdout)
    assert code == 0
    assert set(ran) == EVERY_JOB | extra
    assert not set(loaded) & ARGPARSE_MODULES
    assert bool(set(loaded) & FRACTIONS_MODULES) == loads_fractions


def test_package_attributes_load_on_first_use():
    # the package attribute genfun is the function, every other
    # submodule is its module, and each public name resolves to the
    # object its defining module holds
    assert isinstance(dyckgen.genfun, types.FunctionType)
    assert dyckgen.genfun is sys.modules["dyckgen.genfun"].genfun
    assert dyckgen.verify is sys.modules["dyckgen.verify"]
    assert dyckgen.run_suites is dyckgen.verify.run_suites
    # spectral serves genfun's determinant builder, one cache for both
    assert dyckgen.spectral.fk_polynomial is dyckgen.fk_polynomial
    namespace = {}
    exec("from dyckgen import *", namespace)
    for name in dyckgen.__all__:
        assert namespace[name] is getattr(dyckgen, name), name
    assert set(dyckgen.__all__) <= set(dir(dyckgen))
    assert len(set(dyckgen.__all__)) == len(dyckgen.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        dyckgen.no_such_name
    # a reload keeps the loaded modules, and so the classes they define
    verify = sys.modules["dyckgen.verify"]
    importlib.reload(dyckgen)
    assert sys.modules["dyckgen.verify"] is verify is dyckgen.verify


def test_import_loads_no_submodule_code():
    run = run_python("-c", RECORD_RAN + "import dyckgen\n"
                     "print(json.dumps(sorted(ran - {'__init__'})))")
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == []


def test_module_run_warns_nothing():
    # cli is not registered ahead of its run: runpy would warn
    run = run_python("-W", "error", "-m", "dyckgen.cli", "genfun", *SPEC)
    assert run.returncode == 0
    assert run.stderr == ""
    assert run.stdout.startswith('{\n  "spec"')
