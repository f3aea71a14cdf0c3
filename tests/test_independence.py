"""Route independence: the routes each `genfun --check` form compares,
read from cli.routes, must not share the arithmetic they check.

Each route runs with every builder cache empty under sys.setprofile,
which collects the package functions it calls (a comprehension counts
as the function it sits in).  Some pair of a form's routes must share
nothing beyond ALLOWED, and README.md's sharing table must list what
each pair shares beyond it."""

import os
import re
import sys
from itertools import combinations

import pytest
from conftest import clear_caches

import dyckgen
from dyckgen.cli import routes
from dyckgen.genfun import GenSpec

PACKAGE = os.path.dirname(dyckgen.__file__)
README = os.path.join(os.path.dirname(os.path.dirname(PACKAGE)),
                      "README.md")

# what routes may share besides the argument checks (every function of
# config) and the GenSpec methods: the constructors, the sum that
# builds a series from its terms, and the slot count
ALLOWED = {"LSeries.__init__", "_SparsePoly._wrap", "_SparsePoly.coerce",
           "_SparsePoly.zero", "_is_rational", "_norm",
           "_SparsePoly.__add__", "_largest_count"}

# the specs of the census: ceilings 4 and unbounded, heights (0, 0) and
# (1, 2), length 12
SPECS = [(k, m, n, 12) for k in (4, None) for m, n in ((0, 0), (1, 2))]


def called(route):
    """(module, qualified name) of every package function that route()
    calls, its caches empty."""
    seen = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and os.path.dirname(code.co_filename) == PACKAGE:
            module = os.path.basename(code.co_filename)[:-3]
            seen.add((module, code.co_qualname.split(".<locals>")[0]))

    clear_caches()
    sys.setprofile(profile)
    try:
        route()
    finally:
        sys.setprofile(None)
        clear_caches()
    return seen


def beyond_allowed(functions):
    """The qualified names of functions outside the allowlist, the
    route table's own calls (cli.routes) aside."""
    return {name for module, name in functions
            if module != "config" and not name.startswith("GenSpec.")
            and name not in ALLOWED and (module, name) != ("cli", "routes")}


def shared(touchdown, spec):
    """{(route, route): the functions both call} for each pair of the
    form's routes at spec."""
    calls = {name: called(route)
             for name, route in routes(GenSpec(*spec), touchdown).items()}
    return {(a, b): calls[a] & calls[b] for a, b in combinations(calls, 2)}


FORMS = [pytest.param(False, id="genfun"),
         pytest.param(True, id="touchdown", marks=pytest.mark.xfail(
             strict=True, reason="ROADMAP item 11: the two marked routes "
             "share the packed kernel, packed_fk, fk_polynomial, "
             "_geometric and _marker_series"))]


@pytest.mark.parametrize("touchdown", FORMS)
@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_some_pair_of_routes_shares_only_the_allowlist(touchdown, spec):
    pairs = shared(touchdown, spec)
    assert any(not beyond_allowed(common) for common in pairs.values()), {
        pair: sorted(beyond_allowed(common))
        for pair, common in pairs.items()}


def readme_table():
    """{(touchdown, (route, route)): the helpers named} from README.md's
    table of what the --check routes share."""
    with open(README) as f:
        text = f.read()
    table = {}
    for form, routes, helpers in re.findall(
            r"^\| (`genfun[^|]*`[^|]*) \| ([^|]+) \| ([^|]+) \|$", text,
            re.MULTILINE):
        pair = tuple(r.strip() for r in routes.split(","))
        table["--touchdown" in form, pair] = set(
            re.findall(r"`([^`]+)`", helpers))
    return table


def test_readme_sharing_table_matches_the_census():
    census = {}
    for touchdown in (False, True):
        for spec in SPECS:
            for pair, common in shared(touchdown, spec).items():
                census.setdefault((touchdown, pair), set()).update(
                    beyond_allowed(common))
    assert readme_table() == census
