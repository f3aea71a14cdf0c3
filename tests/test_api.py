"""The package surface: one ceiling check behind every entry point that
takes a ceiling, and public names that all resolve."""

import pytest

import dyckgen
from dyckgen import cli, cluster, exact, spectral
from dyckgen.cluster import (degree_check, degree_formula, log_secular,
                             p_restricted)
from dyckgen.config import SpecOutOfRange
from dyckgen.genfun import GenSpec, continued_fraction, genfun
from dyckgen.oracle import enumerate_paths, max_area
from dyckgen.spectral import (fk_polynomial, grand_partition_exclusion,
                              secular_det_direct, secular_det_tilde,
                              secular_matrix)
from dyckgen.touchdown import (tilde_genfun, tilde_genfun_openend,
                               tilde_secular, tilde_secular_direct,
                               tilde_secular_toprow)

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


def test_openend_checks_the_order_before_building_a_series():
    with pytest.raises(SpecOutOfRange, match="order must be >= 0"):
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
])
def test_names_without_callers_are_gone(owner, name):
    assert not hasattr(owner, name)
    assert not hasattr(dyckgen, name)
    assert name not in dyckgen.__all__


def test_convention_lives_in_the_cli():
    assert [c.value for c in cli.Convention] == [
        "step-plaquette", "double-step-diamond"]
