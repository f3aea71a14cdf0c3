"""Fixtures and helpers shared by the test modules: the one Hypothesis
profile, the spec strategy and the fresh-interpreter runner."""

import os
import subprocess
import sys

import pytest
from hypothesis import settings
from hypothesis import strategies as st

import dyckgen
from dyckgen import cli
from dyckgen.config import GuardExceeded
from dyckgen.genfun import GenSpec
from dyckgen.oracle import enumerate_paths, genfun_from_table

# Every property test draws the same examples on every run, so that the
# result of a run depends on the tree alone; a @settings keeps only its
# max_examples.
settings.register_profile("dyckgen", deadline=None, derandomize=True)
settings.load_profile("dyckgen")

SRC = os.path.dirname(os.path.dirname(dyckgen.__file__))


@st.composite
def specs(draw, k_max, order_max, ordered=False):
    """GenSpecs of ceiling None or 0..k_max, heights up to min(k, 6) and
    order up to order_max; with `ordered`, n is drawn first and m <= n."""
    k = draw(st.sampled_from([None, *range(k_max + 1)]))
    heights = st.integers(0, 6 if k is None else min(k, 6))
    if ordered:
        n = draw(heights)
        m = draw(st.integers(0, n))
    else:
        m, n = draw(heights), draw(heights)
    return GenSpec(k, m, n, draw(st.integers(0, order_max)))


def run_python(*args, path=(), env=None, **kwargs):
    """Run a fresh interpreter on args, with the package's source and the
    directories `path` on its import path and the variables `env` set
    over the caller's; the CompletedProcess, its output as text."""
    env = {**os.environ, **(env or {}),
           "PYTHONPATH": os.pathsep.join([SRC, *path])}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, **kwargs)


def clear_caches():
    """Empty every functools cache of every dyckgen module, so that a
    cache added anywhere in the package needs no edit here."""
    for name, module in list(sys.modules.items()):
        if name.startswith("dyckgen."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@pytest.fixture
def cold_caches():
    """Every builder cache empty before the test, so that no clean
    cached value hides a fault, and after it, so that no faulty one
    outlives it."""
    clear_caches()
    yield
    clear_caches()


def assert_routes_match_oracle(spec):
    """Run every entry of cli.routes(spec) and cli.routes(spec,
    marked=True) and assert that each answers spec with the
    enumerator's plain or marked series, so that an entry added to the
    table is checked on every grid that calls this, with no test edit.
    Past the enumerator's length guard the table's determinant entry is
    the reference instead.  Returns the plain and the marked reference."""
    try:
        table = enumerate_paths(spec.ceiling, spec.m, spec.n, spec.order)
    except GuardExceeded:
        table = None
    references = []
    for marked in (False, True):
        answers = {name: route()
                   for name, route in cli.routes(spec, marked).items()}
        assert answers, f"no route answers {spec} (marked={marked})"
        reference = (answers["determinant"] if table is None else
                     genfun_from_table(table, with_touchdowns=marked))
        for name, answer in answers.items():
            assert answer == reference, f"{name} (marked={marked}) on {spec}"
        references.append(reference)
    return references


def with_prefactor(spec, series):
    """The answer rebuilt from a series part: series to spec.order,
    times zeta^step_shift theta^area_shift, by series operations."""
    series = series.resized(spec.order).shift_step(spec.step_shift)
    return series.map_coeffs(lambda v: v.shift(spec.area_shift))
