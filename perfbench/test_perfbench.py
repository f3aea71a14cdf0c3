"""Self-tests for the benchmark's own arithmetic and plumbing.

    python3 -m pytest perfbench
"""

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import procs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# -- percentile rule ------------------------------------------------------

@pytest.mark.parametrize("n, want", [(100, 90), (111, 90), (1000, 90),
                                     (99, 89), (50, 80), (20, 50),
                                     (10, 0)])
def test_tail_percentile_keeps_ten_samples_beyond(n, want):
    samples = [float(i) for i in range(n)]
    p, value = stats.tail_percentile(samples)
    assert p == want
    assert sum(x > value for x in samples) >= 10 or p == 0
    if p < 90:
        assert stats.beyond(n, p + 1) < 10


def test_tail_percentile_value_is_nearest_rank():
    samples = list(range(1, 101))[::-1]     # order does not matter
    assert stats.tail_percentile(samples) == (90, 90)
    assert stats.tail_percentile(samples, want=50) == (50, 50)


# -- self and total time --------------------------------------------------

def _span(name, start, end, parent):
    return (name, start, end, parent, 0)


def test_self_time_nested_children():
    spans = [_span("a", 0.0, 10.0, -1),
             _span("b", 1.0, 5.0, 0),
             _span("c", 2.0, 3.0, 1)]
    agg = stats.aggregate(spans)
    assert agg["a"]["self_s"] == pytest.approx(6.0)   # grandchild not twice
    assert agg["b"]["self_s"] == pytest.approx(3.0)
    assert agg["c"]["self_s"] == pytest.approx(1.0)
    assert agg["a"]["total_s"] == pytest.approx(10.0)


def test_self_time_back_to_back_children():
    spans = [_span("a", 0.0, 10.0, -1),
             _span("b", 1.0, 3.0, 0),
             _span("b", 3.0, 6.0, 0),
             _span("c", 8.0, 9.0, 0)]
    agg = stats.aggregate(spans)
    assert agg["a"]["self_s"] == pytest.approx(4.0)
    assert agg["b"] == {"calls": 2, "total_s": pytest.approx(5.0),
                        "self_s": pytest.approx(5.0)}


def test_covered_merges_overlaps_and_clips():
    assert stats.covered(0, 10, [(1, 4), (3, 6), (9, 12)]) == 6
    assert stats.covered(0, 10, []) == 0


def test_total_time_counts_recursion_once():
    spans = [_span("f", 0.0, 10.0, -1),
             _span("f", 1.0, 4.0, 0),
             _span("g", 5.0, 7.0, 0)]
    agg = stats.aggregate(spans)
    assert agg["f"]["calls"] == 2
    assert agg["f"]["total_s"] == pytest.approx(10.0)
    assert agg["f"]["self_s"] == pytest.approx(5.0 + 3.0)


def test_dropped_span_time_stays_with_parent():
    spans = [_span("a", 0.0, 4.0, -1), _span(None, 1.0, 2.0, 0)]
    assert stats.aggregate(spans) == {
        "a": {"calls": 1, "total_s": 4.0, "self_s": 4.0}}


# -- speed scaling ----------------------------------------------------------

def test_speed_factor_is_mean_of_the_bracketing_references():
    assert speed.factors([0.1, 0.3, 0.2], 0.1) == pytest.approx([2.0, 2.5])
    assert speed.factors([0.1], 0.1) == []


class _FixedBench:
    """Rounds of two jobs and `probes` set-up probes with fixed times."""

    def round(self, kind, jobs, probes):
        return run.Round(peak_rss_mb=10.0, job_s=[1.0, 2.0],
                         job_cpu_s=[0.5, 2.0], job_f=[2.0, 1.0],
                         job_cpu_f=[1.0, 4.0],
                         setup_s=[0.3] * probes, setup_f=[1.5] * probes)


def test_timed_run_divides_every_time_by_its_speed_factor():
    values, correct, attempted, failed, notes = run.timed_run(
        _FixedBench(), "cli", [["a"], ["b"]], 3)
    assert correct and (attempted, failed) == (6, 0)
    assert values["wall_s"] == pytest.approx(1.0 / 2.0 + 2.0)
    assert values["cpu_s"] == pytest.approx(0.5 + 2.0 / 4.0)
    assert values["job_p50_s"] == pytest.approx((0.5 + 2.0) / 2)
    assert values["setup_s"] == pytest.approx(0.2)
    assert values["peak_rss_mb"] == 10.0
    assert any(n.startswith("raw (unscaled) setup_s 0.3, wall_s 3,")
               for n in notes)


# -- job lists --------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_jobs(name):
    make = workloads.WORKLOADS[name].jobs
    assert make(7) == make(7)
    assert make(7) != make(8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_jobs_come_from_the_golden_pool(name):
    make, pool = workloads.WORKLOADS[name].jobs, workloads.WORKLOADS[name].pool
    with open(os.path.join(HERE, "goldens.json")) as f:
        goldens = json.load(f)["digests"]
    keys = {" ".join(map(str, job)) for job in pool()}
    assert keys <= set(goldens)
    for seed in range(20):
        jobs = make(seed)
        assert {" ".join(map(str, job)) for job in jobs} <= keys
        assert len(jobs) == len(make(0))


# `unbounded` runs two rounds, 48 jobs, so its job_p90_s is a p79 (see
# workloads.py).
@pytest.mark.parametrize("name, pct", [("unbounded", 79), ("sweep", 90),
                                       ("crosscheck", 90)])
def test_a_run_has_ten_samples_beyond_its_tail(name, pct):
    w = workloads.WORKLOADS[name]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    rounds = max(1, int(seconds // w.round_s))
    samples = [float(i) for i in range(rounds * len(w.jobs(0)))]
    assert stats.tail_percentile(samples)[0] == pct


# -- tracer -----------------------------------------------------------------

class _Ring:
    def __init__(self, v):
        self.v = v

    def __mul__(self, other):
        if not isinstance(other, _Ring):
            return NotImplemented
        return _Ring(self.v * other.v)

    __rmul__ = __mul__


def test_wrapper_returns_not_implemented_and_drops_span():
    t = tracer.Tracer()
    traced = t.wrap("ring.mul", _Ring.__mul__)
    assert traced(_Ring(2), 3) is NotImplemented
    assert traced(_Ring(2), _Ring(3)).v == 6
    assert list(t.name_ids) == [tracer.DROPPED, 0]


def test_rebind_reaches_every_importer():
    def f():
        return 1
    a = types.ModuleType("a")
    b = types.ModuleType("b")
    a.f = b.g = f
    b.table = {"x": f}
    t = tracer.Tracer()
    w = t.wrap("f", f)
    tracer._rebind([a, b], f, w)
    assert a.f is w and b.g is w and b.table["x"] is w
    assert a.f() == 1 and len(t.starts) == 1


def test_dump_and_load_round_trip(tmp_path):
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda: 1)
    outer = t.wrap("outer", lambda: inner() + inner())
    t.job = 3
    assert outer() == 2
    t.dump(str(tmp_path / "s"), {"main_entered": 1.5})
    meta, spans = tracer.load(str(tmp_path / "s"))
    assert meta["main_entered"] == 1.5
    assert [(s[0], s[3], s[4]) for s in spans] == [
        ("outer", -1, 3), ("inner", 0, 3), ("inner", 0, 3)]


def test_every_per_layer_metric_has_a_source():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [m["name"] for m in json.load(f)["per_layer"]]
    for name in names:
        span, stat = name.rsplit(".", 1)
        assert (name in tracer.COUNTERS
                or name in ("cli.startup_s", "trace.overhead_s")
                or (span in tracer.SPANS and stat in tracer.SPAN_STATS)), name


# -- job processes ----------------------------------------------------------

def test_job_result_and_timeout(tmp_path):
    env = procs.job_env(ROOT)
    out = str(tmp_path / "out")
    res = procs.run(["-c", "print('hi')"], env, out, 10)
    assert res.ok and res.cpu_s >= 0 and res.peak_rss_mb > 0
    assert open(out).read() == "hi\n"
    slow = procs.run(["-c", "import time; time.sleep(30)"], env, out, 0.2)
    assert slow.exit_code is None and not slow.ok and slow.wall_s < 10


def test_job_env_never_lifts_the_guard(monkeypatch):
    monkeypatch.setenv("DYCKGEN_GUARD_OVERRIDE", "1")
    env = procs.job_env(ROOT)
    assert "DYCKGEN_GUARD_OVERRIDE" not in env
    assert env["PYTHONPATH"] == os.path.join(ROOT, "src")


def test_traced_cli_output_is_byte_identical(tmp_path):
    env = procs.job_env(ROOT)
    argv = ["genfun", "--k", "3", "--m", "0", "--n", "0", "--max-len", "8",
            "--check"]
    plain = procs.run(["-m", "dyckgen.cli"] + argv, env,
                      str(tmp_path / "plain"), 60)
    spans = str(tmp_path / "spans")
    traced = procs.run([os.path.join(HERE, "traced_cli.py"), spans, "--"]
                       + argv, env, str(tmp_path / "traced"), 60)
    assert plain.ok and traced.ok
    assert (procs.file_digest(plain.stdout_path)
            == procs.file_digest(traced.stdout_path))
    meta, recorded = tracer.load(spans)
    agg = stats.aggregate(recorded)
    for name in ("cli.cmd_genfun", "genfun.genfun", "exact.QLaurent.mul",
                 "cluster.genfun_via_cluster", "genfun.continued_fraction",
                 "spectral.fk_polynomial"):
        assert agg[name]["calls"] >= 1, name
    assert meta["counts"]["cluster.c2.calls"] > 0
    assert meta["counts"]["exact.QLaurent.mul.term_products"] > 0
    assert meta["caches"]["spectral.fk_polynomial.misses"] > 0
