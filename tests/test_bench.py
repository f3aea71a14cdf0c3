"""The timing harness bench.py: the pairing of two sides in rounds, the
second import of a checkout under another name, a one-point run over
two sides, and the `dirty` flag of a side."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench", os.path.join(ROOT, "bench.py"))
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _forget(name):
    for key in [key for key in sys.modules
                if key == name or key.startswith(name + ".")]:
        del sys.modules[key]


@pytest.fixture
def stub_wall(monkeypatch):
    """Stub jobs: a job's fn is a label, and wall() records it and
    returns the next of its given times."""
    calls, costs = [], {}

    def wall(fn):
        calls.append(fn)
        return next(costs[fn])
    monkeypatch.setattr(bench, "wall", wall)
    return calls, costs


class TestPair:
    def test_sides_alternate_first_and_run_equally_often(
            self, stub_wall, monkeypatch):
        calls, costs = stub_wall
        costs.update(a=iter([1e-3] * 6), b=iter([2e-3] * 6))
        monkeypatch.setattr(bench, "MAX_RUNS", 6)
        row = bench.pair("stub", [("a", None), ("b", None)])
        assert calls == ["a", "b", "b", "a"] * 3
        assert row == {"s": [0.001, 0.002], "runs": 6, "ratio": 0.5,
                       "ratio_q1": 0.5, "ratio_q3": 0.5}

    def test_before_runs_ahead_of_its_own_side_only(
            self, stub_wall, monkeypatch):
        calls, costs = stub_wall
        costs.update(a=iter([1e-3] * 2), b=iter([1e-3] * 2))
        monkeypatch.setattr(bench, "MAX_RUNS", 2)
        bench.pair("stub", [("a", lambda: calls.append("clear a")),
                            ("b", None)])
        assert calls == ["clear a", "a", "b", "b", "clear a", "a"]

    def test_rounds_stop_at_the_budget(self, stub_wall, monkeypatch):
        calls, costs = stub_wall
        costs.update(a=iter([1.0] * 9), b=iter([1.0] * 9))
        monkeypatch.setattr(bench, "BUDGET_S", 3.0)
        row = bench.pair("stub", [("a", None), ("b", None)])
        assert row["runs"] == 2 and calls == ["a", "b", "b", "a"]

    def test_quartiles_are_of_the_per_round_ratios(
            self, stub_wall, monkeypatch):
        calls, costs = stub_wall
        costs.update(a=iter([1.0, 2.0, 3.0, 4.0]), b=iter([1.0] * 4))
        monkeypatch.setattr(bench, "BUDGET_S", 100.0)
        monkeypatch.setattr(bench, "MAX_RUNS", 4)
        row = bench.pair("stub", [("a", None), ("b", None)])
        assert (row["ratio"], row["ratio_q1"], row["ratio_q3"]) == (
            1.0, 1.75, 3.25)

    def test_a_side_without_the_row_is_null_and_has_no_ratio(
            self, stub_wall, monkeypatch):
        calls, costs = stub_wall
        costs.update(b=iter([1e-3] * 3))
        monkeypatch.setattr(bench, "MAX_RUNS", 3)
        assert bench.pair("stub", [None, ("b", None)]) == {
            "s": [None, 0.001], "runs": 3}
        assert calls == ["b"] * 3
        assert bench.pair("stub", [None, None]) == {
            "s": [None, None], "runs": 0}

    def test_one_side_has_no_ratio(self, stub_wall):
        calls, costs = stub_wall
        costs.update(a=iter([1e-3] * bench.MAX_RUNS))
        assert bench.pair("stub", [("a", None)]) == {
            "s": [0.001], "runs": bench.MAX_RUNS}


@pytest.fixture(scope="module")
def twin():
    bench.load(ROOT, "dyckgen_twin")
    yield "dyckgen_twin"
    _forget("dyckgen_twin")


class TestTwin:
    def test_modules_and_caches_are_its_own(self, twin):
        for name in ("genfun", "touchdown", "cli"):
            own, other = bench.mod(twin, name), bench.mod("dyckgen", name)
            assert own is not other
            assert own.__name__ == f"{twin}.{name}"
        assert (bench.mod(twin, "genfun").fk_polynomial
                is not bench.mod("dyckgen", "genfun").fk_polynomial)

    def test_same_answer_as_this_checkout(self, twin):
        answers = [bench.mod(package, "genfun").genfun(
            bench.mod(package, "genfun").GenSpec(3, 1, 2, 12)).full_series()
            for package in ("dyckgen", twin)]
        assert type(answers[0]) is not type(answers[1])
        own, other = ([(l, v.terms()) for l, v in answer.nonzero_terms()]
                      for answer in answers)
        assert own == other and own

    def test_clearing_a_side_leaves_the_other_cached(self, twin):
        for package in ("dyckgen", twin):
            bench.mod(package, "genfun").fk_polynomial(3)
        bench.clear_caches(twin)
        assert bench.mod(
            twin, "genfun").fk_polynomial.cache_info().currsize == 0
        assert bench.mod(
            "dyckgen", "genfun").fk_polynomial.cache_info().currsize > 0

    def test_a_name_the_side_lacks_leaves_its_rows_out(
            self, twin, monkeypatch):
        monkeypatch.delattr(bench.mod(twin, "touchdown"),
                            "tilde_secular_toprow")
        _, rows = bench.jobs(twin, 4, 0, 0, 8, True)
        assert rows.pop("tilde_secular_toprow") is None
        assert all(rows.values())
        monkeypatch.delattr(bench.mod(twin, "genfun").GenSpec, "packed_ring")
        assert bench.jobs(twin, 4, 0, 0, 8, True) == ({}, {})


def test_importing_the_script_loads_no_second_package():
    out = subprocess.run(
        [sys.executable, "-c", "import bench, sys; print(sorted({name.split("
         "'.')[0] for name in sys.modules if 'dyckgen' in name} - "
         "{'dyckgen'}))"],
        cwd=ROOT, capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1")).stdout
    assert out.strip() == "[]"


def test_one_point_over_two_sides(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "LADDER", [(4, 0, 0, 8, True)])
    monkeypatch.setattr(bench, "CLI_ROWS", bench.CLI_ROWS[2:3])
    monkeypatch.setattr(bench, "MAX_RUNS", 1)
    monkeypatch.chdir(tmp_path)
    try:
        bench.main(["smoke", "--against", ROOT])
    finally:
        _forget("dyckgen_against")
    with open(tmp_path / "BENCH_smoke.json") as f:
        doc = json.load(f)
    assert [side["dir"] for side in doc["sides"]] == [".", "."]
    point, = doc["ladder"]
    rows = [doc["cli"][0]] + [row for row in point.values()
                              if isinstance(row, dict)]
    assert len(rows) == 1 + 14
    for row in rows:
        assert row["runs"] == 1 and None not in row["s"]
        assert len(row["s"]) == 2 and row["ratio"] > 0
    assert len(point["width"]) == 2


@pytest.mark.parametrize("argv", [
    [], ["x", "y"], ["x", "--against"], ["x", "--against", "a", "b"],
    ["--compare", "old.json", "new.json"]])
def test_bad_arguments_exit_with_the_usage(argv):
    with pytest.raises(SystemExit) as info:
        bench.main(argv)
    assert info.value.code == bench.__doc__


def test_dirty_follows_untracked_files_under_src(tmp_path):
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t",
                        "-c", "user.email=t@example.com", "-c",
                        "commit.gpgsign=false", *args],
                       check=True, capture_output=True)
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text("x = 1\n")
    (tmp_path / "README.md").write_text("docs\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "seed")
    side = bench.checkout(str(tmp_path))
    assert len(side["commit"]) == 40 and not side["dirty"]
    (tmp_path / "README.md").write_text("docs only\n")
    assert not bench.checkout(str(tmp_path))["dirty"]
    (tmp_path / "src" / "newmod.py").write_text("y = 2\n")
    assert bench.checkout(str(tmp_path))["dirty"]
