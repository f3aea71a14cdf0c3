"""Ladder timings of the packed kernel, the builders, the routes and
cold command-line jobs, of one checkout or of two side by side.

    python3 bench.py LABEL [--against DIR]

writes BENCH_<LABEL>.json in the current directory.  It times the
package in the `src` directory next to this file and, with --against,
that of the checkout DIR as well, imported a second time into this
process under another name, so that the two checkouts' modules and
caches live side by side.  Each row runs the sides in rounds, the order
reversed every other round, so the host's drift over minutes and any
bias of running first fall on both sides alike.  Every row runs
MIN_RUNS rounds, so that each side runs first in two of them; past
those the rounds stop at MAX_RUNS or once the row's calls on both sides
add up to BUDGET_S.  A row records each side's minimum
("s", this checkout first) and the round count ("runs"); with two sides
timed, also the ratio of the minima (this checkout over DIR, so below 1
is faster) and the first and third quartiles of the per-round ratios
("ratio_q1", "ratio_q3").  A row that one side cannot build, because a
name timed here is not there, is null on that side and has no ratio.
The file also holds each side's directory (relative to this file's),
commit and `dirty` (true when `git status --porcelain -- src bench.py`
there prints anything), the Python version and the platform.

For each ladder point (k, m, n, order) the rows are

* `PackedRing.quotient` ("divide"): F_(k-1)(zeta*theta) divided by
  F_k, the determinant route's one quotient, and `PackedRing.mul`
  ("mul"): F_(k-1)(zeta*theta) times that quotient, a sparse F_j times
  a dense series, the shape of `tilde_genfun`'s products;
* `PackedRing.unpack`: the packed excursion series that quotient is;
  beside it, `unpack_peak_ratio`, the tracemalloc peak of one unpack
  over the memory its result holds;
* `touchdown._marker_series`: the marker series assembled from the
  packed t^s parts that the marked determinant computes at the point;
* the routes, cold (every cache of the side cleared first): each entry
  of `cli.routes` at the point, the routes `genfun --check` compares,
  named by its key, and where LADDER says so each entry of the marked
  table, named "marked " and its key (elsewhere the marked rows are left
  out and the marked fixed rows are null, since they multiply out the
  dense powers of the arch there); `cluster-exp` is null at the points
  of CLUSTER_SKIP;
* the builders, cold: `fk_polynomial` at the spec's ceiling, and at a
  finite ceiling `touchdown.tilde_secular_toprow` (the marked
  determinant from the exclusion sums) at the ceiling and the order;
* the write phase: `cli._emit` of the `determinant` entry's answer,
  computed beforehand, into a stdout that throws the text away, as JSON
  ("write_json") and CSV ("write_csv") of the plain answer, and as JSON
  of the marked one ("write_marked_json").

Kernel operands are built once per point and side, outside the timed
calls, by `genfun.packed_fk` in the spec's own ring
(`GenSpec.packed_ring`, to `GenSpec.series_order`).

The "cli" rows time the cold processes of CLI_ROWS, each run a fresh
interpreter with PYTHONDONTWRITEBYTECODE=1, as a benchmark job runs, on
a copy of each side's package with no bytecode cache, so that every run
compiles the modules it loads from source.  `python -c pass` is the
interpreter and `site`, `verify --suite duality` is almost all start-up,
and `genfun_csv_400` writes 0.2 M terms, so the write phase is a
visible share of its job.
"""

import gc
import importlib.util
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from functools import cache, partial

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "src"))

# (k, m, n, order, whether the marked routes are timed there): k = inf at
# orders 32..120 and 160 (at 66 the slots first pass 64 bits), the
# ceilings 12 (the longest packed ints) and 4 (the narrowest slots for
# their order) at orders 80..400, endpoints 2 -> 5, where the decode adds
# the endpoint prefactor, and two points the shape of a `sweep` job
LADDER = ([(None, 0, 0, order, True)
           for order in (32, 48, 64, 66, 80, 100, 120)]
          + [(None, 0, 0, 160, False)]
          + [(12, 0, 0, 80, True), (12, 0, 0, 200, False),
             (12, 0, 0, 400, False)]
          + [(4, 0, 0, 80, True), (4, 0, 0, 200, False),
             (4, 0, 0, 400, False), (None, 2, 5, 48, True)]
          + [(4, 0, 0, 32, True), (8, 1, 4, 32, True)])
# ladder points where one cold call of the cluster-exp route takes most of a
# minute or more: 54 s at (12, 0, 0, 200), 152 s at (4, 0, 0, 400)
CLUSTER_SKIP = {(12, 0, 0, 200), (12, 0, 0, 400), (4, 0, 0, 400),
                (None, 0, 0, 160)}
# (row name, interpreter arguments) of the cold-process rows
CLI_ROWS = (
    ("python", ["-c", "pass"]),
    ("import_cli", ["-c", "import dyckgen.cli"]),
    ("genfun", ["-m", "dyckgen.cli", "genfun", "--k", "inf", "--m", "0",
                "--n", "0", "--max-len", "24"]),
    ("table", ["-m", "dyckgen.cli", "table", "--k", "4", "--m", "0",
               "--n", "0", "--max-len", "24", "--touchdowns"]),
    ("touchdown", ["-m", "dyckgen.cli", "genfun", "--k", "4", "--m", "0",
                   "--n", "0", "--max-len", "24", "--touchdown"]),
    ("verify", ["-m", "dyckgen.cli", "verify", "--suite", "genfun"]),
    ("verify_duality", ["-m", "dyckgen.cli", "verify", "--suite",
                        "duality"]),
    ("genfun_csv_400", ["-m", "dyckgen.cli", "genfun", "--k", "12", "--m",
                        "0", "--n", "0", "--max-len", "400", "--format",
                        "csv"]),
)
MIN_RUNS = 4
MAX_RUNS = 20
BUDGET_S = 3.0


def load(root, name):
    """The package of the checkout at root, imported as `name`.  Its
    modules import each other relatively, so each loads under that name,
    with caches of its own."""
    init = os.path.join(root, "src", "dyckgen", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def mod(package, name):
    """The submodule `name` of the package imported as `package`."""
    return importlib.import_module(f"{package}.{name}")


def clear_caches(package):
    """Empty every functools cache of every loaded module of the package
    imported as `package`, so that adding or deleting a cache needs no
    edit here.  Reading a lazily registered module's names loads it."""
    for name, module in list(sys.modules.items()):
        if name.startswith(package + "."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def wall(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def pair(what, jobs):
    """The row `what` of jobs, one (fn, before) or None per side, printed:
    rounds of one fn() per timed side, the order reversed every other
    round, before() (if any) run first, outside the timed span, until
    MAX_RUNS rounds or, past MIN_RUNS rounds, until the calls add up to
    BUDGET_S."""
    timed = [i for i, job in enumerate(jobs) if job]
    times = [[] for _ in jobs]
    rounds = 0
    while timed and rounds < MAX_RUNS and (
            rounds < MIN_RUNS or sum(map(sum, times)) < BUDGET_S):
        for i in timed[::-1] if rounds % 2 else timed:
            fn, before = jobs[i]
            if before:
                before()
            times[i].append(wall(fn))
        rounds += 1
    row = {"s": [round(min(t), 6) if t else None for t in times],
           "runs": rounds}
    if len(timed) == 2:
        ratios = [a / b for a, b in zip(*times)]
        q1, _, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                     if rounds > 1 else ratios * 3)
        row.update(ratio=round(min(times[0]) / min(times[1]), 4),
                   ratio_q1=round(q1, 4), ratio_q3=round(q3, 4))
    print(what, row, flush=True)
    return row


def peak_ratio(fn):
    """tracemalloc peak of one fn() over the memory its result holds."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()  # noqa: F841 - held while the memory is read
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return round(peak / held, 3)


def marker_args(touchdown, route):
    """The (ring, cols, spec) that the marked route `route` passes to
    _marker_series, and the answer it returns."""
    seen = []
    real = touchdown._marker_series
    touchdown._marker_series = lambda *args: seen.append(args) or real(*args)
    try:
        full = route()
    finally:
        touchdown._marker_series = real
    return seen[0], full


class Discard(io.TextIOBase):
    """A stdout that throws away the text written to it."""

    def write(self, text):
        return len(text)


def write_job(cli, spec, fmt, full):
    """The write phase of `genfun` at spec in format fmt: cli._emit of
    the answer series `full`, stdout a Discard."""
    k, m, n, order = spec
    args = cli.parse_args(
        ["genfun", "--k", "inf" if k is None else str(k), "--m", str(m),
         "--n", str(n), "--max-len", str(order), "--format", fmt])
    _, echo = cli._parse_spec_flags(args)

    def run():
        out, sys.stdout = sys.stdout, Discard()
        try:
            cli._emit(args, echo, "determinant", full)
        finally:
            sys.stdout = out
    return run


def jobs(package, k, m, n, order, with_tilde):
    """(facts, rows) of one side at the point: facts about its packed
    operands, and each row's (fn, before), None where the row is not
    timed at the point or the side cannot build it."""
    g, td, cli = (mod(package, name)
                  for name in ("genfun", "touchdown", "cli"))
    try:
        spec = g.GenSpec(k, m, n, order)
        ring, L, ceiling = spec.packed_ring, spec.series_order, spec.ceiling
        fk = g.packed_fk(ring, ceiling, L)
        upper = g.packed_fk(ring, ceiling - 1, L, 1)
        packed = ring.quotient(upper, fk)
    except AttributeError:
        return {}, {}
    # the route tables: none on a side whose cli predates them
    tables = ([cli.routes(spec), cli.routes(spec, True)][:1 + with_tilde]
              if hasattr(cli, "routes") else [])
    skip = {"cluster-exp"} if (k, m, n, order) in CLUSTER_SKIP else set()
    # each determinant entry's answer, computed once for the rows it feeds
    plain = cache(lambda: cli.routes(spec)["determinant"]())
    marked = cache(lambda: marker_args(
        td, cli.routes(spec, True)["determinant"]))
    makers = {  # name -> (cold, timed at the point, maker of fn)
        "unpack": (False, True, lambda: partial(ring.unpack, packed, L)),
        "marker_series": (False, with_tilde, lambda: partial(
            td._marker_series, *marked()[0])),
        "divide": (False, True, lambda: partial(ring.quotient, upper, fk)),
        "mul": (False, True, lambda: partial(ring.mul, upper, packed)),
        **{prefix + name: (True, name not in skip, lambda fn=fn: fn)
           for prefix, table in zip(("", "marked "), tables)
           for name, fn in table.items()},
        "fk_polynomial": (True, True, lambda: partial(
            g.fk_polynomial, ceiling)),
        "tilde_secular_toprow": (True, k is not None, lambda: partial(
            td.tilde_secular_toprow, ceiling, order)),
        "write_json": (False, True, lambda: write_job(
            cli, spec, "json", plain())),
        "write_csv": (False, True, lambda: write_job(
            cli, spec, "csv", plain())),
        "write_marked_json": (False, with_tilde, lambda: write_job(
            cli, spec, "json", marked()[1])),
    }
    clear = partial(clear_caches, package)
    rows = {}
    for name, (cold, when, make) in makers.items():
        try:
            rows[name] = (make(), clear if cold else None) if when else None
        except AttributeError:
            rows[name] = None
    facts = {"width": ring.width, "entries": len(packed),
             "max_entry_bits": max(v.bit_length() for v in packed),
             "unpack_peak_ratio": peak_ratio(partial(ring.unpack, packed, L))}
    return facts, rows


def point(packages, k, m, n, order, with_tilde):
    """The ladder point's record: each fact and row, one entry per
    side."""
    sides = [jobs(package, k, m, n, order, with_tilde)
             for package in packages]
    out = {"k": k, "m": m, "n": n, "order": order}
    for fact in dict.fromkeys(f for facts, _ in sides for f in facts):
        out[fact] = [facts.get(fact) for facts, _ in sides]
    for name in dict.fromkeys(r for _, rows in sides for r in rows):
        out[name] = pair(f"({k}, {m}, {n}, {order}) {name}",
                         [rows.get(name) for _, rows in sides])
    return out


def cli_rows(roots):
    """The cold-process rows, each side run on a copy of its src/
    without __pycache__."""
    with tempfile.TemporaryDirectory() as tmp:
        envs = []
        for i, root in enumerate(roots):
            src = os.path.join(tmp, str(i))
            shutil.copytree(os.path.join(root, "src"), src,
                            ignore=shutil.ignore_patterns("__pycache__"))
            envs.append(dict(os.environ, PYTHONPATH=src,
                             PYTHONDONTWRITEBYTECODE="1"))
        rows = []
        for name, args in CLI_ROWS:
            run = partial(subprocess.run, [sys.executable, *args],
                          stdout=subprocess.DEVNULL, check=True)
            rows.append({"name": name, "argv": args, **pair(
                f"cli {name}", [(partial(run, env=env), None)
                                for env in envs])})
    return rows


def checkout(root):
    """The side's directory, relative to this file's, its commit, and
    whether its timed files differ from that commit."""
    def git(*args):
        return subprocess.run(["git", "-C", root, *args],
                              capture_output=True, text=True).stdout.strip()
    return {"dir": os.path.relpath(root, HERE),
            "commit": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--", "src",
                              "bench.py"))}


def main(argv):
    if len(argv) not in (1, 3) or argv[1:2] not in ([], ["--against"]):
        sys.exit(__doc__)
    roots = [HERE] + [os.path.abspath(root) for root in argv[2:]]
    packages = ["dyckgen"] + [load(root, "dyckgen_against").__name__
                              for root in roots[1:]]
    doc = {"label": argv[0], "sides": [checkout(root) for root in roots],
           "python": platform.python_version(),
           "platform": platform.platform(), "cpus": os.cpu_count(),
           "min_runs": MIN_RUNS, "max_runs": MAX_RUNS,
           "budget_s": BUDGET_S,
           "cli": cli_rows(roots),
           "ladder": [point(packages, *p) for p in LADDER]}
    with open(f"BENCH_{argv[0]}.json", "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
