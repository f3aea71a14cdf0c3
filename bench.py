"""Ladder timings of the packed kernel, the builders, the routes and
cold command-line jobs.

    python3 bench.py LABEL
    python3 bench.py --compare OLD.json NEW.json

The first form writes BENCH_<LABEL>.json in the current directory.  The
file holds the commit of the checkout this script sits in (with `dirty`
true when its tracked files differ from that commit), the Python version
and the platform, and for each ladder point (k, m, n, order) the minimum
wall time over repeated runs of

* `PackedRing.quotient` ("divide"): F_(k-1)(zeta*theta) divided by
  F_k, the determinant route's one quotient;
* `PackedRing.quotient` ("quotient"): 1/F_k, and `PackedRing.mul`
  ("mul"): F_(k-1)(zeta*theta) times that 1/F_k, the retired inverse
  path, which built and cached the dense 1/F_k;
* `PackedRing.unpack`: the packed excursion series that quotient is;
  beside its time, `unpack_peak_ratio`, the tracemalloc peak of one
  unpack over the memory its result holds;
* `touchdown._marker_series`: the marker series assembled from the
  packed t^s parts that `tilde_genfun` at the point computes;
* `genfun`, `tilde_genfun` and `tilde_genfun_ratio` at the point, each
  with every builder cache cleared first (a cold call).  The two marked
  routes and the marker series are left out (null) at the finite
  ceilings above order 80 and at k = inf, order 160: they multiply out
  the dense powers of the arch there, and one call at (12, 0, 0, 200)
  takes minutes;
* `continued_fraction` at the spec's ceiling, as `genfun --check` runs
  it, also cold, at every point with m = n = 0 (null elsewhere);
* `genfun_via_cluster`, the cluster route `genfun --check` runs, cold,
  at every point but those in CLUSTER_SKIP (null there), where one call
  takes most of a minute or more: 54 s at (12, 0, 0, 200) and 152 s at
  (4, 0, 0, 400), and longer at (12, 0, 0, 400) and (None, 0, 0, 160);
* `genfun_full` and `tilde_genfun_full`: the same cold calls up to the
  return of their `full_series()`, the span a `sweep` job of
  perfbench/sweep_session.py times;
* the builders: `fk_polynomial` at the spec's ceiling, cold, at every
  point, and `touchdown.tilde_secular_toprow` (the marked determinant
  from the exclusion sums) at the ceiling and the order, cold, at the
  finite-ceiling points (null at k = inf);
* the write phase: `cli.cmd_genfun` at the point with its route
  patched to return the answer, computed once beforehand, into a
  stdout that throws the text away, as JSON ("write_json") and as CSV
  ("write_csv") of the plain answer, and as JSON of the marked answer
  ("write_marked_json") where the marked routes are timed (null
  elsewhere).

Kernel operands are built once per point, outside the timed calls, in
the spec's own ring (`GenSpec.packed_ring`, to `GenSpec.series_order`).
Each measurement runs up to MAX_RUNS times and stops early once its runs
add up to BUDGET_S, so the slowest points run once; the file records the
run count beside each minimum.  The host's speed drifts by up to a half
over minutes (perfbench/speed.py says why), so a fixed reference call,
which does not use the package, runs before every run and after the
last, outside the timed spans, and the file records its minimum beside
each minimum: a time over its reference compares across files.
--compare prints, for every row that both files timed, NEW's minimum
over its reference divided by OLD's, and both files' peak ratios.

The file's "cli" rows time cold processes, each run a fresh interpreter
with PYTHONDONTWRITEBYTECODE=1, as a benchmark job runs, on a copy of
the package with no bytecode cache, so that every run compiles the
modules it loads from source: `python -c pass` (the interpreter and
`site`), `import dyckgen.cli`, and the commands `genfun --k inf --m 0
--n 0 --max-len 24`, `table --k 4 --m 0 --n 0 --max-len 24
--touchdowns`, `genfun --k 4 --m 0 --n 0 --max-len 24 --touchdown`,
`verify --suite genfun` and `verify --suite duality`, the last almost
all start-up, so its row shows what a verify job compiles, and `genfun
--k 12 --m 0 --n 0 --max-len 400 --format csv`, whose answer of 0.2 M
terms makes the write phase a visible share of a job.  Each has the
same reference call beside it, run in this process between its runs.

The ladder is k = inf at orders 32..120 and 160, with order 66, where
the slots first grow past 64 bits (to 72), the finite ceiling 12 at
orders 80..400, where the packed ints are longest, the ceiling 4 at
orders 80..400, where the slots are narrowest for their order (320 bits
at order 400), the endpoints 2 -> 5 at k = inf, order 48, where the
decode adds the endpoint prefactor, and (4, 0, 0, 32) and (8, 1, 4, 32),
the shape of a perfbench `sweep` job: finite ceilings, where every
call is small.  Rows are
paired by their point, so --compare reads files with fewer points too.
The package is imported from the `src` directory next to this file, so
a copy of the script in another checkout times that checkout.
"""

import gc
import io
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "src"))

from dyckgen import cli, touchdown  # noqa: E402
from dyckgen.cluster import genfun_via_cluster  # noqa: E402
from dyckgen.genfun import (GenSpec, continued_fraction,  # noqa: E402
                            fk_polynomial, genfun)

# (k, m, n, order, whether the marked routes are timed there)
LADDER = ([(None, 0, 0, order, True)
           for order in (32, 48, 64, 66, 80, 100, 120)]
          + [(None, 0, 0, 160, False)]
          + [(12, 0, 0, 80, True), (12, 0, 0, 200, False),
             (12, 0, 0, 400, False)]
          + [(4, 0, 0, 80, True), (4, 0, 0, 200, False),
             (4, 0, 0, 400, False), (None, 2, 5, 48, True)]
          + [(4, 0, 0, 32, True), (8, 1, 4, 32, True)])
# ladder points where one cold genfun_via_cluster call takes a minute or more
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
MAX_RUNS = 20
BUDGET_S = 3.0
REF_TERMS = 60   # size of the reference call's product


def clear_caches():
    """Empty every functools cache of the modules that build series, so
    that adding or deleting a cache needs no edit here."""
    for name in ("genfun", "touchdown"):
        for value in vars(sys.modules["dyckgen." + name]).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def reference_work():
    """The reference call: a sparse product of two dicts of 300-bit ints,
    the shape of the kernel (as in perfbench/speed.py), about 1 ms on a
    2-core VM."""
    rng = random.Random(1)
    a = {e: rng.getrandbits(300) for e in range(REF_TERMS)}
    b = {e: rng.getrandbits(300) for e in range(REF_TERMS)}
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return out


def wall(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def min_time(fn, cold=False):
    """(minimum wall time, runs, minimum reference time) of fn() over up
    to MAX_RUNS runs, until the runs add up to BUDGET_S, with a
    reference call before each run and after the last; cold clears the
    builder caches before each run, outside the timed span."""
    times, refs = [], [wall(reference_work)]
    while len(times) < MAX_RUNS and sum(times) < BUDGET_S:
        if cold:
            clear_caches()
        times.append(wall(fn))
        refs.append(wall(reference_work))
    return min(times), len(times), min(refs)


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


def marker_args(k, m, n, order):
    """The (ring, cols, spec) that tilde_genfun passes to
    _marker_series at the point."""
    seen = []
    real = touchdown._marker_series
    touchdown._marker_series = lambda *args: seen.append(args) or real(*args)
    try:
        touchdown.tilde_genfun(k, m, n, order)
    finally:
        touchdown._marker_series = real
    return seen[0]


class Discard(io.TextIOBase):
    """A stdout that throws away the text written to it."""

    def write(self, text):
        return len(text)


def write_job(k, m, n, order, fmt, answer, marked=False):
    """The write phase of `genfun` at the point in format fmt: cmd_genfun
    with the route it runs patched to return `answer`, stdout a
    Discard."""
    args = cli.parse_args(
        ["genfun", "--k", "inf" if k is None else str(k), "--m", str(m),
         "--n", str(n), "--max-len", str(order), "--format", fmt]
        + ["--touchdown"] * marked)
    owner, name = ((touchdown, "tilde_genfun") if marked
                   else (sys.modules["dyckgen.genfun"], "genfun"))

    def run():
        real, out = getattr(owner, name), sys.stdout
        setattr(owner, name, lambda *spec: answer)
        sys.stdout = Discard()
        try:
            cli.cmd_genfun(args)
        finally:
            setattr(owner, name, real)
            sys.stdout = out
    return run


def point(k, m, n, order, with_tilde):
    spec = GenSpec(k, m, n, order)
    ring, L, ceiling = spec.packed_ring, spec.series_order, spec.ceiling
    fk = ring.pack(fk_polynomial(ceiling).resized(L))
    upper = ring.pack(fk_polynomial(ceiling - 1).resized(L), 1)
    inv = ring.quotient((1,), fk)
    packed = ring.quotient(upper, fk)
    answer = genfun(spec)
    timed = {
        "unpack": (lambda: ring.unpack(packed, L), False),
        "marker_series": None,
        "divide": (lambda: ring.quotient(upper, fk), False),
        "mul": (lambda: ring.mul(upper, inv), False),
        "quotient": (lambda: ring.quotient((1,), fk), False),
        "genfun": (lambda: genfun(spec), True),
        "continued_fraction": None,
        "genfun_via_cluster": None,
        "tilde_genfun": None,
        "tilde_genfun_ratio": None,
        "genfun_full": (lambda: genfun(spec).full_series(), True),
        "tilde_genfun_full": None,
        "fk_polynomial": (lambda: fk_polynomial(ceiling), True),
        "tilde_secular_toprow": None,
        "write_json": (write_job(k, m, n, order, "json", answer), False),
        "write_csv": (write_job(k, m, n, order, "csv", answer), False),
        "write_marked_json": None,
    }
    if with_tilde:
        args = marker_args(k, m, n, order)
        timed["marker_series"] = (
            lambda: touchdown._marker_series(*args), False)
        timed["tilde_genfun"] = (
            lambda: touchdown.tilde_genfun(k, m, n, order), True)
        timed["tilde_genfun_ratio"] = (
            lambda: touchdown.tilde_genfun_ratio(k, m, n, order), True)
        timed["tilde_genfun_full"] = (
            lambda: touchdown.tilde_genfun(k, m, n, order).full_series(),
            True)
        timed["write_marked_json"] = (write_job(
            k, m, n, order, "json", touchdown.tilde_genfun(k, m, n, order),
            marked=True), False)
    if k is not None:
        timed["tilde_secular_toprow"] = (
            lambda: touchdown.tilde_secular_toprow(ceiling, order), True)
    if m == n == 0:
        timed["continued_fraction"] = (
            lambda: continued_fraction(ceiling, order), True)
    if (k, m, n, order) not in CLUSTER_SKIP:
        timed["genfun_via_cluster"] = (lambda: genfun_via_cluster(spec), True)
    out = {"k": k, "m": m, "n": n, "order": order,
           "width": ring.width, "entries": len(packed),
           "max_entry_bits": max(v.bit_length() for v in packed),
           "unpack_peak_ratio": peak_ratio(lambda: ring.unpack(packed, L))}
    for name, job in timed.items():
        if job is None:
            for stat in ("_s", "_runs", "_ref_s"):
                out[name + stat] = None
            continue
        best, runs, ref = min_time(*job)
        out[name + "_s"] = round(best, 6)
        out[name + "_runs"] = runs
        out[name + "_ref_s"] = round(ref, 6)
        print(f"{spec}: {name} {best:.4f} s ({runs} runs, reference "
              f"{ref:.4f} s)", flush=True)
    return out


def cli_rows():
    """The cold-process rows, run on a copy of src/ without __pycache__."""
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(HERE, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        rows = []
        for name, args in CLI_ROWS:
            cmd = [sys.executable, *args]
            best, runs, ref = min_time(lambda: subprocess.run(
                cmd, env=env, stdout=subprocess.DEVNULL, check=True))
            rows.append({"name": name, "argv": args, "s": round(best, 6),
                         "runs": runs, "ref_s": round(ref, 6)})
            print(f"cli {name}: {best:.4f} s ({runs} runs, reference "
                  f"{ref:.4f} s)", flush=True)
    return rows


def git(*args):
    return subprocess.run(["git", "-C", HERE, *args], capture_output=True,
                          text=True)


def compare(old_path, new_path):
    """Print NEW/OLD of each row's minimum over its reference minimum."""
    rows, cli = [], []
    for path in (old_path, new_path):
        with open(path) as f:
            doc = json.load(f)
        rows.append({tuple(row[key] for key in ("k", "m", "n", "order")):
                     row for row in doc["ladder"]})
        cli.append({row["name"]: row for row in doc.get("cli", ())})
    old, new = rows
    for point, a in old.items():
        b = new.get(point, {})
        for key in a:
            ref = key[:-2] + "_ref_s"
            if (key.endswith("_s") and not key.endswith("_ref_s")
                    and a[key] and b.get(key) and a.get(ref) and b.get(ref)):
                ratio = (b[key] / b[ref]) / (a[key] / a[ref])
                print(f"{point} {key[:-2]}: {ratio:.2f}")
            elif key.endswith("_peak_ratio") and b.get(key):
                print(f"{point} {key}: {a[key]} -> {b[key]}")
    for name, a in cli[0].items():
        b = cli[1].get(name)
        if b:
            ratio = (b["s"] / b["ref_s"]) / (a["s"] / a["ref_s"])
            print(f"cli {name}: {ratio:.2f}")


def main(argv):
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    if len(argv) != 1:
        sys.exit(__doc__)
    label = argv[0]
    commit = git("rev-parse", "HEAD").stdout.strip() or None
    dirty = git("diff", "--quiet", "HEAD", "--").returncode != 0
    doc = {"label": label, "commit": commit, "dirty": dirty,
           "python": platform.python_version(),
           "platform": platform.platform(), "cpus": os.cpu_count(),
           "max_runs": MAX_RUNS, "budget_s": BUDGET_S,
           "ref_terms": REF_TERMS,
           "cli": cli_rows(),
           "ladder": [point(*p) for p in LADDER]}
    with open(f"BENCH_{label}.json", "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
