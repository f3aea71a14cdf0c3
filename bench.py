"""Ladder timings of the packed kernel and the two determinant routes.

    python3 bench.py LABEL

Writes BENCH_<LABEL>.json in the current directory.  The file holds the
commit of the checkout this script sits in (with `dirty` true when its
tracked files differ from that commit), the Python version and the
platform, and for each ladder point (k, m, n, order) the minimum wall
time over repeated runs of

* `PackedRing.quotient`: 1/F_k, the divisor the determinant route
  caches;
* `PackedRing.mul`: F_(k-1)(zeta*theta) times that 1/F_k, the
  determinant route's product;
* `PackedRing.unpack`: the packed excursion series that product is;
* `genfun` and `tilde_genfun` at the point, each with every builder
  cache cleared first (a cold call).  `tilde_genfun` is left out (null)
  at the finite ceiling above order 80: it multiplies out the dense
  powers of the arch there, and one call at (12, 0, 0, 200) takes
  minutes.

Kernel operands are built once per point, outside the timed calls, in
the spec's own ring (`GenSpec.packed_ring`, to `GenSpec.series_order`).
Each measurement runs up to MAX_RUNS times and stops early once its runs
add up to BUDGET_S, so the slowest points run once; the file records the
run count beside each minimum.  The ladder is k = inf at orders
32..120 and the finite ceiling 12 at orders 80..400, where the packed
ints are longest.  The package is imported from the `src` directory
next to this file, so a copy of the script in another checkout times
that checkout.
"""

import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "src"))

from dyckgen import touchdown  # noqa: E402
from dyckgen.genfun import GenSpec, _inv_fk, genfun  # noqa: E402
from dyckgen.spectral import fk_polynomial  # noqa: E402

# (k, m, n, order, whether tilde_genfun is timed there)
LADDER = ([(None, 0, 0, order, True) for order in (32, 48, 64, 80, 100, 120)]
          + [(12, 0, 0, 80, True), (12, 0, 0, 200, False),
             (12, 0, 0, 400, False)])
MAX_RUNS = 20
BUDGET_S = 3.0


def clear_caches():
    fk_polynomial.cache_clear()
    _inv_fk.cache_clear()
    touchdown.tilde_secular.cache_clear()


def min_time(fn, cold=False):
    """(minimum wall time, runs) of fn() over up to MAX_RUNS runs, until
    the runs add up to BUDGET_S; cold clears the builder caches before
    each run, outside the timed span."""
    times = []
    while len(times) < MAX_RUNS and sum(times) < BUDGET_S:
        if cold:
            clear_caches()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times), len(times)


def point(k, m, n, order, with_tilde):
    spec = GenSpec(k, m, n, order)
    ring, L, ceiling = spec.packed_ring, spec.series_order, spec.ceiling
    fk = ring.pack(fk_polynomial(ceiling).resized(L))
    upper = ring.pack(fk_polynomial(ceiling - 1).resized(L), 1)
    inv = ring.quotient((1,), fk)
    packed = ring.mul(upper, inv)
    timed = {
        "unpack": (lambda: ring.unpack(packed, L), False),
        "mul": (lambda: ring.mul(upper, inv), False),
        "quotient": (lambda: ring.quotient((1,), fk), False),
        "genfun": (lambda: genfun(spec), True),
        "tilde_genfun": (lambda: touchdown.tilde_genfun(k, m, n, order),
                         True),
    }
    out = {"k": k, "m": m, "n": n, "order": order,
           "width": ring.width, "entries": len(packed),
           "max_entry_bits": max(v.bit_length() for v in packed)}
    if not with_tilde:
        del timed["tilde_genfun"]
        out["tilde_genfun_s"] = out["tilde_genfun_runs"] = None
    for name, (fn, cold) in timed.items():
        best, runs = min_time(fn, cold)
        out[name + "_s"] = round(best, 6)
        out[name + "_runs"] = runs
        print(f"{spec}: {name} {best:.4f} s ({runs} runs)", flush=True)
    return out


def git(*args):
    return subprocess.run(["git", "-C", HERE, *args], capture_output=True,
                          text=True)


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__)
    label = argv[0]
    commit = git("rev-parse", "HEAD").stdout.strip() or None
    dirty = git("diff", "--quiet", "HEAD", "--").returncode != 0
    doc = {"label": label, "commit": commit, "dirty": dirty,
           "python": platform.python_version(),
           "platform": platform.platform(), "cpus": os.cpu_count(),
           "max_runs": MAX_RUNS, "budget_s": BUDGET_S,
           "ladder": [point(*p) for p in LADDER]}
    with open(f"BENCH_{label}.json", "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
