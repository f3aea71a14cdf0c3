"""Recompute perfbench/goldens.json and validate every entry.

    python3 perfbench/make_goldens.py        (from the checkout root)

For every job any seed can draw (the workload pools) this records the
sha256 of the job's exact stdout (CLI jobs) or of its canonical
(l, A[, s], coeff) rows plus truncation order (library jobs).  Before a
digest is written, the counts it stands for are compared with
`oracle.enumerate_paths`, an independent dynamic program; the oracle's
length guard is lifted around those calls only, never while a job's
output is produced.  `verify` outputs must report zero failures.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import dyckgen  # noqa: E402
from dyckgen import cli  # noqa: E402
from dyckgen.oracle import enumerate_paths  # noqa: E402

import canon  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
GUARD = "DYCKGEN_GUARD_OVERRIDE"


@contextlib.contextmanager
def guard_lifted():
    os.environ[GUARD] = "1"
    try:
        yield
    finally:
        del os.environ[GUARD]


_oracle_cache = {}


def oracle_counts(k, m, n, order, with_s):
    """{(l, A[, s]): count} by brute-force enumeration."""
    key = (k, m, n, order)
    if key not in _oracle_cache:
        # Any ceiling >= (order + m + n) / 2 is exact for "inf".
        kk = order + m + n if k == "inf" else int(k)
        with guard_lifted():
            _oracle_cache[key] = enumerate_paths(kk, m, n, order).counts
    out = {}
    for (l, a, s), c in _oracle_cache[key].items():
        k2 = (l, a, s) if with_s else (l, a)
        out[k2] = out.get(k2, 0) + c
    return out


def run_cli(argv):
    if os.environ.get(GUARD):
        raise RuntimeError(f"{GUARD} must not be set while producing output")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return buf.getvalue().encode()


def parse_counts(text, with_s):
    """{(l, A[, s]): Fraction} from CLI JSON or CSV output."""
    out = {}
    if text.startswith("{"):
        for t in json.loads(text)["terms"]:
            key = (t["l"], t["A"], t["s"]) if with_s else (t["l"], t["A"])
            out[key] = Fraction(int(t["coeff"]["num"]), int(t["coeff"]["den"]))
        return out
    rows = csv.reader(io.StringIO(text))
    header = next(rows)
    for row in rows:
        rec = dict(zip(header, row))
        key = tuple(int(rec[c]) for c in (("l", "A", "s") if with_s
                                          else ("l", "A")))
        out[key] = (Fraction(int(rec["count"])) if "count" in rec
                    else Fraction(int(rec["num"]), int(rec["den"])))
    return out


def validate_cli(argv, text):
    cmd = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    if cmd == "verify":
        if not text.rstrip().endswith(" 0 failures"):
            raise AssertionError(f"{' '.join(argv)}: {text.splitlines()[-1]}")
        return
    m, n, order = int(opts["--m"]), int(opts["--n"]), int(opts["--max-len"])
    with_s = "--touchdown" in argv or "--touchdowns" in argv
    got = parse_counts(text, with_s)
    want = oracle_counts(opts["--k"], m, n, order, with_s)
    if got != {key: Fraction(c) for key, c in want.items()}:
        raise AssertionError(f"{' '.join(argv)} disagrees with the oracle")


def library_result(job):
    kind, k, m, n, order = job
    if kind == "genfun":
        return dyckgen.genfun(dyckgen.GenSpec(k, m, n, order)).full_series()
    return dyckgen.tilde_genfun(k, m, n, order).full_series()


def validate_library(job, rows):
    kind, k, m, n, order = job
    with_s = kind == "tilde"
    want = sorted(key + (Fraction(c),) for key, c in
                  oracle_counts(k, m, n, order, with_s).items())
    if rows != want:
        raise AssertionError(f"{job} disagrees with the oracle")


def main():
    digests = {}
    cli_jobs = [run.PROBE_ARGV]
    for w in workloads.WORKLOADS.values():
        if w.kind == "cli":
            cli_jobs += w.pool()
            continue
        for job in w.pool():
            series = library_result(job)
            rows = canon.series_rows(series)
            validate_library(job, rows)
            digests[" ".join(map(str, job))] = canon.rows_digest(
                series.order, rows)
    for argv in cli_jobs:
        out = run_cli(argv)
        validate_cli(argv, out.decode())
        digests[" ".join(argv)] = hashlib.sha256(out).hexdigest()
    doc = {"about": "sha256 of each pool job's stdout (CLI) or canonical "
                    "rows (library); written by make_goldens.py after "
                    "validation against oracle.enumerate_paths",
           "digests": dict(sorted(digests.items()))}
    with open(os.path.join(HERE, "goldens.json"), "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"{len(digests)} goldens written and validated")


if __name__ == "__main__":
    main()
