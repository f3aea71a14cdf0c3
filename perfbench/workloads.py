"""Seeded job lists for the three workloads.

Every job is drawn from a fixed pool whose outputs have committed
digests (goldens.json, made by make_goldens.py).  A round is built from
slots: each slot fixes the cost-determining part of a job (command,
ceiling, order, endpoints) and the seed picks the rest (which jobs
write CSV, and the order of the round).  So the seed changes the inputs
but hardly the amount of work, and runs with different seeds stay
comparable.  Endpoints are not drawn by the seed: at a given order
their cost differs by up to 1.7x, and a draw moved the median and tail
percentile of a run by up to 18 % from seed to seed.  The slots cycle
through the endpoint pairs instead.

Why each workload exists (ROADMAP item numbers):

* unbounded -- items 2a/2b/2c (tighter internal ceiling, area cap,
  packed-integer coefficients).  Each job is a cold `genfun --k inf`
  process whose time is a few hundred large QLaurent products inside
  1/F_k with k = order.  Cluster, oracle and touchdown are idle, so the
  prediction for item 3 here is no change.
* sweep -- item 4b (bounded caches) and the per-call cost of 2c.  One
  library session shares the lru caches across 328 jobs; the time is
  ~120k small and mid-size products in the uncached tilde_genfun
  division, so per-call overhead dominates, not convolution size.  A
  change that wins on `unbounded` by adding per-product cost, or that
  evicts cache entries the session reuses, shows its cost here.
* crosscheck -- items 3 (cluster transfer-matrix sum) and 4a
  (order-strict checks).  `genfun --check` runs the cluster route's
  composition sums (and the continued fraction when m = n = 0), plus
  the oracle, every verify suite and large JSON output.  The
  determinant kernel is a minor share; the prediction for item 2 here
  is a small change at most.

A run's tail percentile needs ten samples beyond it (a true p90 needs a
hundred jobs), and a cold process costs about 0.15 s before any work.
Every CLI job also runs between two speed reference processes (see
speed.py), so a CLI round costs about a fifth more than its jobs.
`sweep` runs 1312 jobs a run and `crosscheck` 102 (three rounds), so
their `job_p90_s` is a p90.  `unbounded` runs two rounds, 48 jobs, so
its `job_p90_s` is a p79: a hundred of its jobs would take 50-70 s a
run, too long for a benchmark of 40 s runs.  `crosscheck` keeps its
checks at orders up to 40 and ceilings up to 12.  `unbounded` stops at
order 32 (about 1 s a job; order 36 takes about 2 s, order 60 and 80
tens to hundreds of seconds), and more, cheaper jobs would put the
median at order 22, where start-up is most of a job and a kernel change
hardly shows.  The order-36+ ladder belongs in a later benchmark
change, once ROADMAP item 2 lands.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from tracer import SUITES as VERIFY_SUITES

# -- unbounded ---------------------------------------------------------

# One ladder of orders 16..29, a plateau of five order-30 jobs, then 31
# and 32, plus orders 21..23 once more: 24 jobs, about 9-13 s.  Over
# two rounds the median falls between orders 24 and 25, where the kernel
# is about two thirds of a cold job's time, and the tail percentile
# (p79: ten of 48 samples beyond it) inside the order-30 plateau, so
# neither sits on a steep step of the cost curve.
UNBOUNDED_ORDERS = (tuple(range(16, 30)) + 5 * (30,) + (31, 32)
                    + tuple(range(21, 24)))
UNBOUNDED_ENDPOINTS = ((0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2),
                       (1, 3))
UNBOUNDED_CSV = 8       # jobs per round written as CSV


def _genfun_argv(k, m, n, order, *flags, fmt="json"):
    argv = ["genfun", "--k", str(k), "--m", str(m), "--n", str(n),
            "--max-len", str(order), *flags]
    return argv + ["--format", "csv"] if fmt == "csv" else argv


def unbounded_jobs(seed):
    rng = random.Random(seed)
    csv = set(rng.sample(range(len(UNBOUNDED_ORDERS)), UNBOUNDED_CSV))
    ends = UNBOUNDED_ENDPOINTS
    jobs = [_genfun_argv("inf", *ends[i % len(ends)], order,
                         fmt="csv" if i in csv else "json")
            for i, order in enumerate(UNBOUNDED_ORDERS)]
    rng.shuffle(jobs)
    return jobs


def unbounded_pool():
    return [_genfun_argv("inf", m, n, order, fmt=fmt)
            for order in sorted(set(UNBOUNDED_ORDERS))
            for m, n in UNBOUNDED_ENDPOINTS for fmt in ("json", "csv")]


# -- sweep -------------------------------------------------------------

SWEEP_K_MAX = 8
SWEEP_ORDER = 32


def sweep_pool():
    return [[kind, k, m, n, SWEEP_ORDER]
            for k in range(1, SWEEP_K_MAX + 1)
            for m in range(k + 1) for n in range(m, k + 1)
            for kind in ("genfun", "tilde")]


def sweep_jobs(seed):
    jobs = sweep_pool()
    random.Random(seed).shuffle(jobs)
    return jobs


# -- crosscheck --------------------------------------------------------

# (k, order, endpoint choices); the i-th slot of a kind uses choice
# i mod len(choices), and the pool holds them all.
# The costliest jobs of a round, as timed on a 2-core VM: check k=8
# order 30 (about 1.1 s); touchdown k=10 and k=12 at order 40, touchdown
# k=8 order 40 and check k=7 order 30 (0.8-0.95 s); check k=6 order 32
# and verify cluster (0.6-0.7 s); the rest below 0.55 s.  The p90 of
# three rounds (ten of 102 samples beyond it) falls among the 0.8 s jobs
# with the 0.6-0.7 s ones just below, not on a steep step of the cost
# curve.
CHECK_SLOTS = (
    (4, 24, ((0, 0),)),
    (4, 36, ((0, 0), (0, 1), (1, 1), (0, 2))),
    (5, 28, ((0, 0), (0, 2), (1, 2), (2, 2), (1, 3), (0, 3))),
    (5, 30, ((0, 1), (1, 3), (0, 3), (2, 2))),
    (5, 32, ((0, 0), (0, 1), (0, 2))),
    (6, 26, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 4))),
    (6, 28, ((0, 1), (1, 2), (0, 3))),
    (6, 32, ((0, 0), (0, 2), (1, 2))),
    (7, 24, ((0, 2), (1, 2), (0, 3), (1, 3))),
    (7, 28, ((0, 2), (1, 2), (1, 3), (0, 3))),
    (7, 30, ((0, 0),)),
    (8, 24, ((0, 0), (0, 2), (1, 2), (1, 3))),
    (8, 26, ((0, 2), (1, 2), (1, 3))),
    (8, 30, ((0, 0), (2, 2))),
)
TOUCHDOWN_SLOTS = (
    (4, 40, ((0, 1), (1, 1), (0, 2), (1, 2), (2, 2), (1, 3))),
    (6, 32, ((0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (1, 3))),
    (6, 36, ((0, 0), (0, 2), (1, 2), (2, 2), (1, 3))),
    (8, 32, ((0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2))),
    (8, 40, ((0, 2), (1, 2))),
    (10, 32, ((0, 0), (0, 1), (1, 1), (2, 2))),
    (10, 40, ((0, 0), (0, 1), (1, 1))),
    (12, 40, ((0, 0),)),   # 1 MB of JSON: always written as JSON
)
TABLE_SLOTS = (
    (2, 24, ((0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2))),
    (3, 20, ((0, 0), (0, 1), (1, 1), (0, 2), (1, 3))),
    (4, 24, ((0, 0), (0, 1), (1, 1), (0, 2), (1, 3))),
    (6, 24, ((0, 0), (0, 1), (1, 1), (0, 2), (1, 3))),
    (8, 24, ((0, 0), (0, 1), (1, 1), (0, 2), (1, 3))),
    ("inf", 24, ((0, 0), (0, 1), (1, 1), (0, 2), (1, 3))),
)
CROSSCHECK_CSV = 9       # check, touchdown and table jobs written as CSV


def _table_argv(k, m, n, order, fmt="json"):
    argv = ["table", "--k", str(k), "--m", str(m), "--n", str(n),
            "--max-len", str(order), "--touchdowns"]
    return argv + ["--format", "csv"] if fmt == "csv" else argv


def _crosscheck_kinds():
    """(slots, argv builder) per kind of CLI job."""
    check = lambda k, m, n, o, fmt: _genfun_argv(k, m, n, o, "--check",
                                                 fmt=fmt)
    touch = lambda k, m, n, o, fmt: _genfun_argv(
        k, m, n, o, "--touchdown", "--check", fmt=fmt)
    return ((CHECK_SLOTS, check), (TOUCHDOWN_SLOTS, touch),
            (TABLE_SLOTS, _table_argv))


def _fixed_json(k, order):
    return (k, order) == (12, 40)


def crosscheck_jobs(seed):
    rng = random.Random(seed)
    slots = [(build, k, order, choices[i % len(choices)])
             for all_slots, build in _crosscheck_kinds()
             for i, (k, order, choices) in enumerate(all_slots)]
    may_csv = [j for j, (_, k, order, _) in enumerate(slots)
               if not _fixed_json(k, order)]
    csv = set(rng.sample(may_csv, CROSSCHECK_CSV))
    jobs = [build(k, m, n, order, "csv" if j in csv else "json")
            for j, (build, k, order, (m, n)) in enumerate(slots)]
    jobs += [["verify", "--suite", s] for s in VERIFY_SUITES]
    rng.shuffle(jobs)
    return jobs


def crosscheck_pool():
    pool = []
    for slots, build in _crosscheck_kinds():
        for k, order, choices in slots:
            fmts = ("json",) if _fixed_json(k, order) else ("json", "csv")
            pool += [build(k, m, n, order, fmt)
                     for m, n in choices for fmt in fmts]
    return pool + [["verify", "--suite", s] for s in VERIFY_SUITES]


@dataclass(frozen=True)
class Workload:
    kind: str           # "cli": a process per job; "session": one library
    jobs: Callable      # seed -> the round's job list
    pool: Callable      # () -> every job any seed can draw
    round_s: float      # nominal round length: a run does
                        # max(1, seconds // round_s) rounds


WORKLOADS = {
    "unbounded": Workload("cli", unbounded_jobs, unbounded_pool, 16.0),
    "sweep": Workload("session", sweep_jobs, sweep_pool, 9.0),
    "crosscheck": Workload("cli", crosscheck_jobs, crosscheck_pool, 13.0),
}
