"""dyckgen benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; jobs import the package from ./src.
Workloads (see workloads.py for why each exists):

  unbounded   cold `genfun --k inf` CLI processes, orders 16..32
  sweep       one library session per round: genfun and tilde_genfun for
              every 0 <= m <= n <= k <= 8 at order 32, sharing caches
  crosscheck  cold CLI processes: genfun --check, --touchdown --check,
              table --touchdowns and every verify suite

Each is a closed loop with one client: one job at a time, the next
spawned when the last has exited.  The seed fixes the round's job list.
A run repeats the round max(1, seconds // round_s) times, where round_s
is the workload's nominal round length, and measures set-up with
SETUP_PROBES fresh processes spread over the run: between the jobs of a
CLI round, before each session of `sweep`.  The number of rounds never
depends on measured speed, so every run of one code version does the
same work.  Every job's output is checked against the committed
digests in goldens.json, outside the timed region.

The host's speed drifts by up to a half over minutes, so the timed runs
put every timing on one scale (see speed.py): each CLI job and set-up
probe is bracketed by two reference processes, each group of eight
library calls in a `sweep` session by two reference calls, and the
item's time is divided by its speed factor.  Timings are seconds at the
reference speed; the raw ones are printed above the result.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json.
--trace 1 runs the round untraced and traced, interleaved so that the
machine's drift falls on both alike: each CLI job untraced and traced
back to back, or alternating `sweep` sessions.  It checks that both
produce identical outputs and prints the per-layer metrics, including
the tracing overhead (traced minus untraced wall time of the round).

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  A job counts as failed when it exits
non-zero, times out or writes output whose digest differs from its
golden; failed / attempted is the failed fraction, printed above it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field

import procs
import speed
import stats
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 15       # set-up probes per run, spread over its rounds
JOB_TIMEOUT_S = 30
SESSION_TIMEOUT_S = 90
PROBE_ARGV = ["genfun", "--k", "0", "--m", "0", "--n", "0", "--max-len", "0"]


@dataclass
class Round:
    """One pass over a workload's job list.  Times are raw; in a timed
    run job_f, job_cpu_f and setup_f hold the speed factor of each job's
    wall time, each job's CPU time and each probe (see speed.py)."""
    peak_rss_mb: float = 0.0
    job_s: list = field(default_factory=list)
    job_cpu_s: list = field(default_factory=list)
    job_f: list = field(default_factory=list)
    job_cpu_f: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    failed: int = 0
    span_files: list = field(default_factory=list)
    startup_s: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    setup_f: list = field(default_factory=list)
    setup_ok: bool = True

    @property
    def attempted(self):
        return len(self.job_s)

    @property
    def wall_s(self):
        """Raw wall time of the round: one job at a time, so the sum of
        its jobs' times."""
        return sum(self.job_s)


class Bench:
    def __init__(self, root, work, goldens):
        self.work = work
        self.goldens = goldens
        self.env = procs.job_env(root)

    def path(self, name):
        return os.path.join(self.work, name)

    def golden_ok(self, key, digest):
        return self.goldens.get(key) == digest

    def reference(self):
        """Run one speed reference process: (wall, CPU) seconds."""
        res = procs.run(["-I", "-S", os.path.join(HERE, "speed.py")],
                        self.env, self.path("ref.out"), JOB_TIMEOUT_S)
        if not res.ok:
            raise RuntimeError("speed reference process failed")
        return res.wall_s, res.cpu_s

    # -- CLI workloads -------------------------------------------------

    def cli_job(self, argv, name, traced=False):
        """Run one CLI job: (JobResult, span path or None)."""
        spans = self.path(name + ".spans") if traced else None
        if spans is None:
            cmd = ["-m", "dyckgen.cli"] + argv
        else:
            cmd = [os.path.join(HERE, "traced_cli.py"), spans, "--"] + argv
        return (procs.run(cmd, self.env, self.path(name + ".out"),
                          JOB_TIMEOUT_S), spans)

    def cli_record(self, rnd, argv, res, spans):
        """Check a finished job's output and add it to the round."""
        digest = procs.file_digest(res.stdout_path) if res.ok else None
        rnd.job_s.append(res.wall_s)
        rnd.job_cpu_s.append(res.cpu_s)
        rnd.peak_rss_mb = max(rnd.peak_rss_mb, res.peak_rss_mb)
        rnd.digests.append(digest)
        if not (res.ok and self.golden_ok(" ".join(argv), digest)):
            rnd.failed += 1
        if spans is not None and res.ok:
            rnd.span_files.append(spans)
            with open(spans + ".json") as f:
                entered = json.load(f)["main_entered"]
            rnd.startup_s.append(entered - res.spawned_at)

    def cli_probe(self, rnd):
        res, _ = self.cli_job(PROBE_ARGV, f"probe{len(rnd.setup_s)}")
        rnd.setup_ok = rnd.setup_ok and res.ok and self.golden_ok(
            " ".join(PROBE_ARGV), procs.file_digest(res.stdout_path))
        rnd.setup_s.append(res.wall_s)

    def cli_round(self, jobs, probes):
        """The jobs in order, with `probes` set-up probes spread between
        them and a speed reference process before the first and after
        each of them."""
        rnd = Round()
        at = [i * len(jobs) // probes for i in range(probes)]
        done, is_probe, refs = [], [], [self.reference()]
        for i, argv in enumerate(jobs):
            for _ in range(at.count(i)):
                self.cli_probe(rnd)
                is_probe.append(True)
                refs.append(self.reference())
            done.append(self.cli_job(argv, f"job{i}"))
            is_probe.append(False)
            refs.append(self.reference())
        for argv, (res, spans) in zip(jobs, done):
            self.cli_record(rnd, argv, res, spans)
        wall_f, cpu_f = process_factors(refs)
        for probe, f, cf in zip(is_probe, wall_f, cpu_f):
            if probe:
                rnd.setup_f.append(f)
            else:
                rnd.job_f.append(f)
                rnd.job_cpu_f.append(cf)
        return rnd

    def cli_traced(self, jobs):
        """Each job untraced and traced back to back, which first
        alternating from job to job: (untraced round, traced round).
        A round's wall_s is the sum of its job times."""
        plain, traced = Round(), Round()
        done = []
        for i, argv in enumerate(jobs):
            for t in ((False, True) if i % 2 == 0 else (True, False)):
                done.append((argv, t, self.cli_job(argv, f"job{i}.{t:d}", t)))
        for argv, t, (res, spans) in done:
            self.cli_record(traced if t else plain, argv, res, spans)
        return [plain], [traced]

    # -- library session (sweep) ---------------------------------------

    def session(self, jobs, name, traced=False):
        jobs_path = self.path(name + ".jobs.json")
        with open(jobs_path, "w") as f:
            json.dump(jobs, f)
        cmd = [os.path.join(HERE, "sweep_session.py"), jobs_path]
        spans = self.path(name + ".spans")
        if traced:
            cmd.append(spans)
        res = procs.run(cmd, self.env, self.path(name + ".out"),
                        SESSION_TIMEOUT_S)
        if not res.ok:
            return res, None, spans
        with open(res.stdout_path) as f:
            out = json.loads(f.read().splitlines()[-1])
        return res, out, spans

    def session_probe(self, rnd):
        res, out, _ = self.session([], f"probe{len(rnd.setup_s)}")
        rnd.setup_ok = rnd.setup_ok and out is not None
        rnd.setup_s.append(out["imported_at"] - res.spawned_at if out
                           else res.wall_s)

    def session_round(self, jobs, probes=0, name="session", traced=False):
        """`probes` set-up probes, each between two speed reference
        processes, then one session running the jobs."""
        rnd = Round()
        refs = [self.reference()] if probes else []
        for _ in range(probes):
            self.session_probe(rnd)
            refs.append(self.reference())
        rnd.setup_f = process_factors(refs)[0]
        res, out, spans = self.session(jobs, name, traced)
        if out is None:
            rnd.job_s = rnd.job_cpu_s = [res.wall_s / len(jobs)] * len(jobs)
            rnd.job_f = rnd.job_cpu_f = [1.0] * len(jobs)
            rnd.digests = [None] * len(jobs)
            rnd.failed = len(jobs)
            return rnd
        rnd.peak_rss_mb = res.peak_rss_mb
        rnd.job_s, rnd.digests = out["job_s"], out["digests"]
        rnd.job_cpu_s = out["job_cpu_s"]
        seg = [i // out["ref_every"] for i in range(len(jobs))]
        for times, attr in (("ref_s", "job_f"), ("ref_cpu_s", "job_cpu_f")):
            f = speed.factors(out[times], speed.CALL_NOMINAL_S)
            setattr(rnd, attr, [f[s] for s in seg])
        rnd.failed = sum(not self.golden_ok(" ".join(map(str, job)), d)
                         for job, d in zip(jobs, rnd.digests))
        if traced:
            rnd.span_files.append(spans)
        return rnd

    def session_traced(self, jobs, pairs):
        """`pairs` untraced and traced sessions, alternating, which first
        alternating from pair to pair: (untraced rounds, traced rounds)."""
        plain, traced = [], []
        for i in range(pairs):
            for t in ((False, True) if i % 2 == 0 else (True, False)):
                rnd = self.session_round(jobs, name=f"session{i}.{t:d}",
                                         traced=t)
                (traced if t else plain).append(rnd)
        return plain, traced

    # -- runs ----------------------------------------------------------

    def round(self, kind, jobs, probes):
        if kind == "cli":
            return self.cli_round(jobs, probes)
        return self.session_round(jobs, probes)

    def traced_rounds(self, kind, jobs, pairs):
        if kind == "cli":
            return self.cli_traced(jobs)
        return self.session_traced(jobs, pairs)


def process_factors(refs):
    """Wall and CPU speed factors of the items between reference
    processes, from their (wall, CPU) times."""
    return tuple(speed.factors([r[i] for r in refs], speed.PROCESS_NOMINAL_S)
                 for i in (0, 1))


def end_to_end(rounds, scaled):
    """(tail percentile, the end-to-end values) of a timed run's rounds,
    with every time divided by its speed factor if `scaled`."""
    def times(r, name, factors):
        ts = getattr(r, name)
        return ([t / f for t, f in zip(ts, getattr(r, factors))] if scaled
                else ts)
    setup_s = [t for r in rounds for t in times(r, "setup_s", "setup_f")]
    job_s = [t for r in rounds for t in times(r, "job_s", "job_f")]
    pct, p90 = stats.tail_percentile(job_s)
    return pct, {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(
            sum(times(r, "job_s", "job_f")) for r in rounds),
        "job_p50_s": statistics.median(job_s),
        "job_p90_s": p90,
        "cpu_s": statistics.median(
            sum(times(r, "job_cpu_s", "job_cpu_f")) for r in rounds),
        "peak_rss_mb": max(r.peak_rss_mb for r in rounds),
    }


def timed_run(bench, kind, jobs, n_rounds):
    # The probes are spread over the run, so that setup_s does not hang
    # on the machine's state in one second of it.
    probes = -(-SETUP_PROBES // n_rounds)
    rounds = [bench.round(kind, jobs, probes) for _ in range(n_rounds)]
    pct, values = end_to_end(rounds, scaled=True)
    _, raw = end_to_end(rounds, scaled=False)
    factors = [f for r in rounds for f in r.job_f + r.setup_f]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    setup_ok = all(r.setup_ok for r in rounds)
    notes = [f"rounds {len(rounds)} of {len(jobs)} jobs",
             f"job_p90_s is the p{pct} of {attempted} job samples",
             f"setup probes {sum(len(r.setup_s) for r in rounds)}",
             "speed factor median {:.4g}, range {:.4g}-{:.4g}".format(
                 statistics.median(factors), min(factors), max(factors)),
             "raw (unscaled) " + ", ".join(
                 f"{k} {v:.6g}" for k, v in raw.items() if k != "peak_rss_mb"),
             f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})"]
    return values, setup_ok and failed == 0, attempted, failed, notes


def merge_spans(span_files):
    """Per-span totals and per-counter sums (maxima for maxima) over every
    traced process of a round."""
    agg, extra = {}, {}
    for path in span_files:
        meta, spans = tracing.load(path)
        for name, row in stats.aggregate(spans).items():
            tot = agg.setdefault(name, dict.fromkeys(row, 0))
            for stat, v in row.items():
                tot[stat] += v
        for k, v in {**meta["counts"], **meta["caches"]}.items():
            extra[k] = extra.get(k, 0) + v
        for k, v in meta["maxima"].items():
            extra[k] = max(extra.get(k, 0), v)
    return agg, extra


def layer_value(name, agg, extra):
    """A per-layer metric: a counter, or <span>.<calls|total_s|self_s>.
    A layer the workload never entered reads 0."""
    if name in extra or name in tracing.COUNTERS:
        return extra.get(name, 0)
    span, stat = name.rsplit(".", 1)
    return agg.get(span, {}).get(stat, 0)


def traced_run(bench, kind, jobs, pairs, names):
    plain, traced = bench.traced_rounds(kind, jobs, pairs)
    # Every traced round does the same calls; the first gives the layers.
    agg, extra = merge_spans(traced[0].span_files)
    startup = traced[0].startup_s
    extra["cli.startup_s"] = statistics.median(startup) if startup else 0.0
    extra["trace.overhead_s"] = statistics.median(
        t.wall_s - p.wall_s for p, t in zip(plain, traced))
    values = {name: layer_value(name, agg, extra) for name in names}
    identical = all(r.digests == plain[0].digests for r in plain + traced)
    attempted = sum(r.attempted for r in plain + traced)
    failed = sum(r.failed for r in plain + traced)
    walls = lambda rs: ", ".join(f"{r.wall_s:.6g}" for r in rs)
    notes = [f"untraced wall_s {walls(plain)}; traced wall_s {walls(traced)}",
             f"traced outputs byte-identical to untraced: {identical}",
             f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})"]
    return values, identical and failed == 0, attempted, failed, notes


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dyckgen", "cli.py")):
        print("error: run from the root of a dyckgen checkout "
              "(src/dyckgen not found)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "goldens.json")) as f:
        goldens = json.load(f)["digests"]
    workload = workloads.WORKLOADS[args.workload]
    kind, jobs = workload.kind, workload.jobs(args.seed)
    work_root = os.path.join(root, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(dir=work_root)
    try:
        bench = Bench(root, work, goldens)
        if args.trace:
            values, correct, attempted, failed, notes = traced_run(
                bench, kind, jobs,
                max(1, int(args.seconds // (2 * workload.round_s))),
                [m["name"] for m in spec["per_layer"]])
            metrics = spec["per_layer"]
        else:
            values, correct, attempted, failed, notes = timed_run(
                bench, kind, jobs,
                max(1, int(args.seconds // workload.round_s)))
            metrics = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass        # another run's directory is still there
    out = {}
    print(f"workload {args.workload} seed {args.seed}")
    for note in notes:
        print(note)
    for m in metrics:
        value = values[m["name"]]
        print(f"{m['name']:44s} {value:.6g} {m['unit']}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
