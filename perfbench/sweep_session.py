"""One `sweep` library session: a fresh process that imports dyckgen and
runs the given jobs in order, sharing the package's lru caches.

    python3 perfbench/sweep_session.py JOBS_JSON [SPANS_PATH]

JOBS_JSON holds a list of [kind, k, m, n, order] with kind "genfun" or
"tilde".  A job is timed, in wall and CPU time, from the call to the
return of full_series(); the round's wall_s and cpu_s add up these
spans.  Each result is digested straight after its job, outside the
timed span, and dropped, so the session holds no result but the one
being checked.  A speed reference call (speed.py) runs before the first
job and after every REF_EVERY jobs, outside the timed spans, so each
group of jobs is bracketed by two.  The session prints one JSON object;
with SPANS_PATH it also installs the tracer and writes its spans there.
"""

import sys
import time

import dyckgen

IMPORTED_AT = time.monotonic()

import json  # noqa: E402

import speed  # noqa: E402
from canon import series_digest  # noqa: E402

REF_EVERY = 8   # jobs between speed reference calls


def main(argv):
    with open(argv[0]) as f:
        jobs = json.load(f)
    tracer = None
    if len(argv) > 1:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    genfun = dyckgen.genfun
    tilde_genfun = dyckgen.tilde_genfun
    spec = dyckgen.GenSpec
    clock, cpu = time.perf_counter, time.process_time
    job_s, job_cpu_s, digests = [], [], []
    refs = [speed.timed_call()] if jobs else []
    for i, (kind, k, m, n, order) in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        c0 = cpu()
        t0 = clock()
        if kind == "genfun":
            full = genfun(spec(k, m, n, order)).full_series()
        else:
            full = tilde_genfun(k, m, n, order).full_series()
        job_s.append(clock() - t0)
        job_cpu_s.append(cpu() - c0)
        digests.append(series_digest(full))
        del full
        if (i + 1) % REF_EVERY == 0 or i + 1 == len(jobs):
            refs.append(speed.timed_call())
    if tracer is not None:
        tracer.dump(argv[1])
    print(json.dumps({"imported_at": IMPORTED_AT, "job_s": job_s,
                      "job_cpu_s": job_cpu_s, "digests": digests,
                      "ref_s": [w for w, _ in refs],
                      "ref_cpu_s": [c for _, c in refs],
                      "ref_every": REF_EVERY}))


if __name__ == "__main__":
    main(sys.argv[1:])
