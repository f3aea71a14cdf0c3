"""Host speed reference: a fixed piece of pure-Python work timed next to
every job, so that the timings can be put on one scale.

    python3 -I -S perfbench/speed.py    # one reference run, as a process

(-S skips the site import, which costs more than the reference itself.)

On a small shared VM the speed of this kind of work (big-integer dict
arithmetic in a fresh process) drifts by up to a half over seconds to
minutes.  A run of a few minutes then reads 20-25 % slower or faster
than the next whatever statistic is taken over it, because the drift
lasts longer than the run.  A reference run right next to a job slows
down with it: on a 2-core VM in a noisy period, a cold `genfun --k inf`
job and reference processes (half this size) before and after it
correlated at 0.88, and the job's time divided by theirs spread 9 %
(quartiles over median) where the raw time spread 41 %.  In a quiet
period the scaling adds about as much noise per job as it removes; a
run's medians and sums average that out.  A timing loop inside the benchmark's own
long-lived process did not track the jobs at all (correlation 0.03).

So every timed item (a CLI job, a set-up probe, a segment of library
calls) is bracketed by reference runs, and its time is divided by its
speed factor: the mean of the two references' times over their nominal
time.  Wall times are scaled by the references' wall times and CPU
times by their CPU times, because part of the drift is time the VM is
not run at all, which wall time counts and CPU time does not.  The
metrics are then seconds at the reference speed.  The reference does
not import dyckgen, so a change to the program moves the job times and
not the factors.
"""

from __future__ import annotations

import random
import time

# Typical times on a 2-core VM: a reference process, spawn to exit, and
# one in-process reference call.  Any fixed values would do; these make
# the scaled times read close to the raw ones.
PROCESS_NOMINAL_S = 0.05
CALL_NOMINAL_S = 0.004

PROCESS_TERMS = 240     # size of the product a reference process computes
CALL_TERMS = 60         # ... and of one in-process reference call


def reference_work(terms):
    """A sparse product of two dicts of 300-bit integers, the shape of
    the program's kernel, then a short integer loop."""
    rng = random.Random(1)
    a = {e: rng.getrandbits(300) for e in range(terms)}
    b = {e: rng.getrandbits(300) for e in range(terms)}
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    s = 0
    for i in range(terms * 300):
        s += i * i % 7
    return out, s


def timed_call():
    """Time one in-process reference call: (wall, CPU) seconds."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    reference_work(CALL_TERMS)
    return time.perf_counter() - t0, time.process_time() - c0


def factors(refs, nominal):
    """Speed factors of the items between consecutive reference times:
    item i lies between refs[i] and refs[i + 1]."""
    return [(a + b) / (2 * nominal) for a, b in zip(refs, refs[1:])]


if __name__ == "__main__":
    reference_work(PROCESS_TERMS)
