"""Run one job process at a time and collect its own resource usage.

Each job is spawned with posix_spawn, its stdout and stderr go to files,
and it is reaped with os.wait4, so CPU time and peak RSS are the job's
own (RUSAGE_CHILDREN would fold earlier jobs' peaks into later ones).
A pidfd bounds the wait; a job past its timeout is killed and reaped.
"""

from __future__ import annotations

import hashlib
import os
import select
import signal
import sys
import time
from dataclasses import dataclass


@dataclass
class JobResult:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int | None      # None: killed at its timeout
    stdout_path: str
    spawned_at: float          # time.monotonic() just before the spawn

    @property
    def ok(self):
        return self.exit_code == 0


def job_env(root):
    """Environment for every job: the checkout's src/ on the path and no
    guard override, whatever the caller's environment holds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("DYCKGEN_GUARD_OVERRIDE", None)
    return env


def run(argv, env, stdout_path, timeout_s):
    """Spawn `python argv...`, wait for it, return its JobResult."""
    out_fd = os.open(stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                     0o644)
    err_fd = os.open(stdout_path + ".err",
                     os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        spawned_at = time.monotonic()
        t0 = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable, [sys.executable] + list(argv), env,
            file_actions=[(os.POSIX_SPAWN_DUP2, out_fd, 1),
                          (os.POSIX_SPAWN_DUP2, err_fd, 2)])
    finally:
        os.close(out_fd)
        os.close(err_fd)
    pidfd = os.pidfd_open(pid)
    usage = None
    try:
        ready, _, _ = select.select([pidfd], [], [], timeout_s)
        timed_out = not ready
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        t1 = time.perf_counter()
    finally:
        if usage is None:   # interrupted: stop and reap the job first
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
        os.close(pidfd)
    code = None if timed_out else os.waitstatus_to_exitcode(status)
    return JobResult(t1 - t0, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0, code, stdout_path, spawned_at)


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
