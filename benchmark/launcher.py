"""Starts the timed children from a process that stays small.

Linux carries a process's peak RSS across fork and exec into the child's
``ru_maxrss``, so a child forked by the benchmark itself (numpy, generated
signals, parsed reports) would report at least the benchmark's own peak.
This launcher is started before the benchmark grows and forks every timed
child.  It reads one JSON request per line on stdin,
``{"argv": [...], "stdout": path, "stderr": path, "timeout": s}``, runs the
child to its end and answers with one JSON line
``{"wall_s", "cpu_s", "rss_mb", "exit", "timed_out", "ref_s"}``; the rusage
is the child's own, from ``os.wait4``.  ``ref_s`` times a fixed pure-Python
loop just before and just after the child: the host's speed at that moment,
which on a shared VM drifts by a quarter over minutes.  It exits when stdin
closes.
"""

import json
import os
import select
import signal
import subprocess
import sys
import time


def reference() -> float:
    """Seconds for a fixed pure-Python loop (about 22 ms on the reference host)."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - start


def spawn(argv: list[str], stdout: str, stderr: str, timeout: float) -> dict:
    before = reference()
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        status = None
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                timed_out = not select.select([pidfd], [], [], timeout)[0]
                if timed_out:
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                os.close(pidfd)
        finally:
            if status is None:  # interrupted before the child was reaped
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024,
            "exit": proc.returncode, "timed_out": timed_out, "ref_s": (before + reference()) / 2}


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        reply = spawn(req["argv"], req["stdout"], req["stderr"], req["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
