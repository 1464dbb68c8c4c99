"""Start commands one at a time; report wall time, exit code and peak RSS.

Reads one JSON request per line on stdin:
    {"cmd": [...], "cwd": "...", "env": {...}, "stderr": "path", "timeout": 120}
and answers each with one JSON line on stdout:
    {"seconds": 1.23, "returncode": 0, "maxrss_kib": 250000}

A child's peak RSS, as the kernel reports it, includes the memory of the
process it was started from. The benchmark process holds whole bundles,
so it starts this small process first and has it start every ``himu
select``; the peak RSS then belongs to ``himu select`` alone. Only the
standard library is imported here, to keep this process small.
"""
from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def run(request: dict) -> dict:
    with open(request["stderr"], "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["cmd"], cwd=request["cwd"], env=request["env"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=stderr,
        )
        signal.setitimer(signal.ITIMER_REAL, request["timeout"])
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": seconds, "returncode": proc.returncode, "maxrss_kib": usage.ru_maxrss}


def main() -> int:
    signal.signal(signal.SIGALRM, _alarm)
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
