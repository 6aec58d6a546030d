"""The pace probe: how fast is the server's core *right now*? (stdlib only)

On a shared host the same instructions take 20-40 % more CPU time in
some minutes than in others (a neighbour on the sibling hardware
thread, the host's frequency), independently on each core, and nothing
inside the guest can stop that.  Left in, it is the largest term of the
run-to-run spread of every timing metric; measured on the sizing box,
the CPU a report request costs followed the pace of its core with a
correlation of 0.93, and the pace of the *other* core with 0.2.

So each core the server is pinned to runs a probe: a child process at
idle priority (``SCHED_IDLE`` — it gets the core only while the server
does not want it, and loses it the moment the server does) that keeps
timing a fixed pure-Python kernel in *its own CPU seconds* and reports
``(clock, cpu_seconds)``.  ``cpu_seconds / REFERENCE_S`` over an
interval is that interval's pace: 1.0 at the reference speed, 1.3 when
the core is 30 % slow.  Timing metrics are reported at reference pace
(time / pace, rate x pace); the raw readings are kept beside them.

Two side effects, the same on every commit: the server's core never
goes idle while the probe runs, so open-loop latency has no
wake-from-idle term; and the kernel's working set shares the core's
caches with the server.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import threading
from typing import Optional, Sequence

#: CPU seconds one kernel run takes at reference speed (the sizing box
#: in a calm hour).  Only ratios between runs matter; the constant makes
#: them comparable across runs.
REFERENCE_S = 0.0054

_PROBE = r"""
import os, sys, time
os.sched_setaffinity(0, [int(sys.argv[1])])
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)

def kernel():
    total = 0
    for i in range(100000):
        total += i * i % 7
    return total

while True:
    began = time.process_time()
    kernel()
    spent = time.process_time() - began
    sys.stdout.write("%.6f %.6f\n" % (time.perf_counter(), spent))
    sys.stdout.flush()
"""


class PaceProbe:
    """Idle-priority probes, one per core in ``cores``.

    Samples come back over a pipe (a log file would add the probe's
    writes to every flush the server's database waits for) and are
    collected by a reader thread.  ``time.perf_counter`` is the
    system-wide monotonic clock, so the probes' timestamps line up with
    the generator's.
    """

    def __init__(self, cores: Sequence[int]):
        self._samples: list[tuple[float, float]] = []
        self._procs = [
            subprocess.Popen([sys.executable, "-c", _PROBE, str(core)],
                             stdin=subprocess.DEVNULL,
                             stdout=subprocess.PIPE, text=True)
            for core in cores]
        self._readers = [
            threading.Thread(target=self._collect, args=(proc.stdout,),
                             daemon=True)
            for proc in self._procs]
        for reader in self._readers:
            reader.start()

    def _collect(self, stream) -> None:
        for line in stream:
            clock, spent = line.split()
            self._samples.append((float(clock), float(spent)))

    def stop(self) -> None:
        for proc in self._procs:
            proc.kill()
        for proc in self._procs:
            proc.wait()
        for reader in self._readers:
            reader.join(timeout=5.0)
        for proc in self._procs:
            proc.stdout.close()

    def __enter__(self) -> "PaceProbe":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def pace(self, start: float, end: float) -> Optional[float]:
        """Median pace over ``[start, end)`` (``None`` without samples:
        the server never let go of the core)."""
        spent = [cpu for clock, cpu in list(self._samples)
                 if start <= clock < end]
        if not spent:
            return None
        return statistics.median(spent) / REFERENCE_S
