"""Keeping the host's scheduling out of the numbers.

Two properties of a shared virtual machine move these workloads' numbers by
tens of percent for minutes at a time without the program changing:

* a thread woken on *another* virtual CPU waits for an inter-processor
  interrupt to be delivered, and
* an idle virtual CPU is halted, and waking a halted one (for a timer, a
  socket, a thread hand-off) takes as long as the host takes to schedule it:
  75 µs on a quiet host, a millisecond on a busy one.

The reference-speed scaling in the harness cannot see either, because neither
slows a busy processor down.  So a run pins itself to one CPU (with the
interpreter lock, a second one buys the program almost nothing: 4 % on
``inproc_miss_tcp``), gives a worker process the other one, and keeps every
CPU from halting with a spinner of the lowest scheduling class (``SCHED_IDLE``
runs only when nothing else wants the CPU).
"""

from __future__ import annotations

import os
import subprocess
import sys
from typing import List

#: The CPUs this process may use, as found when the benchmark started.
CPUS = sorted(os.sched_getaffinity(0))
#: Where the load generator and the in-process program run.
LOOP_CPU = CPUS[0]
#: Where a workload's worker process runs: another CPU when there is one.
WORKER_CPU = CPUS[-1]

# Leaves on its own when the benchmark process is gone, however it went.
_SPINNER = """
import os, sys
os.sched_setaffinity(0, {int(sys.argv[1])})
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = int(sys.argv[2])
while os.getppid() == parent:
    for _ in range(100_000):
        pass
"""


class QuietHost:
    """While entered: this process pinned to ``LOOP_CPU``, no CPU halting."""

    def __init__(self) -> None:
        self._spinners: List[subprocess.Popen] = []

    def __enter__(self) -> "QuietHost":
        me = str(os.getpid())
        self._spinners = [
            subprocess.Popen([sys.executable, "-S", "-c", _SPINNER, str(cpu), me])
            for cpu in CPUS
        ]
        os.sched_setaffinity(0, {LOOP_CPU})
        return self

    def __exit__(self, *exc_info) -> None:
        for spinner in self._spinners:
            spinner.terminate()
        for spinner in self._spinners:
            spinner.wait()
        os.sched_setaffinity(0, set(CPUS))
