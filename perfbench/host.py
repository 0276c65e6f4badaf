"""Host facts, and the stopwatch the end-to-end times are read from.

On a shared virtual machine the hypervisor at times runs other guests
while this machine's CPUs wait to run; Linux counts that time as
``steal`` in ``/proc/stat``. On the measuring host it drifted from 1% to
over 20% of the CPU time asked for within minutes, and wall times moved
with it. ``Stopwatch.s`` takes that share back out of the wall time: it
is the time the same work takes on CPUs nobody else shares.
"""

from __future__ import annotations

import functools
import os
import subprocess
import time


@functools.cache
def host_cpus() -> int:
    """What ``nproc`` prints (it honours OMP_NUM_THREADS), else the
    CPUs this process may run on."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def cpu_ticks() -> tuple[int, int]:
    """(busy, stolen) clock ticks of all the machine's CPUs so far."""
    try:
        with open("/proc/stat") as f:
            user, nice, system, _idle, _iowait, irq, softirq, steal = map(
                int, f.readline().split()[1:9]
            )
    except (OSError, ValueError):
        return 0, 0
    return user + nice + system + irq + softirq, steal


class Stopwatch:
    """Times a ``with`` block: ``wall`` in seconds, ``stolen_share`` (the
    share of the CPU time asked for that the hypervisor gave to other
    guests; an idle CPU asks for none) and ``s`` = ``wall`` less that
    share."""

    def __enter__(self) -> "Stopwatch":
        self._ticks = cpu_ticks()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._t0
        busy, stolen = (b - a for a, b in zip(self._ticks, cpu_ticks()))
        self.stolen_share = stolen / (busy + stolen) if busy + stolen > 0 else 0.0
        self.s = self.wall * (1.0 - self.stolen_share)
