"""Host speed, from a small fixed CPU probe timed while each child runs.

On a shared host the instruction rate drifts by tens of percent within a
minute, and a child's CPU time follows it as closely as its wall time, so
no repetition count steadies a raw timing across runs.  While a child runs,
the benchmark's own process times the same fixed probe every
``PROBE_INTERVAL_S`` (about 2 % of one core); the median probe time is the
host's speed during that child, and the child's wall time is reported at
the reference speed: ``wall * REF_PROBE_S / median(probe)``.  The median
ignores the probes that an interrupt or a preemption lengthens.

The probe mixes what the children do: a pure-Python loop (interpreter
start-up, the relay and Gilbert-Elliott loops, CSV formatting) and numpy
arithmetic.  It is independent of ``vlcrelay``, so a change of the program
moves the scaled time exactly as much as the wall time.
"""

from __future__ import annotations

import os
import select
import time

import numpy as np

# median probe time on the 2-core shared host the benchmark was written on;
# it only fixes the unit, "seconds at that host's typical speed"
REF_PROBE_S = 1.25e-3
PROBE_INTERVAL_S = 0.05

_ARRAY = np.random.default_rng(0).random(10_000)


def probe_seconds() -> float:
    """Wall time of one pass of the fixed probe."""
    t0 = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(6_000):
        acc += i * i % 7
        table[i & 1023] = acc
    (_ARRAY * 2.0 + 1.0).sum()
    return time.perf_counter() - t0


def probe_until_exit(pid: int) -> list[float]:
    """Probe times taken while child ``pid`` runs (at least one).

    Returns as soon as the child has exited, leaving it to be reaped.
    """
    fd = os.pidfd_open(pid)
    probes = []
    try:
        while not select.select([fd], [], [], PROBE_INTERVAL_S)[0]:
            probes.append(probe_seconds())
    finally:
        os.close(fd)
    return probes or [probe_seconds()]
