"""Host-speed calibration for the benchmark's time metrics.

The benchmark shares a few virtual CPUs with other tenants, and their speed
wanders by tens of percent over seconds to minutes. `tick` times a small
fixed piece of work that does not use qadv, with the same mix the workloads
have: interpreter-bound dict and integer work, small numpy kernels called
from Python, and passes over an array larger than the first cache levels.
While a repetition runs, `ticking` runs a tick every ``INTERVAL_S`` of wall
time in the measuring process itself, so the ticks see the host at the same
moments as the work. Set-up probes are bracketed by ticks in run.py
instead, on the same pinned CPU. A time is reported scaled by
``REFERENCE_S / mean tick``: the time the work would take on a host where a
tick takes ``REFERENCE_S``. A slow or fast spell of the host then moves the
ticks and the work alike and cancels, while a change to qadv moves only the
work.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

#: Tick time, in seconds, that the scaled metrics are expressed against:
#: about what `tick` takes on an unloaded 2-vCPU x86-64 VM.
REFERENCE_S = 7.5e-4
#: Wall time between ticks during a repetition; a tick costs about 2% of it.
INTERVAL_S = 0.025

_SMALL = np.random.default_rng(0).standard_normal((16, 16)) * 0.1
_LARGE = np.random.default_rng(1).standard_normal(1 << 15)
_OUT = np.empty_like(_LARGE)


def tick() -> float:
    """Seconds the fixed calibration work takes now on this CPU."""
    t0 = time.perf_counter()
    table = {}
    for i in range(600):
        table[(i * 2654435761) & 0xFFFF] = i
    acc = 0
    for key, value in table.items():
        acc ^= key + value
    b = _SMALL
    for _ in range(40):
        b = np.tanh(_SMALL @ b)
    np.cumsum(_LARGE, out=_OUT)
    np.cumsum(_OUT, out=_OUT)
    return time.perf_counter() - t0


@contextmanager
def ticking():
    """Run `tick` every ``INTERVAL_S`` of wall time, from a SIGALRM handler
    in this process, while the block runs. Yields the list the tick times go
    to. Its first entry is a tick taken before the timer starts, so it is
    never empty; the caller subtracts the others from the time it
    measured in the block."""
    ticks = [tick()]
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: ticks.append(tick()))
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield ticks
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def scaled(seconds: float, ticks: list[float]) -> float:
    """``seconds`` at the reference host speed, from the ticks taken during
    or around it."""
    return seconds * REFERENCE_S / statistics.fmean(ticks)


def pin() -> int:
    """Pin this process, and the processes it starts, to one usable CPU, so
    that set-up probes and the ticks around them run on the same CPU.
    Returns the CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
