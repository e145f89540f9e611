"""A host-speed gauge that rescales wall times to a fixed reference speed.

On a shared host the CPU's speed drifts: a fixed pure-Python loop reads
25% slower or faster from one second to the next, and whole minutes run
slow or fast together, so the wall time of the same solve moves by 20-35%
from run to run. The gauge measures that speed while the work runs. A
timer interrupts the process every ``INTERVAL_S`` seconds of wall time,
and the signal handler times a fixed loop (``GAUGE_LOOPS`` integer
additions). The loop's time is the inverse of the speed at that moment,
and the samples are spread evenly over the timed work. A timed segment
is reported as

    (wall - time spent in the gauge) * mean(REF_GAUGE_S / gauge_i)

which is the work done, in seconds at the speed where one gauge loop
takes ``REF_GAUGE_S``. That constant is about the loop's median time on
a 4-vCPU Intel Xeon VM at 2.1 GHz, so on such a host the rescaled time is
close to the wall time.

Python runs signal handlers between bytecodes of the main thread, so a
sample that falls inside a long numpy or socket call is taken when the
call returns; the samples then follow the interpreter's speed.
"""
from __future__ import annotations

import signal
import time

INTERVAL_S = 0.01
GAUGE_LOOPS = 5000
REF_GAUGE_S = 200e-6


def rescale(wall_s: float, gauge_s: list[float]) -> float:
    """Seconds at the reference speed of a segment with these gauge samples."""
    if not gauge_s:
        return wall_s
    net = wall_s - sum(gauge_s)
    return net * sum(REF_GAUGE_S / g for g in gauge_s) / len(gauge_s)


class SpeedGauge:
    """Samples the interpreter's speed on a wall-clock timer while entered.

    ``start()`` marks the beginning of a segment; ``stop(mark)`` returns its
    wall seconds and its seconds at the reference speed.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        x = 0
        for i in range(GAUGE_LOOPS):
            x += i
        self.samples.append(time.perf_counter() - t)

    def __enter__(self) -> "SpeedGauge":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def start(self) -> tuple[float, int]:
        return time.perf_counter(), len(self.samples)

    def stop(self, mark: tuple[float, int]) -> tuple[float, float]:
        t0, k0 = mark
        wall = time.perf_counter() - t0
        return wall, rescale(wall, self.samples[k0:])
