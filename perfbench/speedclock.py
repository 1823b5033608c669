"""A clock that counts work at a steady speed on a host whose speed is not.

On a shared host a vCPU switches between a fast and a slow state (1.4 to 2
times slower) for seconds at a time, without being descheduled, so wall time
measures the neighbours as much as the program. While it runs, this clock
times a fixed reference loop every PERIOD seconds from a SIGALRM handler in
the measuring thread, and counts each stretch of wall time between two
samples in reference loops, at the median speed of the last three samples.
The reference loops themselves are not counted.

Code of different kinds slows by different factors in the slow state. The
loop is method calls on a small object: regressing log op time on log loop
time over a minute gave slopes of about 0.95 for decide-tight instances,
1.05 for small fuzz batches and 0.85 for census chunks, against 1.25, 1.45
and 1.1 for an integer-arithmetic loop. A numpy loop (shifts and masks over
an int64 array) matched census chunks in that test but slowed 2.4 times in a
later slow spell in which the census slowed about 1.6 times, so it was
dropped.

`now()` reads the count in seconds, each loop counting for LOOP_S, its
time in the fast state. A difference of two readings is the time the code
between them would have taken had the host run the whole stretch in the fast
state. A fixed scale, rather than one taken from each run's own samples,
keeps a run that never saw a fast spell on the same scale as the others.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PERIOD = 0.01   # seconds between reference samples
LOOP_S = 200e-6  # seconds a loop counts for: about its time in the fast state
                 # of the 2-vCPU host the baselines were measured on


class _Cell:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def add(self, x: int) -> int:
        self.value += x
        return self.value


def reference_loop() -> float:
    cell = _Cell()
    t0 = perf_counter()
    for i in range(2500):
        cell.add(i & 7)
    return perf_counter() - t0


class SpeedClock:
    def __init__(self):
        self.samples: list[float] = []
        self._work = 0.0
        self._last = 0.0
        self._cur = 1.0
        self._ticks = 0
        self._previous = None

    def _sample(self) -> float:
        self.samples.append(reference_loop())
        return statistics.median(self.samples[-3:])

    def _tick(self, signum, frame) -> None:
        t = perf_counter()
        cur = self._sample()
        self._work += (t - self._last) / cur
        self._cur = cur
        self._last = perf_counter()
        self._ticks += 1

    def start(self) -> "SpeedClock":
        for _ in range(3):
            self._cur = self._sample()
        self._last = perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self) -> "SpeedClock":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def now(self) -> float:
        """Seconds counted so far, at the fast-state speed."""
        while True:
            ticks = self._ticks
            value = self._work + (perf_counter() - self._last) / self._cur
            if ticks == self._ticks:  # no tick landed while reading
                return value * LOOP_S
