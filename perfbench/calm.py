"""Op latencies at a fixed reference speed of the host.

On a small VM shared with other tenants, each vCPU alternates, for spells
of a fraction of a second to twenty seconds, between its calm speed and
about half of it, the two vCPUs independently, and the calm speed itself
drifts by some 20% from one quarter hour to the next.  Wall time of the
same ops on the same code then reads anywhere from 1x to 2x.

The probe is a short fixed Fraction loop that never calls bornlab (about
0.6 ms on a calm vCPU).  While an op runs, a SIGALRM handler probes the
current vCPU every TICK_S of wall time and, when the probe reads slower than
CALM_RATIO times the fastest probe of the run, moves the process to the
next vCPU allowed to it (sched_setaffinity on the process itself), which
keeps the op on a calm vCPU when there is one.  The op's time is cut into
the intervals between handler calls, the handler's own time left out; each
interval runs on one vCPU, and the probes at its two ends tell that vCPU's
speed over it.  `Pacer.end()` returns the op's latency as measured and at
the reference speed: the sum over intervals of interval / mean of its two
probes, times REF_PROBE_S.  This cancels the host's speed, the probe's and
the op's alike, so the second figure moves with the program only.  The same
scaling applies to set-up time (`Pacer.scale`), bracketed by probes of the
vCPU the child runs on.

The scaling is exact only as far as bornlab slows down in a slow spell as
much as the probe does; both are CPython Fraction arithmetic, and the same
ops at the reference speed vary by about 1% from run to run where their
measured latency varies by 2x.  Nothing here touches bornlab.
"""

from __future__ import annotations

import os
import signal
import time
from fractions import Fraction

# the probe's time on a calm vCPU of the machine the benchmark was defined on
# (2-vCPU Xeon VM, Python 3.11): figures at the reference speed are in
# seconds of that machine when calm
REF_PROBE_S = 600e-6
CALM_RATIO = 1.3   # calm probes read 1.0-1.2x the floor, slow ones 1.6-2.3x
TICK_S = 0.01
CALIBRATE_S = 0.3
PROBE_STEPS = 150


def fraction_loop(n: int) -> float:
    """Seconds taken by n steps of a fixed stdlib Fraction loop that never calls bornlab."""
    start = time.perf_counter()
    for k in range(1, n + 1):
        Fraction(k, k + 1) * Fraction(k + 2, 2 * k + 3) + Fraction(1, k)
    return time.perf_counter() - start


class Pacer:
    def __init__(self, floor: float = float("inf")):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.cpu = 0
        self.floor = floor  # fastest probe seen, in seconds
        self.raw_s = self.units = 0.0  # of the op being timed
        self._armed = False
        self._open_t = self._open_p = 0.0

    def read(self) -> float:
        """Probe the current vCPU."""
        t = fraction_loop(PROBE_STEPS)
        self.floor = min(self.floor, t)
        return t

    def _move(self) -> None:
        self.cpu = (self.cpu + 1) % len(self.cpus)
        os.sched_setaffinity(0, {self.cpus[self.cpu]})

    def _step(self, t: float) -> float:
        """Given a probe of the current vCPU: if slow, move on and probe there."""
        if t > self.floor * CALM_RATIO and len(self.cpus) > 1:
            self._move()
            t = self.read()
        return t

    def calibrate(self) -> None:
        """Probe every vCPU for CALIBRATE_S to find the calm speed."""
        end = time.perf_counter() + CALIBRATE_S
        while time.perf_counter() < end:
            self.read()
            self._move()

    def pick(self) -> float:
        """Probe the current vCPU, move on if it is slow; the last probe."""
        return self._step(self.read())

    def scale(self, seconds: float, before: float, after: float) -> float:
        """seconds measured between two probes, at the reference speed."""
        return seconds * REF_PROBE_S * 2 / (before + after)

    def _close(self, t: float, p: float) -> None:
        dt = t - self._open_t
        self.raw_s += dt
        self.units += dt * 2 / (self._open_p + p)

    def _tick(self, signum, frame) -> None:
        if not self._armed:
            return
        t = time.perf_counter()
        p = self.read()
        self._close(t, p)
        self._open_p = self._step(p)
        self._open_t = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S)

    def begin(self) -> None:
        """Start timing an op; call right before it."""
        self.raw_s = self.units = 0.0
        self._open_p = self.pick()
        signal.signal(signal.SIGALRM, self._tick)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, TICK_S)
        self._open_t = time.perf_counter()

    def end(self) -> tuple:
        """Stop timing right after the op: (latency as measured, at the reference speed)."""
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._close(time.perf_counter(), self.read())
        return self.raw_s, self.units * REF_PROBE_S
