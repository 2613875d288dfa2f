"""The machine's speed, sampled while the program runs.

The benchmark runs on a few cores of a shared host whose speed changes
by up to half within seconds and stays changed for minutes, with no
stolen time reported: the same round, repeated in one process, ran from
7 s to 14 s.  Raw times of runs made minutes apart then differ more
than any bound a change could be held to.

A ``Sampler`` takes a SIGALRM every ``PERIOD_S`` of wall time and runs a
fixed probe in its handler: thirty products of an 8x8 int64 matrix with
itself, reduced mod a prime, timed after three untimed ones.  The probe
is numpy dispatch and small-array C code, independent of the program.
In trials it slowed down together with all three workloads: the scaled
round time of each stayed within about 5 % of its median while the raw
time moved by 30 %.  A pure-Python integer loop slowed down less than
the workloads did, and a probe timed from cold tracked the program's
own cache footprint (its mean differed by 2.5 times between jobs of one
round), so both were dropped.  ``scaled`` turns an interval measured
with the sampler running into seconds at the reference speed: the
interval less the time spent in the handler, times ``factor``,
``REF_PROBE_S`` over the mean probe time.  A signal arriving during a long C call runs its
handler when the call returns, so long numpy calls are sampled less
often; the handler adds under 1 % to the program's time, and that is
taken out again.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.02
# About the probe's duration on the machine that defined the benchmark
# while its host was quiet: scaled times read as seconds on it then.
REF_PROBE_S = 1.0e-4
# Probes run right after each measured interval, so that even an interval
# spent in one long C call has samples.
BURST = 10

_M = np.arange(64, dtype=np.int64).reshape(8, 8)


def probe(n: int) -> None:
    for _ in range(n):
        (_M @ _M) % 1000003


class Sampler:
    """Time and count of the timed probes run so far, and the time spent
    in the handler, warm-up included."""

    def __init__(self):
        self.time = 0.0
        self.count = 0
        self.busy = 0.0

    def _tick(self, *_):
        t0 = time.perf_counter()
        probe(3)
        t1 = time.perf_counter()
        probe(30)
        t2 = time.perf_counter()
        self.time += t2 - t1
        self.count += 1
        self.busy += t2 - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple:
        return self.time, self.count, self.busy

    def factor(self, since: tuple) -> float:
        """REF_PROBE_S over the mean probe time since mark() returned
        ``since``, after BURST more probes."""
        for _ in range(BURST):
            self._tick()
        return REF_PROBE_S * (self.count - since[1]) / (self.time - since[0])

    def scaled(self, since: tuple, *intervals: float) -> tuple:
        """Each interval, measured since mark() returned ``since``, in
        seconds at the reference speed, and the factor used.  The
        handler's time inside the measured interval is subtracted from
        every interval (it ran inside each of them)."""
        inside = self.busy - since[2]
        f = self.factor(since)
        return [(t - inside) * f for t in intervals], f
