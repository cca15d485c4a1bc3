"""Calibrated CPU time: CPU seconds scaled to a fixed host speed.

On a shared host even the CPU time of a fixed piece of work is not fixed.
The host's speed for the same work drifts within seconds and changes by up
to 1.75x between busy and quiet periods that last minutes, depending on what
the other tenants do. A fixed reference piece of work, timed at the same
moments as the work measured, drifts with it. So while a timed run is on,
an interval-timer signal times the reference every PERIOD_S of wall
time, and a measured piece is reported as

    cost = its CPU seconds * nominal / the mean reference sample taken
           while it ran or within WINDOW_S of wall time before or after it

The samples' own CPU and wall time are taken out of the piece they
interrupted. The host's speed also flickers from one tenth of a second
to the next (back-to-back samples differ by up to 30%), so samples are
short and frequent, and the window pools many of them: about 40 for a
0.17 s `plan-exact` operation. It is short enough to follow the drift.
The timer counts wall time (ITIMER_REAL), not CPU time: while a
process-wide CPU timer is armed, Linux advances the process's CPU clock
only at scheduler ticks (4 ms on the defining host), too coarse for a
3 ms sample.

The reference calls no vsg code, so a change to vsg cannot move it. It is
made of the kinds of work the measured workload spends its time on, from
two parts: "python", plain-Python dynamic programming like the planner's
Held-Karp, and "numpy", a full-matrix SVD as in `fit_pca` and matrix
products with tanh as in the model's layers. Busy periods of the host slow
plain Python more than numpy: a planner operation slowed by 1.5x where the
two parts together slowed by 1.3x.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

# CPU seconds of each reference part on the host the benchmark was defined
# on (an Intel Xeon vCPU at 2.1 GHz), about their median there: calibrated
# times are CPU seconds on that host at that speed.
NOMINAL_S = {"python": 0.0035, "numpy": 0.0025}
PERIOD_S = 0.1  # wall seconds between samples
WINDOW_S = 2.0  # wall seconds around a piece whose samples calibrate it


class _Reference:
    """The fixed reference work; its inputs are built once."""

    def __init__(self, parts: tuple[str, ...]):
        rng = np.random.default_rng(0)
        self.n = 8
        self.dist = rng.random((self.n, self.n)).tolist()
        self.tall = rng.standard_normal((300, 26))
        self.square = rng.random((100, 100))
        self.parts = [getattr(self, part) for part in parts]

    def __call__(self) -> None:
        for part in self.parts:
            part()

    def python(self) -> None:
        n, d, best = self.n, self.dist, {}
        for mask in range(1, 1 << n):
            for j in range(n):
                if mask >> j & 1:
                    rest = mask ^ (1 << j)
                    best[mask, j] = d[0][j] if rest == 0 else min(
                        best[rest, k] + d[k][j] for k in range(n) if rest >> k & 1)

    def numpy(self) -> None:
        np.linalg.svd(self.tall, full_matrices=True)
        a = self.square
        for _ in range(2):
            a = np.tanh(a @ a * 0.01)


@dataclass
class Measurement:
    """One measured piece, without the reference samples taken while it
    ran: wall-clock span, CPU and wall seconds, and (once the run is
    calibrated) its calibrated cost."""

    start: float = 0.0
    end: float = 0.0
    cpu_s: float = 0.0
    wall_s: float = 0.0
    cost_s: float = 0.0


@dataclass
class _Sample:
    at: float  # wall clock when it ended
    cpu_s: float
    wall_s: float


class HostSpeed:
    """`with speed.sampling(): ... with speed.measure() as m: ...`, then
    `speed.calibrate(pieces)` fills in each piece's `cost_s`."""

    def __init__(self, parts: tuple[str, ...]):
        self._reference = _Reference(parts)
        self.nominal_s = sum(NOMINAL_S[part] for part in parts)
        self.samples: list[_Sample] = []
        self._busy = False

    def _sample(self) -> None:
        if self._busy:  # a sample is never interrupted by the next one
            return
        # No garbage collection inside a sample: a full collection would
        # walk the workload's objects and charge it to the reference.
        self._busy, gc_was_on = True, gc.isenabled()
        gc.disable()
        try:
            t0, c0 = time.perf_counter(), time.process_time()
            self._reference()
            t1 = time.perf_counter()
            self.samples.append(_Sample(t1, time.process_time() - c0, t1 - t0))
        finally:
            self._busy = False
            if gc_was_on:
                gc.enable()

    @contextlib.contextmanager
    def sampling(self):
        """Sample every PERIOD_S of wall time while the block runs."""
        self._sample()
        old_handler = signal.signal(signal.SIGALRM, lambda signum, frame: self._sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, old_handler)
            self._sample()

    @contextlib.contextmanager
    def measure(self):
        """Measure the block's CPU and wall time, less the samples in it."""
        m = Measurement()
        n0 = len(self.samples)
        m.start, c0 = time.perf_counter(), time.process_time()
        try:
            yield m
        finally:
            cpu, m.end = time.process_time() - c0, time.perf_counter()
            inside = self.samples[n0:]
            m.cpu_s = cpu - sum(s.cpu_s for s in inside)
            m.wall_s = m.end - m.start - sum(s.wall_s for s in inside)

    def calibrate(self, pieces) -> None:
        """Set each piece's cost_s from the samples around it."""
        ends = [s.at for s in self.samples]
        for m in pieces:
            lo = bisect.bisect_left(ends, m.start - WINDOW_S)
            hi = bisect.bisect_right(ends, m.end + WINDOW_S)
            if lo == hi:  # none in the window: the nearest one
                lo = min(max(lo - 1, 0), len(ends) - 1)
                hi = lo + 1
            ref = statistics.fmean(s.cpu_s for s in self.samples[lo:hi])
            m.cost_s = m.cpu_s * self.nominal_s / ref


@contextlib.contextmanager
def plain_measure():
    """Like `HostSpeed.measure`, outside a sampled run: cost_s is CPU time."""
    m = Measurement()
    m.start, c0 = time.perf_counter(), time.process_time()
    try:
        yield m
    finally:
        m.cpu_s = m.cost_s = time.process_time() - c0
        m.end = time.perf_counter()
        m.wall_s = m.end - m.start
