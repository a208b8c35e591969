"""A clock that follows the machine's speed as well as the wall.

On a shared host the CPU's speed can change by up to half for seconds at a
time, without steal time, as other tenants load the hardware. Wall-clock timings of the same
work then spread by more than any regression bound. `SpeedClock` samples
the speed with a fixed probe every `PERIOD_S` seconds, from
a SIGALRM handler in the benchmark's own thread. `work_time` maps wall-clock
timestamps onto a clock that runs at the reference speed, the speed at
which one probe takes `PROBE_REF_S`: each stretch between two probes
advances it by its wall time divided by the slowdown measured there, and
the probes' own time is left out. A difference of two mapped timestamps is
the seconds that interval would have taken at the reference speed.
"""
from __future__ import annotations

import signal
import time
from array import array

import numpy as np

# One probe's duration at the fastest speed seen on the 2-core host where
# the benchmark was built.
PROBE_REF_S = 1.2e-3
PERIOD_S = 0.05  # seconds between probes; PROBE_REF_S and the probes' cost assume it
SMOOTH = 5  # probes in the rolling median that smooths the slowdown factor

_V = np.linspace(0.0, 1.0, 8)
_IDX = np.arange(8)
_M = np.eye(20) + 0.01


def _probe() -> None:
    """Interpreter work plus small-array numpy calls, the mix that most of
    the package's time is spent in. A pure-Python loop alone tracked the
    region grid's slow phases about three times less closely."""
    acc = 0
    for i in range(5000):
        acc += i * i
    for _ in range(40):
        z = np.exp(_V + 1j * _V)
        out = np.zeros(8, dtype=complex)
        np.add.at(out, _IDX, z * np.conj(z))
        np.linalg.solve(_M, _M[0])


class SpeedClock:
    """Probes the machine's speed while entered; use as a context manager."""

    def __init__(self):
        self.start = array("d")
        self.end = array("d")

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _probe()
        self.start.append(t0)
        self.end.append(time.perf_counter())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def slowdown(self) -> np.ndarray:
        """Per probe: its duration, as a rolling median, over PROBE_REF_S."""
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        pad = np.pad(dur, SMOOTH // 2, mode="edge")
        smooth = np.median(np.lib.stride_tricks.sliding_window_view(pad, SMOOTH), axis=1)
        return smooth / PROBE_REF_S

    def work_time(self, t) -> np.ndarray:
        """Map wall-clock timestamps (perf_counter seconds) onto
        reference-speed work time. Without a probe the wall clock is
        returned; with fewer than SMOOTH probes the rolling median spans
        them all."""
        t = np.asarray(t, dtype=float)
        start = np.frombuffer(self.start)
        end = np.frombuffer(self.end)
        if not len(start):
            return t
        factor = self.slowdown()
        # The stretch before probe k runs at the factor probe k measured.
        gaps = np.diff(start, prepend=start[0]) - np.concatenate(([0.0], end[:-1] - start[:-1]))
        done = np.cumsum(gaps / factor)  # work time at each probe's start
        k = np.searchsorted(start, t, side="right")
        prev = np.clip(k - 1, 0, len(start) - 1)
        nxt = factor[np.clip(k, 0, len(start) - 1)]
        after = done[prev] + np.maximum(t - end[prev], 0.0) / nxt
        return np.where(k == 0, (t - start[0]) / factor[0], after)
