"""Machine-speed reference: every reported time is scaled by it.

On a shared host the speed of one core drifts by up to a factor of two
within tens of seconds (on the 2-vCPU x86-64 container the benchmark was
defined on, a fixed loop measured back to back took from 0.56 s to 1.06 s).  No run is long enough to average that out, so the
benchmark measures the drift instead: a fixed, stdlib-only kernel that
exercises what the package spends its time on (small Python objects, float
arithmetic, JSON text) runs every ``INTERVAL_S`` seconds from a timer
signal while operations are being timed.  A timed stretch is then reported
as its length minus the kernel runs inside it, times ``REFERENCE_S`` over
the kernel's duration nearby: the time it would have taken on a machine
where the kernel takes exactly ``REFERENCE_S``.  Raw times are printed
alongside.  The kernel shares no code with the package, so a change to the
package moves the scaled times and not the reference.
"""

from __future__ import annotations

import bisect
import json
import math
import signal
import statistics
import time

#: Scaled times read as if one kernel run took this long.
REFERENCE_S = 0.010
#: Seconds between kernel runs while sampling.
INTERVAL_S = 0.25
#: Kernel runs within this many seconds of a stretch set its local speed.
WINDOW_S = 0.5


def kernel() -> int:
    """A fixed amount of interpreter work: about 10 ms on the machine that
    defined the benchmark."""
    rows = [
        {
            "theta": i * 1e-3,
            "phi": i * 2e-3,
            "amplitudes": [[math.cos(i), math.sin(i)] for _ in range(4)],
            "c": abs(math.sin(i)),
        }
        for i in range(340)
    ]
    text = json.dumps(rows, sort_keys=True, indent=2)
    total = len(json.loads(text))
    for i in range(13000):
        total += (i * i) % 7
    return total


def kernel_seconds(runs: int) -> float:
    """Median duration of ``runs`` back-to-back kernel runs."""
    durations = []
    for _ in range(runs):
        start = time.perf_counter()
        kernel()
        durations.append(time.perf_counter() - start)
    return statistics.median(durations)


class Sampler:
    """Runs the kernel from ``SIGALRM`` every ``INTERVAL_S`` seconds inside
    a ``with`` block and scales stretches of time by what it measured."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> Sampler:
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def _inside(self, a: float, b: float) -> float:
        """Kernel time spent within [a, b]."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        return sum(
            min(self.starts[k] + self.durations[k], b) - self.starts[k] for k in range(lo, hi)
        )

    def _local(self, a: float, b: float) -> float:
        """Median kernel duration within ``WINDOW_S`` of [a, b], widened to
        the nearest run on either side."""
        lo = max(bisect.bisect_left(self.starts, a - WINDOW_S) - 1, 0)
        hi = min(bisect.bisect_right(self.starts, b + WINDOW_S) + 1, len(self.starts))
        return statistics.median(self.durations[lo:hi])

    def scaled(self, a: float, b: float) -> float:
        """Seconds [a, b] would have taken at the reference speed, with the
        kernel runs inside it removed.  Long stretches are split at kernel
        runs so each piece is scaled by the speed around it."""
        cuts = [a] + [s for s in self.starts if a < s < b] + [b]
        total = 0.0
        for lo, hi in zip(cuts, cuts[1:]):
            net = (hi - lo) - self._inside(lo, hi)
            total += net * REFERENCE_S / self._local(lo, hi)
        return total

    def raw(self, a: float, b: float) -> float:
        """Seconds in [a, b] minus the kernel runs inside it."""
        return (b - a) - self._inside(a, b)

    def median_kernel_s(self) -> float:
        return statistics.median(self.durations)
