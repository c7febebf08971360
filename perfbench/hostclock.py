"""Host-speed normalisation for timings taken on a shared, drifting host.

On a shared 2-core x86-64 virtual machine the CPU a run gets changes
speed by 30% or more for seconds or minutes at a time (other tenants,
frequency changes), and that drift, not the code, dominated the
run-to-run spread of every timing.  :class:`HostClock` samples the host's speed while the
workload runs: a timer signal interrupts the main thread every
:data:`INTERVAL_S` and times a fixed pure-Python probe loop.  Timings
are then reported two ways:

* ``raw``: wall time minus the probes that ran inside the interval;
* normalised: that busy time scaled by ``REFERENCE_PROBE_NS / p``, where
  ``p`` is the median probe time around the interval.  A normalised
  millisecond is the time the interval would have taken on a host that
  runs the probe in :data:`REFERENCE_PROBE_NS`.

The probe exercises only the interpreter, never the library, so a code
change cannot move it; only the host can.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List, Tuple

#: Seconds between probes.
INTERVAL_S = 0.05
#: Loop iterations of one probe (about 1 ms on a 2-core x86-64 host).
PROBE_ITERATIONS = 20_000
#: Probe time that defines the reference host speed.
REFERENCE_PROBE_NS = 1_000_000
#: Probes either side of an interval that set its speed.
NEIGHBOURS = 3


def _probe() -> int:
    started = time.perf_counter_ns()
    total = 0
    for value in range(PROBE_ITERATIONS):
        total += value
    return time.perf_counter_ns() - started


class HostClock:
    """Samples host speed on a timer signal while it is entered.

    Use as a context manager around the whole measurement; the previous
    signal handler and timer are restored on exit.
    """

    def __init__(self) -> None:
        self.starts: List[int] = []
        self.durations: List[int] = []
        self._cumulative: List[int] = [0]
        self._previous = None

    def _on_timer(self, signum, frame) -> None:
        started = time.perf_counter_ns()
        duration = _probe()
        self.starts.append(started)
        self.durations.append(duration)
        self._cumulative.append(self._cumulative[-1] + duration)

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self) -> None:
        """Stop sampling and restore the previous handler (idempotent)."""
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def busy_ns(self, start: int, end: int) -> int:
        """Wall time of ``[start, end)`` minus the probes inside it."""
        low = bisect.bisect_left(self.starts, start)
        high = bisect.bisect_left(self.starts, end)
        return end - start - (self._cumulative[high] - self._cumulative[low])

    def probe_ns(self, start: int, end: int) -> float:
        """Median probe time from ``NEIGHBOURS`` probes either side of
        ``[start, end)`` plus every probe inside it."""
        if not self.durations:
            return float(REFERENCE_PROBE_NS)
        low = max(0, bisect.bisect_left(self.starts, start) - NEIGHBOURS)
        high = min(
            len(self.starts), bisect.bisect_left(self.starts, end) + NEIGHBOURS
        )
        return statistics.median(self.durations[low:max(high, low + 1)])

    def normalised_ns(self, start: int, end: int) -> float:
        """Busy time of ``[start, end)`` at the reference host speed."""
        return self.busy_ns(start, end) * REFERENCE_PROBE_NS / self.probe_ns(
            start, end
        )

    def summary(self) -> Tuple[int, float, float]:
        """(probes, median probe ms, probe time share of the run)."""
        if not self.durations:
            return 0, 0.0, 0.0
        span = self.starts[-1] + self.durations[-1] - self.starts[0]
        return (
            len(self.durations),
            statistics.median(self.durations) / 1e6,
            sum(self.durations) / span if span else 0.0,
        )
