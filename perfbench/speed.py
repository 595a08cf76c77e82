"""Machine-speed probe that rescales measured time to a fixed nominal speed.

On a shared host the same pass can run 20-40% slower for seconds to minutes
while other tenants load the machine.  A `SpeedProbe` samples that speed
throughout a pass: an interval timer interrupts the process every
PROBE_INTERVAL_S, and the signal handler times one run of `reference_work`,
a fixed pure-Python loop in this file.  Time spent in probes is excluded
from every measured interval, and each stretch of work between two probes is
rescaled by NOMINAL_PROBE_S / (the local probe time), so a measured interval
reads as the seconds it would take at the nominal speed.

The reference is part of the benchmark, not of qarith, so a change to the
program changes the rescaled time exactly as it changes the work.  The handler
runs in the main thread between bytecodes, like any Python signal handler;
interrupted system calls are retried by Python (PEP 475).

This module imports only the standard library, so a worker can start the
probe before it imports numpy and qarith and thereby also rescale set-up.
"""
from __future__ import annotations

import signal
import statistics
import time

PROBE_INTERVAL_S = 0.1
# Median probe time on the 2-core x86_64 machine described in README.md.
NOMINAL_PROBE_S = 0.0016
# Each stretch between two probes is rescaled by the median of the probes
# within this many places of it, so one disturbed probe does not skew it.
_NEIGHBOURS = 2


def reference_work() -> int:
    """Fixed interpreter work: dict updates, tuples, int ops and a keyed sort."""
    table: dict[int, int] = {}
    rows = []
    acc = 0
    for i in range(1500):
        k = (i * 2654435761) & 1023
        table[k] = table.get(k, 0) + i
        row = (i, k, i ^ k)
        rows.append(row)
        acc += len(row) + (i * i >> 3)
    rows.sort(key=lambda row: row[1])
    return acc + len(table)


class SpeedProbe:
    def __init__(self):
        # (start, end) of every probe, on the time.monotonic clock.
        self.probes: list[tuple[float, float]] = []

    def _probe(self, *_) -> None:
        start = time.monotonic()
        reference_work()
        self.probes.append((start, time.monotonic()))

    def start(self) -> None:
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()

    def measure(self, t0: float, t1: float) -> tuple[float, float]:
        """(work seconds, rescaled seconds) in [t0, t1], probes excluded.

        Work before the first probe takes the speed of the first gap, and
        work after the last probe that of the last gap.
        """
        durations = [end - start for start, end in self.probes]
        # Gap g runs from the end of probe g to the start of probe g + 1.
        bounds = ([float("-inf")] + [end for _, end in self.probes],
                  [start for start, _ in self.probes] + [float("inf")])
        last = len(self.probes) - 2
        raw = scaled = 0.0
        for g, (lo, hi) in enumerate(zip(*bounds)):
            span = min(hi, t1) - max(lo, t0)
            if span <= 0:
                continue
            centre = min(max(g - 1, 0), max(last, 0))
            local = statistics.median(
                durations[max(centre - _NEIGHBOURS + 1, 0):centre + _NEIGHBOURS + 1]
            )
            raw += span
            scaled += span * NOMINAL_PROBE_S / local
        return raw, scaled
