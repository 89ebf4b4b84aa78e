"""CPU speed sampled during a pass, to take machine-wide slowdowns out of
the timings.

On a shared machine the same code runs up to ~2x slower for minutes at a
time, and the process's CPU time slows with its wall time, so neither can
be compared across runs.  `SpeedProbe` interrupts the pass every
PERIOD_S of CPU time and times a fixed, tautrings-independent chunk of the
same kind of work as the workload.  `reference_seconds` then divides each
slice of the pass by the slowdown measured around it: the result is the
pass's duration at the speed where one chunk takes its reference time.
"""

import json
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05
SETUP_PERIOD_S = 0.005      # set-up lasts ~0.1 s, so sample it densely
SMOOTH = 5                  # chunks per running median of the speed


def fraction_chunk():
    """Fraction arithmetic, tuple keys and dict updates: the operations that
    dominate the exact-arithmetic workloads."""
    acc = {}
    for i in range(40):
        key = (i % 7, i % 3)
        acc[key] = acc.get(key, 0) + Fraction(i + 1, 3 + i % 5)
    return acc


def json_chunk():
    """A JSON round trip of "num/den" strings: the work of a cache-file
    load and save, which slows more than arithmetic under contention."""
    return json.loads(json.dumps({str(i): f"{i}/{i + 1}" for i in range(30)}))


# Chunk kind -> (chunk, its time inside a pass on an uncontended core here).
CHUNKS = {"fraction": (fraction_chunk, 1.25e-4), "json": (json_chunk, 9e-5)}


class SpeedProbe:
    """While started, SIGPROF runs `chunk` every `period` seconds of CPU
    time and records (start, seconds) of each chunk.  Times are
    `time.monotonic()` readings, comparable across processes."""

    def __init__(self, kind):
        self.chunk, self.reference = CHUNKS[kind]
        self.samples = []
        self._old = None

    def _tick(self, signum, frame):
        t0 = time.monotonic()
        self.chunk()
        self.samples.append((t0, time.monotonic() - t0))

    def start(self, period):
        if self._old is None:
            self.chunk()  # the first call pays for allocation, not speed
            self._old = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, period, period)

    def stop(self):
        if self._old is None:
            return
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old)
        self._old = None

    def probe_seconds(self, start, end):
        """Time spent inside the probe between `start` and `end`."""
        return sum(c for t, c in self.samples if start <= t < end)

    def reference_seconds(self, start, end):
        """Duration of [start, end] without probe time, each slice between
        two probes scaled to the reference speed by the running median of
        the chunk times around it."""
        inside = [s for s in self.samples if start <= s[0] < end]
        if not inside:
            return (end - start) * self.reference / self.chunk_time()
        chunks = [c for _, c in inside]
        total, prev = 0.0, start
        for k, (t, c) in enumerate(inside + [(end, 0.0)]):
            window = chunks[max(0, k - SMOOTH // 2):k + SMOOTH // 2 + 1]
            total += (t - prev) * self.reference / statistics.median(window)
            prev = t + c
        return total

    def chunk_time(self, repeats=9):
        """Median time of one chunk, measured now."""
        times = []
        for _ in range(repeats):
            t = time.monotonic()
            self.chunk()
            times.append(time.monotonic() - t)
        return statistics.median(times)
