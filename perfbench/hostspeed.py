"""The host's speed at the moment, from a fixed reference computation.

On a shared host the CPU speed drifts in phases of seconds to minutes, by up
to about 1.6x, and process CPU time drifts with wall time, so plain
wall-clock latencies of the same code on the same inputs spread from run to
run by more than any useful regression bound.  While a run measures, a
timer signal interrupts the worker every ``SAMPLE_EVERY_S`` seconds, also in
the middle of a request, and times one fixed unit of pure-Python work in
CPU time.  Each
request's time, less the time spent in those samples, is then scaled to a
host on which one unit takes ``REFERENCE_UNIT_MS``, about its time on the
2-vCPU x86-64 VM the benchmark was built on:

    scaled = (wall - sampling) * REFERENCE_UNIT_MS / (median unit time near the request)

The unit is a breadth-first search over every triangulation of the octagon
(n=6, 132 shapes) with the reference flip in ``oracles``: the same kind of
work as the program's (tuples, sets, small loops), but code of the
benchmark, so no change to the program can move it.  It runs with the
garbage collector off, so the size of the program's heap does not leak into
it.  The unscaled wall times are reported beside the scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

import oracles

REFERENCE_UNIT_MS = 10.0
SAMPLE_EVERY_S = 0.4
WINDOW_S = 1.5  # a request is scaled by the samples taken during it or this close to it
N = 6
SHAPES = 132  # Catalan(6)
START = oracles.phi(tuple(range(1, N + 1)))


def unit_seconds() -> float:
    """CPU seconds of one reference unit.

    CPU time of the thread, not wall time: a slow core shows in both, but a
    program that keeps both cores busy with worker processes of its own
    delays the unit's wall time and not its CPU time, and must not look
    faster for it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        seen, frontier = {START}, [START]
        while frontier:
            nxt = []
            for s in frontier:
                for d in s:
                    t = oracles.flip(N, s, d)[0]
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
            frontier = nxt
        dt = time.thread_time() - t0
    finally:
        if enabled:
            gc.enable()
    if len(seen) != SHAPES:
        raise AssertionError(f"reference unit reached {len(seen)} shapes, expected {SHAPES}")
    return dt


class HostSpeed:
    """Samples of the reference unit over a run, and the scale they give.

    Use as a context manager around the measured loop: it samples on entry,
    on every timer tick and on exit.  ``spent`` is the running total of
    seconds spent sampling; a request subtracts its growth from its time.
    """

    def __init__(self):
        self.times: list[float] = []
        self.units: list[float] = []
        self.spent = 0.0
        self._previous = None

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        self.units.append(unit_seconds())
        self.times.append(t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        unit_seconds()  # the first call of a unit is slower; not a sample
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """The factor that takes time spent in [t0, t1] to the reference speed."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        near = self.units[lo:hi]
        if not near:  # no sample in the window: the one closest in time
            i = min(range(len(self.times)), key=lambda k: abs(self.times[k] - t0))
            near = [self.units[i]]
        return REFERENCE_UNIT_MS / 1e3 / statistics.median(near)

    def unit_ms(self) -> float:
        """Median unit CPU time over the run, in ms."""
        return statistics.median(self.units) * 1e3
