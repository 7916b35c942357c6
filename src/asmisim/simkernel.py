"""Simulated time, and a deterministic discrete-event kernel.

Time is integer milliseconds (SimTime), never a float; scenario.validate
keeps every time it loads within [0, MAX_SIMTIME]. A run needs no kernel
(see runner): the Kernel serves the tests' event-driven reference models,
and perfbench's tracer wraps its schedule and run_until. Events fire in
(fire time, priority key, insertion) order; each is a callable and its
arguments, called as stored, so scheduling builds no closure.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Callable

SimTime = int

MAX_SIMTIME = 2**64 - 1
# A run holds five counts over the horizon in memory, each about horizon //
# step entries: each signal's truth on the error grid, each sensor's polls at
# a fixed baseline dt and its STATUS frames, an ambient signal's noise walk
# and its breakpoints (a noise tick, and an extremum per half-period). One
# bound caps each in scenario.validate, and it caps the grid quanta one
# sensor's crossing solve may travel (signalgen.TooManyCrossings). On
# quiet_day.json just inside it (a shared 2-core machine), the polls (dt 87)
# took 4.4 s and 339 MiB peak RSS, the walk (noise_step 87) 2.7 s and 225
# MiB, the extrema (period 173) 3.4 s and 326 MiB, one sensor's STATUS
# frames (status_interval 87) 9.7 s and 637 MiB; a 1 kWh/h day solved to
# 999 999 crossings in 4.5 s. It fits a 1-minute step over 694 days; a 1 ms
# step over one day would need 86 400 000 entries.
MAX_GRID_POINTS = 1_000_000


class SchedulingInPast(Exception):
    """Raised when an event is scheduled before the kernel's current time."""


class Kernel:
    """Single-threaded event scheduler; kernels share nothing."""

    def __init__(self) -> None:
        self._now: SimTime = 0
        self._heap: list[tuple] = []
        self._insertions = count()

    def schedule(
        self,
        fire_at: SimTime,
        priority_key: tuple[int, int, int],
        fn: Callable[..., object],
        *args: object,
    ) -> None:
        """Schedule `fn(*args)` to run exactly once at `fire_at`.

        `priority_key` is (actor-class rank, actor id, per-actor sequence);
        it breaks ties among events with equal fire times, and insertion
        order breaks the rest.
        """
        if fire_at < self._now:
            raise SchedulingInPast(f"fire_at={fire_at} < now={self._now}")
        heapq.heappush(self._heap, (fire_at, priority_key, next(self._insertions), fn, args))

    def run_until(self, t_end: SimTime) -> int:
        """Fire every event with fire_at <= t_end in order, including any
        scheduled while it runs, then stand at t_end. Returns how many fired."""
        if t_end < self._now:
            raise ValueError(f"t_end={t_end} is before now={self._now}")
        heap = self._heap
        fired = 0
        while heap and heap[0][0] <= t_end:
            fire_at, _key, _insertion, fn, args = heapq.heappop(heap)
            self._now = fire_at
            fn(*args)
            fired += 1
        self._now = t_end
        return fired
