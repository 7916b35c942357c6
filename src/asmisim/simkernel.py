"""Simulated time, and a deterministic discrete-event kernel.

Time is integer milliseconds (SimTime) in the unsigned 64-bit range; there
is no floating-point time anywhere. A run needs no kernel (see runner): the
Kernel serves the event-driven reference models in the tests. It orders
events by (fire time, priority key, insertion order) and runs them
single-threaded; an event is a callable and its arguments, stored as they
are and called when the event fires, so scheduling builds no closure.
"""

from __future__ import annotations

import heapq
from typing import Callable

SimTime = int

MAX_SIMTIME = 2**64 - 1


class SchedulingInPast(Exception):
    """Raised when an event is scheduled before the kernel's current time."""


class SimTimeOverflow(Exception):
    """Raised when a time value leaves the unsigned 64-bit millisecond range."""


def as_simtime(value: int) -> SimTime:
    """Validate a millisecond timestamp; wrapping is never silent."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise SimTimeOverflow(f"sim time must be an integer, got {value!r}")
    if value < 0 or value > MAX_SIMTIME:
        raise SimTimeOverflow(f"sim time {value} outside [0, 2**64)")
    return value


class Kernel:
    """Single-threaded event scheduler.

    Multiple kernels may coexist in one process; they share nothing.
    """

    def __init__(self) -> None:
        self._now: SimTime = 0
        self._heap: list[tuple] = []
        self._insertions = 0
        self._fired = 0

    def now(self) -> SimTime:
        return self._now

    def schedule(
        self,
        fire_at: SimTime,
        priority_key: tuple[int, int, int],
        fn: Callable[..., object],
        *args: object,
    ) -> int:
        """Schedule `fn(*args)` to run exactly once at `fire_at`.

        `priority_key` is (actor-class rank, actor id, per-actor sequence);
        it breaks ties among events with equal fire times. Returns an opaque
        handle identifying the insertion.
        """
        if type(fire_at) is not int or not 0 <= fire_at <= MAX_SIMTIME:
            fire_at = as_simtime(fire_at)
        if fire_at < self._now:
            raise SchedulingInPast(f"fire_at={fire_at} < now={self._now}")
        handle = self._insertions
        self._insertions = handle + 1
        heapq.heappush(self._heap, (fire_at, priority_key, handle, fn, args))
        return handle

    def run_until(self, t_end: SimTime) -> int:
        """Fire every event with fire_at <= t_end in total order.

        Leaves now() == t_end. Returns the number of events fired by this
        call, including any scheduled while it ran.
        """
        t_end = as_simtime(t_end)
        if t_end < self._now:
            raise ValueError(f"t_end={t_end} is before now={self._now}")
        heap = self._heap
        pop = heapq.heappop
        fired = 0
        while heap and heap[0][0] <= t_end:
            fire_at, _key, _handle, fn, args = pop(heap)
            self._now = fire_at
            fn(*args)
            fired += 1
        self._now = t_end
        self._fired += fired
        return fired

    def pending(self) -> int:
        """Events scheduled but not yet fired."""
        return len(self._heap)

    def fired_total(self) -> int:
        """Events fired over the kernel's lifetime."""
        return self._fired
