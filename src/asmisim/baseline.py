"""Synchronous AMI polling baseline.

Reads every sensor on a fixed interval regardless of whether anything
changed, which is exactly the cost structure the event-driven pipeline is
measured against. Polling is lossless and instantaneous here — a generous
baseline — so any error is purely the staleness of the zero-order hold
between polls.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter

from .signalgen import Signal, value_at
from .simkernel import SimTime


class NonPositiveInterval(Exception):
    """Polling or grid interval must be a positive number of ms."""


class ZeroBudget(Exception):
    """A matched message budget of zero cannot define an interval."""


@dataclass(frozen=True)
class AmiSample:
    t: SimTime
    value: float


@dataclass(frozen=True)
class ErrorReport:
    sup: float
    mean: float
    rmse: float
    n_points: int


def poll(signal: Signal, dt: SimTime) -> list[AmiSample]:
    """Sample the signal at dt, 2*dt, ... up to and including its horizon."""
    if dt <= 0:
        raise NonPositiveInterval(f"dt must be positive, got {dt}")
    samples = []
    k = 1
    while k * dt <= signal.horizon:
        t = k * dt
        samples.append(AmiSample(t=t, value=value_at(signal, t)))
        k += 1
    return samples


def reconstruct_ami(samples: list[AmiSample], t: SimTime, p0: float = 0.0) -> float:
    """Zero-order hold: latest sample at or before t, else the prior p0.

    samples must be in time order, as poll returns them.
    """
    i = bisect_right(samples, t, key=attrgetter("t"))
    return samples[i - 1].value if i else p0


def hold_error(
    truth: list[float],
    grid: SimTime,
    times: list[SimTime],
    values: list[float],
    prior: float,
) -> ErrorReport:
    """Sup/mean/RMS absolute error of a zero-order hold against a truth grid.

    truth[k] is the true value at k * grid. times must be non-decreasing;
    values[i] holds from times[i] on, and prior holds before times[0]. The
    sweep goes hold segment by hold segment: each held value is scored
    against truth from the first grid index at or after its time,
    ceil(times[i] / grid), up to the next value's, and the errors are added
    in grid order.
    """
    n = len(truth)
    sup = total = total_sq = 0.0
    start, held = 0, prior
    # The closing pair ends the last segment at n; its value is never held.
    for t, value in zip([*times, n * grid], [*values, None], strict=True):
        end = -(-t // grid)
        if end > start:
            for true_value in truth[start:end]:
                err = abs(true_value - held)
                if err > sup:
                    sup = err
                total += err
                total_sq += err * err
            start = end
        held = value
    return ErrorReport(sup=sup, mean=total / n, rmse=math.sqrt(total_sq / n), n_points=n)


def error_stats(
    truth: Signal,
    samples: list[AmiSample],
    grid: SimTime = 60_000,
    p0: float = 0.0,
) -> ErrorReport:
    """Sup/mean/RMS absolute error of the hold against truth on a uniform grid.

    The grid is 0, grid, 2*grid, ... up to and including truth.horizon.
    """
    if grid <= 0:
        raise NonPositiveInterval(f"grid must be positive, got {grid}")
    ordered = sorted(samples, key=lambda s: s.t)
    return hold_error(
        [value_at(truth, t) for t in range(0, truth.horizon + 1, grid)],
        grid,
        [s.t for s in ordered],
        [s.value for s in ordered],
        p0,
    )


def matched_budget_interval(horizon: SimTime, n_messages: int) -> SimTime:
    """Largest dt whose poll count over the horizon is at least n_messages.

    floor(horizon / n) polls at least n times whenever n <= horizon, so the
    baseline never gets fewer messages than the pipeline it is matched to.
    """
    if n_messages <= 0:
        raise ZeroBudget(f"need a positive message budget, got {n_messages}")
    if horizon <= 0:
        raise NonPositiveInterval(f"horizon must be positive, got {horizon}")
    dt = horizon // n_messages
    return max(1, dt)
