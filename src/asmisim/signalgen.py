"""Ground-truth generators for controlled parameters P(t).

Two families cover the monitored parameter classes:

* CUMULATIVE (StepLoadSpec) — non-decreasing resource counters (kWh, m3,
  ...) built from a base consumption rate plus step-load intervals.
* AMBIENT (DiurnalSpec) — bidirectional environmental parameters (degC,
  hPa, ug/m3, ...): a diurnal sinusoid plus a seeded random walk that is
  piecewise-constant between noise ticks, so exact crossing instants are
  well defined.

A Signal is defined over one horizon [0, horizon], which it carries; every
function that takes a Signal evaluates it over that horizon and asks for no
other. Evaluation is pure: a Signal with a fixed seed always yields the same
value at the same time, regardless of evaluation order. What a Signal learns
while it is evaluated (its noise walk, its step-load interval terms, its
table of points) is a cached property, shared by every caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from operator import itemgetter

from .rng import derive_rng
from .simkernel import MAX_GRID_POINTS, SimTime

MS_PER_HOUR = 3_600_000
DAY_MS = 86_400_000
DEFAULT_NOISE_STEP = 60_000


class SignalError(Exception):
    pass


class OutOfHorizon(SignalError):
    """Evaluation time outside the signal's declared horizon."""


class NonPositiveDelta(SignalError):
    """Crossing detection requires a strictly positive delta."""


class LevelOutOfRange(SignalError):
    """The signal strays 2**31 or more quanta from P0.

    No such level fits the frame's signed 32-bit level_index, and walking
    the grid out to it would take one step per quantum.
    """


class TooManyCrossings(SignalError):
    """A sensor's crossing solve would travel more than MAX_GRID_POINTS quanta.

    The travel is |value at 0 - P0| plus the signal's total variation, in
    quanta of dP. Each crossing after the first takes dP less twice the
    slack of it, so the travel bounds the walk, which past the cap would
    run for minutes to days.
    """


@dataclass(frozen=True)
class LoadInterval:
    start: SimTime
    end: SimTime
    rate_per_hour: float


@dataclass(frozen=True)
class StepLoadSpec:
    """Piecewise-constant consumption rate: base plus overlapping intervals."""

    base_rate_per_hour: float = 0.0
    intervals: tuple[LoadInterval, ...] = ()


@dataclass(frozen=True)
class DiurnalSpec:
    """mean + amplitude*sin(2*pi*(t - phase)/period) + random-walk noise."""

    mean: float
    amplitude: float
    period: SimTime = DAY_MS
    phase: SimTime = 0
    noise_sigma: float = 0.0
    noise_step: SimTime = DEFAULT_NOISE_STEP


@dataclass(frozen=True)
class Signal:
    """A ground-truth parameter on [0, horizon]: spec, unit, seed and horizon define it.

    The spec's type is the kind. horizon is required and keyword-only.
    The tables an evaluation needs, _points among them, are cached
    properties, built on first use and then read by every caller; they
    are not fields, so ==, hash and repr ignore them by construction.
    """

    spec: StepLoadSpec | DiurnalSpec
    unit: str = ""
    seed: int = 0
    horizon: SimTime = field(kw_only=True)

    @cached_property
    def _walk(self) -> tuple[float, ...]:
        """Noise level in each noise_step tick up to the horizon, drawn from the signal's own stream."""
        spec = self.spec
        rng = derive_rng(self.seed, "walk")
        steps = (rng.gauss(0.0, spec.noise_sigma) for _ in range(self.horizon // spec.noise_step))
        return tuple(accumulate(steps, initial=0.0))

    @cached_property
    def _load_terms(self) -> tuple:
        """(start, end, rate, whole) per step-load interval with end > start, in spec order."""
        return tuple(
            (iv.start, iv.end, iv.rate_per_hour, iv.rate_per_hour * (iv.end - iv.start) / MS_PER_HOUR)
            for iv in self.spec.intervals
            if iv.end > iv.start
        )

    @cached_property
    def _points(self) -> tuple:
        """(t, value) at 0 and each later breakpoint b, with b - 1 before b
        when b - 1 lies past the previous point, in time order.

        The breakpoints are _breakpoints(self), so the signal is monotone
        on the ms lattice between consecutive points; crossing_times walks it.
        """
        points = [(0, value_at(self, 0))]
        for b in _breakpoints(self):
            prev = points[-1][0]
            if b > prev:
                if b - 1 > prev:
                    points.append((b - 1, value_at(self, b - 1)))
                points.append((b, value_at(self, b)))
        return tuple(points)

    @cached_property
    def _extent(self) -> tuple:
        """((t, v) at the lowest value, (t, v) at the highest, total variation).

        The signal is monotone between consecutive points, so _points gives
        all three exactly.
        """
        points = self._points
        variation = sum(abs(v - u) for (_, u), (_, v) in zip(points, points[1:]))
        return min(points, key=itemgetter(1)), max(points, key=itemgetter(1)), variation

    @cached_property
    def _level_runs(self) -> dict:
        """(p0, dp) -> (t, level after the crossing) per crossing, in time order.

        sensor.sampling_driver fills it in from crossing_times.
        """
        return {}


def step_load_signal(
    base_rate_per_hour: float = 0.0,
    intervals: tuple[tuple[SimTime, SimTime, float], ...] | list = (),
    unit: str = "kWh",
    *,
    horizon: SimTime,
) -> Signal:
    spec = StepLoadSpec(
        base_rate_per_hour=base_rate_per_hour,
        intervals=tuple(LoadInterval(s, e, r) for s, e, r in intervals),
    )
    return Signal(spec, unit, horizon=horizon)


def diurnal_signal(
    mean: float,
    amplitude: float,
    period: SimTime = DAY_MS,
    phase: SimTime = 0,
    noise_sigma: float = 0.0,
    noise_step: SimTime = DEFAULT_NOISE_STEP,
    unit: str = "degC",
    seed: int = 0,
    *,
    horizon: SimTime,
) -> Signal:
    spec = DiurnalSpec(mean, amplitude, period, phase, noise_sigma, noise_step)
    return Signal(spec, unit, seed, horizon=horizon)


def value_at(signal: Signal, t: SimTime) -> float:
    """Evaluate the ground-truth parameter at integer millisecond t in [0, signal.horizon].

    A step load is base * t / MS_PER_HOUR plus, in spec order, each
    interval's rate * overlap / MS_PER_HOUR. The signal keeps one term per
    interval with end > start, (start, end, rate, whole), where whole is the
    term once t >= end; an interval contributes only for t > start. So the
    sum is, bit for bit, that of a loop over every interval's overlap.
    """
    if t < 0 or t > signal.horizon:
        raise OutOfHorizon(f"t={t} outside [0, {signal.horizon}]")
    spec = signal.spec
    if type(spec) is StepLoadSpec:
        total = spec.base_rate_per_hour * t / MS_PER_HOUR
        for start, end, rate, whole in signal._load_terms:
            if t > start:
                total += whole if t >= end else rate * (t - start) / MS_PER_HOUR
        return total
    # Fold into [0, period) before multiplying by 2*pi so values at whole
    # periods are exact (sin(2*pi*k) would not be).
    frac = ((t - spec.phase) % spec.period) / spec.period
    noise = signal._walk[t // spec.noise_step] if spec.noise_sigma else 0.0
    return spec.mean + spec.amplitude * math.sin(2.0 * math.pi * frac) + noise


def _breakpoints(signal: Signal) -> list[SimTime]:
    """Integer times splitting [0, signal.horizon] into monotone, continuous pieces.

    Between consecutive breakpoints the signal restricted to the millisecond
    lattice is monotone and jump-free; jumps (noise ticks) and sinusoid
    extrema always land on a breakpoint or inside a 1 ms gap between two.
    """
    horizon = signal.horizon
    pts = {0, horizon}
    spec = signal.spec
    if type(spec) is StepLoadSpec:
        for iv in spec.intervals:
            for edge in (iv.start, iv.end):
                if 0 < edge < horizon:
                    pts.add(edge)
        return sorted(pts)
    # Sinusoid extrema at phase + (1/4 + n/2) * period, from the last one
    # before 0. phase % period is an exact int however far the phase is, so
    # no extremum carries the rounding of a product near the phase.
    ext = spec.phase % spec.period + spec.period / 4.0 - spec.period
    while ext < horizon:
        if ext > 0:
            pts.add(math.floor(ext))
            pts.add(math.ceil(ext))
        ext += spec.period / 2.0
    if spec.noise_sigma != 0.0:
        pts.update(range(spec.noise_step, horizon, spec.noise_step))
    return sorted(pts)


def reach_tolerance(threshold: float, dp: float) -> float:
    """Slack for grid-crossing comparisons, scaled to the quantum.

    Thresholds are reconstructed as p0 + k*dp, so a signal that lands
    exactly on a grid line in exact arithmetic can sit one ulp short of
    the float threshold (50 * 0.1 > 5.0). Comparing against
    threshold -/+ this slack makes representable boundary hits count as
    crossings. The slack is 1e-9 of the threshold's magnitude, capped at
    dp/4; the cap binds only beyond 2.5e8 quanta from 0, and it keeps the
    slack under dp/2, which _thresholds needs.
    """
    # min(1e-9 * max(abs(threshold), dp), dp / 4) without the builtin calls, which cost more here.
    magnitude = abs(threshold)
    slack = 1e-9 * (dp if dp > magnitude else magnitude)
    cap = dp / 4
    return cap if cap < slack else slack


def crossing_times(signal: Signal, p0: float, dp: float) -> list[tuple[SimTime, int]]:
    """Exact instants a perfect delta sensor would emit, with directions.

    Returns every millisecond t in [0, signal.horizon] at which the signal
    crosses the running reference grid p0 + k*dp, as (t, +1) or (t, -1),
    ordered by time. The reference moves one quantum per crossing; a jump
    across several quanta yields several entries at the same t, ups before
    downs. The solve walks the signal's _points, one monotone piece (t, w]
    at a time: while the value at w lies past a threshold it searches the
    piece for the first crossing (see _first_crossing) and steps the
    reference, then it stands at w. So each reported t is the first
    millisecond at which the crossing condition holds, only the search
    inside a piece calls value_at, and a second call on the same signal
    evaluates no point again.
    Before it walks, it raises LevelOutOfRange if the signal strays 2**31 or
    more quanta from p0, and TooManyCrossings if the walk would travel more
    than MAX_GRID_POINTS quanta.
    """
    if dp <= 0:
        raise NonPositiveDelta(f"dp must be positive, got {dp}")
    lowest, highest, variation = signal._extent
    t, v = lowest if p0 - lowest[1] >= highest[1] - p0 else highest
    if abs(v - p0) >= 2**31 * dp:
        raise LevelOutOfRange(f"value {v!r} at t={t} is 2**31 or more quanta of dP {dp!r} from P0 {p0!r}")
    travel = (abs(signal._points[0][1] - p0) + variation) / dp
    if travel > MAX_GRID_POINTS:
        raise TooManyCrossings(
            f"the crossing solve for dP {dp!r} and P0 {p0!r} would travel {travel:.0f} quanta,"
            f" more than {MAX_GRID_POINTS}"
        )
    out: list[tuple[SimTime, int]] = []
    k = 0
    up, down = _thresholds(p0, dp, k)
    # The first piece is the point at 0 alone: its search returns at once.
    t, v = signal._points[0]
    for w, vw in signal._points:
        while vw >= up or vw <= down:
            sign, thr = (1, up) if vw >= up else (-1, down)
            t, v = _first_crossing(signal, t, v, w, vw, thr, sign)
            while v >= up:
                k += 1
                out.append((t, +1))
                up, down = _thresholds(p0, dp, k)
            while v <= down:
                k -= 1
                out.append((t, -1))
                up, down = _thresholds(p0, dp, k)
        t, v = w, vw
    return out


def _thresholds(p0: float, dp: float, k: int) -> tuple[float, float]:
    """Levels at or beyond which the reference leaves grid line k (up, down).

    The slack is under dp/2, so a value that leaves line k one way lands
    strictly inside the next line's (down, up), up to the rounding of
    p0 + k*dp: crossing_times steps one way per instant and leaves
    down < v < up, so `_first_crossing` never sees v_hi == v_lo.
    """
    up = p0 + (k + 1) * dp
    down = p0 + (k - 1) * dp
    return up - reach_tolerance(up, dp), down + reach_tolerance(down, dp)


def _first_crossing(
    signal: Signal,
    lo: SimTime,
    v_lo: float,
    hi: SimTime,
    v_hi: float,
    threshold: float,
    sign: int,
) -> tuple[SimTime, float]:
    """First t in (lo, hi] with sign * value_at(t) >= sign * threshold, and its value.

    The piece is monotone on [lo, hi]; the condition fails at lo and holds at
    hi. Each probe is the linear-interpolation guess, which lands within a
    millisecond of the answer on linear pieces; after a probe that fails to
    halve the bracket the next one bisects, so a curved piece never takes
    much more than twice bisection's probes.
    """
    bisect = False
    while hi - lo > 1:
        width = hi - lo
        if bisect:
            t = lo + width // 2
        else:
            guess = lo + math.ceil((threshold - v_lo) / (v_hi - v_lo) * width)
            t = min(max(guess, lo + 1), hi - 1)
        v = value_at(signal, t)
        if sign * v >= sign * threshold:
            hi, v_hi = t, v
        else:
            lo, v_lo = t, v
        bisect = not bisect and 2 * (hi - lo) > width
    return hi, v_hi
