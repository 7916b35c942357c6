"""Send-on-delta sensor state machine.

A sensor owns almost nothing: a reference level that moves on the fixed
grid p0 + k*dp, a frame counter, and the time of its next status message.
It emits an EVENT frame per quantum crossed and a STATUS frame on a fixed
schedule, and never receives anything. The grid is absolute: the reference
is always exactly p0 + k*dp, which makes level_index a lossless encoding of
the tracked value no matter how many frames the channel drops.

`sampling_driver` runs a sensor over a whole horizon by walking the levels
of the signal's crossing solve, cached per (p0, dp); it evaluates the
signal nowhere. `observe` is the one-observation API: it takes one reading
and moves the reference by the same grid rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate

from .pi_protocol import MsgType, PiFrame
from .signalgen import LevelOutOfRange, Signal, _thresholds, crossing_times, value_at
from .simkernel import SimTime

# value_at is unread here: perfbench's tracer counts calls through this binding until it stops patching it.
__all__ = [
    "MonotonicityViolated", "SensorDescriptor", "SensorMode", "SensorState",
    "heartbeat", "new_state", "observe", "sampling_driver", "value_at",
]


class MonotonicityViolated(Exception):
    """A MONOTONIC sensor observed a decreasing parameter."""


class SensorMode(str, Enum):
    MONOTONIC = "MONOTONIC"
    BIDIRECTIONAL = "BIDIRECTIONAL"


@dataclass(frozen=True)
class SensorDescriptor:
    sensor_id: int
    parameter: str
    unit: str
    dp: float
    p0: float
    mode: SensorMode
    status_interval: SimTime
    signal_id: str = ""


@dataclass
class SensorState:
    ref_level_index: int = 0
    seq_no: int = 0
    next_status_at: SimTime = 0
    # Last value observe saw, kept only to enforce the MONOTONIC precondition;
    # sampling_driver observes nothing and leaves it None.
    last_observed: float | None = field(default=None, repr=False)


def new_state(descriptor: SensorDescriptor) -> SensorState:
    return SensorState(next_status_at=descriptor.status_interval)


def observe(
    state: SensorState,
    descriptor: SensorDescriptor,
    t: SimTime,
    p: float,
) -> list[PiFrame]:
    """Process one observation of the parameter; return frames to transmit.

    Emits one EVENT per grid quantum between the old reference and p, so a
    large excursion produces a burst of +/-1 steps rather than one jump.
    The grid rule is the oracle's (signalgen._thresholds), and like the
    oracle it raises LevelOutOfRange for a p 2**31 or more quanta from P0.
    """
    if (
        descriptor.mode is SensorMode.MONOTONIC
        and state.last_observed is not None
        and p < state.last_observed
    ):
        raise MonotonicityViolated(
            f"sensor {descriptor.sensor_id}: {p} < previous {state.last_observed}"
        )
    p0, dp = descriptor.p0, descriptor.dp
    if abs(p - p0) >= 2**31 * dp:
        raise LevelOutOfRange(
            f"sensor {descriptor.sensor_id}: value {p!r} at t={t} is 2**31 or more quanta"
            f" of dP {dp!r} from P0 {p0!r}"
        )
    state.last_observed = p
    frames: list[PiFrame] = []
    up, down = _thresholds(p0, dp, state.ref_level_index)
    while p >= up:
        state.ref_level_index += 1
        state.seq_no += 1
        frames.append(PiFrame(MsgType.EVENT, descriptor.sensor_id, state.seq_no, state.ref_level_index))
        up, down = _thresholds(p0, dp, state.ref_level_index)
    if descriptor.mode is SensorMode.BIDIRECTIONAL:
        while p <= down:
            state.ref_level_index -= 1
            state.seq_no += 1
            frames.append(PiFrame(MsgType.EVENT, descriptor.sensor_id, state.seq_no, state.ref_level_index))
            up, down = _thresholds(p0, dp, state.ref_level_index)
    return frames


def heartbeat(
    state: SensorState,
    descriptor: SensorDescriptor,
    t: SimTime,
) -> PiFrame | None:
    """Emit a STATUS frame when the status schedule is due, else nothing."""
    if t < state.next_status_at:
        return None
    state.seq_no += 1
    state.next_status_at += descriptor.status_interval
    return PiFrame(MsgType.STATUS, descriptor.sensor_id, state.seq_no, state.ref_level_index)


def sampling_driver(descriptor: SensorDescriptor, signal: Signal, emit) -> SensorState:
    """Run a sensor over the signal's whole horizon in one loop, in time order.

    The EVENTs come straight from the solve: the signal caches, per (p0, dp),
    (t, level after the crossing) for each crossing that crossing_times
    reports, and sensors with the same key share it. So emission times are
    the true crossing times to the millisecond, and the driver evaluates the
    signal nowhere. A MONOTONIC sensor never lowers its reference: it emits
    only levels above it, so a signal that starts below P0 keeps it silent
    until it passes P0 + dP, and a crossing down after t = 0 raises
    MonotonicityViolated. Each STATUS falls at `state.next_status_at`, which
    only `heartbeat` advances, up to `signal.horizon`; at a shared instant
    the EVENTs go first. emit(frame, t) gets every frame. It reads no other
    sensor.
    """
    state = new_state(descriptor)
    key = (descriptor.p0, descriptor.dp)
    levels = signal._level_runs.get(key)
    if levels is None:
        crossings = crossing_times(signal, *key)
        levels = signal._level_runs[key] = tuple(zip([t for t, _ in crossings], accumulate(d for _, d in crossings)))
    sensor_id = descriptor.sensor_id
    monotonic = descriptor.mode is SensorMode.MONOTONIC
    level = 0  # the solve's level before the crossing
    for t, k in levels:
        while (due := state.next_status_at) < t:
            emit(heartbeat(state, descriptor, due), due)
        if monotonic:
            if k < level and t:
                raise MonotonicityViolated(f"sensor {sensor_id}: the signal falls to level {k} at t={t}")
            level = k
            if k <= state.ref_level_index:
                continue
        state.seq_no += 1
        state.ref_level_index = k
        emit(PiFrame(MsgType.EVENT, sensor_id, state.seq_no, k), t)
    while (due := state.next_status_at) <= signal.horizon:
        emit(heartbeat(state, descriptor, due), due)
    return state
