"""Store-and-forward router with a drifting local clock.

Routers are sensor-agnostic transport: they stamp each incoming frame with
their local receipt time, buffer it, and hand the whole buffer over at
every flush. Frame bytes are never decoded beyond a length check, so the
transport is byte-identical whatever parameter the frames describe. The
router-to-center backhaul is modeled reliable and ordered; unreliability
in this system lives on the sensor-to-router radio leg.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .pi_protocol import FRAME_LEN
from .simkernel import SimTime


@dataclass(frozen=True)
class ForwardedRecord:
    router_id: int
    frame_bytes: bytes
    local_receipt_time: SimTime


@dataclass
class RouterState:
    router_id: int
    clock_offset: int = 0
    drift_ppm: float = 0.0
    last_sync_true_time: SimTime = 0
    flush_interval: SimTime = 60_000
    sync_residual: int = 0
    buffer: list[ForwardedRecord] = field(default_factory=list)
    dropped: int = 0


def local_clock(state: RouterState, true_t: SimTime) -> SimTime:
    """Router wall clock: true time plus offset plus drift since last sync."""
    if true_t < state.last_sync_true_time:
        raise ValueError(f"true_t={true_t} precedes last sync {state.last_sync_true_time}")
    drift = round(state.drift_ppm * (true_t - state.last_sync_true_time) / 1_000_000)
    return true_t + state.clock_offset + drift


def receive(state: RouterState, data: bytes, true_t: SimTime) -> None:
    """Stamp and buffer one incoming transmission.

    Anything that is not exactly one frame long is counted and dropped;
    transport never crashes on garbage.
    """
    if len(data) != FRAME_LEN:
        state.dropped += 1
        return
    state.buffer.append(ForwardedRecord(state.router_id, bytes(data), local_clock(state, true_t)))


def flush(state: RouterState) -> list[ForwardedRecord]:
    """Hand over and clear the whole buffer, preserving arrival order."""
    batch = state.buffer
    state.buffer = []
    return batch


def apply_time_sync(state: RouterState, center_true_time: SimTime) -> None:
    """Resynchronize the local clock.

    The offset collapses to the router's configured residual error and
    drift starts accumulating afresh from this instant.
    """
    state.clock_offset = state.sync_residual
    state.last_sync_true_time = center_true_time
