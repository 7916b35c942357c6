"""Store-and-forward router with a drifting local clock.

Routers are sensor-agnostic transport: they stamp each incoming frame with
their local receipt time, buffer it, and hand the whole buffer over at a
flush. A router flushes at multiples of its flush interval, and only when
it has heard something since the last one: the runner hands it each
batch's receipts at the batch's flush instant, so no flush is empty. Frame
bytes are never decoded beyond a length check, so the transport is
byte-identical whatever parameter the frames describe. The router-to-center
backhaul is modeled reliable and ordered; unreliability in this system
lives on the sensor-to-router radio leg.

The center syncs every router at each multiple of the sync interval up to
the horizon, so a stamp is a function of true time (`local_clock`): true
time + sync residual + the drift since the last sync strictly before it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .pi_protocol import FRAME_LEN
from .simkernel import SimTime


class ForwardedRecord(NamedTuple):
    """A stamped frame on the backhaul; equal to the plain tuple of its fields."""

    router_id: int
    frame_bytes: bytes
    local_receipt_time: SimTime


@dataclass
class RouterState:
    router_id: int
    drift_ppm: float = 0.0
    flush_interval: SimTime = 60_000
    sync_residual: int = 0
    # Synced at 0 and at each multiple of sync_interval up to sync_until;
    # by default synced at 0 and never again.
    sync_interval: SimTime = 3_600_000
    sync_until: SimTime = 0
    buffer: list[ForwardedRecord] = field(default_factory=list)
    dropped: int = 0


def local_clock(state: RouterState, true_t: SimTime) -> SimTime:
    """Router wall clock at true time `true_t`.

    Each sync, at k * S for k >= 1 while k * S <= sync_until (S is
    `sync_interval`), resets the offset to `sync_residual`, after which
    drift accumulates afresh. A sync is a center action, so a frame heard
    in the same millisecond is stamped before it: the stamp counts drift
    from the last sync strictly before `true_t`, or from 0:

        true_t + sync_residual + round(drift_ppm * (true_t - anchor) / 1e6)
        anchor = max(min(true_t - 1, sync_until), 0) // S * S
    """
    interval = state.sync_interval
    # Comparisons, not min/max: this runs once per delivery.
    anchor = true_t - 1
    if anchor > state.sync_until:
        anchor = state.sync_until
    if anchor < 0:
        anchor = 0
    anchor = anchor // interval * interval
    drift = round(state.drift_ppm * (true_t - anchor) / 1_000_000)
    return true_t + state.sync_residual + drift


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

