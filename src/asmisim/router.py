"""Store-and-forward router with a drifting local clock.

Routers are sensor-agnostic transport. `receive` files each frame under
its flush instant, the first positive multiple of the flush interval at or
after its true receipt time, so a batch exists only once a frame was heard
for it and no flush is empty. `flush` hands one batch over in true receipt
order, each frame stamped with the local clock at its receipt. A real
router cannot see when a frame was sent: `receive` takes the emission time
only as a deterministic tie-break, so receipts in one millisecond go by
emission time, then in the order heard. Frame bytes are never decoded
beyond a length check, so the transport is byte-identical whatever
parameter the frames describe. The router-to-center backhaul is modeled
reliable and ordered; unreliability lives on the sensor-to-router radio leg.

The center syncs every router at each multiple of the sync interval up to
the horizon, so a stamp is a function of true time (`local_clock`): true
time + sync residual + the drift since the last sync strictly before it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

from .pi_protocol import FRAME_LEN
from .simkernel import SimTime

DEFAULT_FLUSH_INTERVAL = 60_000
DEFAULT_SYNC_INTERVAL = 3_600_000


class ForwardedRecord(NamedTuple):
    """A stamped frame on the backhaul; equal to the plain tuple of its fields."""

    router_id: int
    frame_bytes: bytes
    local_receipt_time: SimTime


@dataclass
class RouterState:
    router_id: int
    drift_ppm: float = 0.0
    flush_interval: SimTime = DEFAULT_FLUSH_INTERVAL
    sync_residual: int = 0
    # Synced at 0 and at each multiple of sync_interval up to sync_until;
    # by default synced at 0 and never again.
    sync_interval: SimTime = DEFAULT_SYNC_INTERVAL
    sync_until: SimTime = 0
    # flush instant -> [(true receipt time, emission time, frame bytes), ...] as heard
    pending: dict[SimTime, list[tuple[SimTime, SimTime, bytes]]] = field(default_factory=dict, init=False)
    received: int = field(default=0, init=False)  # every receipt, dropped or filed
    dropped: int = field(default=0, init=False)


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


def time_error_bound(state: RouterState, latency: SimTime, jitter: SimTime) -> int:
    """D_r, the most drift a stamp carries, in ms: the center's corrected
    time minus the true emission time lies in [-D_r, D_r + jitter].

    A receipt is at most S + latency + jitter after the last sync before it
    (S is `sync_interval`; receipts after the horizon count from the last
    sync at or before it), so D_r = round(|drift_ppm| * (S + L + J) / 1e6).
    """
    return round(abs(state.drift_ppm) * (state.sync_interval + latency + jitter) / 1_000_000)


def receive(state: RouterState, data: bytes, true_t: SimTime, sent_at: SimTime) -> None:
    """File one incoming transmission, heard at `true_t` and sent at
    `sent_at`, under its flush instant.

    Anything that is not exactly one frame long is counted and dropped;
    transport never crashes on garbage.
    """
    state.received += 1
    if len(data) != FRAME_LEN:
        state.dropped += 1
        return
    interval = state.flush_interval
    due = max(1, -(-true_t // interval)) * interval
    state.pending.setdefault(due, []).append((true_t, sent_at, bytes(data)))


def flush(state: RouterState, due: SimTime) -> list[ForwardedRecord]:
    """Hand over the batch filed under `due`, stamped and in receipt order."""
    batch = state.pending.pop(due)
    batch.sort(key=itemgetter(0, 1))  # stable: equal (receipt, emission) times keep the order heard
    router_id = state.router_id
    return [ForwardedRecord(router_id, data, local_clock(state, at)) for at, _sent_at, data in batch]
