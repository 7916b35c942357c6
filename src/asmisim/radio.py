"""Broadcast channel from sensors to every router in radio range.

Each (sensor, router) link has its own seeded loss stream, one draw per
frame in the sensor's emission order, so dropping one link's delivery
never perturbs any other link — per-router loss is independent by
construction and stable under coverage changes. Latency is fixed by
default; optional uniform jitter is available but off unless configured.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .pi_protocol import PiFrame, encode
from .rng import derive_rng
from .simkernel import SimTime

DEFAULT_LATENCY = 50


class UncoveredSensor(Exception):
    """A sensor broadcast with no router in range."""


@dataclass(frozen=True)
class ChannelSpec:
    loss_prob: float = 0.0
    latency: SimTime = DEFAULT_LATENCY
    jitter: SimTime = 0


@dataclass
class CoverageMap:
    """sensor_id -> router ids in radio range (kept sorted)."""

    covering: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, mapping: dict[int, list[int] | tuple[int, ...]]) -> CoverageMap:
        return cls({sid: tuple(sorted(set(rids))) for sid, rids in mapping.items()})

    def routers_for(self, sensor_id: int) -> tuple[int, ...]:
        return self.covering.get(sensor_id, ())


@dataclass
class Channel:
    spec: ChannelSpec
    seed: int = 0
    _streams: dict[tuple[int, int], object] = field(default_factory=dict, init=False, repr=False)
    # The radio's books: one attempt per covering router, and the ones lost.
    attempts: int = field(default=0, init=False)
    lost: int = field(default=0, init=False)

    def new_link_rng(self, sensor_id: int, router_id: int):
        """Make and keep the stream of a link not used before."""
        rng = self._streams[(sensor_id, router_id)] = derive_rng(self.seed, "radio", sensor_id, router_id)
        return rng


def broadcast(
    frame: PiFrame,
    sensor_id: int,
    t: SimTime,
    coverage: CoverageMap,
    channel: Channel,
) -> list[tuple[int, SimTime]]:
    """Offer one frame to every covering router; return surviving deliveries.

    Each covering router independently receives the frame with probability
    1 - loss_prob, at t + latency (+ jitter if configured). The result is
    [(router_id, delivery time), ...] in router-id order.
    """
    routers = coverage.routers_for(sensor_id)
    if not routers:
        raise UncoveredSensor(f"sensor {sensor_id} has no covering router")
    channel.attempts += len(routers)
    spec = channel.spec
    loss_prob, latency, jitter = spec.loss_prob, spec.latency, spec.jitter
    streams = channel._streams
    deliveries: list[tuple[int, SimTime]] = []
    for router_id in routers:
        rng = streams.get((sensor_id, router_id))
        if rng is None:
            rng = channel.new_link_rng(sensor_id, router_id)
        if rng.random() < loss_prob:
            channel.lost += 1
            continue
        if jitter:
            # randrange(n + 1) draws the same stream as randint(0, n)
            deliveries.append((router_id, t + (latency + rng.randrange(jitter + 1))))
        else:
            deliveries.append((router_id, t + latency))
    return deliveries


def frame_bytes(frame: PiFrame) -> bytes:
    """Wire form handed to routers; they treat it as opaque."""
    return encode(frame)
