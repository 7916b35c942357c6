"""Monitoring Center: registry, dedup, time correction, reconstruction.

The center is the single sink for forwarded records. For each record it
decodes the frame, deduplicates on (sensor_id, seq_no) — keeping the
earliest corrected receipt time among duplicates, since latency only adds —
and corrects the router's receipt stamp back toward emission time by
subtracting the router's declared sync residual and the nominal radio
latency. Whatever error remains (drift between syncs, jitter) stays in the
corrected times: the uncertainty halfwidth is dp times the seq_no gap, so it
reflects lost frames, not timing error.

Every router forwards the same bytes, so a byte-identical copy of an
accepted frame skips decode and goes straight to dedup: the CRC is checked
once per distinct byte string. Any other record, a corrupted or truncated
copy included, is decoded in full.

Reconstruction is a zero-order hold over the per-sensor timeline: between
records the last known grid level stands. Because every EVENT carries the
absolute level_index, the reconstructed value at any accepted record's
corrected time equals the sensor's true reference level at emission, no
matter how many earlier frames were lost.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum

from . import pi_protocol
from .pi_protocol import FRAME_LEN, MsgType
from .router import ForwardedRecord
from .sensor import SensorDescriptor
from .simkernel import SimTime


# sensor_id and seq_no as they sit on the wire, at bytes 1-8 of a frame.
_WIRE_KEY = struct.Struct(">II")


class UnknownSensor(Exception):
    """Query for a sensor id absent from the registry."""


class DuplicateRegistration(Exception):
    """A sensor id was registered twice."""


class IngestOutcome(str, Enum):
    ACCEPTED = "ACCEPTED"
    DUPLICATE = "DUPLICATE"
    QUARANTINED = "QUARANTINED"
    MALFORMED = "MALFORMED"


class Liveness(str, Enum):
    OK = "OK"
    SILENT = "SILENT"


@dataclass(slots=True)
class TimelineEntry:
    estimated_event_time: SimTime
    level_index: int
    msg_type: MsgType
    seq_no: int
    # The accepted wire bytes; a byte-identical copy needs no decode.
    frame_bytes: bytes = field(repr=False)


@dataclass(frozen=True)
class RegisteredSensor:
    descriptor: SensorDescriptor
    location: str


@dataclass(frozen=True)
class RegisteredRouter:
    location: str
    sync_residual: int = 0


TIMELINE_CSV_COLUMNS = (
    "sensor_id",
    "seq_no",
    "msg_type",
    "estimated_event_time_ms",
    "level_index",
    "value",
    "uncertainty",
)


class MonitoringCenter:
    def __init__(self, nominal_latency: SimTime = 0) -> None:
        self.nominal_latency = nominal_latency
        self.sensors: dict[int, RegisteredSensor] = {}
        self.routers: dict[int, RegisteredRouter] = {}
        self.counters: dict[str, int] = {
            "accepted": 0,
            "deduped": 0,
            "quarantined": 0,
            "malformed": 0,
        }
        self._entries: dict[int, dict[int, TimelineEntry]] = {}
        self._quarantine: list[ForwardedRecord] = []
        # sensor_id -> (entries sorted by (time, seq), their times) for bisect
        self._sorted_cache: dict[int, tuple[list[TimelineEntry], list[SimTime]]] = {}

    # -- registry ---------------------------------------------------------

    def register_sensor(self, descriptor: SensorDescriptor, location: str = "") -> None:
        """Add a sensor; frames that arrived early are replayed in order."""
        if descriptor.sensor_id in self.sensors:
            raise DuplicateRegistration(f"sensor {descriptor.sensor_id}")
        self.sensors[descriptor.sensor_id] = RegisteredSensor(descriptor, location)
        held, rest = [], []
        for rec in self._quarantine:
            frame = self._try_decode(rec.frame_bytes)
            if frame is not None and frame.sensor_id == descriptor.sensor_id:
                held.append(rec)
            else:
                rest.append(rec)
        self._quarantine = rest
        for rec in held:
            self.counters["quarantined"] -= 1
            self.ingest(rec)

    def register_router(self, router_id: int, location: str = "", sync_residual: int = 0) -> None:
        self.routers[router_id] = RegisteredRouter(location, sync_residual)

    def quarantined_records(self) -> list[ForwardedRecord]:
        return list(self._quarantine)

    # -- ingest -----------------------------------------------------------

    @staticmethod
    def _try_decode(data: bytes):
        try:
            return pi_protocol.decode(data)
        except pi_protocol.PiProtocolError:
            return None

    def _corrected_time(self, rec: ForwardedRecord) -> SimTime:
        registered = self.routers.get(rec.router_id)
        residual = registered.sync_residual if registered is not None else 0
        return rec.local_receipt_time - residual - self.nominal_latency

    def ingest(self, rec: ForwardedRecord) -> IngestOutcome:
        """Process one forwarded record; every outcome is a returned status."""
        data = rec.frame_bytes
        existing = None
        if len(data) == FRAME_LEN:
            sensor_id, seq_no = _WIRE_KEY.unpack_from(data, 1)
            per_sensor = self._entries.get(sensor_id)
            if per_sensor is not None:
                existing = per_sensor.get(seq_no)
                if existing is not None and existing.frame_bytes != data:
                    existing = None
        if existing is None:
            frame = self._try_decode(data)
            if frame is None:
                self.counters["malformed"] += 1
                return IngestOutcome.MALFORMED
            sensor_id = frame.sensor_id
            if sensor_id not in self.sensors:
                self._quarantine.append(rec)
                self.counters["quarantined"] += 1
                return IngestOutcome.QUARANTINED
            per_sensor = self._entries.setdefault(sensor_id, {})
            existing = per_sensor.get(frame.seq_no)
            if existing is None:
                per_sensor[frame.seq_no] = TimelineEntry(
                    estimated_event_time=self._corrected_time(rec),
                    level_index=frame.level_index,
                    msg_type=frame.msg_type,
                    seq_no=frame.seq_no,
                    frame_bytes=bytes(data),
                )
                self._sorted_cache.pop(sensor_id, None)
                self.counters["accepted"] += 1
                return IngestOutcome.ACCEPTED
        corrected = self._corrected_time(rec)
        if corrected < existing.estimated_event_time:
            existing.estimated_event_time = corrected
            self._sorted_cache.pop(sensor_id, None)
        self.counters["deduped"] += 1
        return IngestOutcome.DUPLICATE

    # -- queries ----------------------------------------------------------

    def _descriptor(self, sensor_id: int) -> SensorDescriptor:
        registered = self.sensors.get(sensor_id)
        if registered is None:
            raise UnknownSensor(f"sensor {sensor_id}")
        return registered.descriptor

    def _timeline_with_times(self, sensor_id: int) -> tuple[list[TimelineEntry], list[SimTime]]:
        cached = self._sorted_cache.get(sensor_id)
        if cached is None:
            entries = sorted(
                self._entries.get(sensor_id, {}).values(),
                key=lambda e: (e.estimated_event_time, e.seq_no),
            )
            cached = (entries, [e.estimated_event_time for e in entries])
            self._sorted_cache[sensor_id] = cached
        return cached

    def timeline(self, sensor_id: int) -> list[TimelineEntry]:
        """Accepted records ordered by (estimated time, seq_no)."""
        self._descriptor(sensor_id)
        return self._timeline_with_times(sensor_id)[0]

    def reconstruct(self, sensor_id: int, t: SimTime) -> tuple[float, float]:
        """Zero-order-hold value estimate at t, with uncertainty halfwidth.

        The halfwidth is dp times the observed seq_no gap between the
        records bracketing t (at least one quantum): a run of unseen frames
        widens it, a fully observed stretch keeps it at dp.
        """
        descriptor = self._descriptor(sensor_id)
        entries, times = self._timeline_with_times(sensor_id)
        idx = bisect_right(times, t) - 1
        before = entries[idx] if idx >= 0 else None
        after = entries[idx + 1] if idx + 1 < len(entries) else None
        level = before.level_index if before is not None else 0
        value = descriptor.p0 + descriptor.dp * level
        before_seq = before.seq_no if before is not None else 0
        gap = after.seq_no - before_seq if after is not None else 1
        return value, descriptor.dp * max(1, gap)

    def series(
        self,
        sensor_id: int,
        t0: SimTime,
        t1: SimTime,
        step: SimTime,
    ) -> list[tuple[SimTime, float, float]]:
        """reconstruct() sampled on the grid t0, t0+step, ... up to t1."""
        if t0 > t1:
            raise ValueError(f"t0={t0} > t1={t1}")
        if step <= 0:
            raise ValueError(f"step must be positive, got {step}")
        out = []
        t = t0
        while t <= t1:
            value, unc = self.reconstruct(sensor_id, t)
            out.append((t, value, unc))
            t += step
        return out

    def detect_gaps(self, sensor_id: int) -> list[tuple[int, int]]:
        """Maximal missing seq_no ranges between the lowest and highest seen."""
        self._descriptor(sensor_id)
        seqs = sorted(self._entries.get(sensor_id, {}).keys())
        gaps = []
        for prev, cur in zip(seqs, seqs[1:]):
            if cur > prev + 1:
                gaps.append((prev + 1, cur - 1))
        return gaps

    def liveness(self, sensor_id: int, now: SimTime) -> Liveness:
        """SILENT once nothing has been heard for over two status intervals."""
        descriptor = self._descriptor(sensor_id)
        entries = self.timeline(sensor_id)
        last = entries[-1].estimated_event_time if entries else 0
        if now - last > 2 * descriptor.status_interval:
            return Liveness.SILENT
        return Liveness.OK

    # -- export -----------------------------------------------------------

    def timeline_rows(self) -> list[tuple]:
        """All timelines as CSV rows, deterministically ordered.

        The per-row uncertainty is dp * max(1, seq gap since the previous
        record): it reflects how completely the stretch leading into this
        record was observed.
        """
        rows = []
        for sensor_id in sorted(self.sensors):
            descriptor = self.sensors[sensor_id].descriptor
            prev_seq = 0
            for entry in self.timeline(sensor_id):
                value = descriptor.p0 + descriptor.dp * entry.level_index
                uncertainty = descriptor.dp * max(1, entry.seq_no - prev_seq)
                rows.append(
                    (
                        sensor_id,
                        entry.seq_no,
                        entry.msg_type.name,
                        entry.estimated_event_time,
                        entry.level_index,
                        value,
                        uncertainty,
                    )
                )
                prev_seq = entry.seq_no
        return rows
