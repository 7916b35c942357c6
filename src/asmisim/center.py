"""Monitoring Center: registry, dedup, time correction, reconstruction.

The center is the single sink for forwarded records. For each record it
decodes the frame, deduplicates on (sensor_id, seq_no) — keeping the
earliest corrected receipt time among duplicates, since latency only adds —
and corrects the router's receipt stamp back toward emission time by
subtracting the router's declared sync residual and the nominal radio
latency. Whatever error remains (drift between syncs, jitter) stays in the
corrected times: the uncertainty halfwidth is dp times the seq_no gap, so it
reflects lost frames, not timing error.

Ingest unpacks each record once and computes its corrected time once, from
the residual registered for its router (0 for a router never registered)
and `nominal_latency` as it stands at that ingest.

Every router forwards the same bytes, so a byte-identical copy of an
accepted frame skips decode and goes straight to dedup: the CRC is checked
once per distinct byte string. Any other record, a corrupted or truncated
copy included, is decoded in full.

A registered sensor has one record, its _Timeline: the descriptor, the
location, and the accepted entries by seq_no and in (estimated time,
seq_no) order as ingest keeps them, so queries read them as they stand. A
frame from a sensor not yet registered joins one quarantine queue in
arrival order; registering the sensor replays only its own frames.

Reconstruction is a zero-order hold over the per-sensor timeline: between
records the last known grid level stands. Because every EVENT carries the
absolute level_index, the reconstructed value at any accepted record's
corrected time equals the sensor's true reference level at emission, no
matter how many earlier frames were lost. reconstruct() answers one instant
with a bisect; series() answers a window in one forward pass that recomputes
the hold only where an entry starts, and equals reconstruct() point for
point.

Export reads each timeline as ingest keeps it, sensor by sensor in id
order. timeline_rows() returns typed rows; timeline_lines() yields the same
rows as timeline.csv text, one line at a time, and formats each value and
uncertainty once per sensor and level, and once per sensor and seq gap.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum

from . import pi_protocol
from .pi_protocol import FRAME_LEN, MsgType
from .router import ForwardedRecord
from .sensor import SensorDescriptor
from .simkernel import SimTime


# sensor_id and seq_no as they sit on the wire, at bytes 1-8 of a frame.
_WIRE_KEY = struct.Struct(">II")

# A MsgType's name by dict lookup: Enum.name is a property, slow per row.
_TYPE_NAMES = {t: t.name for t in MsgType}

# Most texts timeline_lines() memoises per sensor before it starts over. A
# meter never returns to a level it has left, so without it the memo would
# hold about one text per row of such a sensor while it is written.
_MEMO_SIZE = 512


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


@dataclass(slots=True)
class _Timeline:
    """A registered sensor's one record: its descriptor and location, and its
    accepted entries by seq_no for dedup and in (estimated time, seq_no)
    order with a parallel list of their times."""

    descriptor: SensorDescriptor
    location: str = ""
    by_seq: dict[int, TimelineEntry] = field(default_factory=dict)
    entries: list[TimelineEntry] = field(default_factory=list)
    times: list[SimTime] = field(default_factory=list)

    def place(self, entry: TimelineEntry) -> None:
        """Append an entry strictly later than the last; otherwise bisect on
        time, then step back over equal times with higher seq_no."""
        t = entry.estimated_event_time
        times = self.times
        if not times or t > times[-1]:
            self.entries.append(entry)
            times.append(t)
            return
        i = bisect_right(times, t)
        while i and times[i - 1] == t and self.entries[i - 1].seq_no > entry.seq_no:
            i -= 1
        self.entries.insert(i, entry)
        times.insert(i, t)

    def move(self, entry: TimelineEntry, t: SimTime) -> TimelineEntry:
        """Replace a placed entry with a copy at the lower time t, filed by
        seq_no, and return the copy. A placed entry never changes: timeline()
        hands it out. The copy takes the entry's slot unless an earlier time
        reaches t; then it is placed anew."""
        times, entries = self.times, self.entries
        i = bisect_left(times, entry.estimated_event_time)
        while entries[i] is not entry:
            i += 1
        moved = TimelineEntry(t, entry.level_index, entry.msg_type, entry.seq_no, entry.frame_bytes)
        self.by_seq[entry.seq_no] = moved
        if i == 0 or times[i - 1] < t:
            entries[i] = moved
            times[i] = t
        else:
            del entries[i], times[i]
            self.place(moved)
        return moved


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
        # router_id -> location, as registered
        self.routers: dict[int, str] = {}
        # router_id -> sync residual, as registered; an unknown router's is 0
        self._residuals: dict[int, int] = {}
        self.counters: dict[str, int] = {"accepted": 0, "deduped": 0, "quarantined": 0, "malformed": 0}
        # sensor_id -> the registered sensor's one record
        self._timelines: dict[int, _Timeline] = {}
        # (sensor_id, record) for sensors not yet registered, in arrival order
        self._quarantine: list[tuple[int, ForwardedRecord]] = []

    # -- registry ---------------------------------------------------------

    def register_sensor(self, descriptor: SensorDescriptor, location: str = "") -> None:
        """Add a sensor; its frames that arrived early are replayed in order."""
        sensor_id = descriptor.sensor_id
        if sensor_id in self._timelines:
            raise DuplicateRegistration(f"sensor {sensor_id}")
        self._timelines[sensor_id] = _Timeline(descriptor, location)
        replay = [rec for held_id, rec in self._quarantine if held_id == sensor_id]
        self._quarantine = [held for held in self._quarantine if held[0] != sensor_id]
        self.counters["quarantined"] -= len(replay)
        for rec in replay:
            self.ingest(rec)

    def register_router(self, router_id: int, location: str = "", sync_residual: int = 0) -> None:
        self.routers[router_id] = location
        self._residuals[router_id] = sync_residual

    def quarantined_records(self) -> list[ForwardedRecord]:
        """Records held for unregistered sensors, in global arrival order."""
        return [rec for _, rec in self._quarantine]

    # -- ingest -----------------------------------------------------------

    def ingest(self, rec: ForwardedRecord) -> IngestOutcome:
        """Process one forwarded record; every outcome is a returned status."""
        router_id, data, local = rec
        corrected = local - self._residuals.get(router_id, 0) - self.nominal_latency
        store = found = None
        if len(data) == FRAME_LEN:
            sensor_id, seq_no = _WIRE_KEY.unpack_from(data, 1)
            store = self._timelines.get(sensor_id)
            if store is not None:
                found = store.by_seq.get(seq_no)
        if found is None or found.frame_bytes != data:
            try:
                frame = pi_protocol.decode(data)
            except pi_protocol.PiProtocolError:
                self.counters["malformed"] += 1
                return IngestOutcome.MALFORMED
            # decode takes only FRAME_LEN bytes: `store` and `found` are this
            # frame's sensor's and seq_no's
            if store is None:
                self._quarantine.append((frame.sensor_id, rec))
                self.counters["quarantined"] += 1
                return IngestOutcome.QUARANTINED
            if found is None:
                entry = TimelineEntry(corrected, frame.level_index, frame.msg_type, frame.seq_no, bytes(data))
                store.by_seq[frame.seq_no] = entry
                store.place(entry)
                self.counters["accepted"] += 1
                return IngestOutcome.ACCEPTED
        if corrected < found.estimated_event_time:
            store.move(found, corrected)
        self.counters["deduped"] += 1
        return IngestOutcome.DUPLICATE

    # -- queries ----------------------------------------------------------

    def _sensor(self, sensor_id: int) -> _Timeline:
        store = self._timelines.get(sensor_id)
        if store is None:
            raise UnknownSensor(f"sensor {sensor_id}")
        return store

    def timeline(self, sensor_id: int) -> list[TimelineEntry]:
        """Accepted records in (estimated time, seq_no) order, as ingest keeps
        them. Neither the list nor its entries change with later ingests: a
        duplicate that lowers an entry's time replaces the entry in the
        center, and the returned list keeps the old one."""
        return list(self._sensor(sensor_id).entries)

    def reconstruct(self, sensor_id: int, t: SimTime) -> tuple[float, float]:
        """Zero-order-hold value estimate at t, with uncertainty halfwidth.

        The halfwidth is dp times the observed seq_no gap between the
        records bracketing t (at least one quantum): a run of unseen frames
        widens it, a fully observed stretch keeps it at dp.
        """
        store = self._sensor(sensor_id)
        descriptor, entries = store.descriptor, store.entries
        idx = bisect_right(store.times, t) - 1
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
        """reconstruct() sampled on the grid t0, t0+step, ... up to t1.

        One forward pass over the timeline: the held value and halfwidth are
        recomputed only where the grid reaches the next entry's time, with
        reconstruct()'s own expressions, so every point equals
        (t, *reconstruct(sensor_id, t)).
        """
        if t0 > t1:
            raise ValueError(f"t0={t0} > t1={t1}")
        if step <= 0:
            raise ValueError(f"step must be positive, got {step}")
        store = self._sensor(sensor_id)
        entries, times = store.entries, store.times
        p0, dp = store.descriptor.p0, store.descriptor.dp
        last = len(entries) - 1
        idx = -1
        out = []
        t = next_t = t0
        while t <= t1:
            if t >= next_t:
                idx = bisect_right(times, t, idx + 1) - 1
                level, before_seq = (entries[idx].level_index, entries[idx].seq_no) if idx >= 0 else (0, 0)
                value = p0 + dp * level
                if idx < last:
                    next_t = times[idx + 1]
                    unc = dp * max(1, entries[idx + 1].seq_no - before_seq)
                else:
                    next_t = float("inf")
                    unc = dp  # dp * max(1, gap), the gap being 1 past the last entry
            out.append((t, value, unc))
            t += step
        return out

    def detect_gaps(self, sensor_id: int) -> list[tuple[int, int]]:
        """Maximal missing seq_no ranges between the lowest and highest seen."""
        seqs = sorted(self._sensor(sensor_id).by_seq)
        gaps = []
        for prev, cur in zip(seqs, seqs[1:]):
            if cur > prev + 1:
                gaps.append((prev + 1, cur - 1))
        return gaps

    def liveness(self, sensor_id: int, now: SimTime) -> Liveness:
        """SILENT once nothing has been heard for over two status intervals."""
        store = self._sensor(sensor_id)
        last = store.times[-1] if store.times else 0
        if now - last > 2 * store.descriptor.status_interval:
            return Liveness.SILENT
        return Liveness.OK

    # -- export -----------------------------------------------------------

    def timeline_rows(self) -> list[tuple]:
        """All timelines as CSV rows, deterministically ordered.

        The per-row uncertainty is dp * max(1, seq gap since the previous
        record): it reflects how completely the stretch leading into this
        record was observed. No run calls it (write_outputs streams
        timeline_lines()); it stays because perfbench's replay check reads
        it, and it is the tests' oracle for timeline_lines().
        """
        rows = []
        for sensor_id, store in sorted(self._timelines.items()):
            descriptor = store.descriptor
            prev_seq = 0
            for entry in store.entries:
                value = descriptor.p0 + descriptor.dp * entry.level_index
                uncertainty = descriptor.dp * max(1, entry.seq_no - prev_seq)
                rows.append(
                    (
                        sensor_id,
                        entry.seq_no,
                        _TYPE_NAMES[entry.msg_type],
                        entry.estimated_event_time,
                        entry.level_index,
                        value,
                        uncertainty,
                    )
                )
                prev_seq = entry.seq_no
        return rows

    def timeline_lines(self) -> Iterator[str]:
        """timeline.csv's data lines, each ended by "\\r\\n": byte-equal to
        csv.writer over timeline_rows(), in the same order.

        With timeline_rows()'s expressions, each "level,value" text is
        formatted once per level_index and each uncertainty once per raw seq
        gap (<= 0 where seq order inverts). The memos are per sensor, as p0
        and dp are, and start over at _MEMO_SIZE texts to bound memory.
        """
        for sensor_id, store in sorted(self._timelines.items()):
            p0, dp = store.descriptor.p0, store.descriptor.dp
            levels: dict[int, str] = {}
            gaps: dict[int, str] = {}
            head = f"{sensor_id},"
            prev_seq = 0
            for entry in store.entries:
                level, seq_no = entry.level_index, entry.seq_no
                level_text = levels.get(level)
                if level_text is None:
                    if len(levels) == _MEMO_SIZE:
                        levels.clear()
                    level_text = levels[level] = f"{level},{p0 + dp * level}"
                gap = seq_no - prev_seq
                gap_text = gaps.get(gap)
                if gap_text is None:
                    if len(gaps) == _MEMO_SIZE:
                        gaps.clear()
                    gap_text = gaps[gap] = f"{dp * max(1, gap)}\r\n"
                yield (
                    f"{head}{seq_no},{_TYPE_NAMES[entry.msg_type]},"
                    f"{entry.estimated_event_time},{level_text},{gap_text}"
                )
                prev_seq = seq_no
