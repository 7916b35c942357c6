import random
import time
from bisect import bisect_left, bisect_right

import pytest

from asmisim import pi_protocol
from asmisim.center import (
    _WIRE_KEY,
    _Timeline,
    DuplicateRegistration,
    IngestOutcome,
    Liveness,
    MonitoringCenter,
    TimelineEntry,
    UnknownSensor,
)
from asmisim.pi_protocol import FRAME_LEN, MsgType, PiFrame, encode
from asmisim.router import ForwardedRecord
from asmisim.sensor import SensorDescriptor, SensorMode

H6 = 6 * 3_600_000


def meter(sensor_id=1, dp=0.5, p0=0.0, status_interval=H6):
    return SensorDescriptor(
        sensor_id=sensor_id,
        parameter="electricity",
        unit="kWh",
        dp=dp,
        p0=p0,
        mode=SensorMode.MONOTONIC,
        status_interval=status_interval,
    )


def record(seq_no, level, router_id=1, at=10_000, sensor_id=1, msg_type=MsgType.EVENT):
    data = encode(PiFrame(msg_type, sensor_id, seq_no, level))
    return ForwardedRecord(router_id, data, at)


def test_register_then_ingest_accepted():
    center = MonitoringCenter()
    center.register_sensor(meter())
    center.register_router(1)
    assert center.ingest(record(1, 1)) is IngestOutcome.ACCEPTED
    assert center.counters["accepted"] == 1


def test_duplicate_registration_rejected():
    center = MonitoringCenter()
    center.register_sensor(meter())
    with pytest.raises(DuplicateRegistration):
        center.register_sensor(meter())


def test_quarantine_then_replay_on_registration():
    center = MonitoringCenter()
    center.register_router(1)
    assert center.ingest(record(1, 1)) is IngestOutcome.QUARANTINED
    assert center.counters["quarantined"] == 1
    assert len(center.quarantined_records()) == 1
    center.register_sensor(meter())
    assert center.counters["quarantined"] == 0
    assert center.counters["accepted"] == 1
    assert center.quarantined_records() == []
    assert len(center.timeline(1)) == 1


def test_quarantine_replay_preserves_receipt_order():
    center = MonitoringCenter()
    center.register_router(1)
    center.ingest(record(2, 2, at=20_000))
    center.ingest(record(1, 1, at=10_000))
    center.register_sensor(meter())
    assert [e.seq_no for e in center.timeline(1)] == [1, 2]


def test_malformed_rejected_state_unchanged():
    center = MonitoringCenter()
    center.register_sensor(meter())
    good = record(1, 1)
    bad_crc = ForwardedRecord(1, good.frame_bytes[:-1] + bytes([good.frame_bytes[-1] ^ 0xFF]), 5)
    assert center.ingest(bad_crc) is IngestOutcome.MALFORMED
    short = ForwardedRecord(1, b"\x11\x22", 5)
    assert center.ingest(short) is IngestOutcome.MALFORMED
    assert center.counters["malformed"] == 2
    assert center.timeline(1) == []


def test_dedup_three_routers_one_accepted():
    center = MonitoringCenter()
    center.register_sensor(meter())
    for rid in (1, 2, 3):
        center.register_router(rid)
    outcomes = [center.ingest(record(1, 1, router_id=rid, at=10_000 + rid)) for rid in (1, 2, 3)]
    assert outcomes == [IngestOutcome.ACCEPTED, IngestOutcome.DUPLICATE, IngestOutcome.DUPLICATE]
    assert len(center.timeline(1)) == 1
    assert center.counters["deduped"] == 2


def test_duplicates_keep_earliest_corrected_time():
    center = MonitoringCenter()
    center.register_sensor(meter())
    center.register_router(1)
    center.register_router(2)
    # receipt corrections yield 10 040 then 10 000: the later-arriving but
    # earlier-stamped copy must win
    assert center.ingest(record(1, 1, router_id=1, at=10_040)) is IngestOutcome.ACCEPTED
    assert center.ingest(record(1, 1, router_id=2, at=10_000)) is IngestOutcome.DUPLICATE
    [entry] = center.timeline(1)
    assert entry.estimated_event_time == 10_000


def test_a_held_timeline_entry_keeps_its_time_when_a_duplicate_lowers_it():
    center = MonitoringCenter()
    center.register_sensor(meter(sensor_id=7))
    center.ingest(record(1, 1, sensor_id=7, at=500))
    center.ingest(record(2, 2, sensor_id=7, at=600))
    held = center.timeline(7)
    assert center.ingest(record(2, 2, router_id=2, sensor_id=7, at=300)) is IngestOutcome.DUPLICATE
    assert [(e.estimated_event_time, e.seq_no) for e in held] == [(500, 1), (600, 2)]
    # The replacement is the one dedup finds: a later, lower copy moves it again.
    assert center.ingest(record(2, 2, router_id=3, sensor_id=7, at=400)) is IngestOutcome.DUPLICATE
    assert center.ingest(record(2, 2, router_id=3, sensor_id=7, at=200)) is IngestOutcome.DUPLICATE
    assert [(e.estimated_event_time, e.seq_no) for e in center.timeline(7)] == [(200, 2), (500, 1)]
    assert [(e.estimated_event_time, e.seq_no) for e in held] == [(500, 1), (600, 2)]


def test_bad_crc_copy_of_accepted_frame_is_malformed():
    center = MonitoringCenter()
    center.register_sensor(meter())
    center.register_router(1)
    good = record(1, 1, at=10_040)
    assert center.ingest(good) is IngestOutcome.ACCEPTED
    before = [(e.estimated_event_time, e.level_index, e.seq_no) for e in center.timeline(1)]
    data = good.frame_bytes
    bad_crc = ForwardedRecord(1, data[:-1] + bytes([data[-1] ^ 0xFF]), 10_000)
    assert center.ingest(bad_crc) is IngestOutcome.MALFORMED
    assert center.counters == {"accepted": 1, "deduped": 0, "quarantined": 0, "malformed": 1}
    assert [(e.estimated_event_time, e.level_index, e.seq_no) for e in center.timeline(1)] == before


def test_truncated_prefix_of_accepted_frame_is_malformed():
    center = MonitoringCenter()
    center.register_sensor(meter())
    good = record(1, 1, at=10_040)
    center.ingest(good)
    for cut in (13, 9, 5):
        truncated = ForwardedRecord(1, good.frame_bytes[:cut], 10_000)
        assert center.ingest(truncated) is IngestOutcome.MALFORMED
    assert center.counters["malformed"] == 3
    [entry] = center.timeline(1)
    assert entry.estimated_event_time == 10_040


def test_same_seq_with_other_level_is_duplicate():
    center = MonitoringCenter()
    center.register_sensor(meter())
    assert center.ingest(record(1, 1, at=10_040)) is IngestOutcome.ACCEPTED
    # validly encoded, same (sensor_id, seq_no), different bytes
    assert center.ingest(record(1, 5, at=10_000)) is IngestOutcome.DUPLICATE
    [entry] = center.timeline(1)
    assert (entry.level_index, entry.estimated_event_time) == (1, 10_000)
    assert center.counters["deduped"] == 1


def test_identical_copies_decode_once_and_keep_earliest_time(monkeypatch):
    decodes = []
    real_decode = pi_protocol.decode

    def counting_decode(data):
        decodes.append(data)
        return real_decode(data)

    monkeypatch.setattr(pi_protocol, "decode", counting_decode)
    center = MonitoringCenter()
    center.register_sensor(meter())
    for rid in (1, 2, 3):
        center.register_router(rid)
    outcomes = [
        center.ingest(record(1, 1, router_id=rid, at=at))
        for rid, at in ((1, 10_040), (2, 10_010), (3, 10_025))
    ]
    assert outcomes == [IngestOutcome.ACCEPTED, IngestOutcome.DUPLICATE, IngestOutcome.DUPLICATE]
    assert len(decodes) == 1
    [entry] = center.timeline(1)
    assert entry.estimated_event_time == 10_010

def test_corrected_time_subtracts_residual_and_latency():
    center = MonitoringCenter(nominal_latency=50)
    center.register_sensor(meter())
    center.register_router(1, sync_residual=2)
    center.ingest(record(1, 1, at=10_052))
    [entry] = center.timeline(1)
    assert entry.estimated_event_time == 10_000


def test_unknown_router_defaults_to_zero_residual():
    center = MonitoringCenter(nominal_latency=50)
    center.register_sensor(meter())
    center.ingest(record(1, 1, router_id=42, at=10_050))
    [entry] = center.timeline(1)
    assert entry.estimated_event_time == 10_000


def test_re_registering_a_router_replaces_its_location_and_residual():
    center = MonitoringCenter(nominal_latency=50)
    center.register_sensor(meter())
    center.register_router(1, "roof", sync_residual=2)
    assert center.ingest(record(1, 1, at=10_052)) is IngestOutcome.ACCEPTED
    center.register_router(1, "mast", sync_residual=-30)
    assert center.routers == {1: "mast"}
    assert center.ingest(record(2, 2, at=20_020)) is IngestOutcome.ACCEPTED
    # A later copy of seq 1 corrects to 10_032 under the new residual: the
    # entry placed under the old one keeps its earlier time.
    assert center.ingest(record(1, 1, at=10_052)) is IngestOutcome.DUPLICATE
    assert [(e.estimated_event_time, e.seq_no) for e in center.timeline(1)] == [(10_000, 1), (20_000, 2)]


def test_reconstruct_before_any_data():
    center = MonitoringCenter()
    center.register_sensor(meter(dp=0.5, p0=3.0))
    assert center.reconstruct(1, 0) == (3.0, 0.5)
    assert center.reconstruct(1, 10**9) == (3.0, 0.5)


def test_reconstruct_zero_order_hold():
    center = MonitoringCenter()
    center.register_sensor(meter(dp=0.5, p0=0.0))
    center.register_router(1)
    center.ingest(record(1, 1, at=1_000))
    center.ingest(record(2, 2, at=5_000))
    assert center.reconstruct(1, 999) == (0.0, 0.5)
    assert center.reconstruct(1, 1_000)[0] == 0.5
    assert center.reconstruct(1, 4_999)[0] == 0.5
    assert center.reconstruct(1, 5_000)[0] == 1.0
    assert center.reconstruct(1, 100_000)[0] == 1.0


def test_reconstruct_level_twenty():
    center = MonitoringCenter()
    center.register_sensor(meter(dp=0.5, p0=0.0))
    center.register_router(1)
    center.ingest(record(1, 20, at=1_000))
    assert center.reconstruct(1, 2_000)[0] == 10.0


def test_uncertainty_widens_with_seq_gap():
    center = MonitoringCenter()
    center.register_sensor(meter(dp=0.5))
    center.register_router(1)
    center.ingest(record(1, 1, at=1_000))
    center.ingest(record(4, 4, at=9_000))  # seqs 2,3 lost
    value, unc = center.reconstruct(1, 5_000)
    assert value == 0.5
    assert unc == 0.5 * 3  # bracketing gap: seq 4 - seq 1
    # after the last record the gap is unknowable: back to one quantum
    assert center.reconstruct(1, 20_000) == (2.0, 0.5)
    # before the first record, the virtual origin (seq 0) brackets the gap
    value, unc = center.reconstruct(1, 500)
    assert value == 0.0
    assert unc == 0.5


def test_ingest_order_insensitive():
    recs = [record(seq, seq, at=1_000 * seq) for seq in range(1, 30)]
    rng = random.Random(7)

    def final_rows(order):
        center = MonitoringCenter()
        center.register_sensor(meter())
        center.register_router(1)
        for rec in order:
            center.ingest(rec)
        return center.timeline_rows()

    baseline_rows = final_rows(recs)
    for _ in range(5):
        shuffled = recs[:]
        rng.shuffle(shuffled)
        assert final_rows(shuffled) == baseline_rows


def test_series_grid():
    center = MonitoringCenter()
    center.register_sensor(meter(dp=1.0))
    center.register_router(1)
    center.ingest(record(1, 1, at=100))
    points = center.series(1, 0, 300, 100)
    assert points == [(0, 0.0, 1.0), (100, 1.0, 1.0), (200, 1.0, 1.0), (300, 1.0, 1.0)]
    assert center.series(1, 50, 50, 10) == [(50, 0.0, 1.0)]
    with pytest.raises(ValueError):
        center.series(1, 10, 0, 10)
    with pytest.raises(ValueError):
        center.series(1, 0, 10, 0)


def test_series_monotone_for_monotonic_sensor():
    center = MonitoringCenter()
    center.register_sensor(meter(dp=0.5))
    center.register_router(1)
    for seq in range(1, 8):
        center.ingest(record(seq, seq, at=seq * 1_000))
    values = [v for _, v, _ in center.series(1, 0, 10_000, 250)]
    assert values == sorted(values)


def _pointwise_series(center, sensor_id, t0, t1, step):
    points = []
    t = t0
    while t <= t1:
        points.append((t, *center.reconstruct(sensor_id, t)))
        t += step
    return points


def test_series_equals_pointwise_reconstruct():
    """series() holds its value between entries instead of calling
    reconstruct() per point; the tuples must still be equal, bit for bit."""
    rng = random.Random(2718)
    residuals = {1: 0, 2: 250, 3: -400}
    points = 0
    for _ in range(400):
        center = MonitoringCenter(nominal_latency=rng.choice((0, 50)))
        center.register_sensor(meter(dp=rng.choice((0.1, 0.25, 1.0)), p0=rng.uniform(-5.0, 5.0)))
        for rid, residual in residuals.items():
            center.register_router(rid, sync_residual=residual)
        # Receipt times on a 250 ms lattice shifted by the routers' residuals:
        # corrected times repeat, go negative, and later copies lower entries
        # already placed. Seq numbers are sparse, and a fifth of the centers
        # keep an empty timeline.
        n = rng.randrange(0, 30) if rng.random() < 0.8 else 0
        for seq in rng.sample(range(1, 60), n):
            level = rng.randrange(-20, 40)
            for rid in rng.sample(sorted(residuals), rng.randrange(1, 4)):
                center.ingest(record(seq, level, router_id=rid, at=250 * rng.randrange(0, 20)))
        a = rng.randrange(-1_000, 6_000)
        width = rng.randrange(0, 300)
        windows = [
            (-1_000, 6_000, rng.randrange(7, 400)),  # from before the first entry to past the last
            (a, a, rng.randrange(1, 100)),  # t0 == t1
            (a, a + width, 1),
            (a, a + width, width + rng.randrange(1, 500)),  # one step overshoots the window
            (a - 0.25, a + 10 * width, rng.uniform(1.0, 200.0)),
        ]
        for t0, t1, step in windows:
            expected = _pointwise_series(center, 1, t0, t1, step)
            assert center.series(1, t0, t1, step) == expected
            points += len(expected)
    assert points > 100_000


def test_detect_gaps():
    center = MonitoringCenter()
    center.register_sensor(meter())
    center.register_router(1)
    for seq in (1, 2, 3):
        center.ingest(record(seq, seq, at=seq))
    assert center.detect_gaps(1) == []
    center2 = MonitoringCenter()
    center2.register_sensor(meter())
    center2.register_router(1)
    center2.ingest(record(1, 1, at=1))
    center2.ingest(record(4, 4, at=4))
    assert center2.detect_gaps(1) == [(2, 3)]
    center2.ingest(record(7, 7, at=7))
    assert center2.detect_gaps(1) == [(2, 3), (5, 6)]


def test_liveness_boundary_is_strict():
    center = MonitoringCenter()
    center.register_sensor(meter(status_interval=1_000))
    center.register_router(1)
    center.ingest(record(1, 0, at=5_000, msg_type=MsgType.STATUS))
    assert center.liveness(1, 5_000 + 2_000) is Liveness.OK  # exactly 2x: still OK
    assert center.liveness(1, 5_000 + 2_001) is Liveness.SILENT
    # never heard anything: silent once 2 intervals have elapsed from t=0
    center.register_sensor(meter(sensor_id=2, status_interval=1_000))
    assert center.liveness(2, 2_000) is Liveness.OK
    assert center.liveness(2, 2_001) is Liveness.SILENT


def test_unknown_sensor_queries():
    center = MonitoringCenter()
    with pytest.raises(UnknownSensor):
        center.reconstruct(99, 0)
    with pytest.raises(UnknownSensor):
        center.detect_gaps(99)
    with pytest.raises(UnknownSensor):
        center.liveness(99, 0)
    with pytest.raises(UnknownSensor):
        center.timeline(99)
    with pytest.raises(UnknownSensor):
        center.series(99, 0, 10, 1)
    # the window's arguments are checked before the sensor is looked up
    with pytest.raises(ValueError):
        center.series(99, 10, 0, 1)
    with pytest.raises(ValueError):
        center.series(99, 0, 10, 0)


def test_timeline_rows_sorted_and_self_describing():
    center = MonitoringCenter()
    center.register_sensor(meter(sensor_id=2, dp=0.5))
    center.register_sensor(meter(sensor_id=1, dp=0.25, p0=1.0))
    center.register_router(1)
    center.ingest(record(1, 1, at=500, sensor_id=2))
    center.ingest(record(1, 2, at=300, sensor_id=1))
    center.ingest(record(3, 3, at=900, sensor_id=1, msg_type=MsgType.STATUS))
    rows = center.timeline_rows()
    assert rows == [
        (1, 1, "EVENT", 300, 2, 1.5, 0.25),
        (1, 3, "STATUS", 900, 3, 1.75, 0.5),  # seq 2 missing: doubled halfwidth
        (2, 1, "EVENT", 500, 1, 0.5, 0.5),
    ]


def test_registration_replays_only_its_own_quarantined_frames(monkeypatch):
    decodes = []
    real_decode = pi_protocol.decode

    def counting_decode(data):
        decodes.append(data)
        return real_decode(data)

    monkeypatch.setattr(pi_protocol, "decode", counting_decode)
    n = 20_000
    center = MonitoringCenter()
    center.register_router(1)
    for sensor_id in range(n):
        assert center.ingest(record(1, 1, sensor_id=sensor_id)) is IngestOutcome.QUARANTINED
    start = time.perf_counter()
    for sensor_id in range(n):
        center.register_sensor(meter(sensor_id=sensor_id))
    # Each registration pops its own held records; scanning the whole
    # queue on each registration took about 8 s at this n.
    assert time.perf_counter() - start < 2.0
    assert len(decodes) <= 2 * n
    assert center.counters == {"accepted": n, "deduped": 0, "quarantined": 0, "malformed": 0}
    assert center.quarantined_records() == []


def test_quarantine_keeps_global_arrival_order_across_registration():
    center = MonitoringCenter()
    center.register_router(1)
    keys = [(7, 1), (8, 1), (9, 1), (8, 2), (7, 2), (9, 2), (8, 3), (7, 3)]
    arrivals = [record(seq, seq, sensor_id=sensor_id, at=1_000 * i) for i, (sensor_id, seq) in enumerate(keys)]
    for rec in arrivals:
        assert center.ingest(rec) is IngestOutcome.QUARANTINED
    assert center.quarantined_records() == arrivals
    center.register_sensor(meter(sensor_id=8))
    assert center.quarantined_records() == [rec for (sensor_id, _), rec in zip(keys, arrivals) if sensor_id != 8]
    assert [e.seq_no for e in center.timeline(8)] == [1, 2, 3]
    assert center.counters == {"accepted": 3, "deduped": 0, "quarantined": 5, "malformed": 0}


def _zero_order_hold(descriptor, ordered, t):
    """Brute-force reconstruct over entries ordered by (time, seq_no)."""
    before = after = None
    for entry in ordered:
        if entry[0] <= t:
            before = entry
        elif after is None:
            after = entry
    level = before[2] if before is not None else 0
    gap = after[1] - (before[1] if before is not None else 0) if after is not None else 1
    return descriptor.p0 + descriptor.dp * level, descriptor.dp * max(1, gap)


def test_timeline_stays_ordered_under_hostile_arrival_orders():
    descriptor = meter(dp=0.5, p0=1.0)
    rng = random.Random(11)
    for _ in range(20):
        center = MonitoringCenter()
        center.register_sensor(descriptor)
        residuals = {1: 0, 2: 300, 3: -300}
        for rid, residual in residuals.items():
            center.register_router(rid, sync_residual=residual)
        # Coarse receipt times on three routers whose residuals shift them by
        # whole steps: many copies land on equal corrected times, and later
        # copies often lower an entry already placed. One copy in five
        # carries another level, so both the byte-identical and the decoded
        # duplicate path lower placed entries.
        recs = [
            record(seq, seq if rng.random() < 0.8 else -seq, router_id=rid, at=300 * rng.randrange(0, 12))
            for seq in range(1, 25)
            for rid in rng.sample(sorted(residuals), rng.randrange(1, 4))
        ]
        rng.shuffle(recs)
        model = {}  # seq_no -> [earliest corrected time, seq_no, level of first copy]
        for rec in recs:
            frame = pi_protocol.decode(rec.frame_bytes)
            corrected = rec.local_receipt_time - residuals[rec.router_id]
            kept = model.setdefault(frame.seq_no, [corrected, frame.seq_no, frame.level_index])
            kept[0] = min(kept[0], corrected)
            center.ingest(rec)
            ordered = sorted(model.values())
            assert [(e.estimated_event_time, e.seq_no, e.level_index) for e in center.timeline(1)] == [
                tuple(entry) for entry in ordered
            ]
        for t in range(-600, 4_200, 150):
            assert center.reconstruct(1, t) == _zero_order_hold(descriptor, ordered, t)
        assert center.liveness(1, ordered[-1][0] + 2 * H6) is Liveness.OK
        assert center.liveness(1, ordered[-1][0] + 2 * H6 + 1) is Liveness.SILENT


def _hostile_records(rng, count):
    """Random bytes, and frames of random ids that are bit-flipped,
    truncated, or CRC-correct around any header byte."""
    sensor_ids = (1, 2, 3, 9, 2**32 - 1)
    for _ in range(count):
        sensor_id = rng.choice(sensor_ids) if rng.random() < 0.7 else rng.getrandbits(32)
        seq_no = rng.randrange(0, 64) if rng.random() < 0.7 else rng.getrandbits(32)
        level = rng.randrange(-(2**31), 2**31)
        msg_type = rng.choice((MsgType.EVENT, MsgType.STATUS))
        body = encode(PiFrame(msg_type, sensor_id, seq_no, level))[:13]
        if rng.random() < 0.2:
            body = bytes((rng.getrandbits(8),)) + body[1:]
        frame = body + bytes((pi_protocol.crc8(body),))
        kind = rng.randrange(4)
        if kind == 0:
            data = rng.randbytes(rng.randrange(0, 101))
        elif kind == 1:
            flipped = int.from_bytes(frame, "big")
            for bit in rng.sample(range(8 * len(frame)), rng.randrange(1, 4)):
                flipped ^= 1 << bit
            data = flipped.to_bytes(len(frame), "big")
        elif kind == 2:
            data = frame[: rng.randrange(0, len(frame))]
        else:
            data = frame
        yield ForwardedRecord(rng.randrange(0, 5), data, rng.randrange(-(2**40), 2**40))


def test_hostile_records_are_counted_and_never_raise():
    center = MonitoringCenter(nominal_latency=50)
    for sensor_id in (1, 2, 3):
        center.register_sensor(meter(sensor_id=sensor_id))
    for rid, residual in ((1, 0), (2, -7), (3, 12)):
        center.register_router(rid, sync_residual=residual)
    n = 50_000
    outcomes = {outcome: 0 for outcome in IngestOutcome}
    for rec in _hostile_records(random.Random(1234), n):
        outcomes[center.ingest(rec)] += 1
    assert all(outcomes.values()), outcomes
    assert sum(center.counters.values()) == n
    center.register_sensor(meter(sensor_id=9))
    assert sum(center.counters.values()) == n
    for sensor_id in (1, 2, 3, 9):
        keys = [(e.estimated_event_time, e.seq_no) for e in center.timeline(sensor_id)]
        assert keys == sorted(keys)
        assert len(set(seq for _, seq in keys)) == len(keys)


class _ReferenceCenter(MonitoringCenter):
    """The center with ingest as it stood before ingest unpacked each record
    once, kept as the reference. It reads the center's residual book and
    holds records in its per-sensor quarantine, as the center keeps them."""

    def _corrected_time(self, rec: ForwardedRecord):
        residual = self._residuals.get(rec.router_id, 0)
        return rec.local_receipt_time - residual - self.nominal_latency

    def ingest(self, rec: ForwardedRecord) -> IngestOutcome:
        """Process one forwarded record; every outcome is a returned status."""
        data = rec.frame_bytes
        store = existing = None
        if len(data) == FRAME_LEN:
            sensor_id, seq_no = _WIRE_KEY.unpack_from(data, 1)
            store = self._timelines.get(sensor_id)
            if store is not None:
                existing = store.by_seq.get(seq_no)
                if existing is not None and existing.frame_bytes != data:
                    existing = None
        if existing is None:
            try:
                frame = pi_protocol.decode(data)
            except pi_protocol.PiProtocolError:
                self.counters["malformed"] += 1
                return IngestOutcome.MALFORMED
            # decode takes only FRAME_LEN bytes: `store` is this frame's sensor's
            if store is None:
                self._quarantine.setdefault(frame.sensor_id, []).append((next(self._arrivals), rec))
                self.counters["quarantined"] += 1
                return IngestOutcome.QUARANTINED
            existing = store.by_seq.get(frame.seq_no)
            if existing is None:
                entry = TimelineEntry(
                    self._corrected_time(rec), frame.level_index, frame.msg_type, frame.seq_no, bytes(data)
                )
                store.by_seq[frame.seq_no] = entry
                store.place(entry)
                self.counters["accepted"] += 1
                return IngestOutcome.ACCEPTED
        corrected = self._corrected_time(rec)
        if corrected < existing.estimated_event_time:
            store.move(existing, corrected)
        self.counters["deduped"] += 1
        return IngestOutcome.DUPLICATE


def _genuine_records(rng, count):
    """Valid frames of sensors 1, 2, 3 and 9, each heard by one to three of
    routers 0-4 within 400 ms; seq_no repeats, often with another level."""
    for _ in range(count):
        msg_type = rng.choice((MsgType.EVENT, MsgType.STATUS))
        frame = PiFrame(msg_type, rng.choice((1, 2, 3, 9)), rng.randrange(1, 300), rng.randrange(-40, 40))
        data = encode(frame)
        t = rng.randrange(0, 86_400_000)
        for router_id in rng.sample(range(5), rng.randrange(1, 4)):
            yield ForwardedRecord(router_id, data, t + rng.randrange(0, 400))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ingest_matches_reference_on_hostile_and_duplicated_streams(seed):
    rng = random.Random(seed)
    stream = list(_hostile_records(rng, 3_000)) + list(_genuine_records(rng, 3_000))
    rng.shuffle(stream)
    center, reference = centers = (MonitoringCenter(nominal_latency=50), _ReferenceCenter(nominal_latency=50))
    for c in centers:
        for sensor_id in (1, 2, 3):
            c.register_sensor(meter(sensor_id=sensor_id))
        c.register_router(1)
        c.register_router(2, sync_residual=-7)
    outcomes = ([], [])
    third = len(stream) // 3
    for k, rec in enumerate(stream):
        for c, out in zip(centers, outcomes):
            if k == third:
                # Router 3 registers mid-stream; routers 0 and 4 never do.
                c.register_router(3, sync_residual=12)
            elif k == 2 * third:
                # The latency changes after every registration, and sensor 9
                # registers under it, replaying its quarantined frames.
                c.nominal_latency = 75
                c.register_sensor(meter(sensor_id=9))
            out.append(c.ingest(rec))
    assert outcomes[0] == outcomes[1]
    assert set(outcomes[0]) == set(IngestOutcome)
    assert center.counters == reference.counters
    assert center.timeline_rows() == reference.timeline_rows()
    assert center.quarantined_records() == reference.quarantined_records() != []


class _BisectingTimeline(_Timeline):
    """_Timeline with place and move as they stood before place appended
    in-order entries: every entry is bisected into place."""

    def place(self, entry: TimelineEntry) -> None:
        """Bisect on time, then step back over equal times with higher seq_no."""
        t = entry.estimated_event_time
        i = bisect_right(self.times, t)
        while i and self.times[i - 1] == t and self.entries[i - 1].seq_no > entry.seq_no:
            i -= 1
        self.entries.insert(i, entry)
        self.times.insert(i, t)

    def move(self, entry: TimelineEntry, t) -> TimelineEntry:
        """Re-place a placed entry whose time is lowered to t, and return it."""
        i = bisect_left(self.times, entry.estimated_event_time)
        while self.entries[i] is not entry:
            i += 1
        del self.entries[i], self.times[i]
        entry.estimated_event_time = t
        self.place(entry)
        return entry


def _timeline_ops(rng, count):
    """Seeded place/move steps: mostly in order, with runs of equal times
    and descending seq_nos, late entries, and moves that lower a time."""
    ops, placed, t = [], {}, 0
    seqs = rng.sample(range(1, 10 * count), count)
    for seq in seqs:
        roll = rng.random()
        if roll < 0.4:
            t += rng.randrange(1, 50)  # in order
            at = t
        elif roll < 0.7:
            at = t  # equal to the latest time; seq_nos come in random order
        elif placed:
            at = rng.randrange(-20, t + 1)  # a late entry
        else:
            at = t
        ops.append(("place", seq, at))
        placed[seq] = at
        if rng.random() < 0.25:
            victim = rng.choice(sorted(placed))
            lower = placed[victim] - rng.choice((1, rng.randrange(1, 200)))
            ops.append(("move", victim, lower))
            placed[victim] = lower
    return ops


def _replay(timeline, ops):
    by_seq = {}
    for op, seq, at in ops:
        if op == "place":
            by_seq[seq] = TimelineEntry(at, seq, MsgType.EVENT, seq, b"")
            timeline.place(by_seq[seq])
        else:
            by_seq[seq] = timeline.move(by_seq[seq], at)
        assert timeline.times == [e.estimated_event_time for e in timeline.entries]
    return [(e.estimated_event_time, e.seq_no) for e in timeline.entries]


@pytest.mark.parametrize("seed", range(8))
def test_timeline_placement_matches_always_bisecting_reference(seed):
    rng = random.Random(seed)
    for count in (1, 2, 5, 40, 300):
        ops = _timeline_ops(rng, count)
        # descending seq_nos at one time, then one later and one equal again
        ops += [("place", 10**6 + k, 10**5) for k in (5, 3, 4, 1)]
        ops += [("place", 10**6 + 9, 10**5 + 1), ("place", 10**6 + 2, 10**5 + 1)]
        expected = _replay(_BisectingTimeline(meter()), ops)
        assert _replay(_Timeline(meter()), ops) == expected
        assert expected == sorted(expected)
