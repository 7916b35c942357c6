import random
from collections import Counter
from dataclasses import dataclass, field

from asmisim import radio, runner, scenario
from asmisim.center import MonitoringCenter
from asmisim.pi_protocol import FRAME_LEN, MsgType, PiFrame, encode
from asmisim.router import ForwardedRecord, RouterState, flush, local_clock, receive, time_error_bound
from asmisim.simkernel import MAX_SIMTIME, Kernel

DAY = 86_400_000

# The reference models below schedule radio receipts, router flushes and
# center actions as kernel events, ranked in that order.
RANK_RECEIPT, RANK_ROUTER, RANK_CENTER = 2, 3, 4


def wire(seq_no=1):
    return encode(PiFrame(MsgType.EVENT, 1, seq_no, seq_no))


def test_local_clock_identity():
    state = RouterState(router_id=1)
    assert local_clock(state, 0) == 0
    assert local_clock(state, 123_456) == 123_456


def test_local_clock_offset():
    state = RouterState(router_id=1, sync_residual=200)
    assert local_clock(state, 1_000) == 1_200


def test_local_clock_drift():
    state = RouterState(router_id=1, drift_ppm=100.0)
    assert local_clock(state, 10_000_000) == 10_001_000  # +100 ppm over 1e7 ms


def test_local_clock_unsynced_day_drift():
    state = RouterState(router_id=1, drift_ppm=100.0)
    assert local_clock(state, DAY) - DAY == 8_640


def test_receive_buffers_with_local_stamp():
    state = RouterState(router_id=7, sync_residual=3)
    receive(state, wire(), 1_000, 950)
    assert state.pending == {60_000: [(1_000, 950, wire())]}
    assert flush(state, 60_000) == [ForwardedRecord(7, wire(), 1_003)]


def test_receive_drops_wrong_length():
    state = RouterState(router_id=1)
    receive(state, b"garbage", 0, 0)
    assert state.pending == {}
    assert (state.received, state.dropped) == (1, 1)  # heard, then dropped
    receive(state, wire() + b"x", 1, 0)
    assert state.pending == {}
    assert (state.received, state.dropped) == (2, 2)
    receive(state, wire(), 2, 0)
    assert state.pending == {60_000: [(2, 0, wire())]}
    assert (state.received, state.dropped) == (3, 2)


def test_receive_preserves_arrival_order_at_same_instant():
    state = RouterState(router_id=1)
    receive(state, wire(1), 50, 0)
    receive(state, wire(2), 50, 0)
    assert state.pending == {60_000: [(50, 0, wire(1)), (50, 0, wire(2))]}  # one batch, in the order heard
    assert [r.frame_bytes for r in flush(state, 60_000)] == [wire(1), wire(2)]


def test_equal_receipts_go_by_emission_time_then_in_the_order_heard():
    state = RouterState(router_id=1, sync_residual=2)
    for seq_no, (at, sent_at) in enumerate(((50, 40), (50, 30), (50, 40), (49, 45), (50, 35)), start=1):
        receive(state, wire(seq_no), at, sent_at)
    batch = flush(state, 60_000)
    assert [r.frame_bytes for r in batch] == [wire(4), wire(2), wire(5), wire(1), wire(3)]
    assert [r.local_receipt_time for r in batch] == [51, 52, 52, 52, 52]  # the emission time stamps nothing


def test_flush_returns_and_clears():
    state = RouterState(router_id=1, flush_interval=100)
    for i, t in enumerate((40, 10, 90, 10, 1)):
        receive(state, wire(i + 1), t, 0)
    assert list(state.pending) == [100]
    batch = flush(state, 100)
    # true receipt order; the two receipts at 10 keep the order they were heard in
    assert [r.frame_bytes for r in batch] == [wire(5), wire(2), wire(4), wire(1), wire(3)]
    assert [r.local_receipt_time for r in batch] == [1, 10, 10, 40, 90]
    assert state.pending == {}
    # records arriving after a flush appear only in the next batch
    receive(state, wire(6), 200, 150)
    assert state.pending == {200: [(200, 150, wire(6))]}
    assert [r.frame_bytes for r in flush(state, 200)] == [wire(6)]
    assert state.pending == {}


def test_receipt_at_zero_files_under_the_first_flush():
    for interval in (1, 250, DAY):
        state = RouterState(router_id=1, flush_interval=interval)
        receive(state, wire(), 0, 0)
        assert state.pending == {interval: [(0, 0, wire())]}


def test_receipt_on_a_flush_instant_files_under_that_instant():
    for interval, k in ((1, 1), (1, 7), (250, 1), (250, 2), (250, 9), (1, MAX_SIMTIME - 1)):
        state = RouterState(router_id=1, flush_interval=interval)
        at = k * interval
        receive(state, wire(1), at, at - 1)
        receive(state, wire(2), at + 1, at)
        expected = {at: [(at, at - 1, wire(1))], at + interval: [(at + 1, at, wire(2))]}
        if interval > 1:
            receive(state, wire(3), at - 1, at - 1)  # joins the batch due at `at`
            expected[at].append((at - 1, at - 1, wire(3)))
        assert state.pending == expected


def test_flushing_one_pending_batch_leaves_the_other():
    state = RouterState(router_id=4, flush_interval=1_000)
    receive(state, wire(1), 1_500, 1_450)
    receive(state, wire(2), 500, 450)
    receive(state, wire(3), 1_999, 1_949)
    assert state.pending == {
        2_000: [(1_500, 1_450, wire(1)), (1_999, 1_949, wire(3))], 1_000: [(500, 450, wire(2))]
    }
    assert [r.frame_bytes for r in flush(state, 2_000)] == [wire(1), wire(3)]
    assert state.pending == {1_000: [(500, 450, wire(2))]}
    assert [r.frame_bytes for r in flush(state, 1_000)] == [wire(2)]
    assert state.pending == {}


def test_stamp_is_the_local_clock_at_receipt_not_at_flush():
    state = RouterState(router_id=1, drift_ppm=100.0, sync_residual=5, flush_interval=DAY)
    receive(state, wire(), 10_000_000, 9_999_950)
    assert list(state.pending) == [DAY]
    [rec] = flush(state, DAY)
    assert rec.local_receipt_time == local_clock(state, 10_000_000) == 10_001_005
    assert local_clock(state, DAY) != rec.local_receipt_time


def test_sync_resets_drift_anchor():
    state = RouterState(router_id=1, drift_ppm=100.0, sync_interval=1_000_000, sync_until=1_000_000)
    assert local_clock(state, 1_000_000) == 1_000_100  # stamped before the sync at that instant
    assert local_clock(state, 1_000_001) == 1_000_001
    assert local_clock(state, 2_000_000) == 2_000_100


def test_sync_with_residual():
    state = RouterState(
        router_id=1, drift_ppm=50.0, sync_residual=-7, sync_interval=500_000, sync_until=500_000
    )
    assert local_clock(state, 0) == -7  # synced at 0: the residual applies from the start
    assert local_clock(state, 500_001) == 500_001 - 7
    # residual stays, drift accumulates on top
    assert local_clock(state, 1_500_001) == 1_500_001 - 7 + 50


def test_error_bounded_between_periodic_syncs():
    state = RouterState(router_id=1, drift_ppm=100.0, sync_interval=1_000_000, sync_until=10_000_000)
    worst = max(abs(local_clock(state, t) - t) for t in range(0, 10_000_001, 50_000))
    assert worst == 100  # 100 ppm over a 1e6 ms sync interval


def event_driven_oracle(state, receipts):
    """Reference stamps from the clock as mutable state, moved by sync events.

    A sync event per interval, while it is at most sync_until, resets the
    offset to the residual and the drift anchor to its instant. Syncs rank
    as center actions, after receipts, so at equal times the kernel stamps
    the receipt first. local_clock must match bit for bit.
    """
    kernel = Kernel()
    clock = {"offset": state.sync_residual, "last_sync": 0}
    stamps = {}

    def sync_tick(at):
        clock["offset"], clock["last_sync"] = state.sync_residual, at
        nxt = at + state.sync_interval
        if nxt <= state.sync_until:
            kernel.schedule(nxt, (RANK_CENTER, 1, nxt), sync_tick, nxt)

    def stamp(t):
        drift = round(state.drift_ppm * (t - clock["last_sync"]) / 1_000_000)
        stamps[t] = t + clock["offset"] + drift

    first = state.sync_interval
    if first <= state.sync_until:
        kernel.schedule(first, (RANK_CENTER, 1, first), sync_tick, first)
    for i, t in enumerate(sorted(receipts)):
        kernel.schedule(t, (RANK_RECEIPT, 1, i), stamp, t)
    kernel.run_until(max(receipts))
    return stamps


def test_local_clock_matches_event_driven_syncs():
    rng = random.Random(11)
    for case in range(300):
        epilogue = rng.randrange(0, 100)  # radio latency + jitter
        shape = case % 4
        if shape == 0:  # a sync falls inside the receipt epilogue, past the horizon
            interval = rng.randrange(2, 50_000)
            horizon = interval * rng.randrange(1, 200) - rng.randrange(1, min(interval, epilogue + 2))
        elif shape == 1:  # no sync at all
            horizon = rng.randrange(0, 10**6)
            interval = horizon + rng.randrange(1, 10**6)
        elif shape == 2:  # a sync exactly at the horizon, or a 1 ms interval
            interval = rng.choice((1, rng.randrange(1, 10**5)))
            horizon = interval * rng.randrange(0, 300)
        else:
            interval = rng.randrange(1, 10**6)
            horizon = rng.randrange(0, 300 * interval)
        state = RouterState(
            router_id=1,
            drift_ppm=rng.choice((1e6, -1e6, 0.0, rng.uniform(-1e6, 1e6), rng.uniform(-200, 200))),
            sync_residual=rng.choice((0, rng.randrange(-(2**40), 0), rng.randrange(-50, 50))),
            sync_interval=interval,
            sync_until=horizon,
        )
        receipts = {0, 1, interval, interval + 1, horizon, horizon + 1}
        receipts.update(range(horizon + 1, horizon + epilogue + 1))
        last = horizon // interval
        for k in {1, 2, last, last + 1, *(rng.randrange(1, 300) for _ in range(5))}:
            receipts.update(t for t in (k * interval - 1, k * interval, k * interval + 1) if t >= 0)
        receipts.update(rng.randrange(0, horizon + epilogue + 1) for _ in range(20))
        oracle = event_driven_oracle(state, receipts)
        for t in sorted(receipts):
            assert local_clock(state, t) == oracle[t], (state, t)


def test_transparency_forwarded_bytes_equal_received_bytes():
    state = RouterState(router_id=1, flush_interval=100)
    frames = [wire(i + 1) for i in range(10)]
    for i, data in enumerate(frames):
        receive(state, data, i * 10, i * 10)
    shipped = []
    shipped.extend(flush(state, 100))
    for i, data in enumerate(frames):
        receive(state, data, 110 + i, 110 + i)
    shipped.extend(flush(state, 200))
    assert [r.frame_bytes for r in shipped] == frames + frames


# The router as it was before it batched by flush instant: a FIFO buffer
# that stamps on receipt and hands everything over at each flush. The
# event-driven reference below runs on it.
@dataclass
class FifoRouterState(RouterState):
    buffer: list[ForwardedRecord] = field(default_factory=list)


def fifo_receive(state: FifoRouterState, data: bytes, true_t: int) -> None:
    """Stamp and buffer one incoming transmission.

    Anything that is not exactly one frame long is counted and dropped;
    transport never crashes on garbage.
    """
    if len(data) != FRAME_LEN:
        state.dropped += 1
        return
    state.buffer.append(ForwardedRecord(state.router_id, bytes(data), local_clock(state, true_t)))


def fifo_flush(state: FifoRouterState) -> list[ForwardedRecord]:
    """Hand over and clear the whole buffer, preserving arrival order."""
    batch = state.buffer
    state.buffer = []
    return batch


def event_driven_transport(sc, deliveries, backhaul_delay):
    """Reference transport leg, with every receipt, flush and ingest an event.

    `deliveries` are (router id, receipt time, emission time, frame), in any
    order. Each receipt is a kernel event ranked by (receipt, emission,
    sensor id, seq_no), as one clock over all sensors orders them. Each
    FIFO router flushes at every multiple of its flush interval up to the
    last possible receipt; a non-empty batch is logged at once and ingested
    backhaul_delay later as a center event. What is still buffered after
    that is drained in router-id order. Returns the transport rows, the
    center and the routers' drop count; the runner must match all three
    exactly.
    """
    kernel = Kernel()
    center = MonitoringCenter(nominal_latency=sc.channel.latency)
    states = {}
    for rdef in sc.routers:
        states[rdef.router_id] = FifoRouterState(
            rdef.router_id, rdef.drift_ppm, rdef.flush_interval, rdef.sync_residual, sc.sync_interval, sc.horizon
        )
        center.register_router(rdef.router_id, rdef.location, rdef.sync_residual)
    for descriptor in sc.sensors:
        center.register_sensor(descriptor, sc.sensor_locations[descriptor.sensor_id])
    end_of_receipt = sc.horizon + sc.channel.latency + sc.channel.jitter
    rows = []

    def log(batch):
        rows.extend(
            {"router_id": r.router_id, "local_receipt_time_ms": r.local_receipt_time, "frame_hex": r.frame_bytes.hex()}
            for r in batch
        )

    def ingest(batch):
        for rec in batch:
            center.ingest(rec)

    def flush_tick(state, at):
        batch = fifo_flush(state)
        if batch:
            log(batch)
            kernel.schedule(at + backhaul_delay, (RANK_CENTER, state.router_id, at), ingest, batch)
        nxt = at + state.flush_interval
        if nxt <= end_of_receipt:
            kernel.schedule(nxt, (RANK_ROUTER, state.router_id, nxt), flush_tick, state, nxt)

    for state in states.values():
        if state.flush_interval <= end_of_receipt:
            first = state.flush_interval
            kernel.schedule(first, (RANK_ROUTER, state.router_id, first), flush_tick, state, first)
    for router_id, at, sent_at, frame in deliveries:
        rank = (RANK_RECEIPT, router_id, (sent_at, frame.sensor_id, frame.seq_no))
        kernel.schedule(at, rank, fifo_receive, states[router_id], encode(frame), at)
    kernel.run_until(end_of_receipt + backhaul_delay)
    for router_id in sorted(states):
        batch = fifo_flush(states[router_id])
        log(batch)
        ingest(batch)
    return rows, center, sum(state.dropped for state in states.values())


def _transport_scenario(rng, case):
    """A small seeded run whose receipts fall on the transport's edges, and
    a backhaul delay for the reference transport to run it with."""
    horizon = rng.randrange(1_000, 8_000)
    latency = 0 if case % 3 == 0 else rng.randrange(0, 40)
    jitter = rng.choice((0, rng.randrange(1, 15), rng.randrange(1, 15)))
    end = horizon + latency + jitter
    divisor = rng.choice([d for d in range(2, 40) if end % d == 0] or [1])
    intervals = [1, end // divisor, end, end + rng.randrange(1, 10**6), rng.randrange(2, 50), rng.randrange(50, 3000)]
    routers = [
        {"id": router_id, "flush_interval": rng.choice(intervals), "drift_ppm": rng.uniform(-300, 300),
         "sync_residual": rng.randrange(-20, 20)}
        for router_id in rng.sample(range(1, 9), rng.randrange(2, 4))
    ]
    period = rng.randrange(5, 200)  # ms between meter crossings
    # statuses on flush multiples
    status = rng.choice([r["flush_interval"] for r in routers if 100 <= r["flush_interval"] <= horizon] or [999])
    ids = [r["id"] for r in routers]
    sc = scenario.validate({
        "seed": rng.randrange(2**32),
        "horizon": horizon,
        "signals": [
            {"id": "meter", "kind": "cumulative", "unit": "kWh", "base_rate_per_hour": 0.5 * 3_600_000 / period},
            {"id": "air", "kind": "ambient", "unit": "degC", "mean": 21.0, "amplitude": 1.0, "period": horizon,
             "noise_sigma": 0.05, "noise_step": 100},
        ],
        "sensors": [
            {"sensor_id": 1, "dP": 0.5, "P0": 0.0, "mode": "MONOTONIC", "status_interval": status, "signal": "meter"},
            # same grid on one signal: both emit at the same instants, from t = 0
            {"sensor_id": 2, "dP": 0.25, "P0": 20.0, "mode": "BIDIRECTIONAL", "status_interval": status, "signal": "air"},
            {"sensor_id": 3, "dP": 0.25, "P0": 20.0, "mode": "BIDIRECTIONAL", "status_interval": 2 * status,
             "signal": "air"},
        ],
        "routers": routers,
        "coverage": {str(sensor_id): rng.sample(ids, rng.randrange(1, len(ids) + 1)) for sensor_id in (1, 2, 3)},
        "channel": {"loss_prob": rng.choice((0.0, 0.2)), "latency": latency, "jitter": jitter},
        "sync_interval": rng.randrange(1, 5_000),
    })
    return sc, rng.randrange(0, 1_000)


def test_shipped_batches_match_event_driven_transport(monkeypatch):
    seen = Counter()
    original = radio.broadcast
    for case in range(40):
        sc, backhaul_delay = _transport_scenario(random.Random(case), case)
        deliveries = []

        def recording(frame, sensor_id, t, coverage, channel):
            out = original(frame, sensor_id, t, coverage, channel)
            deliveries.extend((router_id, at, t, frame) for router_id, at in out)
            return out

        monkeypatch.setattr(radio, "broadcast", recording)
        result = runner.run_scenario(sc)
        random.Random(case).shuffle(deliveries)  # the reference ranks receipts itself
        rows, center, dropped = event_driven_transport(sc, deliveries, backhaul_delay)
        assert result.transport_rows == rows, case
        assert result.center.timeline_rows() == center.timeline_rows(), case
        assert result.center.counters == center.counters, case
        assert (result.counters["delivered"], result.counters["dropped"]) == (len(deliveries), dropped), case

        # The edges these runs must reach, counted over all cases.
        end = sc.horizon + sc.channel.latency + sc.channel.jitter
        interval = {r.router_id: r.flush_interval for r in sc.routers}
        first_emit, first_sender = {}, {}
        drained = {}  # router id -> flush instant after the end of receipts
        for router_id, at, t, frame in deliveries:
            f = interval[router_id]
            seen["receipt at 0"] += at == 0
            seen["receipt on a flush multiple"] += at > 0 and f > 1 and at % f == 0
            seen["same-ms receipts emitted apart"] += first_emit.setdefault((router_id, at), t) != t
            sender = first_sender.setdefault((router_id, at, t), frame.sensor_id)
            seen["same-ms receipts emitted together by two sensors"] += sender != frame.sensor_id
            due = max(1, -(-at // f)) * f
            if due > end:
                drained[router_id] = due
        seen["F = 1"] += 1 in interval.values()
        seen["1 < F dividing the end of receipts"] += any(1 < f <= end and end % f == 0 for f in interval.values())
        seen["F past the end of receipts"] += any(f > end for f in interval.values())
        seen["drain records on two routers"] += len(drained) >= 2
        drained_dues = [drained[router_id] for router_id in sorted(drained)]
        seen["end-of-run flush instants out of router-id order"] += drained_dues != sorted(drained_dues)
    assert all(seen[edge] for edge in (
        "receipt at 0", "receipt on a flush multiple", "same-ms receipts emitted apart",
        "same-ms receipts emitted together by two sensors", "F = 1",
        "1 < F dividing the end of receipts", "F past the end of receipts", "drain records on two routers",
        "end-of-run flush instants out of router-id order",
    )), seen


def corrected_time_errors(sc, monkeypatch):
    """Run sc; return (router id, corrected time - true emission time) for
    every transported record, the truth taken from radio.broadcast."""
    original = radio.broadcast
    emitted_at = {}

    def recording(frame, sensor_id, t, coverage, channel):
        emitted_at[encode(frame)] = t  # a frame's bytes are unique: (sensor id, seq_no)
        return original(frame, sensor_id, t, coverage, channel)

    with monkeypatch.context() as patch:
        patch.setattr(radio, "broadcast", recording)
        result = runner.run_scenario(sc)
    residual = {r.router_id: r.sync_residual for r in sc.routers}
    return [
        (
            row["router_id"],
            row["local_receipt_time_ms"] - residual[row["router_id"]] - sc.channel.latency
            - emitted_at[bytes.fromhex(row["frame_hex"])],
        )
        for row in result.transport_rows
    ]


def outside_time_error_bound(sc, errors):
    """The (router id, error) pairs outside [-D_r, D_r + J].

    The center subtracts the residual and the nominal latency, so what stays
    is the jitter, in [0, J], plus the drift since the router's last sync.
    That sync is at most S before a receipt up to the horizon, and at most
    S + L + J before one in the receipt epilogue after it, so the drift is
    at most D_r = `time_error_bound` either way. The states are built from
    the scenario, not taken from the run, so the bound rests on what the
    scenario declares.
    """
    latency, jitter = sc.channel.latency, sc.channel.jitter
    bound = {
        r.router_id: time_error_bound(
            RouterState(r.router_id, drift_ppm=r.drift_ppm, sync_interval=sc.sync_interval), latency, jitter
        )
        for r in sc.routers
    }
    return [(rid, e) for rid, e in errors if not -bound[rid] <= e <= bound[rid] + jitter]


def test_time_error_bound_on_hand_computed_values():
    # 40e-6 * (3_600_000 + 50 + 20) = 144.0028
    assert time_error_bound(RouterState(1, drift_ppm=40.0, sync_interval=3_600_000), 50, 20) == 144
    assert time_error_bound(RouterState(1, drift_ppm=-40.0, sync_interval=3_600_000), 50, 20) == 144
    assert time_error_bound(RouterState(1, drift_ppm=0.0, sync_interval=3_600_000), 50, 20) == 0


def test_corrected_times_stay_within_the_drift_and_jitter_bound(monkeypatch):
    checked = 0
    for case in range(40):
        sc, _backhaul_delay = _transport_scenario(random.Random(case), case)
        errors = corrected_time_errors(sc, monkeypatch)
        assert not outside_time_error_bound(sc, errors), case
        checked += len(errors)
    assert checked > 1_000
