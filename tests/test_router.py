import random

from asmisim.pi_protocol import MsgType, PiFrame, encode
from asmisim.router import RouterState, flush, local_clock, receive
from asmisim.simkernel import RANK_CENTER, RANK_RADIO, Kernel

DAY = 86_400_000


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
    receive(state, wire(), 1_000)
    assert len(state.buffer) == 1
    rec = state.buffer[0]
    assert rec.router_id == 7
    assert rec.local_receipt_time == 1_003
    assert rec.frame_bytes == wire()


def test_receive_drops_wrong_length():
    state = RouterState(router_id=1)
    receive(state, b"garbage", 0)
    assert state.buffer == []
    assert state.dropped == 1
    receive(state, wire() + b"x", 1)
    assert state.dropped == 2
    receive(state, wire(), 2)
    assert len(state.buffer) == 1


def test_receive_preserves_arrival_order_at_same_instant():
    state = RouterState(router_id=1)
    receive(state, wire(1), 50)
    receive(state, wire(2), 50)
    assert [r.frame_bytes for r in state.buffer] == [wire(1), wire(2)]


def test_flush_returns_and_clears():
    state = RouterState(router_id=1)
    assert flush(state) == []
    for i in range(5):
        receive(state, wire(i + 1), i)
    batch = flush(state)
    assert len(batch) == 5
    assert [r.frame_bytes for r in batch] == [wire(i + 1) for i in range(5)]
    assert state.buffer == []
    # records arriving after a flush appear only in the next batch
    receive(state, wire(6), 200)
    assert [r.frame_bytes for r in flush(state)] == [wire(6)]


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
    as center actions and receipts as radio ones, so at equal times the
    kernel stamps the receipt first. local_clock must match bit for bit.
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
        kernel.schedule(t, (RANK_RADIO, 1, i), stamp, t)
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
        receipts = {0, 1, horizon}
        receipts.update(range(horizon + 1, horizon + epilogue + 1))
        last = horizon // interval
        for k in {1, 2, last, last + 1, *(rng.randrange(1, 300) for _ in range(5))}:
            receipts.update(t for t in (k * interval - 1, k * interval, k * interval + 1) if t >= 0)
        receipts.update(rng.randrange(0, horizon + epilogue + 1) for _ in range(20))
        oracle = event_driven_oracle(state, receipts)
        for t in sorted(receipts):
            assert local_clock(state, t) == oracle[t], (state, t)


def test_transparency_forwarded_bytes_equal_received_bytes():
    state = RouterState(router_id=1)
    frames = [wire(i + 1) for i in range(10)]
    for i, data in enumerate(frames):
        receive(state, data, i * 10)
    shipped = []
    shipped.extend(flush(state))
    for i, data in enumerate(frames):
        receive(state, data, 100 + i)
    shipped.extend(flush(state))
    assert [r.frame_bytes for r in shipped] == frames + frames
