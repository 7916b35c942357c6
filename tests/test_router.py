import pytest

from asmisim.pi_protocol import MsgType, PiFrame, encode
from asmisim.router import RouterState, apply_time_sync, flush, local_clock, receive

DAY = 86_400_000


def wire(seq_no=1):
    return encode(PiFrame(MsgType.EVENT, 1, seq_no, seq_no))


def test_local_clock_identity():
    state = RouterState(router_id=1)
    assert local_clock(state, 0) == 0
    assert local_clock(state, 123_456) == 123_456


def test_local_clock_offset():
    state = RouterState(router_id=1, clock_offset=200)
    assert local_clock(state, 1_000) == 1_200


def test_local_clock_drift():
    state = RouterState(router_id=1, drift_ppm=100.0)
    assert local_clock(state, 10_000_000) == 10_001_000  # +100 ppm over 1e7 ms


def test_local_clock_unsynced_day_drift():
    state = RouterState(router_id=1, drift_ppm=100.0)
    assert local_clock(state, DAY) - DAY == 8_640


def test_local_clock_rejects_time_before_sync():
    state = RouterState(router_id=1, last_sync_true_time=500)
    with pytest.raises(ValueError):
        local_clock(state, 499)


def test_receive_buffers_with_local_stamp():
    state = RouterState(router_id=7, clock_offset=3)
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


def test_apply_time_sync_resets_drift_anchor():
    state = RouterState(router_id=1, drift_ppm=100.0, sync_residual=0)
    assert local_clock(state, 1_000_000) == 1_000_100
    apply_time_sync(state, 1_000_000)
    assert local_clock(state, 1_000_000) == 1_000_000
    assert local_clock(state, 2_000_000) == 2_000_100


def test_sync_with_residual():
    state = RouterState(router_id=1, drift_ppm=50.0, sync_residual=-7)
    apply_time_sync(state, 500_000)
    assert local_clock(state, 500_000) == 500_000 - 7
    # residual stays, drift accumulates on top
    assert local_clock(state, 1_500_000) == 1_500_000 - 7 + 50


def test_error_bounded_between_periodic_syncs():
    state = RouterState(router_id=1, drift_ppm=100.0, sync_residual=0)
    worst = 0
    for sync_at in range(0, 10_000_000, 1_000_000):
        apply_time_sync(state, sync_at)
        for dt in range(0, 1_000_000, 100_000):
            t = sync_at + dt
            worst = max(worst, abs(local_clock(state, t) - t))
    assert worst <= 100  # 100 ppm over a 1e6 ms sync interval


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
