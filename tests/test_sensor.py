import random

import pytest

from asmisim import runner, scenario, sensor
from asmisim.pi_protocol import MsgType
from asmisim.sensor import (
    MonotonicityViolated,
    SensorDescriptor,
    SensorMode,
    heartbeat,
    new_state,
    observe,
    sampling_driver,
)
from asmisim.signalgen import (
    MS_PER_HOUR,
    LevelOutOfRange,
    crossing_times,
    diurnal_signal,
    step_load_signal,
    value_at,
)

from test_scenario_cli import GOLDEN_OUTPUT_DIGESTS, SCENARIO_DIR, _golden_variant

H6 = 6 * MS_PER_HOUR
DAY = 24 * MS_PER_HOUR


def monotonic(dp=0.1, p0=0.0, status_interval=H6, sensor_id=1):
    return SensorDescriptor(
        sensor_id=sensor_id,
        parameter="electricity",
        unit="kWh",
        dp=dp,
        p0=p0,
        mode=SensorMode.MONOTONIC,
        status_interval=status_interval,
    )


def bidirectional(dp=0.5, p0=20.0, status_interval=H6, sensor_id=2):
    return SensorDescriptor(
        sensor_id=sensor_id,
        parameter="temperature",
        unit="degC",
        dp=dp,
        p0=p0,
        mode=SensorMode.BIDIRECTIONAL,
        status_interval=status_interval,
    )


def test_observe_emits_one_event_per_quantum():
    d = monotonic(dp=0.1)
    state = new_state(d)
    frames = observe(state, d, 1000, 0.35)
    assert [f.level_index for f in frames] == [1, 2, 3]
    assert [f.seq_no for f in frames] == [1, 2, 3]
    assert all(f.msg_type is MsgType.EVENT for f in frames)
    assert all(f.sensor_id == 1 for f in frames)
    assert state.ref_level_index == 3


def test_observe_no_change_no_frames():
    d = monotonic(dp=0.1)
    state = new_state(d)
    assert observe(state, d, 0, 0.0) == []
    observe(state, d, 1, 0.25)
    # unchanged reading: nothing to say
    assert observe(state, d, 2, 0.25) == []
    assert state.ref_level_index == 2
    # bidirectional at exactly the reference value: also silent
    b = bidirectional(dp=0.5, p0=20.0)
    bstate = new_state(b)
    observe(bstate, b, 0, 21.0)
    assert observe(bstate, b, 1, 21.0) == []


def test_bidirectional_up_then_down():
    d = bidirectional(dp=0.5, p0=20.0)
    state = new_state(d)
    up = observe(state, d, 10, 21.3)
    assert [f.level_index for f in up] == [1, 2]
    down = observe(state, d, 20, 20.4)
    assert [f.level_index for f in down] == [1]
    assert [f.seq_no for f in up + down] == [1, 2, 3]
    assert state.ref_level_index == 1


def test_monotonic_rejects_decrease():
    d = monotonic()
    state = new_state(d)
    observe(state, d, 0, 0.5)
    with pytest.raises(MonotonicityViolated):
        observe(state, d, 1, 0.4999)


def test_monotonic_never_steps_down():
    d = monotonic(dp=0.1)
    state = new_state(d)
    frames = observe(state, d, 0, 1.0)
    assert len(frames) == 10
    # equal reading is fine and emits nothing
    assert observe(state, d, 1, 1.0) == []


# (descriptor, reference level, observed value): each is 2**31 or more quanta
# from P0. The edge cases start a few levels short, so an observe without the
# guard would return frames whose level no frame can carry.
OUT_OF_RANGE = {
    "up_edge": (monotonic(dp=0.1), 2**31 - 2, (2**31 + 1) * 0.1),
    "down_edge": (bidirectional(dp=0.5, p0=20.0), -(2**31 - 2), 20.0 - (2**31 + 1) * 0.5),
    "far": (monotonic(dp=0.1), 0, 1e20),  # one level at a time, this walk would not end
}


@pytest.mark.parametrize("case", OUT_OF_RANGE)
def test_observe_raises_level_out_of_range_like_the_oracle(case):
    d, level, p = OUT_OF_RANGE[case]
    state = new_state(d)
    state.ref_level_index = level
    with pytest.raises(LevelOutOfRange):
        observe(state, d, 5, p)
    assert (state.ref_level_index, state.seq_no, state.last_observed) == (level, 0, None)


def test_observe_reaches_the_last_level_a_frame_carries():
    # P0 puts that level's line at 0.0, where the grid's slack is far below dP.
    d = monotonic(dp=0.1, p0=-(2**31 - 1) * 0.1)
    state = new_state(d)
    state.ref_level_index = 2**31 - 2
    frames = observe(state, d, 5, 0.0)
    assert [f.level_index for f in frames] == [2**31 - 1]


def test_a_walk_far_from_zero_stops_at_the_last_level_a_frame_carries():
    # (2**31 - 1) * dP from P0 = 0: an uncapped slack there is about two
    # quanta wide, and the walk went on to level 2**31 + 1.
    d = monotonic(dp=0.1, p0=0.0)
    state = new_state(d)
    state.ref_level_index = 2**31 - 3
    frames = observe(state, d, 5, (2**31 - 1) * 0.1)
    assert [f.level_index for f in frames] == [2**31 - 2, 2**31 - 1]


def test_heartbeat_schedule():
    d = monotonic(status_interval=H6)
    state = new_state(d)
    assert heartbeat(state, d, H6 - 60_000) is None
    frame = heartbeat(state, d, H6)
    assert frame is not None
    assert frame.msg_type is MsgType.STATUS
    assert frame.seq_no == 1
    assert frame.level_index == 0
    assert state.next_status_at == 2 * H6


def test_heartbeat_carries_current_level():
    d = monotonic(dp=0.1, status_interval=1000)
    state = new_state(d)
    observe(state, d, 500, 0.75)
    frame = heartbeat(state, d, 1000)
    assert frame.level_index == 7
    assert frame.seq_no == 8  # 7 events + this status


def test_seq_no_counts_all_frames_without_gaps():
    d = bidirectional(dp=0.2, p0=0.0, status_interval=100)
    state = new_state(d)
    seqs = []
    for t, p in [(50, 0.65), (100, 0.65), (150, -0.1), (200, -0.1)]:
        for f in observe(state, d, t, p):
            seqs.append(f.seq_no)
        hb = heartbeat(state, d, t)
        if hb is not None:
            seqs.append(hb.seq_no)
    assert seqs == list(range(1, len(seqs) + 1))
    assert state.seq_no == len(seqs)


def test_driver_constant_signal_only_status():
    sig = step_load_signal(base_rate_per_hour=0.0, horizon=DAY)
    emitted = []
    d = monotonic(status_interval=H6)
    sampling_driver(d, sig, lambda f, t: emitted.append((t, f)))
    assert len(emitted) == 4  # 24 h / 6 h
    assert all(f.msg_type is MsgType.STATUS for _, f in emitted)
    assert [t for t, _ in emitted] == [H6, 2 * H6, 3 * H6, 4 * H6]


@pytest.mark.parametrize("interval", [DAY - 1, DAY, DAY + 1, 7 * MS_PER_HOUR])
def test_driver_status_fires_at_each_multiple_of_its_interval_up_to_the_horizon(interval):
    sig = step_load_signal(base_rate_per_hour=0.0, horizon=DAY)
    emitted = []
    d = monotonic(status_interval=interval)
    sampling_driver(d, sig, lambda f, t: emitted.append((t, f.msg_type, f.seq_no)))
    expected = range(interval, DAY + 1, interval)
    assert emitted == [(t, MsgType.STATUS, k) for k, t in enumerate(expected, start=1)]


def test_driver_event_times_equal_oracle_crossings():
    sig = step_load_signal(base_rate_per_hour=1.0, horizon=2 * MS_PER_HOUR)
    emitted = []
    d = monotonic(dp=0.5, status_interval=DAY)
    state = sampling_driver(d, sig, lambda f, t: emitted.append((t, f)))
    event_times = [t for t, f in emitted if f.msg_type is MsgType.EVENT]
    # 1 kWh/h with dp 0.5 -> a crossing every 30 minutes
    assert event_times == [30 * 60_000, 60 * 60_000, 90 * 60_000, 120 * 60_000]
    oracle = crossing_times(sig, d.p0, d.dp)
    assert event_times == [t for t, _ in oracle]
    assert state.seq_no == len(emitted)


def test_driver_conservation_bound():
    horizon = 5 * MS_PER_HOUR
    sig = step_load_signal(
        base_rate_per_hour=0.7,
        intervals=[(MS_PER_HOUR, 2 * MS_PER_HOUR, 3.3)],
        horizon=horizon,
    )
    d = monotonic(dp=0.25, status_interval=DAY)
    state = sampling_driver(d, sig, lambda f, t: None)
    consumed = value_at(sig, horizon)
    assert state.ref_level_index * d.dp <= consumed < (state.ref_level_index + 1) * d.dp


def test_event_precedes_status_at_shared_instant():
    horizon = MS_PER_HOUR
    sig = step_load_signal(base_rate_per_hour=1.0, horizon=horizon)
    emitted = []
    # crossing every 30 min, status every 30 min: instants coincide
    d = monotonic(dp=0.5, status_interval=30 * 60_000)
    sampling_driver(d, sig, lambda f, t: emitted.append((t, f.msg_type, f.seq_no)))
    assert emitted == [
        (1_800_000, MsgType.EVENT, 1),
        (1_800_000, MsgType.STATUS, 2),
        (3_600_000, MsgType.EVENT, 3),
        (3_600_000, MsgType.STATUS, 4),
    ]


def test_driver_merges_crossings_and_statuses_in_time_order():
    sig = step_load_signal(
        base_rate_per_hour=0.05,
        intervals=[(MS_PER_HOUR, 2 * MS_PER_HOUR, 6.0), (10 * MS_PER_HOUR, 10 * MS_PER_HOUR + 600_000, 2.5)],
        horizon=DAY,
    )
    emitted = []
    d = monotonic(dp=0.1, status_interval=60_000)
    sampling_driver(d, sig, lambda f, t: emitted.append((t, f.msg_type, f.seq_no)))
    crossings = [t for t, _ in crossing_times(sig, d.p0, d.dp)]
    statuses = set(range(60_000, DAY + 1, 60_000))
    expected = []
    for t in sorted(set(crossings) | statuses):
        expected += [(t, MsgType.EVENT)] * crossings.count(t)
        if t in statuses:
            expected.append((t, MsgType.STATUS))
    assert [(t, m) for t, m, _ in emitted] == expected
    assert [seq for _, _, seq in emitted] == list(range(1, len(expected) + 1))
    assert set(crossings) & statuses, "the load must put crossings on status instants"
    assert set(crossings) - statuses, "and crossings between them"


def test_sensors_with_one_key_share_one_solve(monkeypatch):
    horizon = 4 * MS_PER_HOUR
    sig = step_load_signal(
        base_rate_per_hour=0.3, intervals=[(MS_PER_HOUR, 2 * MS_PER_HOUR, 1.7)], horizon=horizon
    )
    solved = []
    real = sensor.crossing_times

    def counted(signal, p0, dp):
        solved.append((p0, dp))
        return real(signal, p0, dp)

    monkeypatch.setattr(sensor, "crossing_times", counted)
    emitted = {1: [], 2: [], 3: []}

    def emit(frame, t):
        if frame.msg_type is MsgType.EVENT:
            emitted[frame.sensor_id].append(t)

    descriptors = [monotonic(0.1, sensor_id=1), monotonic(0.1, sensor_id=2), monotonic(0.25, sensor_id=3)]
    for d in descriptors:
        sampling_driver(d, sig, emit)
    assert solved == [(0.0, 0.1), (0.0, 0.25)]
    assert isinstance(sig._level_runs[(0.0, 0.1)], tuple)  # no caller can change a shared solve
    for d in descriptors:
        assert emitted[d.sensor_id] == [t for t, _ in real(sig, d.p0, d.dp)]
    assert emitted[1] == emitted[2] != emitted[3]


# ---------------------------------------------- the driver against observe


def observed(descriptor, signal):
    """The reference model of sampling_driver: at each distinct instant the
    solve reports, observe the signal's value, interleaved with heartbeats,
    EVENTs before the STATUS at a shared instant. Returns the (t, frame)
    stream and the final state."""
    state = new_state(descriptor)
    out = []

    def statuses_before(t):
        while state.next_status_at < t:
            due = state.next_status_at
            out.append((due, heartbeat(state, descriptor, due)))

    for t in sorted({t for t, _ in crossing_times(signal, descriptor.p0, descriptor.dp)}):
        statuses_before(t)
        out.extend((t, frame) for frame in observe(state, descriptor, t, value_at(signal, t)))
    statuses_before(signal.horizon + 1)
    return out, state


def driven(descriptor, signal):
    out = []
    state = sampling_driver(descriptor, signal, lambda frame, t: out.append((t, frame)))
    return out, state


def fleet_like():
    """A day of the fleet's shapes: MONOTONIC meters on step loads, two of
    them sharing a signal and a key, one with P0 above its signal's start;
    BIDIRECTIONAL thermometers on one noisy diurnal signal, with P0 below,
    on and above its start, two of them with one key."""
    day = 24 * MS_PER_HOUR
    rng = random.Random(27)
    pairs = []
    for i, dp in enumerate((0.01, 0.02, 0.05)):
        intervals = []
        for _ in range(3 + i):
            length = rng.randrange(15 * 60_000, 2 * MS_PER_HOUR)
            start = rng.randrange(0, day - length)
            intervals.append((start, start + length, round(0.6 * MS_PER_HOUR / length, 6)))
        load = step_load_signal((0.02, 0.04, 0.06)[i], sorted(intervals), horizon=day)
        pairs.append((monotonic(dp=dp, status_interval=MS_PER_HOUR, sensor_id=i + 1), load))
    shared = pairs[0][1]
    pairs.append((monotonic(dp=0.01, status_interval=MS_PER_HOUR, sensor_id=4), shared))
    pairs.append((monotonic(dp=0.05, p0=0.13, status_interval=25 * 60_000, sensor_id=5), shared))
    air = diurnal_signal(21.0, 2.0, phase=rng.randrange(0, day), noise_sigma=0.03, seed=5, horizon=day)
    start = value_at(air, 0)
    offsets = [(0.05, -0.4), (0.1, -0.7), (0.2, 0.0), (0.25, 1.3), (0.5, -0.2), (0.1, -0.7)]  # (dP, P0 - start in dP)
    for j, (dp, offset) in enumerate(offsets):
        d = bidirectional(dp=dp, p0=round(start + offset * dp, 6), status_interval=MS_PER_HOUR, sensor_id=11 + j)
        pairs.append((d, air))
    return pairs


def scenario_pairs(sc):
    signals = runner.build_signals(sc, sc.seed)
    return [(d, signals[d.signal_id]) for d in sc.sensors]


FIXTURES = (
    [f"scenario:{path.stem}" for path in sorted(SCENARIO_DIR.glob("*.json"))]
    + [f"golden:{name}" for name in sorted(GOLDEN_OUTPUT_DIGESTS)]
    + ["fleet_like"]
)


def fixture_pairs(name):
    kind, _, arg = name.partition(":")
    if kind == "scenario":
        return scenario_pairs(scenario.load(SCENARIO_DIR / f"{arg}.json"))
    if kind == "golden":
        return scenario_pairs(_golden_variant(arg))
    return fleet_like()


@pytest.mark.parametrize("name", FIXTURES)
def test_driver_equals_observe_at_each_crossing_instant(name):
    pairs = fixture_pairs(name)
    events = 0
    for descriptor, signal in pairs:
        expected, expected_state = observed(descriptor, signal)
        got, state = driven(descriptor, signal)
        assert got == expected, descriptor.sensor_id
        assert (state.ref_level_index, state.seq_no, state.next_status_at) == (
            expected_state.ref_level_index,
            expected_state.seq_no,
            expected_state.next_status_at,
        )
        events += sum(frame.msg_type is MsgType.EVENT for _, frame in got)
    assert events or name == "scenario:quiet_day"


def test_the_driver_neither_observes_nor_evaluates_the_signal(monkeypatch):
    pairs = fleet_like()
    expected = {d.sensor_id: observed(d, sig)[0] for d, sig in pairs}
    pairs = fleet_like()  # fresh signals: nothing solved yet

    def forbidden(*_args):
        raise AssertionError("the driver reads the solve, not the signal")

    solved = []
    real = sensor.crossing_times

    def counted(signal, p0, dp):
        solved.append((id(signal), p0, dp))
        return real(signal, p0, dp)

    monkeypatch.setattr(sensor, "observe", forbidden)
    monkeypatch.setattr(sensor, "value_at", forbidden)
    monkeypatch.setattr(sensor, "crossing_times", counted)
    for d, sig in pairs:
        assert driven(d, sig)[0] == expected[d.sensor_id]
    keys = [(id(sig), d.p0, d.dp) for d, sig in pairs]
    assert solved == list(dict.fromkeys(keys))
    assert len(solved) < len(pairs)


def test_monotonic_sensor_starting_below_p0_stays_silent_until_p0_plus_dp():
    # 1 kWh/h from 0 against P0 = 0.3: the solve steps down to level -3 at
    # t = 0 and back up to 0 by 18 min; the sensor's reference stays at 0.
    sig = step_load_signal(base_rate_per_hour=1.0, horizon=MS_PER_HOUR)
    d = monotonic(dp=0.1, p0=0.3, status_interval=10 * 60_000)
    assert [k for t, k in crossing_times(sig, d.p0, d.dp) if t == 0] == [-1, -1, -1]
    got, state = driven(d, sig)
    events = [(t, f.level_index) for t, f in got if f.msg_type is MsgType.EVENT]
    assert events[0] == (24 * 60_000, 1)  # the signal reaches P0 + dP = 0.4 at 24 min
    assert [k for _, k in events] == list(range(1, len(events) + 1))
    assert [(t, f.level_index) for t, f in got if t < 24 * 60_000] == [(600_000, 0), (1_200_000, 0)]
    assert (got, state.ref_level_index) == (observed(d, sig)[0], 7)  # 1.0 = P0 + 7 dP at the horizon


def test_monotonic_sensor_on_a_falling_signal_raises():
    # phase = half a period: the sinusoid starts at its mean, on the way down.
    sig = diurnal_signal(20.0, 2.0, phase=12 * MS_PER_HOUR, horizon=6 * MS_PER_HOUR)
    d = monotonic(dp=0.5, p0=20.0)
    with pytest.raises(MonotonicityViolated):
        sampling_driver(d, sig, lambda frame, t: None)
