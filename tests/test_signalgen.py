import dataclasses
import inspect
import random
import time
import tracemalloc

import pytest

from asmisim import signalgen
from asmisim.signalgen import (
    DAY_MS,
    MS_PER_HOUR,
    DiurnalSpec,
    NonPositiveDelta,
    OutOfHorizon,
    Signal,
    StepLoadSpec,
    TooManyCrossings,
    crossing_times,
    diurnal_signal,
    reach_tolerance,
    step_load_signal,
    value_at,
)


def dense_scan(signal):
    """value_at at every millisecond of [0, signal.horizon]."""
    return [value_at(signal, t) for t in range(signal.horizon + 1)]


def dense_scan_oracle(values, p0, dp):
    """Reference crossing detector: walk dense_scan(signal) millisecond by millisecond, tracking the grid.

    Deliberately brute force and independent of crossing_times' search;
    shares only value_at (the ground truth) and the boundary tolerance rule.
    """
    out = []
    k = 0
    for t, v in enumerate(values):
        while True:
            thr = p0 + (k + 1) * dp
            if v < thr - reach_tolerance(thr, dp):
                break
            k += 1
            out.append((t, +1))
        while True:
            thr = p0 + (k - 1) * dp
            if v > thr + reach_tolerance(thr, dp):
                break
            k -= 1
            out.append((t, -1))
    return out


# ---------------------------------------------------------------- value_at


def test_cumulative_base_rate():
    sig = step_load_signal(base_rate_per_hour=1.0, horizon=3 * MS_PER_HOUR)
    assert value_at(sig, 0) == 0.0
    assert value_at(sig, MS_PER_HOUR) == 1.0
    assert value_at(sig, MS_PER_HOUR // 2) == 0.5
    assert value_at(sig, 3 * MS_PER_HOUR) == 3.0


def test_cumulative_intervals_add_on_top_of_base():
    sig = step_load_signal(
        base_rate_per_hour=0.5,
        intervals=[(MS_PER_HOUR, 2 * MS_PER_HOUR, 2.0)],
        horizon=3 * MS_PER_HOUR,
    )
    assert value_at(sig, MS_PER_HOUR) == 0.5
    assert value_at(sig, 2 * MS_PER_HOUR) == pytest.approx(1.0 + 2.0)
    # flat (base only) after the interval ends
    assert value_at(sig, 3 * MS_PER_HOUR) == pytest.approx(1.5 + 2.0)


def test_cumulative_is_non_decreasing():
    sig = step_load_signal(base_rate_per_hour=0.3, intervals=[(1000, 5000, 10.0)], horizon=10_000)
    prev = value_at(sig, 0)
    for t in range(0, 10_000, 7):
        cur = value_at(sig, t)
        assert cur >= prev
        prev = cur


def test_diurnal_shape():
    sig = diurnal_signal(mean=20.0, amplitude=2.0, period=DAY_MS, phase=0, horizon=DAY_MS)
    assert value_at(sig, 0) == 20.0
    assert value_at(sig, DAY_MS // 4) == pytest.approx(22.0)
    assert value_at(sig, 3 * DAY_MS // 4) == pytest.approx(18.0)


def test_diurnal_exact_at_whole_periods():
    sig = diurnal_signal(mean=21.0, amplitude=3.0, period=DAY_MS, phase=7_500, horizon=7_500 + 4 * DAY_MS)
    for k in range(1, 5):
        assert value_at(sig, 7_500 + k * DAY_MS) == value_at(sig, 7_500)
        assert value_at(sig, 123 + k * DAY_MS) == value_at(sig, 123)


def test_noise_is_piecewise_constant_between_ticks():
    sig = diurnal_signal(mean=0.0, amplitude=0.0, noise_sigma=1.0, noise_step=1000, seed=5, horizon=2_000)
    v0 = value_at(sig, 0)
    assert all(value_at(sig, t) == v0 for t in range(0, 1000, 111))
    v1 = value_at(sig, 1000)
    assert all(value_at(sig, t) == v1 for t in range(1000, 2000, 111))
    assert v1 != v0  # a Gaussian step of exactly zero has probability zero


def test_noise_deterministic_per_seed():
    a = diurnal_signal(mean=0.0, amplitude=0.0, noise_sigma=0.5, noise_step=500, seed=42, horizon=10_000)
    b = diurnal_signal(mean=0.0, amplitude=0.0, noise_sigma=0.5, noise_step=500, seed=42, horizon=10_000)
    c = diurnal_signal(mean=0.0, amplitude=0.0, noise_sigma=0.5, noise_step=500, seed=43, horizon=10_000)
    points = [value_at(a, t) for t in range(0, 10_000, 500)]
    assert points == [value_at(b, t) for t in range(0, 10_000, 500)]
    assert points != [value_at(c, t) for t in range(0, 10_000, 500)]


def test_out_of_horizon():
    for sig in (
        step_load_signal(base_rate_per_hour=1.0, horizon=1000),
        diurnal_signal(mean=20.0, amplitude=2.0, noise_sigma=0.1, noise_step=100, horizon=1000),
    ):
        value_at(sig, 1000)
        with pytest.raises(OutOfHorizon):
            value_at(sig, 1001)
        with pytest.raises(OutOfHorizon):
            value_at(sig, -1)


def test_signal_factories_require_a_horizon():
    with pytest.raises(TypeError, match="horizon"):
        step_load_signal(base_rate_per_hour=1.0)
    with pytest.raises(TypeError, match="horizon"):
        diurnal_signal(mean=20.0, amplitude=2.0)
    with pytest.raises(TypeError, match="positional"):
        step_load_signal(1.0, (), "kWh", 1000)  # the horizon is keyword-only


def test_non_positive_delta():
    sig = step_load_signal(base_rate_per_hour=1.0, horizon=1000)
    with pytest.raises(NonPositiveDelta):
        crossing_times(sig, 0.0, 0.0)
    with pytest.raises(NonPositiveDelta):
        crossing_times(sig, 0.0, -0.5)


# ---------------------------------------------------------- crossing_times


def test_crossings_match_dense_scan_step_load():
    horizon = 600_000  # 10 minutes
    sig = step_load_signal(
        base_rate_per_hour=0.6,
        intervals=[(120_000, 300_000, 30.0)],
        horizon=horizon,
    )
    got = crossing_times(sig, 0.0, 0.05)
    assert got == dense_scan_oracle(dense_scan(sig), 0.0, 0.05)
    assert got, "scenario was supposed to generate crossings"


def test_crossings_match_dense_scan_sinusoid():
    horizon = 480_000  # one full 8-minute period
    sig = diurnal_signal(mean=20.0, amplitude=2.0, period=480_000, phase=30_000, horizon=horizon)
    got = crossing_times(sig, 20.0, 0.3)
    assert got == dense_scan_oracle(dense_scan(sig), 20.0, 0.3)
    assert {d for _, d in got} == {+1, -1}  # both slopes of the wave exercised


def test_crossings_match_dense_scan_noisy_walk():
    horizon = 600_000
    sig = diurnal_signal(
        mean=10.0,
        amplitude=0.8,
        period=300_000,
        noise_sigma=0.5,
        noise_step=30_000,
        seed=97,
        horizon=horizon,
    )
    got = crossing_times(sig, 10.0, 0.15)
    assert got == dense_scan_oracle(dense_scan(sig), 10.0, 0.15)
    # walk steps of sigma 0.5 against dp 0.15 force multi-quantum jumps:
    # expect at least one instant with more than one crossing
    by_t = {}
    for t, _ in got:
        by_t[t] = by_t.get(t, 0) + 1
    assert max(by_t.values()) > 1


def _random_step_load(rng):
    # Base rate 0 with two overlapping bursts, a zero-rate interval, and a
    # gap of at least 10 s with no load before the last burst.
    horizon = 80_000
    a = rng.randrange(0, 10_000)
    b = rng.randrange(50_000, 70_000)
    intervals = (
        (a, a + rng.randrange(5_000, 20_000), rng.uniform(5.0, 60.0)),
        (a + rng.randrange(1, 5_000), a + rng.randrange(20_000, 30_000), rng.uniform(5.0, 60.0)),
        (b - 5_000, b + 5_000, 0.0),
        (b, horizon, rng.uniform(5.0, 60.0)),
    )
    return step_load_signal(intervals=intervals, horizon=horizon)


def _case_step_load(rng):
    sig = _random_step_load(rng)
    return sig, rng.choice((0.0, rng.uniform(-0.02, 0.02))), rng.uniform(0.002, 0.02)


def _case_tiny_dp(rng):
    sig = _random_step_load(rng)
    dp = rng.uniform(1e-4, 5e-4)
    return sig, rng.uniform(-3.0, 3.0) * dp, dp


def _case_sinusoid(rng):
    # One full noise-free period: the pieces are as curved as they get.
    horizon = 90_000
    sig = diurnal_signal(mean=rng.uniform(-5.0, 25.0), amplitude=rng.uniform(0.5, 3.0),
                         period=horizon, phase=rng.randrange(horizon), horizon=horizon)
    dp = rng.uniform(0.01, 0.4)
    return sig, value_at(sig, 0) - rng.uniform(0.0, 1.0) * dp, dp


def _case_noisy_walk(rng):
    # Walk steps of several quanta force multi-crossing jumps at noise ticks.
    horizon = 90_000
    dp = rng.uniform(0.02, 0.1)
    sig = diurnal_signal(mean=10.0, amplitude=rng.uniform(0.0, 1.0), period=60_000,
                         phase=rng.randrange(60_000), noise_sigma=8 * dp,
                         noise_step=rng.randrange(2_000, 15_000), seed=rng.randrange(1000),
                         horizon=horizon)
    return sig, 10.0 + rng.uniform(-dp, dp), dp


def _case_far_phase(rng):
    # A phase up to +-9e18, where a double's step reaches 1 024 ms: the
    # extrema must come out where value_at puts them, 30 periods in a row.
    phase = rng.randrange(-9 * 10**18, 9 * 10**18)
    sig = diurnal_signal(0.0, 10.0, period=2_000, phase=phase, horizon=60_000)
    return sig, 0.0, 0.1


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("case", [_case_step_load, _case_tiny_dp, _case_sinusoid, _case_noisy_walk, _case_far_phase])
def test_crossings_match_dense_scan_random_signals(case, seed):
    sig, p0, dp = case(random.Random(f"{case.__name__}:{seed}"))
    values = dense_scan(sig)
    got = crossing_times(sig, p0, dp)
    assert got == dense_scan_oracle(values, p0, dp)
    assert got, "case was supposed to generate crossings"
    # The table the solve walks: each point holds the scan's value, the
    # signal is monotone on the ms lattice between consecutive points, so
    # _extent's lowest and highest are the scan's min and max.
    points = sig._points
    assert points[0][0] == 0 and points[-1][0] == sig.horizon
    assert all(values[t] == v for t, v in points)
    for (a, _), (b, _) in zip(points, points[1:]):
        piece = values[a : b + 1]
        assert a < b and (piece == sorted(piece) or piece == sorted(piece, reverse=True)), (a, b)
    (lo_t, lo), (hi_t, hi), variation = sig._extent
    assert lo == values[lo_t] == min(values) and hi == values[hi_t] == max(values)
    assert variation == pytest.approx(sum(abs(v - u) for u, v in zip(values, values[1:])))


def _count_value_at(monkeypatch):
    times = []
    real = signalgen.value_at

    def counted(signal, t):
        times.append(t)
        return real(signal, t)

    monkeypatch.setattr(signalgen, "value_at", counted)
    return times


def test_crossing_search_calls_on_step_load(monkeypatch):
    # Acceptance criterion 8's load: every piece is linear, so the search
    # should need about two value_at calls per crossing.
    edges = (7 * MS_PER_HOUR, 9 * MS_PER_HOUR, 18 * MS_PER_HOUR, 21 * MS_PER_HOUR)
    sig = step_load_signal(
        base_rate_per_hour=0.05,
        intervals=[(edges[0], edges[1], 0.9), (edges[2], edges[3], 0.6)],
        horizon=DAY_MS,
    )
    times = _count_value_at(monkeypatch)
    got = crossing_times(sig, 0.0, 0.1)
    assert len(got) == 48
    breakpoints = {0, *edges, DAY_MS}
    search = [t for t in times if t not in breakpoints and t + 1 not in breakpoints]
    assert len(search) <= 3 * len(got)


def test_crossing_search_calls_on_sinusoid(monkeypatch):
    # Curved pieces are interpolation's worst case; plain bisection needed
    # 2 046 value_at calls for these 80 crossings.
    sig = diurnal_signal(mean=20.0, amplitude=2.0, period=DAY_MS, phase=0, horizon=DAY_MS)
    times = _count_value_at(monkeypatch)
    got = crossing_times(sig, 20.0, 0.1)
    assert len(got) == 80
    assert len(times) <= 2046


def test_crossings_exact_grid_boundary():
    # 5 units/hour for one hour with dp=0.1 consumes exactly 50 quanta; the
    # 50th threshold is only representable as 5.000000000000001, which the
    # tolerance rule must still count, at exactly the interval edge.
    horizon = MS_PER_HOUR
    sig = step_load_signal(intervals=[(0, MS_PER_HOUR, 5.0)], horizon=horizon)
    got = crossing_times(sig, 0.0, 0.1)
    assert len(got) == 50
    assert all(d == +1 for _, d in got)
    assert got[-1][0] == MS_PER_HOUR
    assert got[0][0] == 72_000  # dp / rate = 0.1 / (5/3.6e6 ms)


def test_constant_signal_never_crosses():
    sig = step_load_signal(base_rate_per_hour=0.0, horizon=DAY_MS)
    assert crossing_times(sig, 0.0, 0.1) == []
    flat = diurnal_signal(mean=21.0, amplitude=0.0, horizon=DAY_MS)
    assert crossing_times(flat, 21.0, 0.5) == []


# Each solve would make 2 000 000 crossings, twice the cap: a climb of 48
# kWh in a day, and a walk from P0 out to a flat signal's first value.
OVER_THE_CAP = {
    "climb": (step_load_signal(2.0, horizon=DAY_MS), 0.0, 48 / 2_000_000),
    "walk_to_first_value": (diurnal_signal(mean=2.0, amplitude=0.0, horizon=DAY_MS), 0.0, 1e-6),
}


@pytest.mark.parametrize("case", OVER_THE_CAP)
def test_a_solve_past_the_grid_cap_is_refused_before_it_walks(case):
    sig, p0, dp = OVER_THE_CAP[case]
    start = time.perf_counter()
    with pytest.raises(TooManyCrossings, match="would travel 2000000 quanta, more than 1000000"):
        crossing_times(sig, p0, dp)
    assert time.perf_counter() - start < 1.0


def test_slack_is_capped_at_a_quarter_quantum_far_from_zero():
    # Up to 2.5e8 quanta from 0 the slack is 1e-9 of the threshold, unchanged.
    assert reach_tolerance(2.5e7, 0.1) == 1e-9 * 2.5e7
    assert reach_tolerance(-0.05, 0.1) == 1e-9 * 0.1
    assert reach_tolerance(1e12, 0.1) == 0.1 / 4
    assert reach_tolerance(-1e12, 0.1) == 0.1 / 4


def test_a_flat_signal_far_from_zero_never_crosses():
    # Uncapped, the slack here (1e3) spans ten thousand quanta: the solve
    # saw a crossing on a flat segment and divided by zero.
    flat = diurnal_signal(mean=1e12, amplitude=0.0, horizon=1_000)
    assert crossing_times(flat, 1e12, 0.1) == []


def test_diurnal_net_direction_zero_over_whole_day():
    sig = diurnal_signal(mean=20.0, amplitude=2.5, period=DAY_MS, phase=0, horizon=DAY_MS)
    crossings = crossing_times(sig, 20.0, 0.4)
    assert crossings
    assert sum(d for _, d in crossings) == 0


def test_crossing_times_are_sorted_and_within_horizon():
    sig = step_load_signal(base_rate_per_hour=2.0, intervals=[(10_000, 40_000, 50.0)], horizon=120_000)
    got = crossing_times(sig, 0.0, 0.25)
    times = [t for t, _ in got]
    assert times == sorted(times)
    assert all(0 <= t <= 120_000 for t in times)


# ------------------------------------------------- per-signal tables


def interval_loop_oracle(signal, t):
    """Reference step-load value: base plus every interval's overlap, in spec order.

    value_at reads its terms from the signal instead, with each finished
    interval's term computed once, and must match this loop bit for bit, so
    results are compared with ==.
    """
    spec = signal.spec
    total = spec.base_rate_per_hour * t / MS_PER_HOUR
    for iv in spec.intervals:
        overlap = min(t, iv.end) - iv.start
        if overlap > 0:
            total += iv.rate_per_hour * overlap / MS_PER_HOUR
    return total


def _random_intervals(rng, horizon):
    intervals = []
    for _ in range(rng.randrange(0, 9)):
        start = rng.randrange(0, horizon)
        shape = rng.random()
        if shape < 0.1:
            end = start - rng.randrange(0, 5_000)  # end <= start: never contributes
        elif shape < 0.2:
            start, end = horizon + rng.randrange(1, 10_000), horizon + 20_000  # starts after the horizon
        elif shape < 0.35:
            end = horizon + rng.randrange(0, 50_000)  # runs past the horizon
        else:
            end = start + rng.randrange(1, horizon // 2)
        intervals.append((start, end, rng.choice((0.0, 0.1, 1.0, rng.uniform(0.0, 50.0)))))
    if intervals and rng.random() < 0.3:
        intervals.append(intervals[0])  # the same interval twice
    return intervals


def test_value_at_matches_interval_loop_bit_for_bit():
    rng = random.Random(2024)
    for _ in range(200):
        horizon = rng.randrange(1_000, DAY_MS)
        sig = step_load_signal(
            base_rate_per_hour=rng.choice((0.0, rng.uniform(0.0, 3.0))),
            intervals=_random_intervals(rng, horizon),
            horizon=horizon,
        )
        probes = {0, horizon, *(rng.randrange(horizon + 1) for _ in range(20))}
        for iv in sig.spec.intervals:
            probes.update(t for t in (iv.start, iv.start + 1, iv.end - 1, iv.end) if 0 <= t <= horizon)
        for t in rng.sample(sorted(probes), len(probes)):
            assert value_at(sig, t) == interval_loop_oracle(sig, t), (sig.spec, t)


def test_many_overlapping_intervals_take_memory_linear_in_their_count():
    """3 000 intervals that all span midday: the first value_at builds the
    signal's terms in well under 1 MB (a table of every piece's running
    intervals would hold about 100 MB), and every probe still matches the
    interval loop bit for bit."""
    rng = random.Random(3000)
    half = DAY_MS // 2
    intervals = [(rng.randrange(half), rng.randrange(half, DAY_MS), rng.uniform(0.0, 5.0)) for _ in range(3_000)]
    sig = step_load_signal(0.3, intervals, horizon=DAY_MS)
    tracemalloc.start()
    try:
        value_at(sig, half)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    probes = sorted({t for start, end, _ in intervals for t in (start, start + 1, end - 1, end)})
    for t in rng.sample(probes, 400):
        assert value_at(sig, t) == interval_loop_oracle(sig, t), t


def test_signal_equality_and_repr_ignore_evaluation_history():
    a = diurnal_signal(20.0, 2.0, noise_sigma=0.1, seed=3, horizon=10**7)
    b = diurnal_signal(20.0, 2.0, noise_sigma=0.1, seed=3, horizon=10**7)
    c = step_load_signal(0.5, [(1_000, 60_000, 4.0)], horizon=10**7)
    d = step_load_signal(0.5, [(1_000, 60_000, 4.0)], horizon=10**7)
    before = repr(a), repr(c)
    value_at(a, 5_000_000)
    value_at(c, 5_000_000)
    assert (a, c) == (b, d)
    assert (hash(a), hash(c)) == (hash(b), hash(d))
    crossing_times(a, 20.0, 0.25)
    crossing_times(c, 0.0, 0.1)
    assert (a, c) == (b, d)
    assert (hash(a), hash(c)) == (hash(b), hash(d))
    assert (repr(a), repr(c)) == before == (repr(b), repr(d))
    assert a != diurnal_signal(20.0, 2.0, noise_sigma=0.1, seed=4, horizon=10**7)


def test_only_the_definition_of_a_signal_is_settable():
    assert list(inspect.signature(Signal).parameters) == ["spec", "unit", "seed", "horizon"]
    with pytest.raises(TypeError):
        Signal(kind="CUMULATIVE", spec=DiurnalSpec(20.0, 2.0), horizon=1000)
    with pytest.raises(TypeError):
        Signal(StepLoadSpec(1.0), horizon=3_600_000, _load_terms=((0, 10, 1e9, 5.0),))
    sig = step_load_signal(1.0, horizon=3_600_000)
    assert value_at(sig, 3_600_000) == 1.0
    for name, value in (("seed", 1), ("horizon", 10), ("_load_terms", ())):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sig, name, value)
    assert value_at(sig, 3_600_000) == 1.0


def test_second_crossing_search_evaluates_no_breakpoint_again(monkeypatch):
    horizon = 6 * MS_PER_HOUR
    signals = [
        diurnal_signal(20.0, 2.0, period=4 * MS_PER_HOUR, noise_sigma=0.05, seed=8, horizon=horizon),
        step_load_signal(
            0.2, [(MS_PER_HOUR, 3 * MS_PER_HOUR, 2.0), (2 * MS_PER_HOUR, 9 * MS_PER_HOUR, 0.7)], horizon=horizon
        ),
    ]
    for sig in signals:
        p0 = value_at(sig, 0)
        first = crossing_times(sig, p0, 0.1)
        times = _count_value_at(monkeypatch)
        second = crossing_times(sig, p0, 0.15)
        assert first and second
        breakpoints = set(signalgen._breakpoints(sig))
        assert not [t for t in times if t in breakpoints or t + 1 in breakpoints]
        monkeypatch.undo()
