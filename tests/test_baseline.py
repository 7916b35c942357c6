import math
import random

import pytest

from asmisim.baseline import (
    AmiSample,
    ErrorReport,
    NonPositiveInterval,
    ZeroBudget,
    error_stats,
    hold_error,
    matched_budget_interval,
    poll,
    reconstruct_ami,
)
from asmisim.signalgen import MS_PER_HOUR, diurnal_signal, step_load_signal, value_at

DAY = 24 * MS_PER_HOUR


def test_poll_count_is_floor_of_horizon_over_dt():
    sig = step_load_signal(base_rate_per_hour=1.0, horizon=DAY)
    assert len(poll(sig, 900_000)) == 96
    assert len(poll(sig, DAY)) == 1
    assert len(poll(sig, DAY + 1)) == 0
    sig = step_load_signal(base_rate_per_hour=1.0, horizon=3_500_000)
    samples = poll(sig, 1_000_000)
    assert [s.t for s in samples] == [1_000_000, 2_000_000, 3_000_000]
    assert samples[0].value == value_at(sig, 1_000_000)


def test_poll_rejects_non_positive_interval():
    sig = step_load_signal(horizon=DAY)
    with pytest.raises(NonPositiveInterval):
        poll(sig, 0)
    with pytest.raises(NonPositiveInterval):
        poll(sig, -5)


def test_reconstruct_ami_zero_order_hold():
    samples = [AmiSample(1_000, 1.0), AmiSample(2_000, 4.0)]
    assert reconstruct_ami(samples, 999, p0=-1.0) == -1.0
    assert reconstruct_ami(samples, 1_000) == 1.0
    assert reconstruct_ami(samples, 1_999) == 1.0
    assert reconstruct_ami(samples, 2_000) == 4.0
    assert reconstruct_ami(samples, 10**9) == 4.0
    assert reconstruct_ami([], 500, p0=7.0) == 7.0


def _scan_hold(samples, t, p0):
    """Reference hold: the latest sample at or before t by a full scan."""
    best = None
    for s in samples:
        if s.t <= t and (best is None or s.t > best.t):
            best = s
    return best.value if best is not None else p0


def test_reconstruct_ami_matches_scan_on_poll_outputs():
    rng = random.Random(7)
    for _ in range(40):
        sig = diurnal_signal(
            mean=20.0, amplitude=rng.uniform(0.0, 5.0), noise_sigma=0.1, seed=rng.randrange(2**32), horizon=DAY
        )
        samples = poll(sig, rng.randrange(60_000, DAY // 4))
        probes = [0, DAY] + [rng.randrange(DAY + 1) for _ in range(50)]
        probes += [s.t + d for s in samples for d in (-1, 0, 1)]
        for t in probes:
            assert reconstruct_ami(samples, t, p0=-3.0) == _scan_hold(samples, t, -3.0)


def test_error_stats_constant_signal_is_exact_zero():
    sig = step_load_signal(base_rate_per_hour=0.0, horizon=DAY)
    samples = poll(sig, 900_000)
    report = error_stats(sig, samples, grid=60_000)
    assert report.sup == 0.0
    assert report.mean == 0.0
    assert report.rmse == 0.0
    assert report.n_points == DAY // 60_000 + 1


def test_error_stats_ramp_matches_closed_form():
    # 3.6 units/hour is 1e-6 units per ms, so errors are exact decimals.
    dt, grid = 900_000, 60_000
    sig = step_load_signal(base_rate_per_hour=3.6, horizon=DAY)
    samples = poll(sig, dt)
    report = error_stats(sig, samples, grid=grid, p0=0.0)
    # held value lags by at most dt - grid at a grid point
    assert report.sup == pytest.approx((dt - grid) * 1e-6, rel=1e-12)
    # independent accumulation from the closed form truth(t) = 1e-6 * t
    errs = []
    for t in range(0, DAY + 1, grid):
        held = 1e-6 * (t // dt) * dt
        errs.append(abs(1e-6 * t - held))
    assert report.mean == pytest.approx(math.fsum(errs) / len(errs), rel=1e-12)
    assert report.rmse == pytest.approx(
        math.sqrt(math.fsum(e * e for e in errs) / len(errs)), rel=1e-12
    )
    assert report.n_points == len(errs)


def test_error_stats_sinusoid_bounded_by_lipschitz():
    period = 4 * MS_PER_HOUR
    sig = diurnal_signal(mean=10.0, amplitude=1.0, period=period, horizon=period)
    dt = 300_000
    samples = poll(sig, dt)
    report = error_stats(sig, samples, grid=60_000, p0=value_at(sig, 0))
    # |dP/dt| <= amplitude * 2*pi / period, so a dt-stale hold is bounded
    assert 0.0 < report.sup <= 1.0 * 2 * math.pi / period * dt + 1e-9
    assert report.mean <= report.sup
    assert report.mean <= report.rmse <= report.sup


def scan_hold_error(truth, grid, times, values, prior):
    """Reference hold_error: for each grid point, scan times for the held value.

    hold_error walks hold segments instead and must give the same floats,
    so results are compared with ==.
    """
    sup = total = total_sq = 0.0
    idx = -1
    for k, true_value in enumerate(truth):
        t = k * grid
        while idx + 1 < len(times) and times[idx + 1] <= t:
            idx += 1
        held = values[idx] if idx >= 0 else prior
        err = abs(true_value - held)
        sup = max(sup, err)
        total += err
        total_sq += err * err
    n = len(truth)
    return ErrorReport(sup=sup, mean=total / n, rmse=math.sqrt(total_sq / n), n_points=n)


def test_hold_error_matches_per_point_scan():
    rng = random.Random(99)
    for case in range(300):
        grid = rng.choice((1, 7, 1_000, 60_000, 70_000))
        truth = [rng.uniform(-5.0, 5.0) for _ in range(rng.randrange(1, 60))]
        last = (len(truth) - 1) * grid
        times = []
        for _ in range(rng.randrange(0, 40) if case % 10 else 0):  # every tenth has no times
            shape = rng.random()
            if shape < 0.15:
                times.append(-rng.randrange(1, 3 * grid + 2))  # before the first grid point
            elif shape < 0.35:
                times.append(rng.randrange(len(truth)) * grid)  # exactly on a grid point
            elif shape < 0.45:
                times.append(last + rng.randrange(1, 3 * grid + 2))  # past the last grid point
            elif shape < 0.55 and times:
                times.append(rng.choice(times))  # a duplicate
            else:
                times.append(rng.randrange(-grid, last + grid))
        times.sort()
        values = [rng.uniform(-5.0, 5.0) for _ in times]
        prior = rng.uniform(-5.0, 5.0)
        assert hold_error(truth, grid, times, values, prior) == scan_hold_error(
            truth, grid, times, values, prior
        ), case


def test_error_stats_rejects_bad_grid():
    sig = step_load_signal(horizon=DAY)
    with pytest.raises(NonPositiveInterval):
        error_stats(sig, [], grid=0)


def test_matched_budget_interval():
    assert matched_budget_interval(DAY, 96) == 900_000
    assert matched_budget_interval(DAY, 54) == 1_600_000
    with pytest.raises(ZeroBudget):
        matched_budget_interval(DAY, 0)
    with pytest.raises(ZeroBudget):
        matched_budget_interval(DAY, -1)
    with pytest.raises(NonPositiveInterval):
        matched_budget_interval(0, 5)


def test_matched_budget_never_undershoots():
    rng = random.Random(31337)
    for _ in range(200):
        horizon = rng.randrange(1_000, 10_000_000)
        n = rng.randrange(1, 500)
        if n > horizon:
            continue
        dt = matched_budget_interval(horizon, n)
        polls = horizon // dt
        assert polls >= n
        # and dt is the largest such interval
        assert horizon // (dt + 1) < n
