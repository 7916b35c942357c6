import copy
import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from asmisim import baseline, cli, pi_protocol, radio, router, runner, scenario, sensor
from asmisim.center import _MEMO_SIZE, TIMELINE_CSV_COLUMNS, MonitoringCenter
from asmisim.pi_protocol import MsgType, PiFrame
from asmisim.router import ForwardedRecord
from asmisim.sensor import SensorDescriptor, SensorMode
from asmisim.signalgen import LevelOutOfRange, SignalError, crossing_times, value_at
from asmisim.simkernel import MAX_SIMTIME

from test_router import corrected_time_errors, outside_time_error_bound

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def minimal_config(**overrides):
    doc = {
        "scenario_id": "mini",
        "seed": 1,
        "horizon": 3_600_000,
        "signals": [
            {"id": "s", "kind": "cumulative", "unit": "kWh", "base_rate_per_hour": 1.0}
        ],
        "sensors": [
            {
                "sensor_id": 1,
                "parameter": "electricity",
                "unit": "kWh",
                "dP": 0.5,
                "P0": 0.0,
                "mode": "MONOTONIC",
                "status_interval": 1_800_000,
                "signal": "s",
                "location": "flat 1",
            }
        ],
        "routers": [{"id": 1, "location": "hall"}],
        "coverage": {"1": [1]},
        "channel": {"loss_prob": 0.0, "latency": 50, "jitter": 0},
    }
    doc.update(overrides)
    return doc


# ------------------------------------------------------------- validation


def test_minimal_config_validates():
    sc = scenario.validate(minimal_config())
    assert sc.scenario_id == "mini"
    assert sc.horizon == 3_600_000
    assert len(sc.sensors) == 1
    assert sc.coverage.routers_for(1) == (1,)
    assert sc.sync_interval == 3_600_000  # default
    assert sc.routers[0].flush_interval == 60_000  # default


def test_backhaul_delay_is_ignored_like_any_unknown_key():
    # The backhaul is reliable and ordered, so its delay moved no output and
    # is no longer read; configs that still carry it validate unchanged.
    for value in (500, -1, "x"):
        assert scenario.validate(minimal_config(backhaul_delay=value)) == scenario.validate(minimal_config())


def test_unknown_router_in_coverage():
    doc = minimal_config(coverage={"1": [9]})
    with pytest.raises(scenario.ScenarioValidationError) as err:
        scenario.validate(doc)
    assert any(path == "coverage.1" and "unknown router" in msg for path, msg in err.value.errors)


def test_zero_dp_rejected_with_exact_message():
    doc = minimal_config()
    doc["sensors"][0]["dP"] = 0
    with pytest.raises(scenario.ScenarioValidationError) as err:
        scenario.validate(doc)
    assert ("sensors[0].dP", "dP must be positive") in err.value.errors


def test_all_errors_reported_at_once():
    doc = minimal_config()
    doc["sensors"][0]["dP"] = -1
    doc["sensors"][0]["signal"] = "nope"
    doc["horizon"] = 0
    doc["coverage"] = {"1": [9]}
    with pytest.raises(scenario.ScenarioValidationError) as err:
        scenario.validate(doc)
    paths = {path for path, _ in err.value.errors}
    assert {"sensors[0].dP", "sensors[0].signal", "horizon", "coverage.1"} <= paths


def test_uncovered_sensor_rejected():
    doc = minimal_config(coverage={})
    with pytest.raises(scenario.ScenarioValidationError) as err:
        scenario.validate(doc)
    assert any("no covering router" in msg for _, msg in err.value.errors)


def test_monotonic_requires_cumulative_signal():
    doc = minimal_config()
    doc["signals"].append(
        {"id": "temp", "kind": "ambient", "unit": "degC", "mean": 20.0, "amplitude": 1.0}
    )
    doc["sensors"][0]["signal"] = "temp"
    with pytest.raises(scenario.ScenarioValidationError) as err:
        scenario.validate(doc)
    assert any("MONOTONIC requires a cumulative signal" in msg for _, msg in err.value.errors)


def test_duplicate_ids_rejected():
    doc = minimal_config()
    doc["sensors"].append(copy.deepcopy(doc["sensors"][0]))
    doc["routers"].append({"id": 1})
    with pytest.raises(scenario.ScenarioValidationError) as err:
        scenario.validate(doc)
    messages = " | ".join(msg for _, msg in err.value.errors)
    assert "duplicate sensor id" in messages
    assert "duplicate router id" in messages


def test_bad_channel_and_baseline_fields():
    doc = minimal_config(
        channel={"loss_prob": 1.5, "latency": -1},
        baseline={"enabled": "yes", "dt": 0},
        sync_interval=0,
    )
    with pytest.raises(scenario.ScenarioValidationError) as err:
        scenario.validate(doc)
    paths = {path for path, _ in err.value.errors}
    assert {"channel.loss_prob", "channel.latency", "baseline.enabled", "baseline.dt", "sync_interval"} <= paths


# Two documents that reach every scalar field check: one with each field of
# the wrong type, one with each field just outside its range. The pinned
# lists are the exact reports, in order, so a refactor of the checks cannot
# change a message, a path or the order a user reads them in.
WRONG_TYPES_DOC = {
    "scenario_id": 5,
    "seed": True,
    "horizon": "1",
    "signals": [
        "x",
        {"id": 7},
        {"id": "k", "kind": None},
        {"id": "c", "kind": "cumulative", "unit": 3, "base_rate_per_hour": "1", "intervals": "x"},
        {
            "id": "c2",
            "kind": "cumulative",
            "base_rate_per_hour": None,
            "intervals": [None, {"start": "0", "end": None, "rate_per_hour": True}],
        },
        {
            "id": "a",
            "kind": "ambient",
            "unit": [],
            "mean": "20",
            "amplitude": None,
            "period": 1.5,
            "phase": "0",
            "noise_sigma": {},
            "noise_step": True,
        },
    ],
    "sensors": [
        [],
        {"sensor_id": "1", "dP": "0.1", "P0": None, "mode": 1, "status_interval": 1.0, "signal": 1},
        {"sensor_id": 2, "dP": 0.1, "mode": "MONOTONIC", "status_interval": 1000, "signal": "c"},
        {"sensor_id": 3, "dP": 0.1, "mode": "MONOTONIC", "status_interval": 1000, "signal": "c"},
    ],
    "routers": [
        None,
        {"id": 1.0, "flush_interval": "1", "drift_ppm": "0", "sync_residual": 0.5},
        {"id": 2},
    ],
    "coverage": {"x": [2], "2": "2", "3": [True, "2", 2]},
    "channel": {"loss_prob": "0", "latency": 1.5, "jitter": None},
    "sync_interval": [],
    "error_grid": False,
    "baseline": {"enabled": 1, "dt": "60000"},
    "outputs": None,
}

OUT_OF_RANGE_DOC = {
    "scenario_id": "",
    "seed": -1,
    "horizon": 0,
    "signals": [
        {"id": ""},
        {
            "id": "c",
            "kind": "cumulative",
            "base_rate_per_hour": -0.5,
            "intervals": [
                {"start": -1, "end": 10, "rate_per_hour": -1},
                {"start": 10, "end": 10, "rate_per_hour": 0},
                {"start": 20, "end": 5, "rate_per_hour": 1},
            ],
        },
        {"id": "c", "kind": "cumulative"},
        {"id": "k", "kind": "other"},
        {
            "id": "a",
            "kind": "ambient",
            "mean": -1e9,
            "amplitude": -3,
            "period": 0,
            "phase": -5,
            "noise_sigma": -0.1,
            "noise_step": 0,
        },
        {"id": "t", "kind": "ambient", "mean": 20.0, "amplitude": 1.0},
    ],
    "sensors": [
        {"sensor_id": -1, "dP": 0, "P0": -5, "mode": "monotonic", "status_interval": 0, "signal": "nope"},
        {"sensor_id": 2**32, "dP": -0.1, "mode": "MONOTONIC", "status_interval": -1, "signal": "t"},
        {"sensor_id": 4, "dP": 0.1, "mode": "BIDIRECTIONAL", "status_interval": 1000, "signal": "t"},
        {"sensor_id": 4, "dP": 0.1, "mode": "BIDIRECTIONAL", "status_interval": 1000, "signal": "t"},
        {"sensor_id": 5, "dP": 0.1, "mode": "MONOTONIC", "status_interval": 1000, "signal": "c"},
        {"sensor_id": 6, "dP": 0.1, "mode": "MONOTONIC", "status_interval": 1000, "signal": "c"},
        {"sensor_id": 7, "dP": 0.1, "mode": "BIDIRECTIONAL", "status_interval": 1000, "signal": "t"},
    ],
    "routers": [
        {"id": -1, "flush_interval": 0, "drift_ppm": -1e6, "sync_residual": -10},
        {"id": 1},
        {"id": 1},
        {"id": 2, "flush_interval": -5},
    ],
    # int() reads each key from "06" on as sensor 6 or 7, but only "7" is written as str() writes an id.
    "coverage": {
        "9": [1], "4": [], "5": [1, 3, -1],
        "06": [1], " 6": [1], "+6": [1], "6_0": [1], "\u0666": [1], "7": [1], "07": [1],
    },
    "channel": {"loss_prob": 1.5, "latency": -1, "jitter": -1},
    "sync_interval": 0,
    "error_grid": 0,
    "baseline": {"enabled": False, "dt": 0},
    "outputs": "",
}

WRONG_TYPES_ERRORS = [
    ("scenario_id", "must be a non-empty string"),
    ("seed", "must be an unsigned 64-bit integer"),
    ("horizon", "must be a positive integer (milliseconds)"),
    ("signals[0]", "must be an object"),
    ("signals[1].id", "must be a non-empty string"),
    ("signals[2].kind", "must be 'cumulative' or 'ambient'"),
    ("signals[3].unit", "must be a string"),
    ("signals[3].base_rate_per_hour", "must be a non-negative number"),
    ("signals[3].intervals", "must be a list"),
    ("signals[4].base_rate_per_hour", "must be a non-negative number"),
    ("signals[4].intervals[0]", "must be an object"),
    ("signals[4].intervals[1].start", "must be a non-negative integer"),
    ("signals[4].intervals[1].end", "must be an integer greater than start"),
    ("signals[4].intervals[1].rate_per_hour", "must be a non-negative number"),
    ("signals[5].unit", "must be a string"),
    ("signals[5].mean", "must be a number"),
    ("signals[5].amplitude", "must be a number"),
    ("signals[5].period", "must be a positive integer (milliseconds)"),
    ("signals[5].phase", "must be an integer (milliseconds)"),
    ("signals[5].noise_sigma", "must be a non-negative number"),
    ("signals[5].noise_step", "must be a positive integer (milliseconds)"),
    ("sensors[0]", "must be an object"),
    ("sensors[1].sensor_id", "must be an unsigned 32-bit integer"),
    ("sensors[1].dP", "dP must be positive"),
    ("sensors[1].P0", "must be a number"),
    ("sensors[1].mode", "must be 'MONOTONIC' or 'BIDIRECTIONAL'"),
    ("sensors[1].status_interval", "must be a positive integer (milliseconds)"),
    ("sensors[1].signal", "unknown signal id 1"),
    ("routers[0]", "must be an object"),
    ("routers[1].id", "must be a non-negative integer"),
    ("routers[1].flush_interval", "must be a positive integer (milliseconds)"),
    ("routers[1].drift_ppm", "must be a number in [-1e6, 1e6] (ppm)"),
    ("routers[1].sync_residual", "must be an integer (milliseconds)"),
    ("coverage.2", "must be a non-empty list of router ids"),
    ("coverage.3", "unknown router id True"),
    ("coverage.3", "unknown router id 2"),
    ("coverage.x", "key must be a sensor id"),
    ("channel.loss_prob", "must be a probability in [0, 1]"),
    ("channel.latency", "must be a non-negative integer (milliseconds)"),
    ("channel.jitter", "must be a non-negative integer (milliseconds)"),
    ("sync_interval", "must be a positive integer (milliseconds)"),
    ("error_grid", "must be a positive integer (milliseconds)"),
    ("baseline.enabled", "must be a boolean"),
    ("baseline.dt", "must be a positive integer (milliseconds) or 'matched'"),
    ("outputs", "must be a non-empty string (directory path)"),
]

OUT_OF_RANGE_ERRORS = [
    ("scenario_id", "must be a non-empty string"),
    ("seed", "must be an unsigned 64-bit integer"),
    ("horizon", "must be a positive integer (milliseconds)"),
    ("signals[0].id", "must be a non-empty string"),
    ("signals[1].base_rate_per_hour", "must be a non-negative number"),
    ("signals[1].intervals[0].start", "must be a non-negative integer"),
    ("signals[1].intervals[0].rate_per_hour", "must be a non-negative number"),
    ("signals[1].intervals[1].end", "must be an integer greater than start"),
    ("signals[1].intervals[2].end", "must be an integer greater than start"),
    ("signals[2].id", "duplicate signal id 'c'"),
    ("signals[3].kind", "must be 'cumulative' or 'ambient'"),
    ("signals[4].period", "must be a positive integer (milliseconds)"),
    ("signals[4].noise_sigma", "must be a non-negative number"),
    ("signals[4].noise_step", "must be a positive integer (milliseconds)"),
    ("sensors[0].sensor_id", "must be an unsigned 32-bit integer"),
    ("sensors[0].dP", "dP must be positive"),
    ("sensors[0].mode", "must be 'MONOTONIC' or 'BIDIRECTIONAL'"),
    ("sensors[0].status_interval", "must be a positive integer (milliseconds)"),
    ("sensors[0].signal", "unknown signal id 'nope'"),
    ("sensors[1].sensor_id", "must be an unsigned 32-bit integer"),
    ("sensors[1].dP", "dP must be positive"),
    ("sensors[1].status_interval", "must be a positive integer (milliseconds)"),
    ("sensors[1].mode", "MONOTONIC requires a cumulative signal"),
    ("sensors[3].sensor_id", "duplicate sensor id 4"),
    ("routers[0].id", "must be a non-negative integer"),
    ("routers[0].flush_interval", "must be a positive integer (milliseconds)"),
    ("routers[2].id", "duplicate router id 1"),
    ("routers[3].flush_interval", "must be a positive integer (milliseconds)"),
    ("coverage. 6", "key must be a sensor id"),
    ("coverage.+6", "key must be a sensor id"),
    ("coverage.06", "key must be a sensor id"),
    ("coverage.07", "key must be a sensor id"),
    ("coverage.4", "must be a non-empty list of router ids"),
    ("coverage.5", "unknown router id 3"),
    ("coverage.5", "unknown router id -1"),
    ("coverage.6_0", "key must be a sensor id"),
    ("coverage.9", "unknown sensor id 9"),
    ("coverage.\u0666", "key must be a sensor id"),
    ("coverage.6", "sensor has no covering router"),
    ("channel.loss_prob", "must be a probability in [0, 1]"),
    ("channel.latency", "must be a non-negative integer (milliseconds)"),
    ("channel.jitter", "must be a non-negative integer (milliseconds)"),
    ("sync_interval", "must be a positive integer (milliseconds)"),
    ("error_grid", "must be a positive integer (milliseconds)"),
    ("baseline.dt", "must be a positive integer (milliseconds) or 'matched'"),
    ("outputs", "must be a non-empty string (directory path)"),
]


@pytest.mark.parametrize(
    "doc, expected",
    [(WRONG_TYPES_DOC, WRONG_TYPES_ERRORS), (OUT_OF_RANGE_DOC, OUT_OF_RANGE_ERRORS)],
    ids=["wrong_types", "out_of_range"],
)
def test_validation_messages_are_pinned(doc, expected):
    with pytest.raises(scenario.ScenarioValidationError) as err:
        scenario.validate(copy.deepcopy(doc))
    assert err.value.errors == expected


def _paths(node, path=()):
    """Every (container, key) path into a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


# A JSON integer too large for a float: float() of it raises OverflowError.
HUGE_INT = json.loads("1" + "0" * 400)

HOSTILE_VALUES = (
    None, True, "x", "", [], {}, math.nan, math.inf, -math.inf, 2**70, -(2**70), HUGE_INT, -1, 0, 0.5, -0.5
)


def test_hostile_mutations_validate_or_raise_validation_error():
    text = (SCENARIO_DIR / "burst_day.json").read_text()
    paths = list(_paths(json.loads(text)))
    rng = random.Random(2024)
    outcomes = {"rejected": 0, "completed": 0, "signal_error": 0}
    for _ in range(3_000):
        doc = json.loads(text)
        for path in rng.sample(paths, rng.randrange(1, 4)):
            parent = doc
            try:
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]]
            except (KeyError, IndexError, TypeError):
                continue  # an earlier mutation already replaced this path
            if isinstance(parent, dict) and rng.random() < 0.2:
                del parent[path[-1]]
            elif isinstance(parent, (dict, list)):
                parent[path[-1]] = copy.deepcopy(rng.choice(HOSTILE_VALUES))
        try:
            sc = scenario.validate(doc)
        except scenario.ScenarioValidationError:
            outcomes["rejected"] += 1
            continue
        assert isinstance(sc, scenario.Scenario)
        # A document that validates runs to completion with both
        # conservation identities exact, or raises a documented SignalError.
        try:
            c = runner.run_scenario(sc).counters
        except SignalError:
            outcomes["signal_error"] += 1
            continue
        assert c["emitted"] == c["delivered"] + c["radio_lost"]
        assert c["delivered"] == c["dropped"] + c["accepted"] + c["deduped"] + c["quarantined"] + c["malformed"]
        outcomes["completed"] += 1
    assert outcomes["rejected"] and outcomes["completed"], outcomes


TIME_FIELDS = (
    ("horizon",),
    ("sensors", 0, "status_interval"),
    ("routers", 0, "flush_interval"),
    ("channel", "latency"),
    ("channel", "jitter"),
    ("sync_interval",),
    ("baseline", "dt"),
)
NUMBER_FIELDS = (
    ("sensors", 0, "dP"),
    ("sensors", 0, "P0"),
    ("signals", 0, "base_rate_per_hour"),
    ("signals", 0, "intervals", 0, "rate_per_hour"),
    ("routers", 0, "drift_ppm"),
)
# Finite, but past the +-1e6 ppm bound on a clock's drift.
DRIFT_OUT_OF_RANGE = (1.7e308, 1e6 + 1, -(1e6 + 1))
# burst_day.json runs to horizon + latency + jitter = 86_400_000 + 50 + 0;
# each of these pushes that sum past MAX_SIMTIME.
END_OF_RUN_OVERFLOWS = (
    (("horizon",), MAX_SIMTIME),
    (("channel", "latency"), 2**64 - 10),
    (("channel", "jitter"), MAX_SIMTIME - 86_400_050 + 1),
)
OUT_OF_RANGE_CASES = (
    [(path, value, path) for path in TIME_FIELDS for value in (2**64, 2**70, HUGE_INT)]
    + [(path, value, path) for path in NUMBER_FIELDS for value in (math.nan, math.inf, -math.inf, HUGE_INT)]
    + [(path, value, ("horizon",)) for path, value in END_OF_RUN_OVERFLOWS]
    + [(("routers", 0, "drift_ppm"), value, ("routers", 0, "drift_ppm")) for value in DRIFT_OUT_OF_RANGE]
)


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _error_path(path):
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path).lstrip(".")


def _case_id(case):
    path, value, error_path = case
    names = {MAX_SIMTIME: "2**64-1", 2**64: "2**64", 2**70: "2**70", HUGE_INT: "10**400"}
    return f"{_error_path(path)}={'end_of_run' if error_path != path else names.get(value, value)}"


@pytest.mark.parametrize("path, value, error_path", OUT_OF_RANGE_CASES, ids=map(_case_id, OUT_OF_RANGE_CASES))
def test_values_the_run_cannot_use_raise_validation_error(path, value, error_path):
    doc = json.loads((SCENARIO_DIR / "burst_day.json").read_text())
    _set(doc, path, value)
    with pytest.raises(scenario.ScenarioValidationError) as err:
        scenario.validate(doc)
    assert _error_path(error_path) in {p for p, _ in err.value.errors}


@pytest.mark.parametrize("drift_ppm", [1e6, -1e6])
def test_drift_at_its_bound_validates_and_runs(drift_ppm):
    doc = json.loads((SCENARIO_DIR / "burst_day.json").read_text())
    doc["routers"][0]["drift_ppm"] = drift_ppm
    result = runner.run_scenario(scenario.validate(doc))
    assert result.counters["accepted"] == result.sensor_states[4].seq_no > 0


# Each of these validates, but the signal strays 2**31 or more quanta from
# P0, so no level fits a frame and walking the grid there would not end.
EXTREME_LEVEL_CASES = (
    (("sensors", 0, "P0"), 1e20),
    (("sensors", 0, "P0"), 1e308),
    (("sensors", 0, "P0"), -1e308),
    (("signals", 0, "base_rate_per_hour"), 1e300),
    (("signals", 0, "intervals", 0, "rate_per_hour"), 1e308),
    (("sensors", 0, "dP"), 1e-300),
)


@pytest.mark.parametrize(
    "path, value", EXTREME_LEVEL_CASES, ids=[f"{_error_path(p)}={v}" for p, v in EXTREME_LEVEL_CASES]
)
def test_levels_beyond_the_wire_range_raise_level_out_of_range(path, value):
    doc = json.loads((SCENARIO_DIR / "burst_day.json").read_text())
    _set(doc, path, value)
    sc = scenario.validate(doc)
    with pytest.raises(LevelOutOfRange):
        runner.run_scenario(sc, seed=31)


# burst_day.json's horizon is one day: a 1 ms grid would score each signal on
# 86 400 001 points. Each case is (error_grid, horizon, points or None if it
# validates); the last two sit on either side of the bound.
ERROR_GRID_CASES = (
    (1, None, 86_400_001),
    (86, None, 1_004_652),
    (87, None, None),
    (100, (scenario.MAX_GRID_POINTS - 1) * 100, None),
    (100, scenario.MAX_GRID_POINTS * 100, scenario.MAX_GRID_POINTS + 1),
)


@pytest.mark.parametrize("error_grid, horizon, points", ERROR_GRID_CASES)
def test_an_error_grid_with_too_many_points_raises_validation_error(error_grid, horizon, points):
    """Validation alone decides; none of these is run."""
    doc = json.loads((SCENARIO_DIR / "burst_day.json").read_text())
    doc["error_grid"] = error_grid
    if horizon is not None:
        doc["horizon"] = horizon
    if points is None:
        sc = scenario.validate(doc)
        assert sc.horizon // sc.error_grid + 1 <= scenario.MAX_GRID_POINTS
        return
    with pytest.raises(scenario.ScenarioValidationError) as err:
        scenario.validate(doc)
    message = f"must give at most {scenario.MAX_GRID_POINTS} grid points over the horizon, not {points}"
    assert err.value.errors == [("error_grid", message)]


# quiet_day.json's horizon is one day, with a fixed baseline dt and an ambient
# signal: a 1 ms step would poll, tick or turn 86 400 000 times or more. Each
# case is (path, value, horizon or None, count or None if it validates); each
# bound sits between two cases, and the counts are those MAX_GRID_POINTS caps.
GRID_COUNT_CASES = (
    (("baseline", "dt"), 1, None, 86_400_000),
    (("baseline", "dt"), 86, None, 1_004_651),
    (("baseline", "dt"), 87, None, None),
    (("baseline", "dt"), 100, scenario.MAX_GRID_POINTS * 100, None),
    (("baseline", "dt"), 100, (scenario.MAX_GRID_POINTS + 1) * 100, scenario.MAX_GRID_POINTS + 1),
    (("signals", 1, "noise_step"), 1, None, 86_400_000),
    (("signals", 1, "noise_step"), 86, None, 1_004_651),
    (("signals", 1, "noise_step"), 87, None, None),
    (("signals", 1, "period"), 1, None, 172_800_000),
    (("signals", 1, "period"), 172, None, 1_004_651),
    (("signals", 1, "period"), 173, None, None),
    (("signals", 1, "period"), 200, scenario.MAX_GRID_POINTS * 100, None),
    (("signals", 1, "period"), 200, (scenario.MAX_GRID_POINTS + 1) * 100, scenario.MAX_GRID_POINTS + 1),
)
GRID_COUNT_NAMES = {"dt": "polls", "noise_step": "noise ticks", "period": "half-periods"}


@pytest.mark.parametrize(
    "path, value, horizon, count",
    GRID_COUNT_CASES,
    ids=[f"{_error_path(path)}={value}" + (f",horizon={h}" if h else "") for path, value, h, _ in GRID_COUNT_CASES],
)
def test_a_step_giving_too_many_entries_raises_validation_error(path, value, horizon, count):
    """Validation alone decides; none of these is run, and an amplitude of 0 does not help."""
    doc = json.loads((SCENARIO_DIR / "quiet_day.json").read_text())
    assert doc["signals"][1]["amplitude"] == 0.0
    _set(doc, path, value)
    if horizon is not None:
        doc["horizon"] = horizon
    if count is None:
        scenario.validate(doc)
        return
    with pytest.raises(scenario.ScenarioValidationError) as err:
        scenario.validate(doc)
    what = GRID_COUNT_NAMES[path[-1]]
    message = f"must give at most {scenario.MAX_GRID_POINTS} {what} over the horizon, not {count}"
    assert err.value.errors == [(_error_path(path), message)]


def test_end_of_run_at_max_simtime_validates():
    doc = json.loads((SCENARIO_DIR / "burst_day.json").read_text())
    doc["channel"]["jitter"] = MAX_SIMTIME - 86_400_050
    assert scenario.validate(doc).channel.jitter == MAX_SIMTIME - 86_400_050


def _recording_flushes(monkeypatch, limit=None):
    """Batch sizes of every router.flush call; more than `limit` calls raise."""
    sizes = []
    original = router.flush

    def recording(state, due):
        batch = original(state, due)
        sizes.append(len(batch))
        assert limit is None or len(sizes) <= limit, "flushes follow the clock, not the traffic"
        return batch

    monkeypatch.setattr(router, "flush", recording)
    return sizes


def test_every_router_flush_ships_a_record(monkeypatch):
    doc = json.loads((SCENARIO_DIR / "quiet_day.json").read_text())
    doc["routers"][0]["flush_interval"] = 1_000  # 86 400 flush instants a day, 8 frames
    sizes = _recording_flushes(monkeypatch)
    result = runner.run_scenario(scenario.validate(doc))
    assert sizes and min(sizes) >= 1
    assert sum(sizes) == len(result.transport_rows) == result.counters["delivered"] > 0


def test_run_whose_last_receipt_is_at_max_simtime_ships_every_record(monkeypatch):
    doc = json.loads((SCENARIO_DIR / "quiet_day.json").read_text())
    doc["channel"]["latency"] = MAX_SIMTIME - doc["horizon"]  # the status at the horizon lands on 2**64-1
    doc["routers"].append({"id": 2, "flush_interval": 1})  # its last batch ships at 2**64-1
    doc["coverage"] = {"1": [1, 2], "2": [1, 2]}
    sizes = _recording_flushes(monkeypatch, limit=100)
    result = runner.run_scenario(scenario.validate(doc))
    rows = result.transport_rows
    assert sum(sizes) == len(rows) == result.counters["delivered"] == result.counters["emitted"] > 0
    assert max(row["local_receipt_time_ms"] for row in rows if row["router_id"] == 2) == MAX_SIMTIME
    assert result.counters["accepted"] == sum(state.seq_no for state in result.sensor_states.values())


def test_load_uses_filename_as_default_id(tmp_path):
    doc = minimal_config()
    del doc["scenario_id"]
    path = tmp_path / "my_run.json"
    path.write_text(json.dumps(doc))
    assert scenario.load(path).scenario_id == "my_run"


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(scenario.ScenarioValidationError):
        scenario.load(path)


# ------------------------------------------------------------------ runs


def test_quiet_day_timeline_is_status_only(tmp_path):
    sc = scenario.load(SCENARIO_DIR / "quiet_day.json")
    result = runner.run_scenario(sc)
    rows = result.center.timeline_rows()
    assert rows, "status frames expected"
    assert all(row[2] == "STATUS" for row in rows)
    assert result.summary()["emitted"] == 8  # 2 sensors x 4 heartbeats


def test_no_loss_three_routers_dedup_ratio():
    sc = scenario.load(SCENARIO_DIR / "no_loss_three_routers.json")
    result = runner.run_scenario(sc)
    accepted = result.counters["accepted"]
    assert accepted > 0
    assert result.counters["deduped"] == 2 * accepted
    assert result.counters["radio_lost"] == 0
    # every sensor timeline is gap-free with three covering routers
    for descriptor in sc.sensors:
        assert result.center.detect_gaps(descriptor.sensor_id) == []


def lossy_two_router_scenario():
    doc = minimal_config(
        scenario_id="lossy",
        horizon=6 * 3_600_000,
        channel={"loss_prob": 0.35, "latency": 50, "jitter": 10},
        seed=77,
    )
    doc["routers"].append({"id": 2, "drift_ppm": 40.0, "sync_residual": 3})
    doc["coverage"] = {"1": [1, 2]}
    return scenario.validate(doc)


def test_conservation_identities_on_lossy_run():
    result = runner.run_scenario(lossy_two_router_scenario())
    c = result.counters
    assert c["radio_lost"] > 0, "lossy channel was supposed to lose something"
    assert c["emitted"] == c["delivered"] + c["radio_lost"]
    assert c["delivered"] == (
        c["dropped"] + c["accepted"] + c["deduped"] + c["quarantined"] + c["malformed"]
    )
    assert c["quarantined"] == 0 and c["malformed"] == 0 and c["dropped"] == 0


def test_a_delivery_no_router_heard_breaks_the_radio_identity(monkeypatch):
    """emitted and radio_lost are the radio's books and delivered the
    routers', so a delivery lost between the two shows up in identity 1."""
    original = radio.broadcast
    lost = []

    def dropping_the_last(frame, sensor_id, t, coverage, channel):
        deliveries = original(frame, sensor_id, t, coverage, channel)
        if deliveries:
            lost.append(deliveries.pop())
        return deliveries

    monkeypatch.setattr(radio, "broadcast", dropping_the_last)
    c = runner.run_scenario(lossy_two_router_scenario()).counters
    assert lost and c["radio_lost"] > 0
    assert c["emitted"] - c["delivered"] - c["radio_lost"] == len(lost)
    assert c["delivered"] == c["dropped"] + c["accepted"] + c["deduped"] + c["quarantined"] + c["malformed"]


@pytest.mark.parametrize("source", ["lossy_two_router", "quiet_day.json"])
def test_sensors_emit_at_each_wake_up_and_the_run_counts_its_flushes(source, monkeypatch):
    """A sensor emits at its distinct crossing instants and its status
    instants and nowhere else, and each (router, flush instant) a delivery
    falls under is shipped exactly once."""
    sc = lossy_two_router_scenario() if source == "lossy_two_router" else scenario.load(SCENARIO_DIR / source)
    original = radio.broadcast
    emissions, deliveries = set(), []

    def recording(frame, sensor_id, t, coverage, channel):
        out = original(frame, sensor_id, t, coverage, channel)
        emissions.add((sensor_id, t))
        deliveries.extend(out)
        return out

    monkeypatch.setattr(radio, "broadcast", recording)
    result = runner.run_scenario(sc)
    wake_ups = {
        (d.sensor_id, t)
        for d in sc.sensors
        for t in (
            {t for t, _direction in crossing_times(result.signals[d.signal_id], d.p0, d.dp)}
            | set(range(d.status_interval, sc.horizon + 1, d.status_interval))
        )
    }
    interval = {r.router_id: r.flush_interval for r in sc.routers}
    batches = {(rid, max(1, -(-at // interval[rid])) * interval[rid]) for rid, at in deliveries}
    assert deliveries and result.counters["delivered"] == len(deliveries)
    assert emissions == wake_ups
    assert result.counters["flushes"] == len(batches)


def test_rerun_same_seed_is_bit_identical(tmp_path):
    sc = scenario.load(SCENARIO_DIR / "no_loss_three_routers.json")
    a = runner.write_outputs(runner.run_scenario(sc), tmp_path / "a")
    b = runner.write_outputs(runner.run_scenario(sc), tmp_path / "b")
    for name in a:
        assert a[name].read_bytes() == b[name].read_bytes()


def test_sensor_listing_order_leaves_every_output_unchanged(tmp_path, monkeypatch):
    """Two sensors on one grid of one signal emit at the same instants, so
    with a little jitter their frames reach the one router in the same
    millisecond, sent at the same instant. The runner runs sensors in id
    order, so those ties resolve by sensor id however the sensors are
    listed, and the four files are byte-identical."""
    doc = minimal_config(
        scenario_id="ties", horizon=6 * 3_600_000, channel={"loss_prob": 0.1, "latency": 50, "jitter": 3}
    )
    doc["signals"][0]["base_rate_per_hour"] = 10.0
    listed = [dict(doc["sensors"][0], sensor_id=sensor_id, dP=0.1) for sensor_id in (3, 8)]
    doc["coverage"] = {"3": [1], "8": [1]}
    original = radio.broadcast
    heard = set()  # (receipt, emission, sensor id)

    def recording(frame, sensor_id, t, coverage, channel):
        out = original(frame, sensor_id, t, coverage, channel)
        heard.update((at, t, sensor_id) for _router_id, at in out)
        return out

    monkeypatch.setattr(radio, "broadcast", recording)
    written = {}
    for order, sensors in (("by_id", listed), ("reversed", listed[::-1])):
        sc = scenario.validate(dict(doc, sensors=sensors))
        assert [d.sensor_id for d in sc.sensors] == [d["sensor_id"] for d in sensors]
        paths = runner.write_outputs(runner.run_scenario(sc), tmp_path / order)
        written[order] = {name: path.read_bytes() for name, path in paths.items()}
    ties = Counter((at, t) for at, t, _sensor_id in heard)
    assert sum(count > 1 for count in ties.values()) > 10  # receipts of both sensors, sent together
    assert written["reversed"] == written["by_id"]


def test_seed_override_changes_lossy_transport(tmp_path):
    doc = minimal_config(
        scenario_id="seedy",
        horizon=2 * 3_600_000,
        channel={"loss_prob": 0.5, "latency": 50, "jitter": 0},
    )
    doc["sensors"][0]["dP"] = 0.05  # plenty of frames
    sc = scenario.validate(doc)
    r1 = runner.run_scenario(sc, seed=1)
    r2 = runner.run_scenario(sc, seed=2)
    assert r1.seed == 1 and r2.seed == 2
    assert r1.transport_rows != r2.transport_rows


def test_transport_log_matches_delivered_count():
    sc = scenario.load(SCENARIO_DIR / "no_loss_three_routers.json")
    result = runner.run_scenario(sc)
    assert len(result.transport_rows) == result.counters["delivered"]
    for row in result.transport_rows:
        assert set(row) == {"router_id", "local_receipt_time_ms", "frame_hex"}
        assert len(bytes.fromhex(row["frame_hex"])) == 14


def _sequential_error_report(errors):
    """sup/mean/RMSE accumulated in grid order, as the comparison defines them."""
    sup = total = total_sq = 0.0
    for err in errors:
        sup = max(sup, err)
        total += err
        total_sq += err * err
    return sup, total / len(errors), math.sqrt(total_sq / len(errors))


def test_comparison_rows_equal_reconstruct_and_error_stats():
    doc = minimal_config(
        scenario_id="pinned",
        seed=5,
        horizon=6 * 3_600_000,
        channel={"loss_prob": 0.2, "latency": 50, "jitter": 20},
        baseline={"enabled": True, "dt": "matched"},
        error_grid=7_000,
    )
    doc["sensors"][0]["dP"] = 0.05
    doc["signals"].append(
        {
            "id": "temp",
            "kind": "ambient",
            "unit": "degC",
            "mean": 20.0,
            "amplitude": 2.0,
            "period": 6 * 3_600_000,
            "noise_sigma": 0.05,
        }
    )
    for sensor_id, dp, p0 in ((2, 0.1, 19.95), (3, 0.25, 20.1)):
        doc["sensors"].append(
            {
                "sensor_id": sensor_id,
                "dP": dp,
                "P0": p0,
                "mode": "BIDIRECTIONAL",
                "status_interval": 1_800_000,
                "signal": "temp",
            }
        )
    doc["routers"] = [
        {"id": 1, "drift_ppm": 40.0, "sync_residual": 3},
        {"id": 2, "drift_ppm": -25.0, "sync_residual": -4},
    ]
    doc["coverage"] = {"1": [1, 2], "2": [1, 2], "3": [2]}
    sc = scenario.validate(doc)
    assert sc.horizon % sc.error_grid != 0
    result = runner.run_scenario(sc)
    assert result.counters["radio_lost"] > 0

    expected = []
    grid_times = range(0, sc.horizon + 1, sc.error_grid)
    for descriptor in sorted(sc.sensors, key=lambda d: d.sensor_id):
        sensor_id = descriptor.sensor_id
        signal = result.signals[descriptor.signal_id]
        messages = result.sensor_states[sensor_id].seq_no
        assert messages > 0
        errors = [
            abs(value_at(signal, t) - result.center.reconstruct(sensor_id, t)[0]) for t in grid_times
        ]
        sup, mean, rmse = _sequential_error_report(errors)
        expected.append(
            ("pinned", "ASMI", sensor_id, sup, mean, rmse, messages, messages * pi_protocol.FRAME_LEN)
        )
        dt = baseline.matched_budget_interval(sc.horizon, messages)
        samples = baseline.poll(signal, dt)
        report = baseline.error_stats(signal, samples, sc.error_grid, value_at(signal, 0))
        polls = len(samples)
        expected.append(
            ("pinned", "AMI", sensor_id, report.sup, report.mean, report.rmse, polls, polls * pi_protocol.FRAME_LEN)
        )
    assert result.comparison_rows == expected


def test_run_summary_has_exactly_the_contract_keys(tmp_path):
    sc = scenario.load(SCENARIO_DIR / "quiet_day.json")
    result = runner.run_scenario(sc)
    paths = runner.write_outputs(result, tmp_path)
    summary = json.loads(paths["run_summary.json"].read_text())
    assert list(summary) == ["emitted", "delivered", "deduped", "quarantined", "malformed", "dropped"]



# sha256 of the four output files, recorded before the kernel, sensor
# scheduling and center ingest were reworked for speed (shared_signals:
# before signals kept piece and breakpoint tables). Any change to event
# order, loss draws, jitter, clock correction, dedup, signal values,
# crossing instants or the error sweep moves at least one.
GOLDEN_OUTPUT_DIGESTS = {
    "lossy_jittery": {
        "comparison.csv": "7ec9ae80f5c8fb78a17345fbf401deb681bceb0c3f19417d360fc97061d6cd7b",
        "run_summary.json": "d4fd51a45682c5a40a8b16dc3f0a4262c7dce4c1e349838fa409c906a00fb063",
        "timeline.csv": "c09af0ed8403e4a16364ec3b0a6953e73efe4c2f79ab1ad421cbcfbcaab4bdef",
        "transport.jsonl": "6c3817730de6a2c99461aef49b0fe4122928e9321cffb90593bf71235ba2bbc8",
    },
    "drift_residual": {
        "comparison.csv": "1e31d31c257c21ac59944afbf87242c77753bb1d8e3e7322768fc7a59cab10f0",
        "run_summary.json": "d4fd51a45682c5a40a8b16dc3f0a4262c7dce4c1e349838fa409c906a00fb063",
        "timeline.csv": "260d382e6e1687916e1d90a3f3b5f611396574cb024b2d0cbad0a0b32c7b61f0",
        "transport.jsonl": "c7a6957aa141ecac029d704353f6026dfdb713b03e6eef9dc5a2ee541d2ffc31",
    },
    # Recorded while each router sync was still a kernel event.
    "odd_sync": {
        "comparison.csv": "63e12f67d0a557a8381aa56853ce4af7e5556c88753b387ee4701039a861bc10",
        "run_summary.json": "d4fd51a45682c5a40a8b16dc3f0a4262c7dce4c1e349838fa409c906a00fb063",
        "timeline.csv": "472c7fa0de909a594c36f308acd4965ea081c3aa7b244739896404b24d8cb538",
        "transport.jsonl": "df35c96f1b410dfcc75212ec29e5fd3ee4c685e44fb67df225ddbe63bf82eb89",
    },
    # Recorded while each receipt, router flush and center ingest was a
    # kernel event.
    "flush_edges": {
        "comparison.csv": "82c873ca04efdba014b19da241f702be4e7e50e4aa41e03869611e95595bdf7b",
        "run_summary.json": "6d08a791c6e1fe98af076b97ca265d397ad9573ba9cd597173ae3941a791ac1b",
        "timeline.csv": "a302b065d9dd2233128e598957ba6aa9d103cceb4655b8c05fae8fc52bad9b20",
        "transport.jsonl": "888df0ebb4e2b4314060824a32bfbab4722b902da42cdc2753d3314b96eaa487",
    },
    "shared_signals": {
        "comparison.csv": "24a8da70eb259b6c971d9a2f77613e6cfae3a451f22968d3f457b14619948da9",
        "run_summary.json": "61caaf3cce627896ca2d2a8d1014816b68b7a7dbc54b2a4d496574ec8d815084",
        "timeline.csv": "c3b506c7bd1e8e6105b2f854d67b3a8bb6bdfd663eb8ef493fa3f9d9f322fd2a",
        "transport.jsonl": "1be1a25ab1e21043f9b1d0fe12ea8ac5fa794b6d603539a9f83e35313e686657",
    },
}


def _golden_variant(name):
    """no_loss_three_routers made lossy and jittery as in criterion 6;
    drift_residual also gives each router its own drift and sync residual.
    odd_sync is drift_residual with a sync interval whose 40th sync lands
    40 ms past the horizon, inside the receipt epilogue: no sync fires
    there, so frames received after the horizon keep the 39th sync's drift.
    flush_edges has no latency and 0-2 ms of jitter, flush intervals of
    1 min, 1 s and horizon + jitter, and two thermometers on one ambient
    signal whose P0 lies below its start: it has receipts at 0 and on flush
    multiples, same-millisecond ties at one router, and drain records on
    two routers.
    shared_signals puts the meter on four overlapping step loads (one running
    past the horizon) and adds four sensors on one noisy ambient signal, two
    of them with the same P0 and dP, scored against the matched baseline on
    an error grid that does not divide the horizon."""
    doc = json.loads((SCENARIO_DIR / "no_loss_three_routers.json").read_text())
    doc["channel"] = {"loss_prob": 0.25, "latency": 50, "jitter": 15}
    if name in ("drift_residual", "odd_sync"):
        for rdef, (ppm, residual) in zip(doc["routers"], [(40.0, 12), (-25.0, -30), (7.5, 0)]):
            rdef["drift_ppm"] = ppm
            rdef["sync_residual"] = residual
    if name == "odd_sync":
        doc["sync_interval"] = 2_160_001
    if name == "flush_edges":
        doc["channel"] = {"loss_prob": 0.25, "latency": 0, "jitter": 2}
        for rdef, interval in zip(doc["routers"], [60_000, 1_000, 86_400_002]):
            rdef["flush_interval"] = interval
        doc["signals"].append(
            {"id": "air", "kind": "ambient", "unit": "degC", "mean": 21.0, "amplitude": 2.5,
             "phase": 3_600_000, "noise_sigma": 0.05, "noise_step": 300_000}
        )
        for sensor_id in (11, 12):
            doc["sensors"].append(
                {"sensor_id": sensor_id, "parameter": "temperature", "unit": "degC", "dP": 0.25, "P0": 19.0,
                 "mode": "BIDIRECTIONAL", "status_interval": 3_600_000, "signal": "air", "location": "room"}
            )
        doc["coverage"].update({"11": [1, 2], "12": [2, 3]})
    if name == "shared_signals":
        hour = 3_600_000
        loads = [
            (6 * hour, 9 * hour, 1.5),
            (7 * hour + 1_234, 8 * hour, 2.25),
            (8 * hour - 77, 12 * hour, 0.7),
            (20 * hour, 30 * hour, 1.1),  # runs past the 24 h horizon
        ]
        doc["signals"] = [
            {"id": "house_meter", "kind": "cumulative", "unit": "kWh", "base_rate_per_hour": 0.2,
             "intervals": [{"start": s, "end": e, "rate_per_hour": r} for s, e, r in loads]},
            {"id": "air", "kind": "ambient", "unit": "degC", "mean": 21.0, "amplitude": 2.5,
             "phase": hour, "noise_sigma": 0.08, "noise_step": 300_000},
        ]
        doc["sensors"][0]["dP"] = 0.25
        for sensor_id, dp in [(11, 0.2), (12, 0.2), (13, 0.35), (14, 0.5)]:
            doc["sensors"].append(
                {"sensor_id": sensor_id, "parameter": "temperature", "unit": "degC", "dP": dp, "P0": 21.0,
                 "mode": "BIDIRECTIONAL", "status_interval": hour, "signal": "air", "location": "room"}
            )
        doc["coverage"] = {"7": [1, 2, 3], "11": [1, 2], "12": [2, 3], "13": [3], "14": [1, 3]}
        doc["baseline"] = {"enabled": True, "dt": "matched"}
        doc["error_grid"] = 70_000
    return scenario.validate(doc)


@pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUT_DIGESTS))
def test_outputs_match_golden_digests(name, tmp_path):
    paths = runner.write_outputs(runner.run_scenario(_golden_variant(name)), tmp_path)
    digests = {f: hashlib.sha256(path.read_bytes()).hexdigest() for f, path in paths.items()}
    assert digests == GOLDEN_OUTPUT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUT_DIGESTS))
def test_golden_corrected_times_stay_within_the_drift_and_jitter_bound(name, monkeypatch):
    sc = _golden_variant(name)
    errors = corrected_time_errors(sc, monkeypatch)
    assert errors and not outside_time_error_bound(sc, errors)


# sha256 of repr() of the answers to _series_windows on two golden runs,
# recorded while series() still called reconstruct() once per grid point.
GOLDEN_SERIES_DIGESTS = {
    "lossy_jittery": "7ba642620048d9f4d9b1d6180273259b6c304ffee2bcd22475e38aa065cc2674",
    "shared_signals": "1ecd6b2907e0fe8ddfdfc011ae2de97e1d6124c9bc04484affec7b96545ef528",
}


def _series_windows(center, sc, seed):
    """20 seeded (sensor_id, t0, t1, step) windows: some start before the
    run or end past it, some hold one point, some steps are not integers,
    and every other window's grid lands exactly on a timeline entry."""
    rng = random.Random(seed)
    ids = sorted(d.sensor_id for d in sc.sensors)
    hour = 3_600_000
    windows = []
    for i in range(20):
        sensor_id = rng.choice(ids)
        step = rng.choice((1, 1_000, 60_000, 70_000, 59_999.5, 7 * hour))
        t0 = rng.randrange(-hour, sc.horizon + hour)
        if i % 2 and isinstance(step, int):
            entry = rng.choice(center.timeline(sensor_id))
            t0 = entry.estimated_event_time - step * rng.randrange(0, 4)
        t1 = t0 + (0 if rng.random() < 0.15 else rng.randrange(0, 6 * hour))
        if step == 1:
            t1 = min(t1, t0 + 5_000)
        windows.append((sensor_id, t0, t1, step))
    return windows


@pytest.mark.parametrize("name", sorted(GOLDEN_SERIES_DIGESTS))
def test_series_answers_match_golden_digests(name):
    sc = _golden_variant(name)
    center = runner.run_scenario(sc).center
    answers = [center.series(*window) for window in _series_windows(center, sc, f"{name}:series")]
    assert hashlib.sha256(repr(answers).encode()).hexdigest() == GOLDEN_SERIES_DIGESTS[name]


def test_written_files_match_json_and_csv_encoders_on_edge_values(tmp_path):
    """transport.jsonl and timeline.csv are formatted by hand; they must be
    byte-equal to json.dumps(row, separators=(", ", ": ")) and csv.writer."""
    center = MonitoringCenter(nominal_latency=50)
    center.register_router(0, sync_residual=10**6)  # corrected times go negative
    center.register_router(2**32 - 1, sync_residual=-5)
    sensors = [(0, 1e-05, 0.0), (7, 1.0, 1e16), (2**32 - 1, 0.1, 0.0)]
    for sensor_id, dp, p0 in sensors:
        center.register_sensor(
            SensorDescriptor(sensor_id, "p", "u", dp, p0, SensorMode.BIDIRECTIONAL, 60_000)
        )
    frames = [
        (MsgType.EVENT, 0, 1, 1),  # value 1e-05
        (MsgType.STATUS, 0, 2, 0),
        (MsgType.EVENT, 7, 1, 0),  # value 1e+16
        (MsgType.EVENT, 7, 3, -(2**31)),
        (MsgType.EVENT, 2**32 - 1, 5, -3),  # value -0.30000000000000004
        (MsgType.STATUS, 2**32 - 1, 2**32 - 1, 2**31 - 1),
    ]
    times = [-30, 0, 2**64 - 1]
    records = [
        ForwardedRecord(router_id, pi_protocol.encode(PiFrame(*frame)), t)
        for frame in frames
        for router_id in (0, 2**32 - 1)
        for t in times
    ]
    records.append(ForwardedRecord(0, b"\x00\xff", -1))  # malformed bytes are logged as they came
    for rec in records:
        center.ingest(rec)
    result = _center_result(center, records)
    paths = runner.write_outputs(result, tmp_path)

    lines = paths["transport.jsonl"].read_bytes().split(b"\n")
    assert lines.pop() == b""
    assert len(lines) == len(result.transport_rows)
    for line, row in zip(lines, result.transport_rows):
        assert line.decode() == json.dumps(row, separators=(", ", ": "))
        assert json.loads(line) == row

    rows = center.timeline_rows()
    assert any(row[3] < 0 for row in rows)
    assert {1e-05, -0.30000000000000004, 1e16} <= {row[5] for row in rows}
    assert paths["timeline.csv"].read_bytes() == _typed_timeline_csv(center)


def _center_result(center, records):
    """A RunResult that writes `center` and logs `records` as transported."""
    transport_rows = [
        {
            "router_id": rec.router_id,
            "local_receipt_time_ms": rec.local_receipt_time,
            "frame_hex": rec.frame_bytes.hex(),
        }
        for rec in records
    ]
    return runner.RunResult(
        scenario=None,
        seed=0,
        counters=dict.fromkeys(runner.RUN_SUMMARY_KEYS, 0),
        center=center,
        signals={},
        sensor_states={},
        router_states={},
        transport_rows=transport_rows,
    )


def _typed_timeline_csv(center) -> bytes:
    """csv.writer over the header and timeline_rows(): what timeline.csv must hold."""
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(TIMELINE_CSV_COLUMNS)
    writer.writerows(center.timeline_rows())
    return expected.getvalue().encode()


def _frame_record(sensor_id, seq_no, level, t, msg_type=MsgType.EVENT):
    return ForwardedRecord(1, pi_protocol.encode(PiFrame(msg_type, sensor_id, seq_no, level)), t)


def test_timeline_csv_memo_is_per_sensor_and_matches_the_typed_rows(tmp_path):
    """Sensors 1 and 2 receive the same frames but have their own P0 and dP,
    so a memo shared between sensors writes one's value or uncertainty in
    the other's rows. Their levels go negative, seq 0 comes first (gap 0),
    gaps exceed 1, and seq 9 sorts before seq 4 by time (gap 4 - 9 < 0).
    Sensor 3 has more distinct levels and gaps than a memo holds, and
    returns to levels and gaps after its memos start over."""
    center = MonitoringCenter(nominal_latency=0)
    center.register_router(1)
    for sensor_id, dp, p0 in ((1, 0.5, 0.0), (2, 0.25, 10.0), (3, 0.1, -3.0)):
        center.register_sensor(SensorDescriptor(sensor_id, "p", "u", dp, p0, SensorMode.BIDIRECTIONAL, 60_000))
    frames = [(0, 0, 100), (1, 1, 200), (4, -2, 300), (9, 1, 250), (5, -2, 400), (6, -3, 500), (8, -3, 600), (10, 1, 700)]
    records = [
        _frame_record(sensor_id, seq_no, level, t, MsgType.STATUS if seq_no % 4 == 0 else MsgType.EVENT)
        for sensor_id in (1, 2)
        for seq_no, level, t in frames
    ]
    seq_no = 0
    for k in range(3 * _MEMO_SIZE):
        seq_no += k % (_MEMO_SIZE + 100) + 1
        records.append(_frame_record(3, seq_no, k % (_MEMO_SIZE + 50) - 300, 1_000 + 10 * k))
    for rec in records:
        center.ingest(rec)
    assert center.counters["accepted"] == len(records)
    rows = center.timeline_rows()
    assert [row[1] for row in rows if row[0] == 1] == [0, 1, 9, 4, 5, 6, 8, 10]
    assert len({row[4] for row in rows if row[0] == 3}) > _MEMO_SIZE

    path = runner.write_outputs(_center_result(center, records), tmp_path)["timeline.csv"]
    assert path.read_bytes() == _typed_timeline_csv(center)


@pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUT_DIGESTS))
def test_golden_timeline_csv_equals_csv_writer_over_the_typed_rows(name, tmp_path):
    result = runner.run_scenario(_golden_variant(name))
    path = runner.write_outputs(result, tmp_path)["timeline.csv"]
    assert path.read_bytes() == _typed_timeline_csv(result.center)


def test_write_outputs_streams_the_large_files(tmp_path):
    """With 30 000 accepted entries, the memory write_outputs allocates at
    its peak stays under a quarter of timeline.csv's size: neither large
    file is built whole in memory (a timeline_rows() list alone is about
    three times the file). Meter 1's levels never repeat, so its memos
    start over again and again."""
    center = MonitoringCenter(nominal_latency=0)
    center.register_router(1)
    center.register_sensor(SensorDescriptor(1, "p", "u", 0.001, 0.0, SensorMode.MONOTONIC, 60_000))
    center.register_sensor(SensorDescriptor(2, "p", "u", 0.25, 20.0, SensorMode.BIDIRECTIONAL, 60_000))
    rng = random.Random(20_000)
    records = []
    seq_no = 0
    for _ in range(24_000):
        seq_no += rng.choice((1, 1, 2, 3))
        records.append(_frame_record(1, seq_no, seq_no, 1_000 * seq_no))
    level = 0
    for seq_no in range(1, 6_001):
        level += rng.choice((-1, 1))
        records.append(_frame_record(2, seq_no, level, 3_000 * seq_no + rng.randrange(3_000)))
    for rec in records:
        center.ingest(rec)
    assert center.counters["accepted"] == 30_000
    result = _center_result(center, records)

    tracemalloc.start()
    try:
        paths = runner.write_outputs(result, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = paths["timeline.csv"].stat().st_size
    assert peak < size / 4, (peak, size)
    assert paths["timeline.csv"].read_bytes() == _typed_timeline_csv(center)


def test_center_result_does_not_depend_on_arrival_order():
    sc = _golden_variant("drift_residual")
    result = runner.run_scenario(sc)
    records = [
        ForwardedRecord(row["router_id"], bytes.fromhex(row["frame_hex"]), row["local_receipt_time_ms"])
        for row in result.transport_rows
    ]
    late = {d.sensor_id for d in sc.sensors[::2]}
    expected = {key: result.center.counters[key] for key in ("accepted", "deduped", "malformed")}
    assert expected["deduped"] > 0
    for seed in range(3):
        random.Random(seed).shuffle(records)
        center = MonitoringCenter(nominal_latency=sc.channel.latency)
        for rdef in sc.routers:
            center.register_router(rdef.router_id, rdef.location, rdef.sync_residual)
        for descriptor in sc.sensors:
            if descriptor.sensor_id not in late:
                center.register_sensor(descriptor)
        for rec in records:
            center.ingest(rec)
        assert center.counters["quarantined"] > 0
        for descriptor in sc.sensors:
            if descriptor.sensor_id in late:
                center.register_sensor(descriptor)
        assert center.timeline_rows() == result.center.timeline_rows()
        assert {key: center.counters[key] for key in expected} == expected
        assert center.counters["quarantined"] == 0


# ------------------------------------------------------------------- cli


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_cli_validate_ok(path, capsys):
    assert cli.main(["validate", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"ok: {path.stem}" in out


def test_cli_validate_reports_errors(tmp_path, capsys):
    doc = minimal_config()
    doc["sensors"][0]["dP"] = 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "dP must be positive" in err


def test_cli_run_reports_level_out_of_range(tmp_path, capsys):
    doc = json.loads((SCENARIO_DIR / "burst_day.json").read_text())
    doc["sensors"][0]["P0"] = 1e20
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: value 0.0 at t=0 is 2**31 or more quanta")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_cli_run_of_a_flat_signal_far_from_zero_sends_status_frames_only(tmp_path, capsys):
    # 1e12 is 1e13 quanta of dP 0.1 from 0: an uncapped grid slack there is
    # wider than a quantum, and the crossing search divided by zero.
    doc = minimal_config(
        horizon=1_000,
        signals=[{"id": "s", "kind": "ambient", "unit": "hPa", "mean": 1e12, "amplitude": 0.0}],
    )
    doc["sensors"][0].update(
        parameter="pressure", unit="hPa", dP=0.1, P0=1e12, mode="BIDIRECTIONAL", status_interval=250
    )
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    with (tmp_path / "out" / "timeline.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["msg_type"], row["estimated_event_time_ms"], row["level_index"]) for row in rows] == [
        ("STATUS", str(t), "0") for t in (250, 500, 750, 1000)
    ]


@pytest.mark.parametrize(
    "data",
    [b'{"scenario_id": "caf\xe9"}', b"[" * 100_000, b'{"seed": ' + b"1" * 5_000 + b"}"],
    ids=["not_utf8", "too_deep", "integer_too_long"],
)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_reports_unparseable_config(command, data, tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_bytes(data)
    assert cli.main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: <document>: invalid JSON: ")
    assert err.count("\n") == 1


def test_cli_validate_missing_file(capsys):
    assert cli.main(["validate", "--config", "/nonexistent/nope.json"]) == 1


def test_cli_validate_rejects_a_document_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "array.json"
    path.write_text("[1, 2]")
    assert cli.main(["validate", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: <document>: config must be a JSON object\n"
    assert captured.out == ""


def test_cli_run_reports_an_output_path_it_cannot_write(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    assert cli.main(["run", "--config", str(SCENARIO_DIR / "quiet_day.json"), "--out", str(taken)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: writing outputs: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert taken.read_text() == "not a directory"


def test_python_dash_m_asmisim_runs_the_cli():
    src = Path(cli.__file__).resolve().parent.parent
    completed = subprocess.run(
        [sys.executable, "-m", "asmisim", "validate", "--config", str(SCENARIO_DIR / "quiet_day.json")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.startswith("ok: quiet_day: ")


def test_cli_run_reports_invalid_config_like_validate(tmp_path, capsys):
    doc = minimal_config()
    doc["sensors"][0]["dP"] = 0
    doc["horizon"] = 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", "--config", str(path)]) == 1
    validate_err = capsys.readouterr().err
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == validate_err
    assert "error: sensors[0].dP: dP must be positive" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_cli_run_and_report(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = cli.main(
        ["run", "--config", str(SCENARIO_DIR / "quiet_day.json"), "--out", str(out_dir)]
    )
    assert code == 0
    for name in ("timeline.csv", "transport.jsonl", "comparison.csv", "run_summary.json"):
        assert (out_dir / name).is_file()
    run_out = capsys.readouterr().out
    assert "emitted: 8" in run_out

    assert cli.main(["report", "--out", str(out_dir)]) == 0
    report_out = capsys.readouterr().out
    assert "ASMI events 0" in report_out  # quiet day: heartbeats only
    assert "ASMI" in report_out and "AMI" in report_out


def test_cli_report_missing_outputs(tmp_path, capsys):
    assert cli.main(["report", "--out", str(tmp_path)]) == 1
    assert "no run outputs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, damage, message",
    [
        ("comparison.csv", lambda text: text.replace(",sup,", ",sip,", 1), "KeyError: 'sup'"),
        ("run_summary.json", lambda text: "{not json", "JSONDecodeError"),
    ],
    ids=["renamed_sup_header", "summary_not_json"],
)
def test_cli_report_damaged_outputs(name, damage, message, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--config", str(SCENARIO_DIR / "quiet_day.json"), "--out", str(out_dir)]) == 0
    path = out_dir / name
    path.write_text(damage(path.read_text()))
    capsys.readouterr()
    assert cli.main(["report", "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: damaged {path}: ") and message in captured.err


def test_cli_run_seed_override(tmp_path, capsys):
    out_dir = tmp_path / "seeded"
    code = cli.main(
        [
            "run",
            "--config",
            str(SCENARIO_DIR / "quiet_day.json"),
            "--out",
            str(out_dir),
            "--seed",
            "99",
        ]
    )
    assert code == 0
    assert "seed 99" in capsys.readouterr().out


@pytest.mark.parametrize("seed, code", [(-1, 1), (2**64, 1), (2**64 - 1, 0)], ids=["-1", "2**64", "2**64-1"])
def test_cli_run_seed_must_be_an_unsigned_64_bit_integer(seed, code, tmp_path, capsys):
    out_dir = tmp_path / "seeded"
    argv = ["run", "--config", str(SCENARIO_DIR / "quiet_day.json"), "--out", str(out_dir), "--seed", str(seed)]
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err == f"error: --seed must be an integer in [0, 2**64-1], got {seed}\n"
        assert not out_dir.exists()
    else:
        assert f"(seed {seed}) complete" in captured.out


def test_cli_run_reports_a_frame_the_wire_cannot_carry(monkeypatch, tmp_path, capsys):
    """seq_no is unsigned 32-bit on the wire: a sensor one frame short of
    wrapping makes encode refuse its next frame."""
    new_state = sensor.new_state

    def one_short_of_wrapping(descriptor):
        state = new_state(descriptor)
        state.seq_no = 2**32 - 1
        return state

    monkeypatch.setattr(sensor, "new_state", one_short_of_wrapping)
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--config", str(SCENARIO_DIR / "quiet_day.json"), "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: sensor_id ")
    assert "seq_no 4294967296" in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out_dir.exists()


def test_cli_run_writes_timeline_matching_center_export(tmp_path):
    out_dir = tmp_path / "x"
    cli.main(["run", "--config", str(SCENARIO_DIR / "burst_day.json"), "--out", str(out_dir)])
    with (out_dir / "timeline.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    sc = scenario.load(SCENARIO_DIR / "burst_day.json")
    result = runner.run_scenario(sc)
    expected = result.center.timeline_rows()
    assert len(rows) == len(expected)
    assert [int(r["seq_no"]) for r in rows] == [e[1] for e in expected]
    assert [r["msg_type"] for r in rows] == [e[2] for e in expected]
