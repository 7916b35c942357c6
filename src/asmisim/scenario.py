"""Scenario configuration: JSON document -> validated Scenario.

Validation is all-at-once: every problem in the document is reported with
its field path in a single pass, so a batch user fixes a config in one
round trip instead of replaying the simulator error by error.

Each kind of value has one check: an integer in [lo, hi] (hi is the
simkernel's MAX_SIMTIME unless a field says otherwise), a finite number in
[lo, hi], a string, a list of objects. NaN or a time past MAX_SIMTIME
never gets past load.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .baseline import DEFAULT_ERROR_GRID
from .radio import DEFAULT_LATENCY, ChannelSpec, CoverageMap
from .router import DEFAULT_FLUSH_INTERVAL, DEFAULT_SYNC_INTERVAL
from .sensor import SensorDescriptor, SensorMode
from .signalgen import DAY_MS, DEFAULT_NOISE_STEP, DiurnalSpec, LoadInterval, StepLoadSpec
from .simkernel import MAX_GRID_POINTS, MAX_SIMTIME

MAX_SEED = 2**64 - 1
MAX_SENSOR_ID = 2**32 - 1
# A clock that gains or loses more than a second per second is not a clock;
# the bound also keeps drift_ppm * elapsed time finite for any SimTime.
MAX_DRIFT_PPM = 1_000_000
# |P0| must stay under MAX_P0_QUANTA quanta of dP. The solve walks grid lines
# P0 + k*dP only within 2**31 quanta of P0 (LevelOutOfRange beyond), so every
# line a run reaches lies under about 2**49 quanta from 0. A double rounds
# each of the sum and the slack step there by at most 2**-53 of that, dP/16,
# so a threshold sits within about dP/8 of its place and two neighbouring ones
# keep dP/4 of the dP/2 gap that signalgen's dP/4 slack cap leaves: a value
# that leaves one line lands strictly inside the next (signalgen._thresholds).
# At 2**50 quanta the rounding can close the gap: a flat signal at 1e16 with
# dP 0.1 divided by zero in the crossing search, and frame counts drift.
MAX_P0_QUANTA = 2**49


class ScenarioValidationError(Exception):
    """Carries every (path, message) pair found in one validation pass."""

    def __init__(self, errors: list[tuple[str, str]]):
        self.errors = errors
        lines = "; ".join(f"{path}: {message}" for path, message in errors)
        super().__init__(f"{len(errors)} validation error(s): {lines}")


@dataclass(frozen=True)
class SignalDef:
    signal_id: str
    unit: str
    spec: StepLoadSpec | DiurnalSpec


@dataclass(frozen=True)
class RouterDef:
    router_id: int
    location: str = ""
    flush_interval: int = DEFAULT_FLUSH_INTERVAL
    drift_ppm: float = 0.0
    sync_residual: int = 0


@dataclass(frozen=True)
class BaselineDef:
    enabled: bool = False
    dt: int | str = "matched"  # positive ms or the literal "matched"


@dataclass
class Scenario:
    scenario_id: str
    seed: int
    horizon: int
    signals: dict[str, SignalDef]
    sensors: list[SensorDescriptor]
    sensor_locations: dict[int, str]
    routers: list[RouterDef]
    coverage: CoverageMap
    channel: ChannelSpec
    sync_interval: int = DEFAULT_SYNC_INTERVAL
    baseline: BaselineDef = field(default_factory=BaselineDef)
    error_grid: int = DEFAULT_ERROR_GRID
    outputs: str = "out"


POSITIVE_MS = "must be a positive integer (milliseconds)"
NON_NEGATIVE_MS = "must be a non-negative integer (milliseconds)"
ANY_MS = "must be an integer (milliseconds)"
NON_NEGATIVE_NUMBER = "must be a non-negative number"
DRIFT_RANGE = "must be a number in [-1e6, 1e6] (ppm)"

# Bounds are inclusive. The float range rejects NaN, the infinities and integers
# too large for a float; the least float above zero makes "at or above" mean "above".
FLOAT_MAX = sys.float_info.max
ABOVE_ZERO = math.ulp(0.0)

Errors = list[tuple[str, str]]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _fail(errors: Errors, where: str, key: str, message: str) -> None:
    errors.append((f"{where}.{key}" if where else key, message))


def _int(
    errors: Errors, raw: dict, where: str, key: str, default, message: str, lo=0, hi=MAX_SIMTIME
) -> int | None:
    """raw[key] if it is an integer in [lo, hi], else record message and return None."""
    value = raw.get(key, default)
    if isinstance(value, int) and not isinstance(value, bool) and lo <= value <= hi:
        return value
    _fail(errors, where, key, message)
    return None


def _num(
    errors: Errors, raw: dict, where: str, key: str, default, message: str, lo=-FLOAT_MAX, hi=FLOAT_MAX
) -> float | None:
    """raw[key] as a float if it is a finite number in [lo, hi], else record message and return None."""
    value = raw.get(key, default)
    if (isinstance(value, float) or _is_int(value)) and lo <= value <= hi:
        return float(value)
    _fail(errors, where, key, message)
    return None


def _text(errors: Errors, raw: dict, where: str, key: str, default, message: str, min_len=1) -> str | None:
    value = raw.get(key, default)
    if isinstance(value, str) and len(value) >= min_len:
        return value
    _fail(errors, where, key, message)
    return None


def _objects(errors: Errors, raw: dict, where: str, key: str, required: bool = True):
    """Yield (path, object) for each object in the list raw[key]; record any other item.

    A required list must be present and non-empty; an optional one defaults to empty.
    """
    items = raw.get(key, None if required else [])
    if not isinstance(items, list) or (required and not items):
        _fail(errors, where, key, "must be a non-empty list" if required else "must be a list")
        return
    for i, item in enumerate(items):
        path = f"{where}.{key}[{i}]" if where else f"{key}[{i}]"
        if isinstance(item, dict):
            yield path, item
        else:
            errors.append((path, "must be an object"))


def _object(errors: Errors, doc: dict, key: str) -> dict:
    """The optional object doc[key]; an absent or invalid one reads as empty."""
    value = doc.get(key, {})
    if isinstance(value, dict):
        return value
    errors.append((key, "must be an object"))
    return {}


def _bound(errors: Errors, where: str, key: str, count: int, what: str) -> None:
    """Record key when the count of entries it gives over the horizon passes MAX_GRID_POINTS."""
    if count > MAX_GRID_POINTS:
        _fail(errors, where, key, f"must give at most {MAX_GRID_POINTS} {what} over the horizon, not {count}")


def _signal(errors: Errors, path: str, raw: dict, sid: str, unit: str, horizon: int | None) -> SignalDef | None:
    """One signal's definition; None when its kind or spec is unusable."""
    kind = raw.get("kind")
    if kind == "cumulative":
        base = _num(errors, raw, path, "base_rate_per_hour", 0, NON_NEGATIVE_NUMBER, lo=0)
        intervals = []
        for ipath, iv in _objects(errors, raw, path, "intervals", required=False):
            start = _int(errors, iv, ipath, "start", None, "must be a non-negative integer")
            end_lo = -MAX_SIMTIME if start is None else start + 1
            end = _int(errors, iv, ipath, "end", None, "must be an integer greater than start", lo=end_lo)
            rate = _num(errors, iv, ipath, "rate_per_hour", None, NON_NEGATIVE_NUMBER, lo=0)
            if None not in (start, end, rate):
                intervals.append(LoadInterval(start, end, rate))
        # A cumulative signal stays known to its sensors even when its rates
        # are invalid, so one bad rate does not also fail every sensor on it.
        spec = StepLoadSpec(0.0 if base is None else base, tuple(intervals))
        return SignalDef(sid, unit, spec)
    if kind == "ambient":
        values = (
            _num(errors, raw, path, "mean", 0.0, "must be a number"),
            _num(errors, raw, path, "amplitude", 0.0, "must be a number"),
            _int(errors, raw, path, "period", DAY_MS, POSITIVE_MS, lo=1),
            _int(errors, raw, path, "phase", 0, ANY_MS, lo=-MAX_SIMTIME),
            _num(errors, raw, path, "noise_sigma", 0.0, NON_NEGATIVE_NUMBER, lo=0),
            _int(errors, raw, path, "noise_step", DEFAULT_NOISE_STEP, POSITIVE_MS, lo=1),
        )
        if None in values:
            return None
        spec = DiurnalSpec(*values)
        if horizon is not None:
            _bound(errors, path, "period", 2 * horizon // spec.period, "half-periods")
            _bound(errors, path, "noise_step", horizon // spec.noise_step, "noise ticks")
        return SignalDef(sid, unit, spec)
    _fail(errors, path, "kind", "must be 'cumulative' or 'ambient'")
    return None


def validate(doc: dict) -> Scenario:
    """Check a parsed config document; raises ScenarioValidationError."""
    if not isinstance(doc, dict):
        raise ScenarioValidationError([("", "config must be a JSON object")])
    errors: Errors = []

    scenario_id = _text(errors, doc, "", "scenario_id", "scenario", "must be a non-empty string")
    seed = _int(errors, doc, "", "seed", 0, "must be an unsigned 64-bit integer", hi=MAX_SEED)
    horizon = _int(errors, doc, "", "horizon", None, POSITIVE_MS, lo=1)

    signals: dict[str, SignalDef] = {}
    for path, raw in _objects(errors, doc, "", "signals"):
        sid = _text(errors, raw, path, "id", None, "must be a non-empty string")
        if sid is None:
            continue
        if sid in signals:
            _fail(errors, path, "id", f"duplicate signal id {sid!r}")
            continue
        unit = _text(errors, raw, path, "unit", "", "must be a string", min_len=0)
        sdef = _signal(errors, path, raw, sid, unit or "", horizon)
        if sdef is not None:
            signals[sid] = sdef

    sensors: list[SensorDescriptor] = []
    sensor_locations: dict[int, str] = {}
    for path, raw in _objects(errors, doc, "", "sensors"):
        sensor_id = _int(
            errors, raw, path, "sensor_id", None, "must be an unsigned 32-bit integer", hi=MAX_SENSOR_ID
        )
        if sensor_id in sensor_locations:
            _fail(errors, path, "sensor_id", f"duplicate sensor id {sensor_id}")
            sensor_id = None
        dp = _num(errors, raw, path, "dP", None, "dP must be positive", lo=ABOVE_ZERO)
        p0 = _num(errors, raw, path, "P0", 0.0, "must be a number")
        if None not in (dp, p0) and abs(p0) >= MAX_P0_QUANTA * dp:
            _fail(errors, path, "P0", "|P0| must be under 2**49 quanta of dP")
            p0 = None
        mode = SensorMode(raw["mode"]) if raw.get("mode") in ("MONOTONIC", "BIDIRECTIONAL") else None
        if mode is None:
            _fail(errors, path, "mode", "must be 'MONOTONIC' or 'BIDIRECTIONAL'")
        status_interval = _int(errors, raw, path, "status_interval", None, POSITIVE_MS, lo=1)
        if None not in (horizon, status_interval):
            _bound(errors, path, "status_interval", horizon // status_interval, "status frames")
        signal_ref = raw.get("signal")
        if not isinstance(signal_ref, str) or signal_ref not in signals:
            _fail(errors, path, "signal", f"unknown signal id {signal_ref!r}")
            signal_ref = None
        elif mode is SensorMode.MONOTONIC and type(signals[signal_ref].spec) is not StepLoadSpec:
            _fail(errors, path, "mode", "MONOTONIC requires a cumulative signal")
            mode = None
        if None in (sensor_id, dp, p0, mode, status_interval, signal_ref):
            continue
        sensors.append(
            SensorDescriptor(
                sensor_id=sensor_id,
                parameter=str(raw.get("parameter", "")),
                unit=str(raw.get("unit", "")),
                dp=dp,
                p0=p0,
                mode=mode,
                status_interval=status_interval,
                signal_id=signal_ref,
            )
        )
        sensor_locations[sensor_id] = str(raw.get("location", ""))

    routers: dict[int, RouterDef] = {}
    for path, raw in _objects(errors, doc, "", "routers"):
        router_id = _int(errors, raw, path, "id", None, "must be a non-negative integer")
        if router_id in routers:
            _fail(errors, path, "id", f"duplicate router id {router_id}")
            router_id = None
        flush_interval = _int(errors, raw, path, "flush_interval", DEFAULT_FLUSH_INTERVAL, POSITIVE_MS, lo=1)
        drift_ppm = _num(
            errors, raw, path, "drift_ppm", 0.0, DRIFT_RANGE, lo=-MAX_DRIFT_PPM, hi=MAX_DRIFT_PPM
        )
        sync_residual = _int(errors, raw, path, "sync_residual", 0, ANY_MS, lo=-MAX_SIMTIME)
        if None not in (router_id, flush_interval, drift_ppm, sync_residual):
            routers[router_id] = RouterDef(
                router_id, str(raw.get("location", "")), flush_interval, drift_ppm, sync_residual
            )

    coverage_raw = doc.get("coverage")
    covering: dict[int, list[int]] = {}
    if not isinstance(coverage_raw, dict):
        errors.append(("coverage", "must be an object mapping sensor id to router id list"))
        coverage_raw = {}
    for key, val in sorted(coverage_raw.items()):
        path = f"coverage.{key}"
        try:
            sensor_id = int(key)
        except (TypeError, ValueError):
            sensor_id = None
        if sensor_id is None or str(sensor_id) != key:  # int() also reads "07", " 7", "+7", "7_0"
            errors.append((path, "key must be a sensor id"))
            continue
        if sensor_id not in sensor_locations:
            errors.append((path, f"unknown sensor id {sensor_id}"))
            continue
        if not isinstance(val, list) or not val:
            errors.append((path, "must be a non-empty list of router ids"))
            continue
        unknown = [rid for rid in val if not _is_int(rid) or rid not in routers]
        errors.extend((path, f"unknown router id {rid}") for rid in unknown)
        if not unknown:
            covering[sensor_id] = val
    for sensor_id in sorted(sensor_locations):
        if str(sensor_id) not in coverage_raw:
            errors.append((f"coverage.{sensor_id}", "sensor has no covering router"))

    channel_raw = _object(errors, doc, "channel")
    loss_prob = _num(
        errors, channel_raw, "channel", "loss_prob", 0.0, "must be a probability in [0, 1]", lo=0, hi=1
    )
    latency = _int(errors, channel_raw, "channel", "latency", DEFAULT_LATENCY, NON_NEGATIVE_MS)
    jitter = _int(errors, channel_raw, "channel", "jitter", 0, NON_NEGATIVE_MS)
    sync_interval = _int(errors, doc, "", "sync_interval", DEFAULT_SYNC_INTERVAL, POSITIVE_MS, lo=1)
    error_grid = _int(errors, doc, "", "error_grid", DEFAULT_ERROR_GRID, POSITIVE_MS, lo=1)
    if None not in (horizon, error_grid):
        _bound(errors, "", "error_grid", horizon // error_grid + 1, "grid points")

    baseline_raw = _object(errors, doc, "baseline")
    enabled = baseline_raw.get("enabled", False)
    if not isinstance(enabled, bool):
        errors.append(("baseline.enabled", "must be a boolean"))
    dt = baseline_raw.get("dt", "matched")
    if dt != "matched":
        dt = _int(errors, baseline_raw, "baseline", "dt", None, POSITIVE_MS + " or 'matched'", lo=1)
        if None not in (horizon, dt):
            _bound(errors, "baseline", "dt", horizon // dt, "polls")

    outputs = _text(errors, doc, "", "outputs", "out", "must be a non-empty string (directory path)")

    # Every receipt time a router files and stamps must stay inside
    # MAX_SIMTIME; the last is at horizon + latency + jitter.
    times = (horizon, latency, jitter)
    if None not in times and sum(times) > MAX_SIMTIME:
        errors.append(("horizon", "plus channel.latency and channel.jitter must be at most 2**64-1"))

    if errors:
        raise ScenarioValidationError(errors)

    return Scenario(
        scenario_id=scenario_id,
        seed=seed,
        horizon=horizon,
        signals=signals,
        sensors=sensors,
        sensor_locations=sensor_locations,
        routers=list(routers.values()),
        coverage=CoverageMap.from_dict(covering),
        channel=ChannelSpec(loss_prob=loss_prob, latency=latency, jitter=jitter),
        sync_interval=sync_interval,
        baseline=BaselineDef(enabled=enabled, dt=dt),
        error_grid=error_grid,
        outputs=outputs,
    )


def load(path: str | Path) -> Scenario:
    """Parse and validate a JSON scenario file."""
    # ValueError covers malformed JSON, non-UTF-8 bytes and over-long integer
    # literals; RecursionError covers nesting too deep for the parser.
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ScenarioValidationError([("", f"invalid JSON: {exc}")]) from exc
    scenario = validate(doc)
    if "scenario_id" not in doc:
        scenario.scenario_id = Path(path).stem
    return scenario
