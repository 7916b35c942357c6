"""Seeded workload generators.

Every draw comes from a `random.Random` seeded with the workload name and
the workload seed, so one seed always gives the same inputs. The program
only ever sees what these functions return: a scenario document (a plain
JSON object, exactly what `asmisim run --config` reads) or, for the
center-only workload, a stream of forwarded records.

The generators hold the amount of work steady across seeds on purpose:
a seed moves when and how fast things happen (load placement, router
choice, drift, loss draws), not how much energy the fleet uses or how many
frames a sensor sends. That keeps run-to-run spread a property of the
program, not of the draw.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

from asmisim.pi_protocol import MsgType, PiFrame, encode
from asmisim.router import ForwardedRecord

DAY_MS = 86_400_000
MINUTE_MS = 60_000
HOUR_MS = 3_600_000

FLEET_SENSORS = 24
HEARTBEAT_SENSORS = 6
LIVE_SENSORS = 6


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def to_bytes(doc: dict) -> bytes:
    """Canonical serialisation of a scenario document."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _routers(rng: random.Random, n: int, flush_choices: tuple[int, ...]) -> list[dict]:
    return [
        {
            "id": r,
            "location": f"mast {r}",
            "flush_interval": rng.choice(flush_choices),
            "drift_ppm": round(rng.uniform(-40.0, 40.0), 3),
            "sync_residual": rng.randint(-3, 3),
        }
        for r in range(1, n + 1)
    ]


def fleet_day(seed: int) -> dict:
    """Mixed apartment fleet over one day.

    Three quarters are MONOTONIC kWh meters, each on its own step-load
    signal; one quarter are BIDIRECTIONAL temperature sensors in one
    building, sharing its diurnal + random-walk signal, each with its own dP
    and P0. Every sensor is heard by 2 of 4 drifting routers.
    """
    rng = _rng("fleet_day", seed)
    n_temp = FLEET_SENSORS // 4
    n_meters = FLEET_SENSORS - n_temp
    n_routers = 4
    signals: list[dict] = []
    sensors: list[dict] = []
    sensor_id = 1
    for i in range(n_meters):
        # Each appliance run draws a fixed 0.6 kWh; the seed picks when it
        # starts and how long (so how hard) it runs.
        intervals = []
        for _ in range(3 + i % 4):
            length = rng.randrange(15 * MINUTE_MS, 2 * HOUR_MS)
            start = rng.randrange(0, DAY_MS - length)
            rate = round(0.6 * HOUR_MS / length, 6)
            intervals.append({"start": start, "end": start + length, "rate_per_hour": rate})
        intervals.sort(key=lambda iv: (iv["start"], iv["end"]))
        signals.append(
            {
                "id": f"load{i}",
                "kind": "cumulative",
                "unit": "kWh",
                "base_rate_per_hour": (0.02, 0.04, 0.06)[i % 3],
                "intervals": intervals,
            }
        )
        sensors.append(
            {
                "sensor_id": sensor_id,
                "parameter": "electricity",
                "unit": "kWh",
                "dP": (0.01, 0.02, 0.05)[i % 3],
                "P0": 0.0,
                "mode": "MONOTONIC",
                "status_interval": HOUR_MS,
                "signal": f"load{i}",
                "location": f"apartment {i}",
            }
        )
        sensor_id += 1
    mean = round(rng.uniform(18.0, 24.0), 3)
    amplitude = 2.0
    phase = rng.randrange(0, DAY_MS)
    signals.append(
        {
            "id": "air0",
            "kind": "ambient",
            "unit": "degC",
            "mean": mean,
            "amplitude": amplitude,
            "period": DAY_MS,
            "phase": phase,
            "noise_sigma": 0.03,
            "noise_step": MINUTE_MS,
        }
    )
    frac = ((0 - phase) % DAY_MS) / DAY_MS
    start = mean + amplitude * math.sin(2.0 * math.pi * frac)
    for j in range(n_temp):
        dp = (0.05, 0.1, 0.2, 0.25, 0.5)[j % 5]
        # P0 sits just below the signal's starting value, so the sensor
        # starts on the grid instead of emitting a burst at t = 0.
        p0 = round(start - rng.uniform(0.1, 0.9) * dp, 6)
        sensors.append(
            {
                "sensor_id": sensor_id,
                "parameter": "temperature",
                "unit": "degC",
                "dP": dp,
                "P0": p0,
                "mode": "BIDIRECTIONAL",
                "status_interval": HOUR_MS,
                "signal": "air0",
                "location": "building 0",
            }
        )
        sensor_id += 1
    routers = _routers(rng, n_routers, (30_000, 60_000, 120_000))
    coverage = {
        str(s["sensor_id"]): sorted(rng.sample(range(1, n_routers + 1), 2)) for s in sensors
    }
    return {
        "scenario_id": f"fleet_day_{seed}",
        "seed": seed,
        "horizon": DAY_MS,
        "signals": signals,
        "sensors": sensors,
        "routers": routers,
        "coverage": coverage,
        "channel": {"loss_prob": 0.1, "latency": 50, "jitter": 20},
        "sync_interval": HOUR_MS,
        "backhaul_delay": 500,
        "baseline": {"enabled": True, "dt": "matched"},
        "error_grid": MINUTE_MS,
        "outputs": "out/fleet_day",
    }


def heartbeat_mesh(seed: int) -> dict:
    """Idle meters on constant signals: heartbeats only, no crossings.

    Every sensor sends a STATUS frame each minute, heard by 3 routers over a
    lossy, jittery channel; the polling baseline is off.
    """
    rng = _rng("heartbeat_mesh", seed)
    n_routers = 4
    signals = [{"id": "idle0", "kind": "cumulative", "unit": "kWh", "base_rate_per_hour": 0.0}]
    sensors = []
    for i in range(HEARTBEAT_SENSORS):
        dp = rng.choice((0.01, 0.05, 0.1))
        sensors.append(
            {
                "sensor_id": 1000 + i,
                "parameter": "electricity",
                "unit": "kWh",
                "dP": dp,
                # The constant reading 0 sits inside [P0, P0 + dP).
                "P0": -round(rng.uniform(0.0, 0.5) * dp, 6),
                "mode": "MONOTONIC",
                "status_interval": MINUTE_MS,
                "signal": "idle0",
                "location": "meter room 0",
            }
        )
    routers = _routers(rng, n_routers, (20_000, 45_000, 90_000))
    coverage = {
        str(s["sensor_id"]): sorted(rng.sample(range(1, n_routers + 1), 3)) for s in sensors
    }
    return {
        "scenario_id": f"heartbeat_mesh_{seed}",
        "seed": seed,
        "horizon": DAY_MS,
        "signals": signals,
        "sensors": sensors,
        "routers": routers,
        "coverage": coverage,
        "channel": {"loss_prob": 0.3, "latency": 50, "jitter": 30},
        "sync_interval": HOUR_MS,
        "backhaul_delay": 500,
        "baseline": {"enabled": False},
        "error_grid": MINUTE_MS,
        "outputs": "out/heartbeat_mesh",
    }


SCENARIO_WORKLOADS = {"fleet_day": fleet_day, "heartbeat_mesh": heartbeat_mesh}


@dataclass
class LiveStream:
    """Forwarded records in center arrival order, plus the seeded queries.

    `queries[i]` is the (sensor_id, time) query issued right after ingesting
    `records[i]` (the sensor that record came from), or None when no query
    follows that ingest. `expected` maps each sensor to the
    (seq_no, level_index) pairs the center must end up holding, in seq_no
    order: every frame that reached at least one router. `attempts` and
    `lost` count radio link draws, the transmissions that reached a router
    and those that did not.
    """

    doc: dict
    records: list[ForwardedRecord]
    queries: list[tuple[int, int] | None]
    expected: dict[int, list[tuple[int, int]]]
    attempts: int
    lost: int


LIVE_FRAMES_PER_SENSOR = 1440
LIVE_QUERY_EVERY = 16
LIVE_LOSS = 0.15
LIVE_LATENCY = 50


def live_center(seed: int) -> LiveStream:
    """A day of traffic from sensors with long timelines, as the center sees it.

    Each sensor sends 1440 frames at seeded instants (EVENTs on a +/-1 random
    walk, every 16th a STATUS), each heard by 2 of the routers with 15 % loss
    per link and 0-40 ms jitter. Routers stamp with a constant clock offset
    and hand over their buffer every flush interval; batches reach the center
    in flush order. A query follows every 16th ingest.
    """
    rng = _rng("live_center", seed)
    n_routers = 6
    routers = _routers(rng, n_routers, (30_000, 60_000, 90_000))
    sensors = []
    buffered: dict[int, list[tuple[int, bytes]]] = {r["id"]: [] for r in routers}
    expected: dict[int, list[tuple[int, int]]] = {}
    coverage: dict[str, list[int]] = {}
    attempts = lost = 0
    for i in range(LIVE_SENSORS):
        sensor_id = 500 + i
        sensors.append(
            {
                "sensor_id": sensor_id,
                "parameter": "temperature",
                "unit": "degC",
                "dP": 0.1,
                "P0": 20.0,
                "mode": "BIDIRECTIONAL",
                "status_interval": HOUR_MS,
                "signal": "ambient",
                "location": f"room {i}",
            }
        )
        heard_by = sorted(rng.sample([r["id"] for r in routers], 2))
        coverage[str(sensor_id)] = heard_by
        times = sorted(rng.sample(range(1, DAY_MS - HOUR_MS), LIVE_FRAMES_PER_SENSOR))
        level = 0
        got = []
        for seq, t in enumerate(times, start=1):
            if seq % 16 == 0:
                msg_type = MsgType.STATUS
            else:
                msg_type = MsgType.EVENT
                level += rng.choice((-1, 1))
            data = encode(PiFrame(msg_type, sensor_id, seq, level))
            heard = False
            for router_id in heard_by:
                attempts += 1
                if rng.random() < LIVE_LOSS:
                    lost += 1
                    continue
                heard = True
                buffered[router_id].append((t + LIVE_LATENCY + rng.randint(0, 40), data))
            if heard:
                got.append((seq, level))
        expected[sensor_id] = got
    # Batch each router's receipts by flush instant; center order is
    # (flush instant, router id), receipt order within a batch.
    batches = []
    for r in routers:
        interval = r["flush_interval"]
        by_flush: dict[int, list[ForwardedRecord]] = {}
        for at, data in sorted(buffered[r["id"]]):
            flush_at = (at // interval + 1) * interval
            local = at + r["sync_residual"]
            by_flush.setdefault(flush_at, []).append(ForwardedRecord(r["id"], data, local))
        batches.extend((flush_at, r["id"], batch) for flush_at, batch in by_flush.items())
    batches.sort(key=lambda b: (b[0], b[1]))
    records = [rec for _at, _rid, batch in batches for rec in batch]
    queries = [
        (int.from_bytes(rec.frame_bytes[1:5], "big"), rng.randrange(0, DAY_MS))
        if (k + 1) % LIVE_QUERY_EVERY == 0
        else None
        for k, rec in enumerate(records)
    ]
    doc = {
        "scenario_id": f"live_center_{seed}",
        "seed": seed,
        "horizon": DAY_MS,
        "signals": [{"id": "ambient", "kind": "ambient", "unit": "degC", "mean": 20.0, "amplitude": 0.0}],
        "sensors": sensors,
        "routers": routers,
        "coverage": coverage,
        "channel": {"loss_prob": LIVE_LOSS, "latency": LIVE_LATENCY, "jitter": 40},
        "baseline": {"enabled": False},
        "outputs": "out/live_center",
    }
    return LiveStream(doc, records, queries, expected, attempts, lost)
