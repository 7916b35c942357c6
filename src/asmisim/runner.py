"""End-to-end scenario execution and report/output generation.

The wiring follows the system's one-way data flow:

    signal -> sensor -> radio broadcast -> router batch -> center ingest

A sensor never receives anything, each radio loss stream belongs to one
(sensor, router) link, and a router's stamp is a function of true time, so
the run takes two passes and no event scheduler. First each sensor runs its
whole horizon (`sensor.sampling_driver`), one after another in sensor-id
order; `emit` hands each delivery to its router, which files it with its
emission time under its flush instant (`router.receive`). A batch sorts
stably by (receipt, emission), so equal receipts go by (receipt, emission,
sensor id, seq_no), as one clock over all sensors would order them. Then
every batch ships (`router.flush`) and is ingested, in (flush instant,
router id) order, the order of transport.jsonl and of center ingest; a
batch due after the last receipt, at horizon + latency + jitter, counts as
due just after it, so those come last, in router-id order. Each layer keeps
its own books: the channel counts attempts (emitted) and losses
(radio_lost), the routers receipts (delivered) and drops, the center the
rest. Nothing is in flight when the books close, so emitted = delivered +
radio_lost (radio against routers) and delivered = dropped + accepted +
deduped + quarantined + malformed (routers against center) hold exactly,
not approximately. The run also counts the batches it shipped (flushes).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

from . import baseline as ami
from . import radio, router, sensor
from .center import TIMELINE_CSV_COLUMNS, MonitoringCenter
from .pi_protocol import FRAME_LEN
from .rng import derive_seed
from .scenario import Scenario
from .sensor import SensorState
from .signalgen import Signal, value_at
from .simkernel import SimTime

COMPARISON_CSV_COLUMNS = (
    "scenario_id",
    "pipeline",
    "sensor_id",
    "sup",
    "mean",
    "rmse",
    "messages",
    "bytes",
)

RUN_SUMMARY_KEYS = ("emitted", "delivered", "deduped", "quarantined", "malformed", "dropped")

TIMELINE_FILE = "timeline.csv"
TRANSPORT_FILE = "transport.jsonl"
COMPARISON_FILE = "comparison.csv"
SUMMARY_FILE = "run_summary.json"


@dataclass
class RunResult:
    scenario: Scenario
    seed: int
    counters: dict[str, int]
    center: MonitoringCenter
    signals: dict[str, Signal]
    sensor_states: dict[int, SensorState]
    router_states: dict[int, router.RouterState]
    transport_rows: list[dict] = field(default_factory=list)
    comparison_rows: list[tuple] = field(default_factory=list)

    def summary(self) -> dict[str, int]:
        return {key: self.counters[key] for key in RUN_SUMMARY_KEYS}


def build_signals(scenario: Scenario, seed: int) -> dict[str, Signal]:
    """One Signal per definition, each on its own derived noise stream."""
    out = {}
    for signal_id, sdef in scenario.signals.items():
        out[signal_id] = Signal(
            sdef.spec, sdef.unit, derive_seed(seed, "signal", signal_id), horizon=scenario.horizon
        )
    return out


def run_scenario(scenario: Scenario, seed: int | None = None) -> RunResult:
    """Execute a validated scenario; pure function of (scenario, seed)."""
    seed = scenario.seed if seed is None else seed
    signals = build_signals(scenario, seed)
    channel = radio.Channel(spec=scenario.channel, seed=seed)

    center = MonitoringCenter(nominal_latency=scenario.channel.latency)
    router_states: dict[int, router.RouterState] = {}
    for rdef in scenario.routers:
        router_states[rdef.router_id] = router.RouterState(
            router_id=rdef.router_id,
            drift_ppm=rdef.drift_ppm,
            flush_interval=rdef.flush_interval,
            sync_residual=rdef.sync_residual,
            sync_interval=scenario.sync_interval,
            sync_until=scenario.horizon,
        )
        center.register_router(rdef.router_id, rdef.location, rdef.sync_residual)
    for descriptor in scenario.sensors:
        center.register_sensor(descriptor, scenario.sensor_locations[descriptor.sensor_id])

    spec = scenario.channel
    end_of_receipt = scenario.horizon + spec.latency + spec.jitter
    receive, flush = router.receive, router.flush
    coverage = scenario.coverage

    def emit(frame, t: SimTime) -> None:
        data = radio.frame_bytes(frame)
        for router_id, at in radio.broadcast(frame, frame.sensor_id, t, coverage, channel):
            receive(router_states[router_id], data, at, t)

    sensor_states: dict[int, SensorState] = {}
    for descriptor in sorted(scenario.sensors, key=lambda d: d.sensor_id):
        signal = signals[descriptor.signal_id]
        sensor_states[descriptor.sensor_id] = sensor.sampling_driver(descriptor, signal, emit)

    # Every batch is complete. Those due after the last receipt go last, by router id.
    batches = sorted(
        (min(due, end_of_receipt + 1), router_id, due)
        for router_id, state in router_states.items()
        for due in state.pending
    )
    transport_rows: list[dict] = []
    for _order, router_id, due in batches:
        for rec in flush(router_states[router_id], due):
            _, data, local = rec
            transport_rows.append({"router_id": router_id, "local_receipt_time_ms": local, "frame_hex": data.hex()})
            center.ingest(rec)

    counters = {
        "emitted": channel.attempts,
        "delivered": sum(s.received for s in router_states.values()),
        "radio_lost": channel.lost,
        "dropped": sum(s.dropped for s in router_states.values()),
        **center.counters,  # accepted, deduped, quarantined, malformed
        "flushes": len(batches),
    }

    result = RunResult(
        scenario=scenario,
        seed=seed,
        counters=counters,
        center=center,
        signals=signals,
        sensor_states=sensor_states,
        router_states=router_states,
        transport_rows=transport_rows,
    )
    result.comparison_rows = _comparison_rows(result)
    return result


def _comparison_rows(result: RunResult) -> list[tuple]:
    scenario = result.scenario
    grid = scenario.error_grid
    # Sensors that share a signal share its truth, so evaluate it once.
    grid_times = range(0, scenario.horizon + 1, grid)
    truths = {
        signal_id: [value_at(result.signals[signal_id], t) for t in grid_times]
        for signal_id in {d.signal_id for d in scenario.sensors}
    }
    rows = []
    for descriptor in sorted(scenario.sensors, key=lambda d: d.sensor_id):
        sensor_id = descriptor.sensor_id
        signal = result.signals[descriptor.signal_id]
        truth = truths[descriptor.signal_id]
        messages = result.sensor_states[sensor_id].seq_no
        entries = result.center.timeline(sensor_id)
        asmi_report = ami.hold_error(
            truth,
            grid,
            [e.estimated_event_time for e in entries],
            [descriptor.p0 + descriptor.dp * e.level_index for e in entries],
            descriptor.p0,
        )
        scored = [("ASMI", asmi_report, messages)]
        if scenario.baseline.enabled:
            if scenario.baseline.dt == "matched":
                dt = ami.matched_budget_interval(scenario.horizon, max(1, messages))
            else:
                dt = scenario.baseline.dt
            samples = ami.poll(signal, dt)
            ami_report = ami.hold_error(
                truth, grid, [s.t for s in samples], [s.value for s in samples], truth[0]
            )
            scored.append(("AMI", ami_report, len(samples)))
        for pipeline, report, count in scored:
            rows.append(
                (
                    scenario.scenario_id,
                    pipeline,
                    sensor_id,
                    report.sup,
                    report.mean,
                    report.rmse,
                    count,
                    count * FRAME_LEN,
                )
            )
    return rows


def write_outputs(result: RunResult, out_dir: str | Path) -> dict[str, Path]:
    """Write the four run artifacts; byte-stable for a given (scenario, seed)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}

    # The two large files are streamed line by line rather than through
    # csv / json: every timeline field is an int, a float or a bare word
    # that needs no quoting, and every transport field is an int or plain
    # hex, so these lines are byte-identical to csv.writer's (\r\n ends)
    # and to json.dumps(row, separators=(", ", ": ")). The center formats
    # its own lines (MonitoringCenter.timeline_lines).
    timeline_path = out / TIMELINE_FILE
    with timeline_path.open("w", newline="") as fh:
        fh.write(",".join(TIMELINE_CSV_COLUMNS) + "\r\n")
        fh.writelines(result.center.timeline_lines())
    paths[TIMELINE_FILE] = timeline_path

    transport_path = out / TRANSPORT_FILE
    with transport_path.open("w") as fh:
        fh.writelines(
            f'{{"router_id": {row["router_id"]}, "local_receipt_time_ms": {row["local_receipt_time_ms"]}, '
            f'"frame_hex": "{row["frame_hex"]}"}}\n'
            for row in result.transport_rows
        )
    paths[TRANSPORT_FILE] = transport_path

    comparison_path = out / COMPARISON_FILE
    with comparison_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COMPARISON_CSV_COLUMNS)
        for row in result.comparison_rows:
            writer.writerow(row)
    paths[COMPARISON_FILE] = comparison_path

    summary_path = out / SUMMARY_FILE
    summary_path.write_text(json.dumps(result.summary(), indent=2) + "\n")
    paths[SUMMARY_FILE] = summary_path
    return paths
