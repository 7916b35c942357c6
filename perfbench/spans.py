"""In-memory span tracer that wraps asmisim's public call sites.

Nothing inside the program is changed: `Tracer.install()` replaces module
and class attributes with timing wrappers and `Tracer.uninstall()` puts the
originals back. Because asmisim modules bind helpers with `from .x import y`,
each binding a caller actually looks up is wrapped on its own (for example
`sensor.crossing_times` and the four `value_at` bindings).

A span is (name, start, end, parent); spans live in four flat arrays and are
written out once, at the end, as JSON. A span's self time is its duration
minus the durations of its direct children, so the self times of every span
under a root add up exactly to the root's duration.

Calls too frequent for a span (every `value_at`) are only counted; their
time stays in the self time of whichever span called them.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import asmisim.baseline
import asmisim.pi_protocol
import asmisim.radio
import asmisim.router
import asmisim.runner
import asmisim.scenario
import asmisim.sensor
import asmisim.signalgen
from asmisim.center import MonitoringCenter
from asmisim.simkernel import Kernel

SPAN_NAMES = (
    "scenario.validate",
    "runner.run_scenario",
    "runner.write_outputs",
    "simkernel.run_until",
    "simkernel.schedule",
    "signalgen.crossing_times",
    "sensor.sampling_driver",
    "sensor.observe",
    "sensor.heartbeat",
    "pi_protocol.encode",
    "pi_protocol.decode",
    "radio.broadcast",
    "router.receive",
    "router.flush",
    "center.ingest",
    "center.reconstruct",
    "baseline.poll",
    "baseline.error_stats",
)

# Per-layer self-time metrics that partition a traced run_scenario: every
# span under it counts towards exactly one of them.
LAYER_SELF_TIMES = (
    "simkernel.self_s",
    "signalgen.crossing_s",
    "sensor.self_s",
    "pi_protocol.codec_s",
    "radio.broadcast_s",
    "router.receive_s",
    "router.flush_s",
    "center.ingest_s",
    "center.reconstruct_s",
    "baseline.poll_s",
    "baseline.error_stats_s",
    "runner.self_s",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = list(SPAN_NAMES)
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter[str] = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _span(self, name: str, fn, on_result=None):
        nid = self._name_id[name]
        span_name, parent, start, end, stack = (
            self.span_name, self.parent, self.start, self.end, self._stack
        )
        counts = self.counts

        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            counts[name] += 1
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        counts = self.counts

        def add(key):
            def hook(result, _args):
                counts[key] += len(result)

            return hook

        def heartbeat_hook(frame, _args):
            counts["sensor.frames"] += frame is not None

        def observe_hook(frames, _args):
            counts["sensor.frames"] += len(frames)

        def broadcast_hook(deliveries, args):
            _frame, sensor_id, _t, coverage, _channel = args
            counts["radio.attempts"] += len(coverage.routers_for(sensor_id))
            counts["radio.deliveries"] += len(deliveries)

        def flush_hook(batch, _args):
            counts["router.empty_flushes"] += not batch

        def ingest_hook(outcome, _args):
            counts[f"center.{outcome.value.lower()}"] += 1

        def run_until_hook(fired, _args):
            counts["simkernel.events"] += fired

        mods = asmisim
        plan = [
            (mods.scenario, "validate", "scenario.validate", None),
            (mods.runner, "run_scenario", "runner.run_scenario", None),
            (mods.runner, "write_outputs", "runner.write_outputs", None),
            (Kernel, "run_until", "simkernel.run_until", run_until_hook),
            (Kernel, "schedule", "simkernel.schedule", None),
            (mods.sensor, "crossing_times", "signalgen.crossing_times", add("signalgen.crossings")),
            (mods.sensor, "sampling_driver", "sensor.sampling_driver", None),
            (mods.sensor, "observe", "sensor.observe", observe_hook),
            (mods.sensor, "heartbeat", "sensor.heartbeat", heartbeat_hook),
            (mods.radio, "encode", "pi_protocol.encode", None),
            (mods.pi_protocol, "encode", "pi_protocol.encode", None),
            (mods.pi_protocol, "decode", "pi_protocol.decode", None),
            (mods.radio, "broadcast", "radio.broadcast", broadcast_hook),
            (mods.router, "receive", "router.receive", None),
            (mods.router, "flush", "router.flush", flush_hook),
            (MonitoringCenter, "ingest", "center.ingest", ingest_hook),
            (MonitoringCenter, "reconstruct", "center.reconstruct", None),
            (mods.baseline, "poll", "baseline.poll", add("baseline.polls")),
            (mods.baseline, "error_stats", "baseline.error_stats", None),
        ]
        for owner, attr, name, hook in plan:
            self._patch(owner, attr, self._span(name, owner.__dict__[attr], hook))
        for owner in (mods.signalgen, mods.sensor, mods.runner, mods.baseline):
            name = "signalgen.value_at_solver" if owner is mods.signalgen else "signalgen.value_at_other"
            self._patch(owner, "value_at", self._counted(name, owner.__dict__["value_at"]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> array:
        """Duration minus the duration of direct children, per span."""
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        for idx, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[idx] - self.start[idx]
        return own

    def root_durations(self, name: str) -> list[float]:
        nid = self._name_id[name]
        return [
            self.end[i] - self.start[i]
            for i, (n, p) in enumerate(zip(self.span_name, self.parent))
            if n == nid and p == -1
        ]

    def self_by_span(self) -> dict[str, float]:
        totals = dict.fromkeys(self.names, 0.0)
        for nid, own in zip(self.span_name, self.self_times()):
            totals[self.names[nid]] += own
        return totals

    def write(self, path: Path) -> None:
        """Spans as JSON: the span names and four parallel lists.

        Span i is named `names[span_name[i]]`, runs from `start[i]` to
        `end[i]` (perf_counter seconds) and has the span at index
        `parent[i]` as its parent, or none when that is -1.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = {
            "names": self.names,
            "span_name": self.span_name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
        path.write_text(json.dumps(spans))


def unit_of(metric: str) -> str:
    if metric.endswith("_us") or metric == "runner.us_per_frame":
        return "us"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio") or "_per_" in metric:
        return "ratio"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values: list[float]) -> float:
    return _ratio(sum(values), len(values))


def layer_metrics(
    tracer: Tracer, traced_run_s: float, untraced_run_s: float, emitted: int
) -> dict[str, float]:
    """Every per-layer metric, from one traced iteration.

    `traced_run_s` and `untraced_run_s` time the same phase of the workload
    with the tracer on and off (the untraced one a median); `emitted` is the
    iteration's radio attempts, 0 when the workload runs no scenario.
    """
    own = tracer.self_by_span()
    c = tracer.counts
    ingests = c["center.ingest"]
    crossings = c["signalgen.crossings"]
    return {
        "simkernel.events": c["simkernel.events"],
        "simkernel.schedule_calls": c["simkernel.schedule"],
        "simkernel.self_s": own["simkernel.run_until"] + own["simkernel.schedule"],
        "signalgen.crossing_s": own["signalgen.crossing_times"],
        "signalgen.crossings": crossings,
        "signalgen.value_at_calls": c["signalgen.value_at_solver"] + c["signalgen.value_at_other"],
        "signalgen.value_at_per_crossing": _ratio(c["signalgen.value_at_solver"], crossings),
        "sensor.observe_calls": c["sensor.observe"],
        "sensor.heartbeat_calls": c["sensor.heartbeat"],
        "sensor.frames": c["sensor.frames"],
        "sensor.self_s": own["sensor.sampling_driver"] + own["sensor.observe"] + own["sensor.heartbeat"],
        "pi_protocol.encode_calls": c["pi_protocol.encode"],
        "pi_protocol.decode_calls": c["pi_protocol.decode"],
        "pi_protocol.codec_s": own["pi_protocol.encode"] + own["pi_protocol.decode"],
        "pi_protocol.decodes_per_ingest": _ratio(c["pi_protocol.decode"], ingests),
        "radio.broadcast_s": own["radio.broadcast"],
        "radio.attempts": c["radio.attempts"],
        "radio.delivery_ratio": _ratio(c["radio.deliveries"], c["radio.attempts"]),
        "router.receive_s": own["router.receive"],
        "router.flush_s": own["router.flush"],
        "router.flushes": c["router.flush"],
        "router.empty_flush_ratio": _ratio(c["router.empty_flushes"], c["router.flush"]),
        "center.ingest_s": own["center.ingest"],
        "center.ingest_calls": ingests,
        "center.accept_ratio": _ratio(c["center.accepted"], ingests),
        "center.dedup_ratio": _ratio(c["center.duplicate"], ingests),
        "center.reconstruct_s": own["center.reconstruct"],
        "center.reconstruct_calls": c["center.reconstruct"],
        "baseline.poll_s": own["baseline.poll"],
        "baseline.error_stats_s": own["baseline.error_stats"],
        "baseline.polls": c["baseline.polls"],
        "runner.self_s": own["runner.run_scenario"],
        "runner.us_per_frame": _ratio(untraced_run_s * 1e6, emitted),
        "runner.write_s": _mean(tracer.root_durations("runner.write_outputs")),
        "scenario.validate_s": sum(tracer.root_durations("scenario.validate")),
        "trace.run_s": traced_run_s,
        "trace.overhead_ratio": _ratio(traced_run_s, untraced_run_s),
    }
