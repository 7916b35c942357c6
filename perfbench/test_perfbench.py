"""Tests of the benchmark's own parts: generators, tracer, references.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import asmisim.sensor  # noqa: E402
import asmisim.signalgen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from asmisim import runner, scenario  # noqa: E402
from asmisim.center import MonitoringCenter  # noqa: E402
from asmisim.simkernel import Kernel  # noqa: E402

SEEDS = (run.DEFAULT_SEED, run.HELD_OUT_SEED, 7)


def document(name: str, seed: int) -> bytes:
    if name == "live_center":
        stream = workloads.live_center(seed)
        frames = b"".join(
            rec.frame_bytes + rec.local_receipt_time.to_bytes(8, "big") for rec in stream.records
        )
        return workloads.to_bytes(stream.doc) + frames + repr(stream.queries).encode()
    return workloads.to_bytes(workloads.SCENARIO_WORKLOADS[name](seed))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(name):
    assert document(name, run.DEFAULT_SEED) == document(name, run.DEFAULT_SEED)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_different_seed_gives_different_inputs(name):
    assert document(name, run.DEFAULT_SEED) != document(name, run.HELD_OUT_SEED)


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("seed", SEEDS)
def test_generated_documents_validate(name, seed):
    doc = workloads.live_center(seed).doc if name == "live_center" else workloads.SCENARIO_WORKLOADS[name](seed)
    sc = scenario.validate(json.loads(workloads.to_bytes(doc)))
    assert len(sc.sensors) > 0


def test_live_stream_queries_target_the_sensor_just_ingested():
    stream = workloads.live_center(run.DEFAULT_SEED)
    targets = [
        (int.from_bytes(rec.frame_bytes[1:5], "big"), q[0])
        for rec, q in zip(stream.records, stream.queries)
        if q is not None
    ]
    assert targets and all(a == b for a, b in targets)


def test_default_and_held_out_seeds_have_references():
    reference = json.loads(run.REFERENCE.read_text())
    for name in run.WORKLOADS:
        assert {str(run.DEFAULT_SEED), str(run.HELD_OUT_SEED)} <= set(reference[name])


def test_tracer_restores_every_wrapped_attribute():
    before = (
        Kernel.__dict__["run_until"],
        MonitoringCenter.__dict__["ingest"],
        asmisim.sensor.crossing_times,
        asmisim.sensor.value_at,
        asmisim.signalgen.value_at,
        runner.run_scenario,
    )
    with spans.Tracer():
        assert asmisim.sensor.value_at is not before[3]
    after = (
        Kernel.__dict__["run_until"],
        MonitoringCenter.__dict__["ingest"],
        asmisim.sensor.crossing_times,
        asmisim.sensor.value_at,
        asmisim.signalgen.value_at,
        runner.run_scenario,
    )
    assert after == before


def test_layer_self_times_add_up_to_traced_run():
    sc = scenario.validate(json.loads(workloads.to_bytes(workloads.fleet_day(run.DEFAULT_SEED))))
    untraced = runner.run_scenario(sc)
    with spans.Tracer() as tracer:
        traced = runner.run_scenario(sc)
    (run_s,) = tracer.root_durations("runner.run_scenario")
    metrics = spans.layer_metrics(tracer, run_s, run_s, traced.counters["emitted"])
    assert sum(metrics[k] for k in spans.LAYER_SELF_TIMES) == pytest.approx(run_s, rel=1e-9)
    assert metrics["signalgen.crossings"] > 0
    assert metrics["radio.attempts"] == traced.counters["emitted"]
    assert metrics["center.ingest_calls"] == traced.counters["delivered"]
    # Tracing observes; it must not change what the run computes.
    assert traced.summary() == untraced.summary()
    assert traced.comparison_rows == untraced.comparison_rows


def test_conservation_check_flags_a_missing_frame():
    counters = {"emitted": 10, "delivered": 9, "radio_lost": 1, "dropped": 0,
                "accepted": 5, "deduped": 3, "quarantined": 0, "malformed": 0}
    assert run.conservation_failures(counters)
    counters["deduped"] = 4
    assert run.conservation_failures(counters) == []
