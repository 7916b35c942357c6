import copy
import csv
import hashlib
import json
import math
import random
from pathlib import Path

import pytest

from asmisim import baseline, cli, runner, scenario
from asmisim.center import MonitoringCenter
from asmisim.router import ForwardedRecord
from asmisim.signalgen import value_at

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
    assert sc.backhaul_delay == 500  # default
    assert sc.routers[0].flush_interval == 60_000  # default


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


def _paths(node, path=()):
    """Every (container, key) path into a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


HOSTILE_VALUES = (None, True, "x", "", [], {}, math.nan, math.inf, -math.inf, 2**70, -(2**70), -1, 0, 0.5, -0.5)


def test_hostile_mutations_validate_or_raise_validation_error():
    text = (SCENARIO_DIR / "burst_day.json").read_text()
    paths = list(_paths(json.loads(text)))
    rng = random.Random(2024)
    outcomes = {"valid": 0, "rejected": 0}
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
            assert isinstance(scenario.validate(doc), scenario.Scenario)
            outcomes["valid"] += 1
        except scenario.ScenarioValidationError:
            outcomes["rejected"] += 1
    assert all(outcomes.values())


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


def test_conservation_identities_on_lossy_run():
    doc = minimal_config(
        scenario_id="lossy",
        horizon=6 * 3_600_000,
        channel={"loss_prob": 0.35, "latency": 50, "jitter": 10},
        seed=77,
    )
    doc["routers"].append({"id": 2, "drift_ppm": 40.0, "sync_residual": 3})
    doc["coverage"] = {"1": [1, 2]}
    sc = scenario.validate(doc)
    result = runner.run_scenario(sc)
    c = result.counters
    assert c["radio_lost"] > 0, "lossy channel was supposed to lose something"
    assert c["emitted"] == c["delivered"] + c["radio_lost"]
    assert c["delivered"] == (
        c["dropped"] + c["accepted"] + c["deduped"] + c["quarantined"] + c["malformed"]
    )
    assert c["quarantined"] == 0 and c["malformed"] == 0 and c["dropped"] == 0


def test_rerun_same_seed_is_bit_identical(tmp_path):
    sc = scenario.load(SCENARIO_DIR / "no_loss_three_routers.json")
    a = runner.write_outputs(runner.run_scenario(sc), tmp_path / "a")
    b = runner.write_outputs(runner.run_scenario(sc), tmp_path / "b")
    for name in a:
        assert a[name].read_bytes() == b[name].read_bytes()


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
            ("pinned", "ASMI", sensor_id, sup, mean, rmse, messages, messages * baseline.AMI_FRAME_BYTES)
        )
        dt = baseline.matched_budget_interval(sc.horizon, messages)
        samples = baseline.poll(signal, dt, sc.horizon)
        report = baseline.error_stats(signal, samples, sc.horizon, sc.error_grid, value_at(signal, 0))
        polls = len(samples)
        expected.append(
            ("pinned", "AMI", sensor_id, report.sup, report.mean, report.rmse, polls, polls * baseline.AMI_FRAME_BYTES)
        )
    assert result.comparison_rows == expected


def test_run_summary_has_exactly_the_contract_keys(tmp_path):
    sc = scenario.load(SCENARIO_DIR / "quiet_day.json")
    result = runner.run_scenario(sc)
    paths = runner.write_outputs(result, tmp_path)
    summary = json.loads(paths["run_summary.json"].read_text())
    assert list(summary) == ["emitted", "delivered", "deduped", "quarantined", "malformed", "dropped"]



# sha256 of the four output files, recorded before the kernel, sensor
# scheduling and center ingest were reworked for speed. Any change to event
# order, loss draws, jitter, clock correction or dedup moves at least one.
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
}


def _golden_variant(name):
    """no_loss_three_routers made lossy and jittery as in criterion 6;
    drift_residual also gives each router its own drift and sync residual."""
    doc = json.loads((SCENARIO_DIR / "no_loss_three_routers.json").read_text())
    doc["channel"] = {"loss_prob": 0.25, "latency": 50, "jitter": 15}
    if name == "drift_residual":
        for rdef, (ppm, residual) in zip(doc["routers"], [(40.0, 12), (-25.0, -30), (7.5, 0)]):
            rdef["drift_ppm"] = ppm
            rdef["sync_residual"] = residual
    return scenario.validate(doc)


@pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUT_DIGESTS))
def test_outputs_match_golden_digests(name, tmp_path):
    paths = runner.write_outputs(runner.run_scenario(_golden_variant(name)), tmp_path)
    digests = {f: hashlib.sha256(path.read_bytes()).hexdigest() for f, path in paths.items()}
    assert digests == GOLDEN_OUTPUT_DIGESTS[name]


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


def test_cli_validate_ok(capsys):
    assert cli.main(["validate", "--config", str(SCENARIO_DIR / "quiet_day.json")]) == 0
    out = capsys.readouterr().out
    assert "ok: quiet_day" in out


def test_cli_validate_reports_errors(tmp_path, capsys):
    doc = minimal_config()
    doc["sensors"][0]["dP"] = 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "dP must be positive" in err


def test_cli_validate_missing_file(capsys):
    assert cli.main(["validate", "--config", "/nonexistent/nope.json"]) == 1


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
