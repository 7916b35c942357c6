"""asmisim benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload fleet_day --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
The last line of standard output is one JSON object:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
With `--trace 0` the metrics are the end-to-end ones, measured untraced;
with `--trace 1` they are the per-layer ones, from one traced iteration
that follows untraced ones (see spans.py).

The load is closed-loop and single-threaded: one client calls the public
API (`scenario.validate` -> `runner.run_scenario` -> `runner.write_outputs`,
plus `MonitoringCenter.ingest` / `reconstruct` for live_center) and makes
each call only after the previous one returned. Every iteration is checked
(conservation identities, workload invariants, output digests against the
recorded reference); an iteration that fails a check counts as failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = BENCH_DIR / "reference.json"

sys.path.insert(0, str(SRC))
try:
    import asmisim
    from asmisim import runner, scenario
    from asmisim.center import MonitoringCenter
    from asmisim.router import ForwardedRecord
    from asmisim.sensor import SensorMode
except ImportError as exc:
    sys.exit(f"perfbench: cannot import asmisim from {SRC}: {exc}")
if Path(asmisim.__file__).resolve().parent.parent != SRC:
    sys.exit(f"perfbench: imported asmisim from {asmisim.__file__}, not from {SRC}")

import workloads  # noqa: E402  (needs asmisim on the path)
from spans import LAYER_SELF_TIMES, Tracer, layer_metrics, unit_of  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 9001
WORKLOADS = ("fleet_day", "heartbeat_mesh", "live_center")

MIN_ITERATIONS = 3
SETUP_SLICE_S = 0.05
SCENARIO_QUERIES = 200
QUERY_WINDOW_MS = 6 * 3_600_000
QUERY_STEP_MS = 60_000
WRITE_REPEATS = 2


@dataclass
class Iteration:
    run_s: float
    write_s: list[float]
    ingests: int
    ingest_s: float
    emitted: int
    latencies_ns: list[int]
    failed_queries: int
    files_digest: str
    answers_digest: str
    failures: list[str] = field(default_factory=list)


def files_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in (runner.TIMELINE_FILE, runner.TRANSPORT_FILE, runner.COMPARISON_FILE, runner.SUMMARY_FILE):
        h.update(name.encode())
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


def conservation_failures(c: dict[str, int]) -> list[str]:
    failures = []
    if c["emitted"] != c["delivered"] + c["radio_lost"]:
        failures.append(f"emitted {c['emitted']} != delivered {c['delivered']} + radio_lost {c['radio_lost']}")
    accounted = c["dropped"] + c["accepted"] + c["deduped"] + c["quarantined"] + c["malformed"]
    if c["delivered"] != accounted:
        failures.append(f"delivered {c['delivered']} != dropped + accepted + deduped + quarantined + malformed ({accounted})")
    return failures


class Queries:
    """Times query calls one by one and digests their answers.

    Answers are hashed as they come and not kept, so the benchmark adds
    nothing long-lived to the heap the program's garbage collector scans.
    """

    def __init__(self) -> None:
        self.latencies_ns: list[int] = []
        self.failed = 0
        self._digest = hashlib.sha256()

    def call(self, query_fn, *query) -> None:
        a = perf_counter_ns()
        try:
            answer = query_fn(*query)
        except Exception:  # a failed query is counted, not fatal
            answer = None
            self.failed += 1
        self.latencies_ns.append(perf_counter_ns() - a)
        self._digest.update(repr(answer).encode())

    def digest(self) -> str:
        return self._digest.hexdigest()


def registered_center(sc) -> MonitoringCenter:
    """A fresh center with the scenario's routers and sensors registered."""
    center = MonitoringCenter(nominal_latency=sc.channel.latency)
    for r in sc.routers:
        center.register_router(r.router_id, r.location, r.sync_residual)
    for d in sc.sensors:
        center.register_sensor(d, sc.sensor_locations[d.sensor_id])
    return center


def replay_ingest(result) -> tuple[int, float, list[str]]:
    """Ingest a finished run's forwarded records into a fresh center.

    Returns (records, seconds spent in `ingest`, failures). The records are
    the run's transport rows in the order the routers shipped them, so this
    times the center's ingest on the workload's own mix of new, duplicate
    and late frames, apart from the rest of the run. The replayed center
    must end up holding exactly what the run's center holds.
    """
    records = [
        ForwardedRecord(row["router_id"], bytes.fromhex(row["frame_hex"]), row["local_receipt_time_ms"])
        for row in result.transport_rows
    ]
    center = registered_center(result.scenario)
    ingest = center.ingest
    t0 = perf_counter()
    for rec in records:
        ingest(rec)
    ingest_s = perf_counter() - t0
    failures = []
    if center.counters != result.center.counters or center.timeline_rows() != result.center.timeline_rows():
        failures.append("replayed ingest differs from the run's center")
    return len(records), ingest_s, failures


def timed_writes(result, out_dir: Path) -> list[float]:
    """Write the run's outputs WRITE_REPEATS times (each overwrites the last)."""
    times = []
    for _ in range(WRITE_REPEATS):
        t0 = perf_counter()
        runner.write_outputs(result, out_dir)
        times.append(perf_counter() - t0)
    return times


class ScenarioBench:
    """fleet_day / heartbeat_mesh: a generated scenario through the runner.

    After each run come two probes of the finished center. The run's
    forwarded records are ingested again into a fresh center, which times
    ingest on its own (see replay_ingest). Then seeded queries read six
    hours of one sensor's reconstructed series at one-minute steps (361
    points), the way a dashboard reads results. A window rather than a
    single reconstruct keeps each latency well above timer, interrupt and
    garbage-collection noise. A traced iteration skips the probes, so that
    it times the run and the writes only.
    """

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed

    def generate(self) -> None:
        self.document = workloads.to_bytes(workloads.SCENARIO_WORKLOADS[self.name](self.seed))

    def validate(self) -> None:
        self.scenario = scenario.validate(json.loads(self.document))

    def setup(self) -> None:
        self.generate()
        self.validate()
        rng = random.Random(f"{self.name}:{self.seed}:queries")
        ids = [d.sensor_id for d in self.scenario.sensors]
        last_start = self.scenario.horizon - QUERY_WINDOW_MS
        self.queries = []
        for _ in range(SCENARIO_QUERIES):
            t0 = rng.randrange(0, last_start + 1)
            self.queries.append((rng.choice(ids), t0, t0 + QUERY_WINDOW_MS, QUERY_STEP_MS))

    def iteration(self, out_dir: Path, probes: bool = True) -> Iteration:
        t0 = perf_counter()
        result = runner.run_scenario(self.scenario)
        t1 = perf_counter()
        write_s = timed_writes(result, out_dir)
        ingests, ingest_s, replay_failures = replay_ingest(result) if probes else (0, 0.0, [])
        queries = Queries()
        for query in self.queries if probes else ():
            queries.call(result.center.series, *query)
        c = result.counters
        return Iteration(
            run_s=t1 - t0,
            write_s=write_s,
            ingests=ingests,
            ingest_s=ingest_s,
            emitted=c["emitted"],
            latencies_ns=queries.latencies_ns,
            failed_queries=queries.failed,
            files_digest=files_digest(out_dir),
            answers_digest=queries.digest(),
            failures=conservation_failures(c) + replay_failures + self.invariant_failures(result),
        )

    def invariant_failures(self, result) -> list[str]:
        """Properties the workload's design guarantees whatever the seed."""
        sc = self.scenario
        failures = []
        if self.name == "heartbeat_mesh":
            beats = sum(sc.horizon // d.status_interval for d in sc.sensors)
            if result.counters["emitted"] != 3 * beats:
                failures.append(f"emitted {result.counters['emitted']} != 3 routers x {beats} heartbeats")
            if any(row[2] != "STATUS" for row in result.center.timeline_rows()):
                failures.append("an idle sensor sent a non-STATUS frame")
            return failures
        for d in sc.sensors:
            if d.mode is SensorMode.MONOTONIC:
                entries = sorted(result.center.timeline(d.sensor_id), key=lambda e: e.seq_no)
                levels = [e.level_index for e in entries]
                if levels != sorted(levels):
                    failures.append(f"meter {d.sensor_id}: level went down")
        for row in result.comparison_rows:
            _sid, pipeline, sensor_id, *_errors, messages, _bytes = row
            if pipeline == "AMI" and messages < result.sensor_states[sensor_id].seq_no:
                failures.append(f"sensor {sensor_id}: matched baseline polled fewer messages than ASMI sent")
        return failures


class LiveBench:
    """live_center: a synthesised record stream straight into the center."""

    name = "live_center"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def generate(self) -> None:
        self.stream = workloads.live_center(self.seed)
        self.document = workloads.to_bytes(self.stream.doc)

    def validate(self) -> None:
        self.scenario = scenario.validate(json.loads(self.document))

    def setup(self) -> None:
        self.generate()
        self.validate()
        # Registration is part of set-up; each iteration then registers
        # into a fresh center, untimed.
        registered_center(self.scenario)

    def iteration(self, out_dir: Path, probes: bool = True) -> Iteration:
        stream = self.stream
        center = registered_center(self.scenario)
        ingest = center.ingest
        reconstruct = center.reconstruct
        queries = Queries()
        t0 = perf_counter()
        for rec, query in zip(stream.records, stream.queries):
            ingest(rec)
            if query is not None:
                queries.call(reconstruct, *query)
        t1 = perf_counter()
        # Built after the stream so the benchmark's own rows do not sit in
        # the heap the center's garbage collections scan.
        transport_rows = [
            {
                "router_id": rec.router_id,
                "local_receipt_time_ms": rec.local_receipt_time,
                "frame_hex": rec.frame_bytes.hex(),
            }
            for rec in stream.records
        ]
        counters = {
            "emitted": stream.attempts,
            "delivered": len(stream.records),
            "radio_lost": stream.lost,
            "dropped": 0,
            **center.counters,
        }
        result = runner.RunResult(
            scenario=self.scenario,
            seed=self.seed,
            counters=counters,
            center=center,
            signals={},
            sensor_states={},
            router_states={},
            transport_rows=transport_rows,
        )
        write_s = timed_writes(result, out_dir)
        failures = conservation_failures(counters)
        for sensor_id, expected in stream.expected.items():
            held = sorted((e.seq_no, e.level_index) for e in center.timeline(sensor_id))
            if held != expected:
                failures.append(f"sensor {sensor_id}: timeline differs from the frames that got through")
        return Iteration(
            run_s=t1 - t0,
            write_s=write_s,
            ingests=len(stream.records),
            ingest_s=(t1 - t0) - sum(queries.latencies_ns) / 1e9,
            emitted=0,
            latencies_ns=queries.latencies_ns,
            failed_queries=queries.failed,
            files_digest=files_digest(out_dir),
            answers_digest=queries.digest(),
            failures=failures,
        )


def make_bench(name: str, seed: int):
    return LiveBench(seed) if name == "live_center" else ScenarioBench(name, seed)


def load_reference(name: str, seed: int) -> dict | None:
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(name, {}).get(str(seed))


def timed_setup(bench, budget_s: float) -> list[float]:
    """Set the workload up at least once and until `budget_s` has passed."""
    times = []
    started = perf_counter()
    while not times or perf_counter() - started < budget_s:
        gc.collect()
        t0 = perf_counter()
        bench.setup()
        times.append(perf_counter() - t0)
    return times


def run_loop(bench, seconds: float, setup_times: list[float] | None = None,
             probes: bool = True) -> tuple[list[Iteration], list[str]]:
    """Iterate for `seconds` (at least MIN_ITERATIONS times).

    With `setup_times`, each iteration is preceded by SETUP_SLICE_S of
    timed set-ups, so set-up samples are spread over the whole run like the
    others. Returns the iterations that completed and the tracebacks of
    those that raised.
    """
    out_dir = OUT / bench.name
    done, crashed = [], []
    deadline = perf_counter() + seconds
    while len(done) + len(crashed) < MIN_ITERATIONS or perf_counter() < deadline:
        if setup_times is not None:
            setup_times += timed_setup(bench, SETUP_SLICE_S)
        gc.collect()
        try:
            done.append(bench.iteration(out_dir, probes))
        except Exception:  # a failed run is counted, not fatal
            crashed.append(traceback.format_exc())
    return done, crashed


def check_digests(iterations: list[Iteration], want: dict, with_answers: bool) -> None:
    """Flag iterations whose outputs differ from `want` (files, answers)."""
    for it in iterations:
        if it.files_digest != want["files"]:
            it.failures.append("output files differ from the reference")
        if with_answers and it.answers_digest != want["answers"]:
            it.failures.append("query answers differ from the reference")


def expected_digests(reference: dict | None, iterations: list[Iteration]) -> dict:
    """The recorded reference, or else the first iteration's outputs.

    Without a recorded reference for this (workload, seed) the check is
    run-to-run determinism.
    """
    if reference:
        return reference
    if not iterations:
        return {"files": None, "answers": None}
    return {"files": iterations[0].files_digest, "answers": iterations[0].answers_digest}


def tally(iterations: list[Iteration], crashed: list[str]) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes): runs and queries both count."""
    attempted = len(iterations) + len(crashed) + sum(len(it.latencies_ns) for it in iterations)
    failed = len(crashed) + sum(bool(it.failures) + it.failed_queries for it in iterations)
    notes = [f"iteration {i}: {f}" for i, it in enumerate(iterations) for f in it.failures]
    notes += [f"iteration raised:\n{tb}" for tb in crashed]
    return attempted, failed, notes


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    rank = -(-len(sorted_values) * q // 100)
    return sorted_values[max(1, int(rank)) - 1]


def pooled_latencies(iterations: list[Iteration]) -> list[int]:
    return sorted(x for it in iterations for x in it.latencies_ns)


def end_to_end(bench, seconds: float, reference: dict | None):
    setup_times: list[float] = []
    iterations, crashed = run_loop(bench, seconds, setup_times)
    check_digests(iterations, expected_digests(reference, iterations), with_answers=True)
    attempted, failed, notes = tally(iterations, crashed)
    if not iterations:
        return {}, attempted, failed, notes
    latencies = pooled_latencies(iterations)
    median = statistics.median
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "run_s": (median(it.run_s for it in iterations), "s"),
        "write_s": (median(t for it in iterations for t in it.write_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ingest_per_s": (median(it.ingests / it.ingest_s for it in iterations), "1/s"),
        "query_p50_us": (percentile(latencies, 50) / 1e3, "us"),
    }
    notes.insert(0, f"{bench.name} seed {bench.seed}: {len(iterations)} iterations, "
                    f"{len(setup_times)} set-ups, {len(latencies)} query samples")
    return metrics, attempted, failed, notes


def per_layer(bench, seconds: float, reference: dict | None):
    bench.setup()
    iterations, crashed = run_loop(bench, seconds / 2)
    # Scenario workloads trace run + write without the probes (ingest
    # replay, read-back queries), so the layer self times add up to the
    # traced run_s; live_center's run is its ingest/query stream, queries
    # included.
    traced_probes = bench.name == "live_center"
    gc.collect()
    with Tracer() as tracer:
        bench.validate()
        traced = bench.iteration(OUT / bench.name, traced_probes)
    tracer.write(OUT / f"{bench.name}.spans.json")
    want = expected_digests(reference, iterations)
    check_digests(iterations, want, with_answers=True)
    check_digests([traced], want, with_answers=traced_probes)
    untraced_run_s = statistics.median(it.run_s for it in iterations)
    traced_run_s = sum(tracer.root_durations("runner.run_scenario")) or traced.run_s
    metrics = layer_metrics(tracer, traced_run_s, untraced_run_s, traced.emitted)
    # Untraced, like the end-to-end metrics, but unbounded: see README.
    metrics["center.query_p99_us"] = percentile(pooled_latencies(iterations), 99) / 1e3
    if not traced_probes:
        layer_sum = sum(metrics[k] for k in LAYER_SELF_TIMES)
        if abs(layer_sum - traced_run_s) > 1e-6 * traced_run_s:
            traced.failures.append(f"layer self times add up to {layer_sum} s, traced run_s is {traced_run_s} s")
        shares = sorted(((metrics[k] / traced_run_s, k) for k in LAYER_SELF_TIMES), reverse=True)
        print("traced shares of run_s: " + ", ".join(f"{k} {s:.1%}" for s, k in shares))
    attempted, failed, notes = tally(iterations + [traced], crashed)
    notes.insert(0, f"{bench.name} seed {bench.seed}: {len(iterations)} untraced iterations, 1 traced")
    return {k: (v, unit_of(k)) for k, v in metrics.items()}, attempted, failed, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = make_bench(args.workload, args.seed)
    reference = load_reference(args.workload, args.seed)
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed, notes = measure(bench, args.seconds, reference)
    for line in notes:
        print(line)
    if reference is None:
        print(f"no recorded reference for {args.workload} seed {args.seed}: "
              "outputs checked for run-to-run determinism and invariants only")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
