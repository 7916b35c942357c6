"""Command-line entry point: validate, run, report.

Batch-oriented by design — no interactive steering. `validate` checks a
config and prints every problem at once; `run` executes a scenario and
writes the four output artifacts; `report` renders a finished run's
comparison table to stdout.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import Counter
from pathlib import Path

from . import runner, scenario
from .pi_protocol import PiProtocolError
from .signalgen import SignalError


class UnreadableOutputs(Exception):
    """report was pointed at a directory without readable run outputs."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asmisim",
        description="Event-driven sensing simulator: validate, run, and report scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a scenario config file")
    p_validate.add_argument("--config", required=True, metavar="PATH")

    p_run = sub.add_parser("run", help="execute a scenario and write outputs")
    p_run.add_argument("--config", required=True, metavar="PATH")
    p_run.add_argument("--out", metavar="DIR", help="output directory (default: config's outputs field)")
    p_run.add_argument("--seed", type=int, help="override the scenario seed")

    p_report = sub.add_parser("report", help="summarize a finished run")
    p_report.add_argument("--out", required=True, metavar="DIR", help="run output directory")
    return parser


def _load(path: str) -> scenario.Scenario | None:
    """Load a scenario, or print every problem with it and return None."""
    try:
        return scenario.load(path)
    except scenario.ScenarioValidationError as exc:
        for err_path, message in exc.errors:
            print(f"error: {err_path or '<document>'}: {message}", file=sys.stderr)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
    return None


def cmd_validate(args) -> int:
    sc = _load(args.config)
    if sc is None:
        return 1
    print(
        f"ok: {sc.scenario_id}: {len(sc.sensors)} sensor(s), "
        f"{len(sc.routers)} router(s), horizon {sc.horizon} ms"
    )
    return 0


def cmd_run(args) -> int:
    if args.seed is not None and not 0 <= args.seed <= scenario.MAX_SEED:
        print(f"error: --seed must be an integer in [0, 2**64-1], got {args.seed}", file=sys.stderr)
        return 1
    sc = _load(args.config)
    if sc is None:
        return 1
    try:
        result = runner.run_scenario(sc, seed=args.seed)
    except (SignalError, PiProtocolError) as exc:  # a signal or a frame the run cannot carry
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = args.out if args.out is not None else sc.outputs
    try:
        paths = runner.write_outputs(result, out_dir)
    except OSError as exc:
        print(f"error: writing outputs: {exc}", file=sys.stderr)
        return 1
    summary = result.summary()
    print(f"run {sc.scenario_id} (seed {result.seed}) complete")
    for key in runner.RUN_SUMMARY_KEYS:
        print(f"  {key}: {summary[key]}")
    for name in sorted(paths):
        print(f"  wrote {paths[name]}")
    return 0


def load_report_rows(out_dir: str | Path) -> tuple[list[tuple], dict, Counter]:
    """Read a run directory back: comparison rows, summary, timeline type counts.

    A comparison row is (sensor_id, pipeline, sup, mean, rmse, messages,
    bytes), numbers parsed. A missing or damaged file raises UnreadableOutputs.
    """
    out = Path(out_dir)
    comparison, summary_file, timeline = (
        out / name for name in (runner.COMPARISON_FILE, runner.SUMMARY_FILE, runner.TIMELINE_FILE)
    )
    if not (comparison.is_file() and summary_file.is_file() and timeline.is_file()):
        raise UnreadableOutputs(f"no run outputs in {out}")
    try:
        path = comparison
        with path.open(newline="") as fh:
            rows = [
                (r["sensor_id"], r["pipeline"], float(r["sup"]), float(r["mean"]), float(r["rmse"]),
                 int(r["messages"]), int(r["bytes"]))
                for r in csv.DictReader(fh)
            ]
        path = summary_file
        summary = json.loads(path.read_text())
        summary = {key: summary[key] for key in runner.RUN_SUMMARY_KEYS if key in summary}
        path = timeline
        with path.open(newline="") as fh:
            type_counts = Counter(record["msg_type"] for record in csv.DictReader(fh))
    except (OSError, KeyError, TypeError, ValueError, csv.Error) as exc:
        raise UnreadableOutputs(f"damaged {path}: {type(exc).__name__}: {exc}") from exc
    return rows, summary, type_counts


def cmd_report(args) -> int:
    try:
        rows, summary, type_counts = load_report_rows(args.out)
    except UnreadableOutputs as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    header = f"{'sensor':>8}  {'pipeline':<8} {'sup':>12} {'mean':>12} {'rmse':>12} {'messages':>9} {'bytes':>10}"
    print(header)
    print("-" * len(header))
    totals: dict[str, list[int]] = {}
    for sensor_id, pipeline, sup, mean, rmse, messages, nbytes in rows:
        print(
            f"{sensor_id:>8}  {pipeline:<8} {sup:>12.6g} {mean:>12.6g} {rmse:>12.6g}"
            f" {messages:>9} {nbytes:>10}"
        )
        agg = totals.setdefault(pipeline, [0, 0])
        agg[0] += messages
        agg[1] += nbytes
    for pipeline in sorted(totals):
        messages, nbytes = totals[pipeline]
        print(f"total {pipeline}: {messages} message(s), {nbytes} byte(s)")
    print(f"ASMI events {type_counts['EVENT']}, status {type_counts['STATUS']}")
    print("counters: " + ", ".join(f"{key}={value}" for key, value in summary.items()))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return {"validate": cmd_validate, "run": cmd_run, "report": cmd_report}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
