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
from pathlib import Path

from . import runner, scenario
from .signalgen import SignalError


class MissingOutputs(Exception):
    """report was pointed at a directory without run outputs."""


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
    sc = _load(args.config)
    if sc is None:
        return 1
    try:
        result = runner.run_scenario(sc, seed=args.seed)
    except SignalError as exc:
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


def load_report_rows(out_dir: str | Path) -> tuple[list[dict], dict, dict[str, int]]:
    """Read a run directory back: comparison rows, summary, timeline type counts."""
    out = Path(out_dir)
    comparison = out / runner.COMPARISON_FILE
    summary_file = out / runner.SUMMARY_FILE
    timeline = out / runner.TIMELINE_FILE
    if not (comparison.is_file() and summary_file.is_file() and timeline.is_file()):
        raise MissingOutputs(f"no run outputs in {out}")
    with comparison.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    summary = json.loads(summary_file.read_text())
    type_counts = {"EVENT": 0, "STATUS": 0}
    with timeline.open(newline="") as fh:
        for record in csv.DictReader(fh):
            type_counts[record["msg_type"]] = type_counts.get(record["msg_type"], 0) + 1
    return rows, summary, type_counts


def cmd_report(args) -> int:
    try:
        rows, summary, type_counts = load_report_rows(args.out)
    except MissingOutputs as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    header = f"{'sensor':>8}  {'pipeline':<8} {'sup':>12} {'mean':>12} {'rmse':>12} {'messages':>9} {'bytes':>10}"
    print(header)
    print("-" * len(header))
    totals: dict[str, list[int]] = {}
    for row in rows:
        print(
            f"{row['sensor_id']:>8}  {row['pipeline']:<8}"
            f" {float(row['sup']):>12.6g} {float(row['mean']):>12.6g} {float(row['rmse']):>12.6g}"
            f" {row['messages']:>9} {row['bytes']:>10}"
        )
        agg = totals.setdefault(row["pipeline"], [0, 0])
        agg[0] += int(row["messages"])
        agg[1] += int(row["bytes"])
    for pipeline in sorted(totals):
        messages, nbytes = totals[pipeline]
        print(f"total {pipeline}: {messages} message(s), {nbytes} byte(s)")
    print(f"ASMI events {type_counts['EVENT']}, status {type_counts['STATUS']}")
    print(
        "counters: "
        + ", ".join(f"{key}={summary[key]}" for key in runner.RUN_SUMMARY_KEYS if key in summary)
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args)
    if args.command == "run":
        return cmd_run(args)
    return cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
