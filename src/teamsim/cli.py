"""Command-line entry point: run one scenario, compare policies, re-report.

`run` writes `trace.jsonl` and folds the metrics as it simulates, one batch
of events at a time (a step's, or about `engine.TRACE_BATCH` of them), and
holds no list of events; `compare` only folds. `run` makes the output
directory and the trace file at the first batch, at the end of step 0, so a
run without events (`--max-steps 0`) creates or changes nothing, and an
output directory or trace file that cannot be made or written into fails
there, not after the run. At that first batch `run` also removes an earlier
run's `scenario.yaml`, `report.txt` and `metrics.csv` from the directory; it
writes its own once the run ends. A run that raises mid-way thus leaves a
partial `trace.jsonl`, every event emitted before the raise, and no
`scenario.yaml`, also in a directory an earlier run wrote, so `report`
refuses that directory.

`main(argv)` parses `argv` and returns the exit code. It may be called any
number of times in one process: one parser, built when this module is
imported, parses every call into a fresh namespace.

A usage error exits 2 through `SystemExit`, after argparse's usage line and a
one-line error, before anything is read or written: an unknown, missing or
malformed flag, a `--max-steps` below 0, a `--baseline-hours` that is not a
finite number above 0, a `--temperature` that is not a finite number of 0 or
more, or a `--policies` list with fewer than two policies, an unknown policy
or one given twice. The usage line and the error name the subcommand.

Exit codes for `run`: 0 when every task completed, 2 otherwise. `run` and
`compare` return 3 when an LLM-backed mode is requested without a reachable
adapter configuration. Every command returns 4, after a one-line error, when
a trace has no step to measure: a run with `--max-steps 0`, or a `report` on
a trace without action events or with an `af_update` step lower than an
earlier one. `report` also returns 4 when a metric cannot be a float: a
communication cost, alignment score, average completion time, efficiency or
reply latency beyond the float range (every `cost_h` at 1e308, or the last
`action` step at 10**400).
Every command returns 5, after a one-line error, on bad input: a scenario file
that is missing, unreadable or malformed, that gives a key twice at one
level, whose team has no worker or whose
team shorthand asks for more than `config.MAX_SHORTHAND_AGENTS` agents, a
`report` run directory without `trace.jsonl` or `scenario.yaml` (as a run that
raised mid-way leaves it), a `trace.jsonl` that cannot be opened or read (a
directory in its place), a trace line that is not one event, an event that
lacks a field of its kind or holds one of the wrong type, an event whose `seq`
is not its place in the trace (a line duplicated, dropped or moved), a root
task completion that names a task the scenario does not have or whose
`boundary` is too large to become hours (10**400), a `message_sent` `cost_h`
or an `af_update` `new` that is NaN or infinite, or an output directory
(`--out`, or the `report` run directory) or output file that cannot be made,
written into or, left by an earlier run, removed.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .config import RunConfig, emit_scenario, parse_scenario
from .engine import Simulation
from .metrics import (EventError, MetricsError, MetricsFold, MetricsReport,
                      render_report, write_csv)
from .model import POLICY_NAMES, Scenario, ScenarioError
from .trace import TraceError, TraceLog, TraceWriter

if TYPE_CHECKING:  # pragma: no cover
    from .adapter import ChatCompletionAdapter

EXIT_OK = 0
EXIT_INCOMPLETE = 2
EXIT_ADAPTER = 3
EXIT_NO_METRICS = 4
EXIT_BAD_INPUT = 5


def _apply_overrides(scenario: Scenario, config: RunConfig) -> Scenario:
    updates: dict = {}
    if config.policy:
        updates["policy_name"] = config.policy
    if config.evaluator:
        updates["evaluator_name"] = config.evaluator
    return dataclasses.replace(scenario, **updates) if updates else scenario


def _output_error(exc: OSError) -> int:
    print(f"output error: {' '.join(str(exc).split())}", file=sys.stderr)
    return EXIT_BAD_INPUT


class _NoAdapter(Exception):
    """An LLM-backed mode is requested without --endpoint and --model."""


def _adapter(config: RunConfig, scenarios: list[Scenario]) -> ChatCompletionAdapter | None:
    """The adapter that runs of `scenarios` share, or None when none needs one."""
    if not any(config.needs_adapter(scenario) for scenario in scenarios):
        return None
    if not config.endpoint or not config.model:
        raise _NoAdapter
    from .adapter import ChatCompletionAdapter

    return ChatCompletionAdapter(endpoint=config.endpoint, model=config.model,
                                 temperature=config.temperature)


# What `run` writes once the run ends; the next run's first batch removes them.
_RUN_OUTPUTS = ("scenario.yaml", "report.txt", "metrics.csv")


def _unlink(*paths: Path) -> None:
    """Remove earlier outputs, so that each is written as a new file: a link
    is replaced, not written through."""
    for path in paths:
        path.unlink(missing_ok=True)


def _write_report(directory: Path, scenario: Scenario, report: MetricsReport) -> None:
    """Write `report.txt` and `metrics.csv` into `directory`, then print the report."""
    label = scenario.team_label or "custom"
    text = render_report(report, label, scenario.name)
    _unlink(directory / "report.txt", directory / "metrics.csv")
    (directory / "report.txt").write_text(text, encoding="utf-8")
    write_csv([report.csv_row(label, scenario.name)], directory / "metrics.csv")
    print(text, end="")


def cmd_run(config: RunConfig) -> int:
    scenario = _apply_overrides(parse_scenario(config.scenario_path), config)
    adapter = _adapter(config, [scenario])

    # Each batch of events is written and folded as the engine hands it on.
    # The trace file and the output directory are made, and an earlier run's
    # other outputs removed, at the first batch, so a run without events
    # changes nothing; its empty fold then raises MetricsError.
    out_dir = Path(config.out_dir)
    fold = MetricsFold(scenario, baseline_hours=config.baseline_hours)
    stale = [out_dir / name for name in _RUN_OUTPUTS]
    try:
        with TraceWriter(out_dir / "trace.jsonl", fold, stale) as trace:
            Simulation(scenario, adapter=adapter, max_steps=config.max_steps,
                       parallel_decide=config.parallel_decide, trace=trace).run()
    except OSError as exc:
        return _output_error(exc)
    report = fold.result()
    try:
        (out_dir / "scenario.yaml").write_text(emit_scenario(scenario),
                                               encoding="utf-8")
        _write_report(out_dir, scenario, report)
    except OSError as exc:
        return _output_error(exc)
    return EXIT_OK if report.completion_rate >= 100.0 else EXIT_INCOMPLETE


def cmd_compare(config: RunConfig, policies: list[str]) -> int:
    scenario = parse_scenario(config.scenario_path)
    runs = {policy: _apply_overrides(dataclasses.replace(scenario, policy_name=policy),
                                     config)
            for policy in policies}
    adapter = _adapter(config, list(runs.values()))

    reports = {}
    for policy, run_scenario in runs.items():
        fold = MetricsFold(run_scenario)
        Simulation(run_scenario, adapter=adapter, max_steps=config.max_steps,
                   parallel_decide=config.parallel_decide, trace=fold).run()
        reports[policy] = fold.result()

    first = reports[policies[0]].avg_completion_time
    for policy, report in reports.items():
        if first and report.avg_completion_time:
            reports[policy] = report._replace(speedup=first / report.avg_completion_time)

    grid = _comparison_grid(reports, policies)
    out_dir = Path(config.out_dir)
    config_label = scenario.team_label or "custom"
    rows = [reports[p].csv_row(config_label, f"{scenario.name}/{p}") for p in policies]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _unlink(out_dir / "compare.txt", out_dir / "compare.csv")
        (out_dir / "compare.txt").write_text(grid, encoding="utf-8")
        write_csv(rows, out_dir / "compare.csv")
    except OSError as exc:
        return _output_error(exc)
    print(grid, end="")
    return EXIT_OK


def _comparison_grid(reports: dict, policies: list[str]) -> str:
    def row(label: str, picker) -> str:
        cells = []
        for policy in policies:
            value = picker(reports[policy])
            cells.append("n/a" if value is None else f"{value:.2f}")
        return f"{label:<22}" + "".join(f"{c:>16}" for c in cells)

    header = f"{'metric':<22}" + "".join(f"{p:>16}" for p in policies)
    lines = [
        header,
        "-" * len(header),
        row("completion_rate_%", lambda r: r.completion_rate),
        row("avg_time_h", lambda r: r.avg_completion_time),
        row("comm_cost_h", lambda r: r.communication_cost),
        row("alignment", lambda r: r.alignment_score),
        row("efficiency", lambda r: r.efficiency),
        row("speedup_vs_first", lambda r: r.speedup),
    ]
    return "\n".join(lines) + "\n"


def cmd_report(run_dir: str, baseline_hours: float | None = None) -> int:
    directory = Path(run_dir)
    trace_path = directory / "trace.jsonl"
    scenario_path = directory / "scenario.yaml"
    if not trace_path.exists() or not scenario_path.exists():
        print(f"run directory missing trace.jsonl or scenario.yaml: {directory}",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    scenario = parse_scenario(scenario_path)
    # Folded a checked chunk at a time: the trace is never held in memory.
    fold = MetricsFold(scenario, baseline_hours=baseline_hours)
    try:
        for records in TraceLog.chunks(trace_path):
            fold.extend(records)
    except EventError as exc:
        raise TraceError.at(trace_path, exc.record, exc) from None
    except OSError as exc:
        raise TraceError(f"unreadable trace file: {exc}") from exc
    try:
        _write_report(directory, scenario, fold.result())
    except OSError as exc:
        return _output_error(exc)
    return EXIT_OK


def _checked(parse, rule: str, holds):
    """A `type=` callable: `parse` the text, then require `holds(value)`,
    which `rule` words for the error."""
    def check(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {parse.__name__} value: {text!r}") from None
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    return check


_step_cap = _checked(int, "0 or more", lambda steps: steps >= 0)
_baseline_hours = _checked(float, "a finite number above 0",
                           lambda hours: math.isfinite(hours) and hours > 0)
_temperature = _checked(float, "a finite number, 0 or more",
                        lambda value: math.isfinite(value) and value >= 0)


def _policy_list(text: str) -> list[str]:
    """A `--policies` value: at least two known policies, each given once."""
    policies = [p.strip() for p in text.split(",") if p.strip()]
    if len(policies) < 2:
        raise argparse.ArgumentTypeError("compare needs at least two policies")
    for index, policy in enumerate(policies):
        if policy not in POLICY_NAMES:
            raise argparse.ArgumentTypeError(f"unknown policy: {policy}")
        if policy in policies[:index]:
            raise argparse.ArgumentTypeError(f"policy given twice: {policy}")
    return policies


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True, help="scenario YAML file")
    parser.add_argument("--evaluator", choices=("rule_based", "llm"))
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--max-steps", type=_step_cap, dest="max_steps")
    parser.add_argument("--endpoint", help="chat-completion base URL")
    parser.add_argument("--model", help="model name for the adapter")
    parser.add_argument("--temperature", type=_temperature, default=0.7)
    parser.add_argument("--parallel-decide", action="store_true",
                        dest="parallel_decide")


def _add_baseline_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--baseline-hours", type=_baseline_hours,
                        dest="baseline_hours",
                        help="baseline completion time that speedup is measured against")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teamsim",
        description="Deterministic multi-agent teamwork simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one scenario")
    _add_shared_flags(run_parser)
    run_parser.add_argument("--policy", choices=POLICY_NAMES)
    _add_baseline_flag(run_parser)

    compare_parser = sub.add_parser("compare", help="run several policies")
    _add_shared_flags(compare_parser)
    compare_parser.add_argument(
        "--policies", type=_policy_list, required=True,
        help="comma-separated policy list, at least two",
    )

    report_parser = sub.add_parser("report", help="recompute metrics from a run dir")
    report_parser.add_argument("--run", required=True, help="run output directory")
    _add_baseline_flag(report_parser)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        scenario_path=args.scenario,
        policy=getattr(args, "policy", None),
        evaluator=args.evaluator,
        out_dir=args.out,
        max_steps=args.max_steps,
        endpoint=args.endpoint,
        model=args.model,
        temperature=args.temperature,
        baseline_hours=getattr(args, "baseline_hours", None),
        parallel_decide=args.parallel_decide,
    )


# Built once per process, at import: `parse_args` leaves a parser unchanged
# and returns a fresh namespace, and usage and help text are formatted when
# printed, so every `main` call can share it.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(_config_from_args(args))
        if args.command == "compare":
            return cmd_compare(_config_from_args(args), args.policies)
        return cmd_report(args.run, args.baseline_hours)
    except _NoAdapter:
        print("llm-backed mode requires --endpoint and --model", file=sys.stderr)
        return EXIT_ADAPTER
    except MetricsError as exc:
        print(f"metrics error: {exc}", file=sys.stderr)
        return EXIT_NO_METRICS
    except (ScenarioError, TraceError) as exc:
        label = "scenario" if isinstance(exc, ScenarioError) else "trace"
        # YAML syntax errors span several lines; the report is one.
        print(f"{label} error: {' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
