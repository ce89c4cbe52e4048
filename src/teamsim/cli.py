"""Command-line entry point: run one scenario, compare policies, re-report.

Exit codes for `run`: 0 when every task completed, 2 otherwise, 3 when an
LLM-backed mode is requested without a reachable adapter configuration.
Every command returns 4, after a one-line error, when a trace has no step to
measure: a run with `--max-steps 0`, or a `report` on a trace without action
events. Every command returns 5, after a one-line error, on bad input: a
scenario file that is missing, unreadable or malformed, a `report` run
directory without `trace.jsonl` or `scenario.yaml`, a trace line that is not
one event, or an output directory (`--out`, or the `report` run directory)
that cannot be made or written into.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .adapter import ChatCompletionAdapter
from .config import RunConfig, emit_scenario, parse_scenario
from .engine import Simulation
from .metrics import MetricsError, compute_metrics, render_report, write_csv
from .model import POLICY_NAMES, Scenario, ScenarioError
from .trace import TraceError, TraceLog

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
    if config.seed is not None:
        updates["seed"] = config.seed
    return dataclasses.replace(scenario, **updates) if updates else scenario


def _output_error(exc: OSError) -> int:
    print(f"output error: {' '.join(str(exc).split())}", file=sys.stderr)
    return EXIT_BAD_INPUT


def _build_adapter(config: RunConfig) -> ChatCompletionAdapter:
    if not config.endpoint or not config.model:
        raise SystemExit(EXIT_ADAPTER)
    return ChatCompletionAdapter(
        endpoint=config.endpoint,
        model=config.model,
        temperature=config.temperature,
    )


def cmd_run(config: RunConfig) -> int:
    scenario = _apply_overrides(parse_scenario(config.scenario_path), config)

    adapter = None
    if config.needs_adapter(scenario):
        if not config.endpoint or not config.model:
            print("llm-backed mode requires --endpoint and --model", file=sys.stderr)
            return EXIT_ADAPTER
        adapter = _build_adapter(config)

    simulation = Simulation(scenario, adapter=adapter, max_steps=config.max_steps,
                            parallel_decide=config.parallel_decide)
    result = simulation.run()
    report = compute_metrics(result.trace, scenario,
                             baseline_hours=config.baseline_hours)

    out_dir = Path(config.out_dir)
    config_label = scenario.team_label or "custom"
    text = render_report(report, config_label, scenario.name)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        result.trace.write(out_dir / "trace.jsonl")
        (out_dir / "scenario.yaml").write_text(emit_scenario(scenario),
                                               encoding="utf-8")
        write_csv([report.csv_row(config_label, scenario.name)],
                  out_dir / "metrics.csv")
        (out_dir / "report.txt").write_text(text, encoding="utf-8")
    except OSError as exc:
        return _output_error(exc)
    print(text, end="")

    return EXIT_OK if report.completion_rate >= 100.0 else EXIT_INCOMPLETE


def cmd_compare(config: RunConfig, policies: list[str]) -> int:
    scenario = parse_scenario(config.scenario_path)
    if config.seed is not None:
        scenario = dataclasses.replace(scenario, seed=config.seed)

    adapter = None
    if "c2c_llm" in policies or (config.evaluator or scenario.evaluator_name) == "llm":
        if not config.endpoint or not config.model:
            print("llm-backed mode requires --endpoint and --model", file=sys.stderr)
            return EXIT_ADAPTER
        adapter = _build_adapter(config)

    reports = {}
    for policy in policies:
        run_scenario = dataclasses.replace(scenario, policy_name=policy)
        if config.evaluator:
            run_scenario = dataclasses.replace(run_scenario,
                                               evaluator_name=config.evaluator)
        result = Simulation(run_scenario, adapter=adapter,
                            max_steps=config.max_steps,
                            parallel_decide=config.parallel_decide).run()
        reports[policy] = compute_metrics(result.trace, run_scenario)

    first = reports[policies[0]]
    for policy, report in reports.items():
        if first.avg_completion_time and report.avg_completion_time:
            report.speedup = first.avg_completion_time / report.avg_completion_time

    grid = _comparison_grid(reports, policies)
    out_dir = Path(config.out_dir)
    config_label = scenario.team_label or "custom"
    rows = [reports[p].csv_row(config_label, f"{scenario.name}/{p}") for p in policies]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
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


def cmd_report(run_dir: str) -> int:
    directory = Path(run_dir)
    trace_path = directory / "trace.jsonl"
    scenario_path = directory / "scenario.yaml"
    if not trace_path.exists() or not scenario_path.exists():
        print(f"run directory missing trace.jsonl or scenario.yaml: {directory}",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    scenario = parse_scenario(scenario_path)
    trace = TraceLog.read(trace_path)
    report = compute_metrics(trace, scenario)
    config_label = scenario.team_label or "custom"
    text = render_report(report, config_label, scenario.name)
    try:
        (directory / "report.txt").write_text(text, encoding="utf-8")
        write_csv([report.csv_row(config_label, scenario.name)],
                  directory / "metrics.csv")
    except OSError as exc:
        return _output_error(exc)
    print(text, end="")
    return EXIT_OK


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True, help="scenario YAML file")
    parser.add_argument("--evaluator", choices=("rule_based", "llm"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--max-steps", type=int, dest="max_steps")
    parser.add_argument("--endpoint", help="chat-completion base URL")
    parser.add_argument("--model", help="model name for the adapter")
    parser.add_argument("--temperature", type=float, default=0.7)
    parser.add_argument("--baseline-hours", type=float, dest="baseline_hours")
    parser.add_argument("--parallel-decide", action="store_true",
                        dest="parallel_decide")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teamsim",
        description="Deterministic multi-agent teamwork simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one scenario")
    _add_shared_flags(run_parser)
    run_parser.add_argument("--policy", choices=POLICY_NAMES)

    compare_parser = sub.add_parser("compare", help="run several policies")
    _add_shared_flags(compare_parser)
    compare_parser.add_argument(
        "--policies", required=True,
        help="comma-separated policy list, at least two",
    )

    report_parser = sub.add_parser("report", help="recompute metrics from a run dir")
    report_parser.add_argument("--run", required=True, help="run output directory")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        scenario_path=args.scenario,
        policy=getattr(args, "policy", None),
        evaluator=args.evaluator,
        seed=args.seed,
        out_dir=args.out,
        max_steps=args.max_steps,
        endpoint=args.endpoint,
        model=args.model,
        temperature=args.temperature,
        baseline_hours=args.baseline_hours,
        parallel_decide=args.parallel_decide,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(_config_from_args(args))
        if args.command == "compare":
            policies = [p.strip() for p in args.policies.split(",") if p.strip()]
            if len(policies) < 2:
                parser.error("compare needs at least two policies")
            for policy in policies:
                if policy not in POLICY_NAMES:
                    parser.error(f"unknown policy: {policy}")
            return cmd_compare(_config_from_args(args), policies)
        if args.command == "report":
            return cmd_report(args.run)
    except MetricsError as exc:
        print(f"metrics error: {exc}", file=sys.stderr)
        return EXIT_NO_METRICS
    except (ScenarioError, TraceError) as exc:
        label = "scenario" if isinstance(exc, ScenarioError) else "trace"
        # YAML syntax errors span several lines; the report is one.
        print(f"{label} error: {' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_BAD_INPUT
    parser.error(f"unknown command: {args.command}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
