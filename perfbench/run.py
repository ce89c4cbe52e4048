"""teamsim benchmark: drive one workload through the `teamsim` CLI in-process.

    python3 perfbench/run.py --workload paper_grid --seed 0 --seconds 25 --trace 0

Load shape: a closed loop with one client. Each `teamsim.cli.main` call
starts after the previous one returns, in this process and thread; timed runs
call nothing else of the program. Every timing is host time; the end-to-end
times are scaled to a reference host speed measured by hostprobe.py.

--trace 0 measures the end-to-end metrics listed in BENCHMARK.json. --trace 1
makes a separate traced run that reports the per-layer metrics; spans come
from wrappers this benchmark installs around the calls into each module (see
layers.py) and are written to .bench_out/ when the run ends.

Every call must exit 0, and its outputs must match the pinned digests in
cases.py or, where none is pinned, the first pass of the run. A mismatch
counts as a failed call; the last stdout line is then a result with
"correct": false and the exit code is 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import cases
import hostprobe
import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
SETUP_LAUNCHES = 11
MIN_PASSES = 3
# Caps the spans kept in memory (about 50k per paper_grid pass).
MAX_TRACED_PASSES = 6
# Share of a pass's time spent on host-speed probes between its calls.
PROBE_SHARE = 0.02
# Seconds between host-speed probes during a call (untraced runs only).
SAMPLE_INTERVAL_S = 0.05


@dataclass
class PassResult:
    wall: float  # summed seconds of the calls
    scaled: float  # the same, each call scaled to the reference host speed
    digests: dict[str, str]
    counts: Counter  # simulated counts of the traces written


class Runner:
    """Runs passes of CLI calls and checks every output."""

    def __init__(self, cli, workload: cases.Workload) -> None:
        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reference_digests: dict[str, str] | None = None
        self.reference_counts: Counter | None = None
        self.probe_rounds = 1
        # Off in traced runs, where the probes would land inside spans.
        self.sampler: hostprobe.Sampler | None = hostprobe.Sampler(SAMPLE_INTERVAL_S)

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"perfbench: {self.workload.name}: {what}", file=sys.stderr)

    def _invoke(self, argv: tuple[str, ...]) -> tuple[int | None, float, list[float]]:
        """Call the CLI; return its exit code, its seconds without the probes
        taken during it, and those probes."""
        sampler = self.sampler
        with open(os.devnull, "w", encoding="utf-8") as sink, \
                contextlib.redirect_stdout(sink):
            if sampler:
                sampler.start()
            start = perf_counter()
            try:
                code = self.cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a traceback is a failed call, not a crash
                traceback.print_exc()
                code = None
            finally:
                if sampler:
                    sampler.stop()
            seconds = perf_counter() - start
        if not sampler:
            return code, seconds, []
        return code, seconds - sampler.spent, sampler.samples

    def run_pass(self, calls: tuple[cases.Call, ...]) -> PassResult:
        """Make each call once and check its outputs."""
        gc.collect()
        wall = scaled = 0.0
        digests: dict[str, str] = {}
        counts: Counter = Counter()
        reference = self.reference_digests or {}
        before = hostprobe.probe(self.probe_rounds)
        for call in calls:
            code, seconds, during = self._invoke(call.argv)
            after = hostprobe.probe(self.probe_rounds)
            wall += seconds
            # Each call is scaled by the mean of the probes on either side of
            # it and during it.
            samples = [before, *during, after]
            scaled += seconds * hostprobe.PROBE_REF_S * len(samples) / sum(samples)
            before = after
            self.attempted += 1
            problems = [] if code == 0 else [f"exit code {code}"]
            for name in call.outputs:
                key = f"{call.key}:{name}"
                path = call.out_dir / name
                if not path.is_file():
                    problems.append(f"{name} missing")
                    continue
                data = path.read_bytes()
                digests[key] = digest = hashlib.sha256(data).hexdigest()
                expected = self.workload.pinned.get(key) or reference.get(key)
                if expected and digest != expected:
                    problems.append(f"{key} sha256 {digest} != {expected}")
                if name == "trace.jsonl":
                    counts.update(cases.trace_counts(data))
            if call.same_as:
                name, other = call.same_as
                if digests.get(f"{call.key}:{name}") != digests.get(other):
                    problems.append(f"{name} differs from {other}")
            if problems:
                self.fail(f"{call.key}: {'; '.join(problems)}")
        if self.reference_digests is None:
            self.reference_digests, self.reference_counts = digests, counts
            self.probe_rounds = max(1, round(PROBE_SHARE * wall / (len(calls) + 1)
                                             / hostprobe.PROBE_REF_S))
        elif counts and counts != self.reference_counts:
            self.fail(f"simulated counts changed: {dict(counts)} != "
                      f"{dict(self.reference_counts)}")
        return PassResult(wall, scaled, digests, counts)

    def timed_passes(self, seconds: float, min_passes: int) -> list[PassResult]:
        passes: list[PassResult] = []
        deadline = perf_counter() + seconds
        while len(passes) < min_passes or perf_counter() < deadline:
            passes.append(self.run_pass(self.workload.timed))
        return passes


def measure_setup(runner: Runner) -> tuple[float, float]:
    """Median set-up time over several fresh interpreters, scaled to the
    reference host speed by the probe each interpreter runs after set-up;
    and the median unscaled."""
    script = Path(__file__).with_name("setup_probe.py")
    argv = [sys.executable, str(script), str(SRC),
            *(f"{path}:{policy}" for path, policy in runner.workload.setup_cases)]
    scaled, raw = [], []
    for _ in range(SETUP_LAUNCHES):
        runner.attempted += 1
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                              timeout=120, check=False)
        if proc.returncode == 0:
            setup, probe = map(float, proc.stdout.split()[-2:])
            raw.append(setup)
            scaled.append(setup * hostprobe.PROBE_REF_S / probe)
        else:
            runner.fail(f"set-up probe exit code {proc.returncode}: {proc.stderr.strip()}")
    if not raw:
        return 0.0, 0.0
    return statistics.median(scaled), statistics.median(raw)


def end_to_end(runner: Runner, seconds: float) -> tuple[dict[str, float], list[str]]:
    setup_s, setup_raw = measure_setup(runner)
    runner.run_pass(runner.workload.timed + runner.workload.checks)
    passes = runner.timed_passes(seconds, MIN_PASSES)
    wall_s = statistics.median(p.scaled for p in passes)
    walls = [p.wall for p in passes]
    metrics = {
        "wall_s": wall_s,
        "agent_steps_per_s": runner.reference_counts["agent_steps"] / wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [f"passes {len(walls)}, unscaled pass seconds min {min(walls):.4f} "
             f"median {statistics.median(walls):.4f} max {max(walls):.4f}; "
             f"unscaled ÷ scaled median {statistics.median(walls) / wall_s:.3f}; "
             f"unscaled setup {setup_raw:.4f} s"]
    return metrics, notes


def per_layer(runner: Runner, seconds: float, spans_path: Path
              ) -> tuple[dict[str, float], list[str]]:
    workload = runner.workload
    runner.sampler = None
    runner.run_pass(workload.timed + workload.checks)
    untraced = runner.timed_passes(seconds / 3, 2)
    tracer = layers.Tracer()
    tracer.install()
    traced: list[PassResult] = []
    pass_ids: list[int] = []
    try:
        deadline = perf_counter() + seconds * 2 / 3
        while len(traced) < 2 or (perf_counter() < deadline
                                  and len(traced) < MAX_TRACED_PASSES):
            tracer.pass_id = len(traced)
            traced.append(runner.run_pass(workload.timed))
            pass_ids.append(tracer.pass_id)
        if workload.checks:
            # Traced again so the counts they give are compared with the
            # untraced ones; their spans are left out of the summary.
            tracer.pass_id = "check"
            runner.run_pass(workload.checks)
    finally:
        tracer.uninstall()
    leftovers = tracer.leftover_wrappers()
    if leftovers:
        runner.fail(f"wrappers left installed: {leftovers}")

    metrics = layers.summarize(tracer, pass_ids)
    ref = runner.reference_counts
    sent = sum(ref[f"msg_{t}"] for t in cases.MESSAGE_TYPES)
    composed = ref["msg_response"] + ref["replies_dropped"]
    metrics.update({
        "comms.messages_sent": sent,
        "comms.reply_dropped_ratio": ref["replies_dropped"] / composed if composed else 0.0,
        "comms.meeting_cancel_ratio": (ref["meetings_cancelled"] / ref["msg_meeting_invite"]
                                       if ref["msg_meeting_invite"] else 0.0),
        "alignment.af_updates": ref["af_updates"],
        "trace.events": traced[-1].counts["events"],
        "trace.bytes": traced[-1].counts["trace_bytes"],
        # Scaled times, as host speed can change between the two sets.
        "trace.overhead_ratio": (statistics.median(p.scaled for p in traced)
                                 / statistics.median(p.scaled for p in untraced)),
        "sim.runs": ref["runs"],
        "sim.steps": ref["steps"],
        "sim.agent_steps": ref["agent_steps"],
        "sim.events": ref["events"],
        "sim.meetings_held": ref["msg_meeting_start"],
        "sim.meetings_cancelled": ref["meetings_cancelled"],
        "sim.replies_dropped": ref["replies_dropped"],
        "src.lines": sum(len(p.read_bytes().splitlines())
                         for p in sorted((SRC / "teamsim").rglob("*.py"))),
    })
    metrics.update({f"comms.msg_{t}": ref[f"msg_{t}"] for t in cases.MESSAGE_TYPES})

    with spans_path.open("w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span, separators=(",", ":")) + "\n")

    layer_self = {layer: metrics[f"{layer}.self_s"] for layer in layers.LAYERS}
    total = sum(layer_self.values()) or 1.0
    top = sorted(layer_self.items(), key=lambda kv: -kv[1])[:3]
    notes = [
        f"untraced passes {len(untraced)}, traced passes {len(traced)}, "
        f"unscaled traced pass median {statistics.median(p.wall for p in traced):.4f} s",
        "top self-time layers: " + ", ".join(f"{k} {v / total:.0%}" for k, v in top),
        f"absent targets: {tracer.absent or 'none'}",
        f"absent metrics (reported as 0): {layers.absent_metrics(tracer) or 'none'}",
        f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}",
    ]
    return metrics, notes


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    parser.add_argument("--seed", type=int, default=cases.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_cli():
    """Import `teamsim.cli` from this checkout's sources, or return None."""
    if not (SRC / "teamsim" / "cli.py").is_file():
        print(f"perfbench: no teamsim sources under {SRC}", file=sys.stderr)
        return None
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import teamsim.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "teamsim":
        print(f"perfbench: imported teamsim from {cli.__file__}, not {SRC}", file=sys.stderr)
        return None
    return cli


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    cli = load_cli()
    if cli is None:
        return 2

    OUT_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT))
    try:
        runner = Runner(cli, cases.WORKLOADS[args.workload](ROOT, work, args.seed))
        if args.trace:
            spans_path = OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, notes = per_layer(runner, args.seconds, spans_path)
        else:
            metrics, notes = end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = declared_metrics(bool(args.trace))
    for note in notes:
        print(note)
    for name, unit in units.items():
        print(f"{name:<40} {metrics[name]:>16.6g} {unit}")
    print(f"{'fail_ratio':<40} {runner.failed / runner.attempted:>16.6g} ratio "
          f"({runner.failed} of {runner.attempted} calls)")
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
