"""`MetricsFold` against the list-based oracle it replaced: equal reports,
byte-equal `metrics.csv` rows, a `run` that writes what a `TraceLog` writes,
an unchanged `compare`, and a `run` and a `report` that never hold the
trace."""

import contextlib
import dataclasses
import functools
import hashlib
import io
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from teamsim import cli
from teamsim.cli import main
from teamsim.comms import MessageType
from teamsim.config import emit_scenario, expand_team_shorthand, parse_scenario
from teamsim.engine import Simulation
from teamsim.metrics import (EventError, MetricsError, MetricsFold, compute_metrics,
                             render_report, write_csv)
from teamsim.model import Scenario, validate_scenario
from teamsim.trace import TraceLog

from conftest import (MEDIUM_TASK, SIMPLE_TASK, SKILL_POOL, ChainPlanner,
                      RandomDagPlanner, add_event, chain_scenario, make_scenario)
from metrics_oracle import oracle_metrics

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
POLICIES = ("no_comm", "fixed_steps", "c2c_heuristic")


def _roots_scenario(roots: int, team: str) -> Scenario:
    """`roots` medium roots on a shorthand team under the heuristic policy."""
    return validate_scenario(Scenario(
        name=f"{roots}_roots", team=expand_team_shorthand(team, SKILL_POOL),
        tasks=[MEDIUM_TASK] * roots, policy_name="c2c_heuristic",
        skill_pool=tuple(SKILL_POOL), team_label=team,
    ))


def _setup(run: str):
    """The scenario and planner of one named run."""
    if "/" in run:
        name, policy = run.split("/")
        scenario = parse_scenario(SCENARIOS / f"{name}.yaml")
        return dataclasses.replace(scenario, policy_name=policy), None
    if run == "chain-planner":
        return dataclasses.replace(chain_scenario(), policy_name="c2c_heuristic"), \
            ChainPlanner()
    if run.startswith("random-dag-"):
        scenario = make_scenario(MEDIUM_TASK, "1M+5W", "c2c_heuristic")
        return (dataclasses.replace(scenario, tasks=[MEDIUM_TASK, SIMPLE_TASK]),
                RandomDagPlanner(int(run.rpartition("-")[2])))
    return _roots_scenario(8, "1M+32W"), None


RUNS = [f"{name}/{policy}" for name in ("simple", "medium", "complex", "multi_task")
        for policy in POLICIES] + ["chain-planner", "random-dag-0", "random-dag-19",
                                   "8-roots-1M+32W"]


def _csv_bytes(report, tmp_path: Path, name: str) -> bytes:
    path = tmp_path / name
    write_csv([report.csv_row("label", "scenario")], path)
    return path.read_bytes()


def _assert_same(report, oracle, tmp_path: Path) -> None:
    assert report == oracle
    assert _csv_bytes(report, tmp_path, "fold.csv") == \
        _csv_bytes(oracle, tmp_path, "oracle.csv")
    assert render_report(report, "label", "scenario") == \
        render_report(oracle, "label", "scenario")


@pytest.mark.parametrize("run", RUNS)
def test_fold_equals_the_oracle(run, tmp_path, each_codec):
    scenario, planner = _setup(run)
    trace = Simulation(scenario, planner=planner).run().trace
    oracle = oracle_metrics(trace, scenario, baseline_hours=20.25)
    _assert_same(compute_metrics(trace, scenario, baseline_hours=20.25), oracle,
                 tmp_path)
    path = trace.write(tmp_path / "trace.jsonl")
    for _ in each_codec():
        streamed = compute_metrics(TraceLog.stream(path), scenario, baseline_hours=20.25)
        _assert_same(streamed, oracle, tmp_path)


def _cli_run(run: str, scenario: Scenario, planner, monkeypatch, out: Path) -> int:
    """`teamsim run` of a named run into `out`, with the baseline the oracle
    tests use. A scenario that is not a shipped file is handed to `cmd_run`
    as its parsed scenario, and a test planner through the `Simulation` it
    builds."""
    if "/" in run:
        name, policy = run.split("/")
        args = ["--scenario", str(SCENARIOS / f"{name}.yaml"), "--policy", policy]
    else:
        monkeypatch.setattr(cli, "parse_scenario", lambda path: scenario)
        args = ["--scenario", "unused.yaml"]
    if planner is not None:
        monkeypatch.setattr(cli, "Simulation",
                            functools.partial(Simulation, planner=planner))
    with contextlib.redirect_stdout(io.StringIO()):
        return main(["run", *args, "--out", str(out), "--baseline-hours", "20.25"])


@pytest.mark.parametrize("run", RUNS)
def test_run_writes_what_the_trace_log_writes(run, tmp_path, monkeypatch, each_codec):
    scenario, planner = _setup(run)
    log = Simulation(scenario, planner=planner).run().trace
    expected = compute_metrics(log, scenario, baseline_hours=20.25)
    _assert_same(expected, oracle_metrics(log, scenario, baseline_hours=20.25),
                 tmp_path)
    # The fold as a sink, which is how `compare` takes its metrics.
    fold = MetricsFold(scenario, baseline_hours=20.25)
    Simulation(scenario, planner=planner, trace=fold).run()
    _assert_same(fold.result(), expected, tmp_path)

    label = scenario.team_label or "custom"
    write_csv([expected.csv_row(label, scenario.name)], tmp_path / "metrics.csv")
    for codec in each_codec():
        out = tmp_path / codec
        code = _cli_run(run, scenario, planner, monkeypatch, out)
        assert code == (0 if expected.completion_rate >= 100.0 else 2)
        assert (out / "trace.jsonl").read_bytes() == \
            log.write(tmp_path / f"{codec}.jsonl").read_bytes()
        assert (out / "metrics.csv").read_bytes() == \
            (tmp_path / "metrics.csv").read_bytes()
        assert (out / "report.txt").read_text(encoding="utf-8") == \
            render_report(expected, label, scenario.name)


# sha256 of compare.csv and compare.txt over the three deterministic policies,
# as written when `compare` still computed each report from a held TraceLog.
COMPARE_DIGESTS = {
    "simple": ("0f2a32d60ada51a3ebf11d0cab8923f916af13782a41202150bd0aeb37a53413",
               "523125dc6bb246c5efb62ec5d904e3317dda79ec9664b0b90ff8ba25be3d5e88"),
    "medium": ("cdb26cb4baa6b534d5b2dadc5cfe01f6b423c0706c2c8738d4a548b1750fd51e",
               "d6ee120dc92b34ffd4fd648710e5cf55ef0131e4c4e0d7ff62a74371e64cd0b4"),
    "complex": ("4cbc8fc5ff271c18f4858839efc0685f406a0c63d937210050c639840beb30e7",
                "5e26281d0811b8dda860b5f5c3353edfc0b90c158f69b11e586e0ddc8e616343"),
    "multi_task": ("10bf11e727aa2098ef0aaef7b45fc6def1078cdeba0439b2858e4a897735e8f4",
                   "36f61d003b0a40ebbd34355d9ec6b62bf6ab9f9779d5dc722672128e3e7f05ea"),
}


@pytest.mark.parametrize("name", sorted(COMPARE_DIGESTS))
def test_compare_outputs_are_unchanged(name, tmp_path, each_codec):
    for codec in each_codec():
        out = tmp_path / codec
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["compare", "--scenario", str(SCENARIOS / f"{name}.yaml"),
                         "--policies", ",".join(POLICIES), "--out", str(out)]) == 0
        assert tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                     for f in ("compare.csv", "compare.txt")) == COMPARE_DIGESTS[name]


# sha256 of report.txt of `teamsim run` for each shipped run, as written when
# the heatmap was a dense sender x recipient grid.
REPORT_DIGESTS = {
    "complex/c2c_heuristic":
        "6c035bcca6da20f7395464e980422f1b37bc144efc2553e3c92de210fe046c2b",
    "complex/fixed_steps":
        "f1ef2983c11844da228166cd08b77f8565fdc12e5c0b11b592faf559c2208305",
    "complex/no_comm":
        "d78f929919979c89894118e522812650d562bfc7681454ada57a6243b09dcff6",
    "medium/c2c_heuristic":
        "6820cf3d54db6e33e3647cb8f9ef9b49fe41420c55164b63000da45435e5fb50",
    "medium/fixed_steps":
        "9869ed624b2eb1964b53f412b47c03668050e73538a3a68f5c95a8cbf3cc7a71",
    "medium/no_comm":
        "a6b8682aa0d41c0d31ec0f0afb6f9103fd665956714f6ddc3c0e3a913e1a7ef4",
    "multi_task/c2c_heuristic":
        "e25efed45b3ba1ecdd0c5a5fcb043629258916f28ce2f6a2747c54de57ecdd16",
    "multi_task/fixed_steps":
        "86a43f131d14e6a5a0bf27e13205b12a687135c47f630fcb90ab2d38e6711654",
    "multi_task/no_comm":
        "3fccd9ab5dffd315af3b2884493b3d0cb997d8864bbea25d32de373eb646966f",
    "simple/c2c_heuristic":
        "7961943dcbf682d4761eb88e0194bf60583e5bb5fa8fad8013102e1c13a69d9e",
    "simple/fixed_steps":
        "3ddd1748eecbf2a8520269a31e4efe6bc10961fb24b8f7834169c2c09b4313a3",
    "simple/no_comm":
        "e4bf85c16cf6c98404e45b5290d982add44af8b89c608dfa2cb2544970777bd2",
}


@pytest.mark.parametrize("run", sorted(REPORT_DIGESTS))
def test_run_reports_are_unchanged(run, tmp_path):
    name, policy = run.split("/")
    with contextlib.redirect_stdout(io.StringIO()):
        main(["run", "--scenario", str(SCENARIOS / f"{name}.yaml"),
              "--policy", policy, "--out", str(tmp_path)])
    assert hashlib.sha256((tmp_path / "report.txt").read_bytes()).hexdigest() == \
        REPORT_DIGESTS[run]


# Synthetic traces in any order the fold accepts: af_update steps never go
# back, everything else lands anywhere, including replies before the message
# that starts their thread, a thread started twice, updates before their
# step's actions or past the final step, and steps before 0.
_AGENTS = ["M1", "W1", "W2"]
_steps = st.integers(-1, 12)
_others = st.one_of(
    st.tuples(_steps, st.just("action"), st.fixed_dictionaries({})),
    st.tuples(_steps, st.just("progress"), st.fixed_dictionaries({})),
    st.tuples(_steps, st.just("message_sent"), st.fixed_dictionaries({
        "thread_id": st.sampled_from(["th1", "th2", "th3", "th4"]),
        "type": st.sampled_from([t.value for t in MessageType] + ["RESPONSE"] * 3),
        "channel": st.sampled_from(["chat", "email", "meeting"]),
        "cost_h": st.one_of(st.sampled_from([0.05, 0.1 + 0.2, 1e-17, 3.0]),
                            st.floats(0.0, 10.0)),
        "sent_step": st.integers(0, 12),
    })),
    st.tuples(_steps, st.just("message_delivered"), st.fixed_dictionaries({
        "from": st.sampled_from(_AGENTS + ["X9"]),
        "to": st.sampled_from(_AGENTS + ["X9"]),
    })),
    st.tuples(_steps, st.just("task_done"), st.fixed_dictionaries({
        "task": st.sampled_from(["T1", "T2"]),
        "root": st.booleans(),
        "boundary": st.integers(1, 13),
    })),
)
_updates = st.lists(st.tuples(
    _steps,
    st.fixed_dictionaries({
        "agent": st.sampled_from(_AGENTS[1:]),
        "task": st.sampled_from(["T1.1", "T1.2"]),
        "new": st.one_of(st.sampled_from([0.3, 0.45, 1.0, 0.1 + 0.2]),
                         st.floats(0.01, 1.0)),
    }),
), max_size=12)


@st.composite
def _traces(draw) -> TraceLog:
    others = draw(st.lists(_others, max_size=40))
    updates = sorted(draw(_updates), key=lambda update: update[0])
    slots = sorted(draw(st.lists(st.integers(0, len(others)),
                                 min_size=len(updates), max_size=len(updates))))
    events = list(others)
    for offset, (slot, (step, payload)) in enumerate(zip(slots, updates)):
        events.insert(slot + offset, (step, "af_update", payload))
    log = TraceLog()
    for step, kind, payload in events:
        add_event(log, step, kind, payload)
    return log


def _outcome(compute):
    try:
        return compute()
    except MetricsError as exc:
        return str(exc)


def _log(*events) -> TraceLog:
    log = TraceLog()
    for step, kind, payload in events:
        add_event(log, step, kind, payload)
    return log


def _sent(step, thread_id, kind, channel, sent_step):
    return (step, "message_sent", {"thread_id": thread_id, "type": kind,
                                   "channel": channel, "cost_h": 0.05,
                                   "sent_step": sent_step})


def _update(step, agent, value):
    return (step, "af_update", {"agent": agent, "task": "T1.1", "new": value})


# Traces that fail each of these mutations of the fold, whatever examples are
# drawn. The first: a reply dropped when it comes before the message that
# starts its thread, a thread started twice timed from its first start, a
# reply timed from its sent step instead of its delivery, a sender outside
# the team in the heatmap, a subtask's completion taken for a root's, a
# MEETING_START counted in the shares, and an action at the final step not
# moving it. The second: an update at a negative step sampled, an update at
# or past the final step known so far sampled (on arrival or when a later
# action lands), and equal samples summed instead of taken as the mean.
@example(_log((0, "action", {}),
              (0, "message_delivered", {"from": "X9", "to": "W1"}),
              (0, "message_delivered", {"from": "M1", "to": "W1"}),
              _sent(2, "th1", "RESPONSE", "chat", 2),
              _sent(1, "th1", "HELP_REQUEST", "chat", 0),
              _sent(1, "th1", "NEED_CLARIFICATION", "email", 1),
              _sent(1, "th2", "MEETING_START", "meeting", 1),
              (3, "task_done", {"task": "T1", "root": False, "boundary": 4}),
              (3, "task_done", {"task": "T2", "root": True, "boundary": 4}),
              (3, "action", {}), (4, "action", {})))
@example(_log(_update(-1, "W1", 0.9), (0, "action", {}), _update(0, "W1", 0.1),
              (1, "action", {}), _update(3, "W2", 0.5), (2, "action", {}),
              _update(3, "W2", 0.45)))
@settings(max_examples=300, deadline=None, derandomize=True)
@given(_traces())
def test_fold_equals_the_oracle_on_synthetic_traces(trace):
    scenario = make_scenario(MEDIUM_TASK, "1M+2W")
    scenario = dataclasses.replace(scenario, tasks=[MEDIUM_TASK, SIMPLE_TASK])
    report = _outcome(lambda: compute_metrics(trace, scenario, baseline_hours=9.0))
    oracle = _outcome(lambda: oracle_metrics(trace, scenario, baseline_hours=9.0))
    assert report == oracle
    if not isinstance(oracle, str):
        assert render_report(report, "c", "s") == render_report(oracle, "c", "s")


# Root completions the fold refuses, each an `EventError` naming the event.
_BAD_COMPLETIONS = st.sampled_from([
    {"task": "T9", "root": True, "boundary": 3},  # a root the scenario lacks
    {"task": "T1", "root": True, "boundary": 10 ** 400},  # too large for hours
])


@st.composite
def _split_traces(draw) -> tuple[list[dict], list[int], int | None]:
    """A synthetic trace, maybe with one bad root completion put anywhere in
    it, the points it is split into batches at (empty batches included), and
    the `seq` of the bad completion, if there is one."""
    events = draw(_traces()).events
    bad_seq = None
    if draw(st.booleans()):
        bad_seq = draw(st.integers(0, len(events)))
        bad = {"step": draw(_steps), "seq": None, "kind": "task_done",
               **draw(_BAD_COMPLETIONS)}
        events = [*events[:bad_seq], bad, *events[bad_seq:]]
    log = TraceLog()
    for record in events:
        add_event(log, record["step"], record["kind"],
                  {k: v for k, v in record.items() if k not in ("step", "seq", "kind")})
    cuts = sorted(draw(st.lists(st.integers(0, len(events)), max_size=6)))
    return log.events, cuts, bad_seq


def _fold_batches(batches: list[list[dict]], scenario: Scenario):
    """The report of a fold extended with `batches` in order, or the error
    that ended it: an `EventError` as the seq and kind of the event it names
    and its text."""
    fold = MetricsFold(scenario, baseline_hours=9.0)
    try:
        for batch in batches:
            fold.extend(batch)
        return fold.result()
    except EventError as exc:
        return exc.record["seq"], exc.record["kind"], str(exc)
    except MetricsError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_split_traces())
def test_fold_is_the_same_however_the_trace_is_batched(drawn):
    events, cuts, bad_seq = drawn
    scenario = make_scenario(MEDIUM_TASK, "1M+2W")
    scenario = dataclasses.replace(scenario, tasks=[MEDIUM_TASK, SIMPLE_TASK])
    split = _fold_batches([events[start:end] for start, end
                           in zip([0, *cuts], [*cuts, len(events)])], scenario)
    one_by_one = _fold_batches([[record] for record in events], scenario)
    assert split == one_by_one
    if bad_seq is None:
        assert split == _outcome(lambda: oracle_metrics(events, scenario,
                                                        baseline_hours=9.0))
    else:
        assert split[:2] == (bad_seq, "task_done")


@pytest.mark.parametrize("events", [
    [(0, "action"), (0, 0.5), (0, 0.1), (1, "action"), (2, "action")],
    [(0, "action"), (0, 0.1), (1, "action"), (3, 0.5), (2, "action")],
], ids=["overwritten-in-its-step", "at-the-final-step"])
def test_unsampled_updates_leave_identical_samples_exact(events):
    # 0.1 held for 3 steps is the mean itself; summed and divided it would
    # read 0.10000000000000002.
    trace = TraceLog()
    for step, value in events:
        if value == "action":
            add_event(trace, step, "action", {})
        else:
            add_event(trace, step, "af_update", {"agent": "W1", "task": "T1.1", "new": value})
    scenario = make_scenario(MEDIUM_TASK)
    assert compute_metrics(trace, scenario).alignment_score == 0.1
    assert oracle_metrics(trace, scenario).alignment_score == 0.1


def test_af_update_steps_going_back_are_rejected():
    trace = TraceLog()
    for step in range(4):
        add_event(trace, step, "action", {})
    for step in (2, 1):
        add_event(trace, step, "af_update", {"agent": "W1", "task": "T1.1", "new": 0.5})
    with pytest.raises(MetricsError, match="af_update at step 1 follows one at step 2"):
        compute_metrics(trace, make_scenario(MEDIUM_TASK))



def test_efficiency_beyond_the_float_range_is_a_metrics_error():
    # Two finished roots of 1e308 hours each: their summed hours overflow,
    # where `math.fsum` raised OverflowError out of `result()` before.
    trace = TraceLog()
    add_event(trace, 0, "action", {})
    for task in ("T1", "T2"):
        add_event(trace, 0, "task_done", {"task": task, "root": True, "boundary": 4})
    scenario = make_scenario(MEDIUM_TASK)
    scenario = dataclasses.replace(
        scenario, tasks=[MEDIUM_TASK._replace(estimated_hours=1e308)] * 2)
    with pytest.raises(MetricsError, match="^efficiency exceeds the float range$"):
        compute_metrics(trace, scenario)

def _report_peak(tmp_path: Path, roots: int) -> tuple[int, int]:
    """Peak bytes allocated by `teamsim report`, and bytes a read trace holds."""
    run_dir = tmp_path / f"{roots}-roots"
    scenario_path = tmp_path / f"{roots}-roots.yaml"
    scenario_path.write_text(emit_scenario(_roots_scenario(roots, "1M+16W")),
                             encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--scenario", str(scenario_path), "--out", str(run_dir),
                     "--max-steps", "3000"]) == 0
        tracemalloc.start()
        try:
            assert main(["report", "--run", str(run_dir)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    tracemalloc.start()
    try:
        log = TraceLog.read(run_dir / "trace.jsonl")
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert log.events
    return peak, held


def test_report_streams_the_trace(tmp_path):
    peak_16, held_16 = _report_peak(tmp_path, 16)
    peak_32, _ = _report_peak(tmp_path, 32)
    assert peak_16 < held_16 / 4
    assert peak_32 < 2 * peak_16


def _run_peaks(tmp_path: Path, roots: int) -> tuple[int, int]:
    """Peak bytes allocated by `teamsim run` on `roots` roots x 16W, and by the
    same run in a `Simulation` that keeps its `TraceLog`."""
    scenario = _roots_scenario(roots, "1M+16W")
    scenario_path = tmp_path / f"{roots}-roots.yaml"
    scenario_path.write_text(emit_scenario(scenario), encoding="utf-8")
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", "--scenario", str(scenario_path), "--max-steps", "3000",
                         "--out", str(tmp_path / f"{roots}-roots")]) == 0
        _, streamed = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tracemalloc.start()
    try:
        log = Simulation(scenario, max_steps=3000).run().trace
        _, held = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert log.events
    return streamed, held


def test_run_streams_the_trace(tmp_path):
    peak_16, held_16 = _run_peaks(tmp_path, 16)
    peak_32, held_32 = _run_peaks(tmp_path, 32)
    assert peak_16 < held_16 / 2
    # What is left grows with the run's own state (threads, their roots, the
    # fold's threads), which doubles with the roots; the events no longer
    # add to it.
    assert peak_32 - peak_16 < (held_32 - held_16) / 2
