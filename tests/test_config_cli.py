"""Scenario files, team shorthand, round-tripping, and the CLI surface."""

import csv
import json
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from teamsim import config
from teamsim.cli import main
from teamsim.config import (emit_scenario, expand_team_shorthand,
                            parse_scenario, parse_scenario_text)
from teamsim.model import (EVALUATOR_NAMES, POLICY_NAMES, AgentProfile, Role,
                           Scenario, ScenarioError, TaskSpec)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

APPENDIX_STYLE = """\
name: simple
team: 1M+4W
seed: 3
policy: no_comm
tasks:
  - description: "Fix five independent bugs across modules: login validation, data parsing, UI rendering glitches, API timeout handling, and a database connection leak. No cross-dependencies."
    hours: 8.0
    skills: ["backend", "frontend", "database", "api", "testing"]
"""

EXPLICIT_TEAM = """\
name: custom
seed: 1
team:
  - {id: M1, name: Morgan, role: manager, skills: [planning, coordination]}
  - {id: W1, name: Kai, role: worker, skills: [backend, api]}
  - {id: W2, name: Ash, role: worker, skills: [testing, api]}
tasks:
  - description: "Ship the integration"
    hours: 4.0
    skills: [backend, api, testing]
"""


class TestParsing:
    def test_appendix_style_block(self):
        scenario = parse_scenario_text(APPENDIX_STYLE)
        assert scenario.tasks[0].estimated_hours == 8.0
        assert len(scenario.tasks[0].required_skills) == 5
        assert len(scenario.team) == 5
        assert scenario.seed == 3

    def test_shorthand_expansion_counts(self):
        team = expand_team_shorthand("1M+8W", ["a", "b", "c", "d"])
        assert len(team) == 9
        assert sum(1 for a in team if a.role is Role.MANAGER) == 1
        for worker in team[1:]:
            assert 2 <= len(worker.skills) <= 4

    def test_rotation_covers_pool(self):
        pool = ["a", "b", "c", "d", "e", "f"]
        team = expand_team_shorthand("1M+4W", pool)
        union = frozenset().union(*(w.skills for w in team[1:]))
        assert union == frozenset(pool)

    def test_explicit_team(self):
        scenario = parse_scenario_text(EXPLICIT_TEAM)
        assert [a.agent_id for a in scenario.team] == ["M1", "W1", "W2"]
        assert scenario.team_label == "1M+2W"

    def test_multi_task_scenario(self):
        text = EXPLICIT_TEAM + (
            "  - description: \"Document the rollout\"\n"
            "    hours: 2.0\n"
            "    skills: [api]\n"
        )
        scenario = parse_scenario_text(text)
        assert len(scenario.tasks) == 2

    def test_missing_field_error(self):
        with pytest.raises(ScenarioError, match="missing field: tasks"):
            parse_scenario_text("team: 1M+2W\n")
        with pytest.raises(ScenarioError, match="tasks\\[0\\].hours"):
            parse_scenario_text(
                "team: 1M+2W\ntasks:\n  - description: x\n")

    def test_unknown_skill_reference(self):
        text = (
            "team: 1M+2W\n"
            "skill_pool: [backend]\n"
            "tasks:\n"
            "  - description: x\n"
            "    hours: 1.0\n"
            "    skills: [warp-drive]\n"
        )
        with pytest.raises(ScenarioError, match="unknown skill reference"):
            parse_scenario_text(text)

    def test_malformed_yaml(self):
        with pytest.raises(ScenarioError, match="malformed scenario syntax"):
            parse_scenario_text("team: [unclosed\n")

    @pytest.mark.parametrize("tasks", [
        "tasks: 5\n",
        "tasks:\n  - {description: x, hours: abc, skills: [a]}\n",
        "tasks:\n  - {description: x, hours: 1.0, skills: 7}\n",
    ], ids=["tasks-not-a-list", "hours-not-a-number", "skills-not-a-list"])
    def test_wrongly_typed_field(self, tasks):
        with pytest.raises(ScenarioError, match="malformed scenario field"):
            parse_scenario_text("team: 1M+2W\n" + tasks)

    def test_malformed_shorthand(self):
        with pytest.raises(ScenarioError, match="malformed team shorthand"):
            parse_scenario_text(
                "team: 2X+1Y\ntasks:\n  - {description: x, hours: 1.0, skills: [a]}\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            parse_scenario(tmp_path / "nope.yaml")

    def test_round_trip(self):
        scenario = parse_scenario_text(APPENDIX_STYLE)
        assert parse_scenario_text(emit_scenario(scenario)) == scenario
        explicit = parse_scenario_text(EXPLICIT_TEAM)
        assert parse_scenario_text(emit_scenario(explicit)) == explicit


WIDE_TEAM = """\
name: wide
team: 1M+64W
skill_pool: [backend, api, authentication, oauth, testing, documentation]
tasks:
  - description: "Integrate an external API with authentication."
    hours: 24.0
    skills: [backend, api, authentication, oauth, testing, documentation]
  - description: "Harden the token refresh path"
    hours: 7.5
    skills: [oauth, testing]
"""


class TestLibyaml:
    def test_libyaml_is_used_when_available(self):
        if yaml.__with_libyaml__:
            assert config._LOADER is yaml.CSafeLoader
            assert config._DUMPER is yaml.CSafeDumper
        else:
            assert config._LOADER is yaml.SafeLoader
            assert config._DUMPER is yaml.SafeDumper

    @pytest.mark.parametrize("text", [
        *(pytest.param((SCENARIOS / f"{name}.yaml").read_text(encoding="utf-8"),
                       id=name)
          for name in ("simple", "medium", "complex", "multi_task")),
        pytest.param(WIDE_TEAM, id="1M+64W"),
    ])
    def test_same_scenario_and_text_as_pure_python(self, monkeypatch, text):
        scenario = parse_scenario_text(text)
        emitted = emit_scenario(scenario)
        reparsed = parse_scenario_text(emitted)
        monkeypatch.setattr(config, "_LOADER", yaml.SafeLoader)
        monkeypatch.setattr(config, "_DUMPER", yaml.SafeDumper)
        assert parse_scenario_text(text) == scenario
        assert emit_scenario(scenario) == emitted
        assert parse_scenario_text(emitted) == reparsed == scenario

    @pytest.mark.parametrize("content", [
        "team: [unclosed\n",
        "team: 1M+2W\n  tasks: x\n- y\n",
        "name: \"open\nteam: 1M+2W\n",
        "name: a\x01b\n",
    ], ids=["unclosed-flow", "bad-indent", "unclosed-quote", "control-char"])
    def test_malformed_yaml_is_one_line_exit_5(self, tmp_path, capsys, content):
        path = tmp_path / "bad.yaml"
        path.write_text(content, encoding="utf-8")
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("scenario error: malformed scenario syntax")
        assert err.count("\n") == 1

    def test_lone_surrogate_is_a_syntax_error(self):
        with pytest.raises(ScenarioError, match="malformed scenario syntax"):
            parse_scenario_text("name: \ud800\nteam: 1M+1W\n")

    def test_non_ascii_is_written_raw(self):
        scenario = parse_scenario_text(
            APPENDIX_STYLE.replace("name: simple", "name: \"Café – naïve\""))
        assert "name: Café – naïve\n" in emit_scenario(scenario)


# Astral characters and U+0085 are escaped by libyaml's emitter and must
# still come back unchanged.
_chars = st.one_of(
    st.sampled_from(["\x85", "\U0001F600", "\U00010348", "\u2028", "\t", "#",
                     ":", "'", '"', "-", " "]),
    st.characters(codec="utf-8"),
)
_texts = st.text(_chars, max_size=12)
_skills = st.text(_chars, min_size=1, max_size=8).map(str.lower)


@st.composite
def scenarios(draw) -> Scenario:
    tasks = draw(st.lists(st.builds(
        TaskSpec,
        description=_texts,
        estimated_hours=st.floats(0.01, 1e6),
        required_skills=st.frozensets(_skills, max_size=3),
    ), min_size=1, max_size=3))
    ids = draw(st.lists(_texts, min_size=2, max_size=4, unique=True))
    team = [
        AgentProfile(agent_id=agent_id, name=draw(_texts),
                     role=Role.MANAGER if i == 0 else Role.WORKER,
                     skills=draw(st.frozensets(_skills, min_size=1, max_size=3)))
        for i, agent_id in enumerate(ids)
    ]
    pool = {s for t in tasks for s in t.required_skills}
    pool |= draw(st.frozensets(_skills, max_size=2))
    return Scenario(
        name=draw(_texts),
        team=team,
        tasks=tasks,
        policy_name=draw(st.sampled_from(POLICY_NAMES)),
        evaluator_name=draw(st.sampled_from(EVALUATOR_NAMES)),
        seed=draw(st.integers(0, 2 ** 31)),
        skill_pool=tuple(sorted(pool)) or ("x",),
        team_label=draw(_texts.filter(bool)),
    )


@pytest.mark.skipif(not yaml.__with_libyaml__,
                    reason="PyYAML's pure-Python emitter writes U+0085 raw, "
                           "and it reads back as a line break")
@settings(max_examples=50, deadline=None, derandomize=True)
@given(scenarios())
def test_emitted_scenario_parses_back(scenario):
    assert parse_scenario_text(emit_scenario(scenario)) == scenario


@pytest.fixture
def scenario_file(tmp_path) -> Path:
    path = tmp_path / "simple.yaml"
    path.write_text(APPENDIX_STYLE, encoding="utf-8")
    return path


class TestCliRun:
    def test_happy_path_writes_outputs(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(scenario_file), "--out", str(out)])
        assert code == 0
        for name in ("trace.jsonl", "metrics.csv", "report.txt", "scenario.yaml"):
            assert (out / name).exists()
        rows = list(csv.reader((out / "metrics.csv").open()))
        assert rows[0][:3] == ["config", "complexity", "completion_rate"]
        assert rows[1][0] == "1M+4W"
        assert rows[1][2] == "100.0"
        assert "completion_rate: 100.0%" in capsys.readouterr().out

    def test_step_cap_exits_incomplete(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(scenario_file),
                     "--out", str(out), "--max-steps", "4"])
        assert code == 2

    def test_llm_policy_without_endpoint_exits_3(self, scenario_file, tmp_path):
        code = main(["run", "--scenario", str(scenario_file),
                     "--policy", "c2c_llm", "--out", str(tmp_path / "o")])
        assert code == 3

    def test_zero_steps_is_a_one_line_error(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(scenario_file),
                     "--out", str(out), "--max-steps", "0"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("metrics error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("content", [b"team: [unclosed\n", b"name: \xff\n", None],
                             ids=["malformed", "not-utf8", "missing"])
    def test_bad_scenario_is_a_one_line_error(self, tmp_path, capsys, content):
        path = tmp_path / "bad.yaml"
        if content is not None:
            path.write_bytes(content)
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("scenario error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("out", ["file/sub", "file", "taken"],
                             ids=["under-a-file", "is-a-file", "trace-is-a-dir"])
    def test_unwritable_out_is_a_one_line_error(self, scenario_file, tmp_path,
                                                capsys, out):
        (tmp_path / "file").write_text("x", encoding="utf-8")
        (tmp_path / "taken" / "trace.jsonl").mkdir(parents=True)
        code = main(["run", "--scenario", str(scenario_file),
                     "--out", str(tmp_path / out)])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1

    def test_trace_is_valid_jsonl(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_file), "--out", str(out)])
        for line in (out / "trace.jsonl").read_text().splitlines():
            record = json.loads(line)
            assert {"step", "seq", "kind"} <= record.keys()

    def test_policy_override_recorded_in_snapshot(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_file), "--out", str(out),
              "--policy", "fixed_steps"])
        snapshot = parse_scenario(out / "scenario.yaml")
        assert snapshot.policy_name == "fixed_steps"


class TestCliCompare:
    def test_three_policy_grid(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = main(["compare", "--scenario", str(scenario_file),
                     "--policies", "no_comm,fixed_steps,c2c_heuristic",
                     "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        for column in ("no_comm", "fixed_steps", "c2c_heuristic"):
            assert column in text
        assert "speedup_vs_first" in text
        rows = list(csv.reader((out / "compare.csv").open()))
        assert len(rows) == 4  # header + one per policy

    def test_single_policy_is_usage_error(self, scenario_file, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "--scenario", str(scenario_file),
                  "--policies", "no_comm", "--out", str(tmp_path / "x")])
        assert excinfo.value.code == 2

    def test_zero_steps_is_a_one_line_error(self, scenario_file, tmp_path, capsys):
        code = main(["compare", "--scenario", str(scenario_file),
                     "--policies", "no_comm,c2c_heuristic",
                     "--out", str(tmp_path / "cmp"), "--max-steps", "0"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("metrics error: ") and err.count("\n") == 1

    def test_malformed_scenario_is_a_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("team: [unclosed\n", encoding="utf-8")
        code = main(["compare", "--scenario", str(path),
                     "--policies", "no_comm,c2c_heuristic",
                     "--out", str(tmp_path / "cmp")])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("scenario error: ") and err.count("\n") == 1

    def test_unwritable_out_is_a_one_line_error(self, scenario_file, tmp_path,
                                                capsys):
        (tmp_path / "file").write_text("x", encoding="utf-8")
        code = main(["compare", "--scenario", str(scenario_file),
                     "--policies", "no_comm,c2c_heuristic",
                     "--out", str(tmp_path / "file" / "sub")])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1

    def test_compare_deterministic_across_invocations(self, scenario_file,
                                                      tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["compare", "--scenario", str(scenario_file),
              "--policies", "no_comm,c2c_heuristic", "--out", str(out1)])
        first = capsys.readouterr().out
        main(["compare", "--scenario", str(scenario_file),
              "--policies", "no_comm,c2c_heuristic", "--out", str(out2)])
        second = capsys.readouterr().out
        assert first == second
        assert (out1 / "compare.csv").read_text() == \
            (out2 / "compare.csv").read_text()


class TestCliReport:
    def test_report_recomputes_from_run_dir(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_file), "--out", str(out)])
        run_report = (out / "report.txt").read_text()
        capsys.readouterr()
        code = main(["report", "--run", str(out)])
        assert code == 0
        assert (out / "report.txt").read_text() == run_report

    def test_report_missing_dir(self, tmp_path, capsys):
        assert main(["report", "--run", str(tmp_path / "ghost")]) == 5
        err = capsys.readouterr().err
        assert err.startswith("run directory missing ") and err.count("\n") == 1

    def test_truncated_trace_is_a_one_line_error(self, scenario_file, tmp_path,
                                                 capsys):
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_file), "--out", str(out)])
        lines = (out / "trace.jsonl").read_text(encoding="utf-8").splitlines(True)
        (out / "trace.jsonl").write_text("".join(lines[:2]) + lines[2][:15],
                                         encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("trace error: ") and err.count("\n") == 1
        assert "line 3" in err

    def test_malformed_scenario_snapshot_is_a_one_line_error(self, scenario_file,
                                                             tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_file), "--out", str(out)])
        (out / "scenario.yaml").write_text("team: [unclosed\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("scenario error: ") and err.count("\n") == 1

    def test_unwritable_run_dir_is_a_one_line_error(self, scenario_file, tmp_path,
                                                    capsys):
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_file), "--out", str(out)])
        (out / "report.txt").unlink()
        (out / "report.txt").mkdir()
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("trace_text", [
        "",
        '{"step":0,"seq":0,"kind":"warning","source":"delivery","detail":"x"}\n',
    ], ids=["empty", "no-actions"])
    def test_trace_without_steps_is_a_one_line_error(self, scenario_file, tmp_path,
                                                      capsys, trace_text):
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_file), "--out", str(out)])
        (out / "trace.jsonl").write_text(trace_text, encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("metrics error: ") and err.count("\n") == 1
