"""Core types: time quantization, skill matching, scenario validation."""

import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from teamsim.config import expand_team_shorthand
from teamsim.model import (HOURS_PER_STEP, AgentProfile, EmptyTeamError,
                           MultipleManagersError, NoManagerError,
                           NonFiniteEffortError, NoWorkerError,
                           NonPositiveEffortError, Role,
                           Scenario, TaskSpec, hours_to_steps, order_key,
                           skill_match_score, validate_scenario)

from conftest import SIMPLE_TASK, make_team


class TestHoursToSteps:
    def test_exact_multiple(self):
        assert hours_to_steps(1.0) == 4

    def test_zero(self):
        assert hours_to_steps(0.0) == 0

    def test_rounds_up(self):
        assert hours_to_steps(6.667) == 27

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative hours"):
            hours_to_steps(-0.1)

    def test_monotone_and_never_under_allocates(self):
        rng = random.Random(11)
        for i in range(500):
            hours = rng.uniform(0, 50)
            assert hours_to_steps(hours) * HOURS_PER_STEP >= hours
        # monotone over a sorted sweep
        sweep = sorted(rng.uniform(0, 50) for _ in range(200))
        steps = [hours_to_steps(h) for h in sweep]
        assert steps == sorted(steps)

    def test_exact_on_grid_multiples(self):
        assert HOURS_PER_STEP == 0.25
        for k in range(0, 400):
            assert hours_to_steps(k * HOURS_PER_STEP) == k


class TestSkillMatch:
    def agent(self, skills):
        return AgentProfile("W1", "W1", Role.WORKER, frozenset(skills))

    def test_partial_overlap(self):
        assert skill_match_score(self.agent({"backend", "api"}), {"api", "oauth"}) == 0.5

    def test_empty_requirement(self):
        assert skill_match_score(self.agent({"frontend"}), set()) == 1.0

    def test_full_overlap(self):
        assert skill_match_score(self.agent({"a", "b", "c"}), {"a", "b", "c"}) == 1.0

    def test_bounds_and_permutation_invariance(self):
        rng = random.Random(5)
        tags = [f"s{i}" for i in range(8)]
        for _ in range(300):
            own = frozenset(rng.sample(tags, rng.randint(1, 6)))
            req = set(rng.sample(tags, rng.randint(0, 6)))
            score = skill_match_score(self.agent(own), req)
            assert 0.0 <= score <= 1.0
            shuffled = set(sorted(req, reverse=True))
            assert skill_match_score(self.agent(own), shuffled) == score


class TestValidateScenario:
    def scenario(self, team, tasks=None):
        return Scenario(name="t", team=team,
                        tasks=tasks or [SIMPLE_TASK])

    def test_accepts_standard_team(self):
        scenario = validate_scenario(self.scenario(make_team(4)))
        assert len(scenario.team) == 5
        assert scenario.manager.agent_id == "M1"

    def test_no_manager(self):
        team = [a for a in make_team(2) if a.role is Role.WORKER]
        with pytest.raises(NoManagerError, match="no manager"):
            validate_scenario(self.scenario(team))

    def test_no_worker(self):
        with pytest.raises(NoWorkerError, match="no worker"):
            validate_scenario(self.scenario(make_team(0)))

    def test_no_worker_from_shorthand(self):
        team = expand_team_shorthand("1M+0W", ["backend"])
        with pytest.raises(NoWorkerError, match="no worker"):
            validate_scenario(self.scenario(team))

    def test_multiple_managers(self):
        team = make_team(1) + [AgentProfile("M2", "M2", Role.MANAGER,
                                            frozenset({"planning"}))]
        with pytest.raises(MultipleManagersError):
            validate_scenario(self.scenario(team))

    def test_empty_team(self):
        with pytest.raises(EmptyTeamError):
            validate_scenario(self.scenario([]))

    def test_non_positive_effort(self):
        bad = TaskSpec("broken", -1.0, frozenset({"backend"}))
        with pytest.raises(NonPositiveEffortError, match="non-positive effort"):
            validate_scenario(self.scenario(make_team(2), tasks=[bad]))

    @pytest.mark.parametrize("hours", [float("nan"), float("inf")])
    def test_non_finite_effort(self, hours):
        bad = TaskSpec("endless", hours, frozenset({"backend"}))
        with pytest.raises(NonFiniteEffortError, match="non-finite effort"):
            validate_scenario(self.scenario(make_team(2), tasks=[bad]))

    def test_returns_its_argument_unchanged(self):
        # Skill tags are lowercased where a scenario file is read; a
        # hand-built scenario keeps its tags and its hours as given.
        team = make_team(1, worker_skills=[frozenset({"Backend", "API"})])
        scenario = self.scenario(team, tasks=[TaskSpec("t", 2, frozenset({"API"}))])
        assert validate_scenario(scenario) is scenario
        assert scenario.workers[0].skills == frozenset({"Backend", "API"})
        assert type(scenario.tasks[0].estimated_hours) is int

    def test_duplicate_agent_ids_rejected(self):
        team = make_team(1) + [AgentProfile("W1", "dup", Role.WORKER,
                                            frozenset({"x"}))]
        with pytest.raises(ValueError, match="duplicate agent id"):
            validate_scenario(self.scenario(team))


def test_order_key_natural_ordering():
    ids = ["W10", "W2", "W1", "M1", "T1.10", "T1.2"]
    assert sorted(["W10", "W2", "W1"], key=order_key) == ["W1", "W2", "W10"]
    assert sorted(["T1.10", "T1.2"], key=order_key) == ["T1.2", "T1.10"]


def _old_order_key(identifier):
    """`order_key` as it was: each split part that `str.isdigit` accepts made
    an int, which raises for a digit `\\d` does not match, such as `²`."""
    return tuple(int(part) if part.isdigit() else part
                 for part in re.split(r"(\d+)", identifier))


# Ids from ASCII and from digits of every kind: ASCII, other decimal digits
# (Arabic-Indic, fullwidth), superscripts and other non-decimal digits.
_ID_CHARS = st.sampled_from(list("WMT.x-_09") + ["\u0663", "\uff17", "\u00b2",
                                                 "\u2460", "\u00bd", "\u2077"])


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.one_of(st.text(_ID_CHARS, max_size=8), st.text(max_size=8)))
@example("W1\u00b2")
@example("\u0663W10")
def test_order_key_is_the_old_key_wherever_that_did_not_raise(identifier):
    key = order_key(identifier)
    assert all(type(part) is str for part in key[::2])
    assert all(type(part) is int for part in key[1::2])
    try:
        expected = _old_order_key(identifier)
    except ValueError:
        return
    assert key == expected
    assert list(map(type, key)) == list(map(type, expected))


def test_order_key_keeps_a_non_decimal_digit_as_text():
    assert order_key("W1\u00b2") == ("W", 1, "\u00b2")
    assert sorted(["W2", "W1\u00b2", "W1"], key=order_key) == ["W1", "W1\u00b2", "W2"]
