"""Core types: time quantization, skill matching, scenario validation."""

import random

import pytest

from teamsim.model import (AgentProfile, EmptyTeamError, MultipleManagersError,
                           NoManagerError, NonFiniteEffortError,
                           NonPositiveEffortError, Role,
                           Scenario, TaskSpec, hours_to_steps, order_key,
                           skill_match_score, validate_scenario)

from conftest import SIMPLE_TASK, make_team


class TestHoursToSteps:
    def test_exact_multiple(self):
        assert hours_to_steps(1.0, 0.25) == 4

    def test_zero(self):
        assert hours_to_steps(0.0, 0.25) == 0

    def test_rounds_up(self):
        assert hours_to_steps(6.667, 0.25) == 27

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative hours"):
            hours_to_steps(-0.1, 0.25)

    def test_monotone_and_never_under_allocates(self):
        rng = random.Random(11)
        for grid in (0.25, 0.5, 0.125):
            previous = 0
            for i in range(500):
                hours = rng.uniform(0, 50)
                steps = hours_to_steps(hours, grid)
                assert steps * grid >= hours
            # monotone over a sorted sweep
            sweep = sorted(rng.uniform(0, 50) for _ in range(200))
            steps = [hours_to_steps(h, grid) for h in sweep]
            assert steps == sorted(steps)

    def test_exact_on_grid_multiples(self):
        for grid in (0.25, 0.5, 0.125):
            for k in range(0, 400):
                assert hours_to_steps(k * grid, grid) == k


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

    def test_normalizes_skill_case(self):
        team = make_team(1, worker_skills=[frozenset({"Backend", "API"})])
        scenario = validate_scenario(self.scenario(team))
        worker = scenario.workers[0]
        assert worker.skills == frozenset({"backend", "api"})

    def test_duplicate_agent_ids_rejected(self):
        team = make_team(1) + [AgentProfile("W1", "dup", Role.WORKER,
                                            frozenset({"x"}))]
        with pytest.raises(ValueError, match="duplicate agent id"):
            validate_scenario(self.scenario(team))


def test_order_key_natural_ordering():
    ids = ["W10", "W2", "W1", "M1", "T1.10", "T1.2"]
    assert sorted(["W10", "W2", "W1"], key=order_key) == ["W1", "W2", "W10"]
    assert sorted(["T1.10", "T1.2"], key=order_key) == ["T1.2", "T1.10"]
