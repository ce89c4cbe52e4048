"""Alignment kernel: initialization, clamped updates, effective progress,
rule-table deltas, and evaluator normalization."""

import random

import pytest

from teamsim.alignment import (AF_INIT, AF_MAX, AF_MIN, AlignmentError,
                               AlignmentState, DELTA_MAX, DELTA_MIN,
                               clamp_af, effective_progress,
                               normalize_reported_alignment, rule_based_delta)
from teamsim.comms import MessageType
from teamsim.engine import Simulation

from conftest import replay_af_updates, replay_runs


class TestInit:
    def test_initial_value(self):
        state = AlignmentState()
        assert state.init("W1", "T1") == 0.30
        assert state.get("W1", "T1") == 0.30

    def test_duplicate_init_rejected(self):
        state = AlignmentState()
        state.init("W1", "T1")
        with pytest.raises(AlignmentError, match="already initialized"):
            state.init("W1", "T1")

    def test_pairs_are_independent(self):
        state = AlignmentState()
        for w in ("W1", "W2", "W3", "W4"):
            state.init(w, "T1")
        state.apply_delta("W1", "T1", 0.2)
        assert state.get("W1", "T1") == pytest.approx(0.5)
        for w in ("W2", "W3", "W4"):
            assert state.get(w, "T1") == AF_INIT


class TestApplyDelta:
    def test_plain_addition(self):
        state = AlignmentState()
        state.init("W1", "T1")
        assert state.apply_delta("W1", "T1", 0.15) == pytest.approx(0.45)

    def test_upper_clamp(self):
        state = AlignmentState()
        state.init("W1", "T1")
        state.values[("W1", "T1")] = 0.90
        assert state.apply_delta("W1", "T1", 0.50) == 1.00

    def test_lower_clamp(self):
        state = AlignmentState()
        state.init("W1", "T1")
        state.values[("W1", "T1")] = 0.05
        assert state.apply_delta("W1", "T1", -0.20) == 0.01

    def test_unknown_pair_rejected(self):
        state = AlignmentState()
        with pytest.raises(AlignmentError, match="unknown assignment"):
            state.apply_delta("W9", "T9", 0.1)

    def test_zero_delta_is_identity(self):
        rng = random.Random(3)
        state = AlignmentState()
        state.init("W1", "T1")
        for _ in range(200):
            state.values[("W1", "T1")] = clamp_af(rng.uniform(0, 1.2))
            before = state.get("W1", "T1")
            assert state.apply_delta("W1", "T1", 0.0) == before

    def test_monotone_under_non_negative_deltas(self):
        rng = random.Random(4)
        state = AlignmentState()
        state.init("W1", "T1")
        previous = state.get("W1", "T1")
        for _ in range(300):
            new = state.apply_delta("W1", "T1", rng.uniform(0, 0.5))
            assert new >= previous
            previous = new

    def test_matches_clamp_oracle_exactly(self):
        rng = random.Random(99)
        state = AlignmentState()
        state.init("W1", "T1")
        for _ in range(5000):
            af = rng.uniform(AF_MIN, AF_MAX)
            delta = rng.uniform(-0.6, 0.6)
            state.values[("W1", "T1")] = af
            result = state.apply_delta("W1", "T1", delta)
            assert result == min(1.00, max(0.01, af + delta))

    def test_history_replay_reproduces_state(self):
        """The trace's `af_update` events are the alignment history: replayed
        from 0.30, they give every pair's final value exactly."""
        moved = 0
        for scenario, planner in replay_runs():
            result = Simulation(scenario, planner=planner).run()
            replayed = replay_af_updates(result.trace.events)
            assert replayed == result.world.alignment.values
            moved += sum(value != AF_INIT for value in replayed.values())
        assert moved > 0


class TestEffectiveProgress:
    def test_quarter_hour_at_init(self):
        assert effective_progress(0.25, 0.30) == pytest.approx(0.075)

    def test_identity_at_full_alignment(self):
        for hours in (0.25, 1.0, 7.5):
            assert effective_progress(hours, 1.00) == hours

    def test_zero_hours(self):
        assert effective_progress(0.0, 0.55) == 0.0

    def test_out_of_range_af_rejected(self):
        with pytest.raises(ValueError, match="alignment out of range"):
            effective_progress(1.0, 0.005)
        with pytest.raises(ValueError, match="alignment out of range"):
            effective_progress(1.0, 1.01)

    def test_linear_and_monotone_in_af(self):
        rng = random.Random(17)
        for _ in range(500):
            hours = rng.uniform(0, 10)
            af1 = rng.uniform(AF_MIN, AF_MAX)
            af2 = rng.uniform(af1, AF_MAX)
            assert effective_progress(hours, af1) <= effective_progress(hours, af2)
            assert effective_progress(2 * hours, af1) == pytest.approx(
                2 * effective_progress(hours, af1), rel=1e-15,
            )


class TestRuleTable:
    def test_help_request(self):
        assert rule_based_delta(MessageType.HELP_REQUEST) == 0.15

    def test_clarification(self):
        assert rule_based_delta(MessageType.NEED_CLARIFICATION) == 0.10

    def test_meeting(self):
        assert rule_based_delta(MessageType.MEETING_INVITE) == 0.27

    def test_progress_update_neutral(self):
        assert rule_based_delta(MessageType.PROGRESS_UPDATE) == 0.0


class TestNormalization:
    def test_reported_new_value_gives_difference(self):
        assert normalize_reported_alignment(0.30, 0.45) == pytest.approx(0.15)

    def test_out_of_range_report_clamped_then_capped(self):
        assert normalize_reported_alignment(0.30, 1.7) == DELTA_MAX

    def test_decrease_floor(self):
        assert normalize_reported_alignment(0.95, 0.01) == DELTA_MIN

    def test_band(self):
        rng = random.Random(31)
        for _ in range(1000):
            old = rng.uniform(AF_MIN, AF_MAX)
            reported = rng.uniform(-1, 3)
            delta = normalize_reported_alignment(old, reported)
            assert DELTA_MIN <= delta <= DELTA_MAX
