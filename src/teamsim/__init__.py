"""teamsim: deterministic time-stepped simulation of team collaboration.

Agents work a decomposed task graph; their productivity is scaled by a
per-(agent, task) alignment value that communication moves, at a measured
time cost. Non-LLM runs are bit-reproducible from the scenario alone.
"""

from .alignment import AlignmentState, effective_progress, rule_based_delta
from .comms import Channel, CommBuffer, Message, MessageType, Thread, communication_cost
from .config import emit_scenario, expand_team_shorthand, parse_scenario, parse_scenario_text
from .engine import SimResult, Simulation, run_scenario
from .metrics import MetricsReport, compute_metrics, distributions, heatmap
from .model import (AgentProfile, Role, Scenario, SimClock, TaskSpec,
                    hours_to_steps, skill_match_score, validate_scenario)
from .planner import DecompositionPlan, EvenPlanner, assign
from .policy import (HeuristicPolicy, FixedStepsPolicy, Intention, IntentionKind,
                     NoCommPolicy, PolicyContext, build_policy)
from .taskgraph import SubtaskSpec, TaskGraph, TaskNode, TaskStatus

__version__ = "0.1.0"

__all__ = [
    "AgentProfile", "AlignmentState", "Channel", "CommBuffer",
    "DecompositionPlan", "EvenPlanner", "FixedStepsPolicy",
    "HeuristicPolicy", "Intention", "IntentionKind",
    "Message", "MessageType", "MetricsReport", "NoCommPolicy", "PolicyContext",
    "Role", "Scenario", "SimClock", "SimResult", "Simulation", "SubtaskSpec",
    "TaskGraph", "TaskNode", "TaskSpec", "TaskStatus", "Thread",
    "assign", "communication_cost", "compute_metrics", "distributions",
    "effective_progress", "emit_scenario", "expand_team_shorthand", "heatmap",
    "hours_to_steps", "parse_scenario", "parse_scenario_text", "rule_based_delta",
    "run_scenario", "skill_match_score", "validate_scenario",
]
