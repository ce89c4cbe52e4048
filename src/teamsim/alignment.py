"""Alignment state and the quantitative kernel linking communication to work rate.

Each (agent, task) pair carries an alignment value in [0.01, 1.00], started at
0.30. Worked hours convert to effective progress by multiplication with the
current value, and delivered replies or held meetings move the value through
an evaluator: a fixed rule table by default, or an external model.
"""

from __future__ import annotations

from .comms import MessageType

AF_MIN = 0.01
AF_MAX = 1.00
AF_INIT = 0.30

HELP_GAIN = 0.15
CLARIFICATION_GAIN = 0.10
MEETING_GAIN = 0.27
PROGRESS_GAIN = 0.0

_RULE_TABLE = {
    MessageType.HELP_REQUEST: HELP_GAIN,
    MessageType.NEED_CLARIFICATION: CLARIFICATION_GAIN,
    MessageType.MEETING_INVITE: MEETING_GAIN,
    MessageType.MEETING_START: MEETING_GAIN,
    MessageType.PROGRESS_UPDATE: PROGRESS_GAIN,
}


class AlignmentError(ValueError):
    pass


def clamp_af(value: float) -> float:
    return min(AF_MAX, max(AF_MIN, value))


def effective_progress(hours: float, af: float) -> float:
    """Hours of real progress produced by `hours` of work at alignment `af`."""
    if hours < 0:
        raise ValueError(f"negative hours: {hours}")
    if not AF_MIN <= af <= AF_MAX:
        raise ValueError(f"alignment out of range: {af}")
    return hours * af


class AlignmentState:
    """Mutable map of (agent, task) -> alignment. The trace's `af_update`
    events record every change."""

    def __init__(self) -> None:
        self.values: dict[tuple[str, str], float] = {}

    def init(self, agent_id: str, task_id: str) -> float:
        key = (agent_id, task_id)
        if key in self.values:
            raise AlignmentError(f"already initialized: {key}")
        self.values[key] = AF_INIT
        return AF_INIT

    def get(self, agent_id: str, task_id: str) -> float:
        try:
            return self.values[(agent_id, task_id)]
        except KeyError:
            raise AlignmentError(f"unknown assignment: ({agent_id}, {task_id})") from None

    def apply_delta(self, agent_id: str, task_id: str, delta: float) -> float:
        new = clamp_af(self.get(agent_id, task_id) + delta)
        self.values[(agent_id, task_id)] = new
        return new


def rule_based_delta(message_type: MessageType) -> float:
    """Fixed per-type alignment impact of a resolved interaction."""
    return _RULE_TABLE.get(message_type, PROGRESS_GAIN)
