"""Prompt templates sent to the external chat-completion model.

Each builder returns the role-tagged message list for one request. Responses
must come back as a single JSON object; parsing and fallback live with the
callers, the policy, planner and alignment evaluator of `teamsim.llm`.
"""

from __future__ import annotations

from .model import AgentProfile


def _format_team(team: list[AgentProfile]) -> str:
    lines = []
    for agent in team:
        skills = ", ".join(sorted(agent.skills))
        lines.append(f"- {agent.name} ({agent.agent_id}, {agent.role.value}): {skills}")
    return "\n".join(lines)


def decomposition_messages(description: str, estimated_hours: float,
                           required_skills: list[str], team: list[AgentProfile],
                           subtask_count: int) -> list[dict]:
    manager_note = (
        "The manager coordinates and tracks progress; assign work to the "
        "manager only when no worker fits."
    )
    content = (
        "Decompose this task into subtasks:\n\n"
        f"Task: {description}\n"
        f"Estimated hours: {estimated_hours}\n"
        f"Required skills: {', '.join(required_skills)}\n\n"
        "Team members:\n"
        f"{_format_team(team)}\n"
        f"{manager_note}\n"
        f"Create {subtask_count} subtasks that:\n"
        "1. Can be worked on independently or with minimal dependencies\n"
        "2. Match team members' skills\n"
        "3. Are reasonably sized (total hours should be close to the original "
        "task's estimated hours)\n"
        "4. Cover all aspects of the original task\n\n"
        "Return JSON:\n"
        "{\n"
        '    "subtasks": [\n'
        "       {\n"
        '            "description": "Clear description of what needs to be done",\n'
        '            "estimated_hours": number,\n'
        '            "required_skills": ["skill1", "skill2"],\n'
        '            "suggested_assignee": "team member name (can be any team member '
        'including Manager)",\n'
        '            "dependencies": []  // indices of subtasks this depends on\n'
        "        }\n"
        "    ],\n"
        '    "decomposition_rationale": "Brief explanation of your decomposition strategy"\n'
        "}"
    )
    return [{"role": "user", "content": content}]


def intention_messages(agent_name: str, agent_role: str, tasks_block: str,
                       message_info: str, last_action_info: str) -> list[dict]:
    content = (
        f"You are {agent_name}, a {agent_role}.\n\n"
        "Current situation:\n"
        "Tasks:\n"
        f"{tasks_block}\n"
        "Note: Alignment affects work efficiency.(max: 1.0)\n"
        f"{message_info}\n"
        f"{last_action_info}\n\n"
        "Analyze your situation and choose your primary intention for this step:\n\n"
        "1. CONTINUE_TASK - Continue working on current tasks\n"
        "2. CHECK_MESSAGES - Check and potentially respond to messages\n"
        "3. REQUEST_HELP - Ask for other agents' help\n"
        "4. NEED_CLARIFICATION - Need clarification on task requirements\n"
        "5. REPORT_PROGRESS - Report progress to manager\n"
        "6. SCHEDULE_MEETING - Schedule a meeting\n\n"
        "IMPORTANT Decision Factors:\n"
        "- If has MEETING_START: Almost always CHECK_MESSAGES (meeting is starting!)\n"
        "- If has MEETING_INVITE: Strongly consider CHECK_MESSAGES (need to RSVP)\n"
        "- If stuck on task for long: Consider REQUEST_HELP or NEED_CLARIFICATION\n"
        "- Balance responsiveness with productivity\n\n"
        'Return JSON: {"intention": "INTENTION_NAME", "reasoning": "explanation"}'
    )
    return [{"role": "user", "content": content}]


def evaluation_messages(task_id: str, task_description: str, required_skills: list[str],
                        actual_hours: float, estimated_hours: float,
                        current_alignment: float, message_type: str, from_agent: str,
                        original_request: str, reply_content: str) -> list[dict]:
    skills = ", ".join(required_skills) if required_skills else "Not specified"
    content = (
        "You are evaluating how much a received message helps an worker "
        "understand their task better.\n\n"
        "Task Information:\n"
        f"- Task ID: {task_id}\n"
        f"- Description: {task_description}\n"
        f"- Required Skills: {skills}\n"
        f"- Current Progress: {actual_hours:.1f}/{estimated_hours:.1f} hours\n"
        f"- Current Alignment Factor: {current_alignment:.2f} "
        f"({current_alignment * 100:.0f}%)\n\n"
        f"Message Type: {message_type}\n"
        f"From Agent: {from_agent}\n\n"
        "Original Request (sent by me):\n"
        f"{original_request}\n\n"
        "Reply Received:\n"
        f"{reply_content}\n\n"
        "Alignment Factor Guidelines:\n"
        "- Range: 0.01 (1%) to 1.0 (100%)\n"
        f"- Current value: {current_alignment:.2f}\n"
        "- Alignment can increase OR decrease based on communication quality\n"
        "- Clear and helpful communication should improve understanding\n"
        "- Confusing, contradictory, or misleading information may reduce understanding\n"
        "- Consider the overall impact on task clarity and execution confidence\n\n"
        "Consider:\n"
        "1. How directly the reply addresses the original request/confusion\n"
        "2. How actionable and specific the information is\n"
        "3. Whether critical blockers were resolved\n"
        "4. The completeness of the response\n"
        "5. Diminishing returns (harder to improve as alignment approaches 1.0)\n\n"
        "Return a JSON response:\n"
        "{\n"
        '    "new_alignment_factor": <float between 0.01 and 1.0>,\n'
        '    "change": <float, positive for increase, negative for decrease>,\n'
        '    "reasoning": "<brief explanation of why this change in understanding>"\n'
        "}"
    )
    return [{"role": "user", "content": content}]
