"""Policy decisions, recipient and channel selection, and message templates."""

import dataclasses
import types
from typing import NamedTuple

import pytest

from teamsim.comms import Channel, MessageType, word_count
from teamsim.model import AgentProfile, Role
from teamsim import policy as policy_module
from teamsim.policy import (FixedStepsPolicy, HeuristicPolicy, Intention,
                            IntentionKind, LastAction, NoCommPolicy,
                            PolicyContext, TaskAssignmentView, build_context,
                            compose_message, compose_reply, reply_channel,
                            select_channel, select_recipients)


class Held(NamedTuple):
    """A task the agent holds, as a test states it: its view, and the facts
    `World` keeps beside it that the decides read."""

    view: TaskAssignmentView
    ready: bool
    stuck: int
    milestone: float | None


def held(task_id="T1.1", af=0.30, hours=0.0, stuck=0, progress=0.0,
         milestone=None, ready=True, done=False,
         skills=frozenset({"oauth"})):
    return Held(TaskAssignmentView(
        task_id=task_id, description="integrate the external api",
        estimated_hours=6.0, required_skills=skills, af=af,
        hours_worked=hours, progress=progress, done=done,
    ), ready, stuck, milestone)


@dataclasses.dataclass
class StandInWorld:
    """The `World` a context and a deterministic decide read, answering
    explicit values for one agent: what `build_context`, each context field
    and each per-agent table a policy reads ask of `World`."""

    agent: AgentProfile
    step: int
    assigned: tuple[Held, ...]
    unanswered: tuple[str, ...]
    open_outbound: frozenset[str]
    invite: bool
    meeting_start: bool
    blocked_map: dict[str, tuple[str, ...]]
    organized_tasks: frozenset[str]
    last_action: LastAction | None
    manager_id: str = "M1"
    team: tuple[AgentProfile, ...] = ()

    @property
    def agents(self):
        """Every profile by id, this agent's included, as in `World.agents`."""
        return {a.agent_id: a for a in (self.agent, *self.team)}

    @property
    def clock(self):
        return types.SimpleNamespace(step=self.step)

    @property
    def last_actions(self):
        return {} if self.last_action is None else {self.agent.agent_id: self.last_action}

    @property
    def assignments(self):
        return self._table([h.view.task_id for h in self.assigned])

    def task_view(self, agent_id, task_id):
        return next(h.view for h in self.assigned if h.view.task_id == task_id)

    # The per-agent tables, each holding this agent's entry alone.
    def _table(self, value):
        return {self.agent.agent_id: value}

    @property
    def invites(self):
        return self._table([(self.step, "m1", "mt1")] if self.invite else [])

    def pending_invites(self, agent_id):
        return self.invites[agent_id]

    @property
    def inbound_requests(self):
        return self._table([(self.step, f"m{i}", thread_id)
                            for i, thread_id in enumerate(self.unanswered)])

    def unanswered_inbound(self, agent_id):
        return self.unanswered

    def oldest_unanswered(self, agent_id):
        entries = self.inbound_requests[agent_id]
        return entries[0] if entries else None

    @property
    def meeting_started(self):
        return {self.agent.agent_id} if self.meeting_start else set()

    # The active task by its rule: the first ready view not done.
    @property
    def active_task_id(self):
        return self._table(next((h.view.task_id for h in self.assigned
                                 if h.ready and not h.view.done), None))

    @property
    def alignment(self):
        return types.SimpleNamespace(values={
            (self.agent.agent_id, h.view.task_id): h.view.af for h in self.assigned})

    @property
    def stats(self):
        return {(self.agent.agent_id, h.view.task_id): types.SimpleNamespace(
                    hours_worked=h.view.hours_worked, stuck_worked_steps=h.stuck,
                    pending_milestone=h.milestone)
                for h in self.assigned}

    @property
    def outbound(self):
        return self._table(self.open_outbound)

    def open_outbound_tasks(self, agent_id):
        return self.open_outbound

    @property
    def blocked(self):
        return self._table(self.blocked_map)

    def blocked_collaborators(self, agent_id):
        return self.blocked_map

    @property
    def organized(self):
        return self._table(self.organized_tasks)

    @property
    def due(self):
        return self._table({h.view.task_id for h in self.assigned
                            if h.milestone is not None})


def context(agent_role=Role.WORKER, step=5, assigned=(), teammates=(), busy=(),
            unanswered=(), open_outbound=frozenset(), invite=False,
            meeting_start=False, blocked=None, organized=frozenset(),
            last_action=None):
    agent = AgentProfile("W1", "Worker 1", agent_role,
                         frozenset({"backend", "api"}))
    if agent_role is Role.MANAGER:
        agent = AgentProfile("M1", "Manager 1", agent_role,
                             frozenset({"planning", "coordination"}))
    world = StandInWorld(agent, step, tuple(assigned), tuple(unanswered),
                         frozenset(open_outbound), invite, meeting_start,
                         blocked or {}, frozenset(organized), last_action,
                         team=tuple(teammates))
    return build_context(world, agent.agent_id, frozenset(busy))


def mate(agent_id, skills, role=Role.WORKER):
    return AgentProfile(agent_id, f"Teammate {agent_id}", role, frozenset(skills))


class TestNoComm:
    def test_always_continue(self):
        policy = NoCommPolicy()
        for ctx in (context(), context(assigned=[held()]),
                    context(unanswered=("th1",))):
            assert policy.decide(ctx).kind is IntentionKind.CONTINUE_TASK


class TestFixedSteps:
    def test_report_on_the_interval(self):
        policy = FixedStepsPolicy()
        ctx = context(step=16, assigned=[held(hours=3.0)])
        assert policy.decide(ctx).kind is IntentionKind.REPORT_PROGRESS

    def test_step_zero_not_a_report_step(self):
        ctx = context(step=0, assigned=[held()])
        assert FixedStepsPolicy().decide(ctx).kind is IntentionKind.CONTINUE_TASK

    def test_help_follows_the_report(self):
        last = LastAction("message_sent", MessageType.PROGRESS_UPDATE.value, 16)
        tasks = [held(task_id="T1.1", af=0.45), held(task_id="T1.2", af=0.30)]
        ctx = context(step=17, assigned=tasks, last_action=last)
        intention = FixedStepsPolicy().decide(ctx)
        assert intention.kind is IntentionKind.REQUEST_HELP
        assert intention.task_hint == "T1.2"  # lowest alignment wins

    def test_between_intervals_continue_or_check(self):
        policy = FixedStepsPolicy()
        assert policy.decide(context(step=9, assigned=[held()])).kind \
            is IntentionKind.CONTINUE_TASK
        checked = policy.decide(context(step=9, assigned=[held()],
                                        unanswered=("th1",)))
        assert checked.kind is IntentionKind.CHECK_MESSAGES

    def test_manager_only_checks(self):
        policy = FixedStepsPolicy()
        ctx = context(agent_role=Role.MANAGER, step=16, unanswered=("th1",))
        assert policy.decide(ctx).kind is IntentionKind.CHECK_MESSAGES


class TestHeuristic:
    def test_invite_wins(self):
        ctx = context(invite=True, assigned=[held(af=0.2, hours=1.0, stuck=9)])
        assert HeuristicPolicy().decide(ctx).kind is IntentionKind.CHECK_MESSAGES

    def test_unanswered_inbound_wins_over_help(self):
        ctx = context(unanswered=("th1",),
                      assigned=[held(af=0.2, hours=1.0, stuck=9)])
        assert HeuristicPolicy().decide(ctx).kind is IntentionKind.CHECK_MESSAGES

    def test_stuck_low_alignment_asks_for_help(self):
        ctx = context(assigned=[held(af=0.30, hours=1.0, stuck=4)])
        intention = HeuristicPolicy().decide(ctx)
        assert intention.kind is IntentionKind.REQUEST_HELP
        assert intention.task_hint == "T1.1"

    def test_zero_hours_asks_for_clarification(self):
        ctx = context(assigned=[held(af=0.30, hours=0.0)])
        assert HeuristicPolicy().decide(ctx).kind is IntentionKind.NEED_CLARIFICATION

    def test_open_thread_guard_blocks_requests(self):
        ctx = context(assigned=[held(af=0.30, hours=1.0, stuck=8)],
                      open_outbound={"T1.1"})
        assert HeuristicPolicy().decide(ctx).kind is IntentionKind.CONTINUE_TASK

    def test_aligned_agent_just_works(self):
        ctx = context(assigned=[held(af=0.55, hours=1.0, stuck=9)])
        assert HeuristicPolicy().decide(ctx).kind is IntentionKind.CONTINUE_TASK

    def test_blocked_collaborators_trigger_meeting(self):
        ctx = context(assigned=[held(af=0.55)],
                      blocked={"T1.1": ("W2", "W3")})
        assert HeuristicPolicy().decide(ctx).kind is IntentionKind.SCHEDULE_MEETING

    def test_meeting_not_rescheduled(self):
        ctx = context(assigned=[held(af=0.55)],
                      blocked={"T1.1": ("W2", "W3")}, organized={"T1.1"})
        assert HeuristicPolicy().decide(ctx).kind is IntentionKind.CONTINUE_TASK

    def test_milestone_reported(self):
        ctx = context(assigned=[held(af=0.55, progress=0.5, milestone=0.5)])
        intention = HeuristicPolicy().decide(ctx)
        assert intention.kind is IntentionKind.REPORT_PROGRESS

    def test_purity(self):
        ctx = context(assigned=[held(af=0.30, hours=1.0, stuck=4)])
        first = HeuristicPolicy().decide(ctx)
        second = HeuristicPolicy().decide(ctx)
        assert first == second


def recipients(ctx, kind):
    """Whom `kind` addresses about the context's one held task."""
    return select_recipients(ctx, kind, ctx.assigned[0])


class TestSelectRecipients:
    def test_help_goes_to_best_skilled_free_worker(self):
        ctx = context(
            assigned=[held(skills=frozenset({"oauth"}))],
            teammates=[mate("W2", {"backend"}), mate("W3", {"oauth"}),
                       mate("M1", {"planning"}, role=Role.MANAGER)],
        )
        assert recipients(ctx, IntentionKind.REQUEST_HELP) == ["W3"]

    def test_skill_tie_breaks_to_lower_id(self):
        ctx = context(
            assigned=[held(skills=frozenset({"oauth"}))],
            teammates=[mate("W5", {"oauth"}), mate("W2", {"oauth"})],
        )
        assert recipients(ctx, IntentionKind.REQUEST_HELP) == ["W2"]

    def test_busy_candidates_skipped(self):
        ctx = context(
            assigned=[held(skills=frozenset({"oauth"}))],
            teammates=[mate("W2", {"oauth"}), mate("W3", {"oauth"})], busy={"W2"},
        )
        assert recipients(ctx, IntentionKind.REQUEST_HELP) == ["W3"]

    def test_no_match_degrades_to_manager(self):
        ctx = context(
            assigned=[held(skills=frozenset({"oauth"}))],
            teammates=[mate("W2", {"frontend"})], busy={"W2"},
        )
        assert recipients(ctx, IntentionKind.REQUEST_HELP) == ["M1"]

    def test_help_never_goes_to_the_asker(self):
        """The team holds the deciding worker too, idle and the best match of
        all; the request goes to the best other free worker."""
        required = frozenset({"backend", "api"})
        me = mate("W1", {"backend", "api"})
        ctx = context(
            assigned=[held(skills=required)],
            teammates=[mate("M1", {"planning"}, role=Role.MANAGER), me,
                       mate("W2", {"frontend"}), mate("W3", {"api"})],
        )
        assert recipients(ctx, IntentionKind.REQUEST_HELP) == ["W3"]
        ctx = context(
            assigned=[held(skills=required)],
            teammates=[mate("M1", {"planning"}, role=Role.MANAGER), me,
                       mate("W2", {"frontend"}), mate("W3", {"api"})],
            busy={"W3"},
        )
        assert recipients(ctx, IntentionKind.REQUEST_HELP) == ["M1"]

    def test_clarification_and_report_go_to_manager(self):
        ctx = context(assigned=[held()])
        assert recipients(ctx, IntentionKind.NEED_CLARIFICATION) == ["M1"]
        assert recipients(ctx, IntentionKind.REPORT_PROGRESS) == ["M1"]

    def test_meeting_invites_manager_plus_blocked(self):
        ctx = context(assigned=[held()], blocked={"T1.1": ("W3", "W2")})
        assert recipients(ctx, IntentionKind.SCHEDULE_MEETING) == ["M1", "W3", "W2"]

    def test_non_communicating_intention_rejected(self):
        with pytest.raises(ValueError):
            select_recipients(context(), IntentionKind.CONTINUE_TASK, None)


class TestSelectChannel:
    def test_clarification_is_chat(self):
        assert select_channel(IntentionKind.NEED_CLARIFICATION, word_count("short note")) \
            is Channel.CHAT

    def test_long_help_is_email(self):
        long_text = " ".join(["word"] * 300)
        assert select_channel(IntentionKind.REQUEST_HELP, word_count(long_text)) \
            is Channel.EMAIL

    def test_short_help_is_chat(self):
        assert select_channel(IntentionKind.REQUEST_HELP, word_count("quick question")) \
            is Channel.CHAT

    def test_report_is_email(self):
        assert select_channel(IntentionKind.REPORT_PROGRESS, word_count("text")) \
            is Channel.EMAIL

    def test_meeting_channel_forced(self):
        assert select_channel(IntentionKind.SCHEDULE_MEETING, word_count("x")) \
            is Channel.MEETING


class TestComposition:
    def test_help_template_mentions_task_alignment_and_gap(self):
        ctx = context(assigned=[held(af=0.30, hours=1.0,
                                     skills=frozenset({"oauth"}))])
        text = compose_message(ctx, IntentionKind.REQUEST_HELP, ctx.assigned[0])
        assert "T1.1" in text
        assert "0.30" in text
        assert "oauth" in text
        assert word_count(text) >= 120  # detailed request rides email

    def test_report_template_contains_progress(self):
        ctx = context(assigned=[held(progress=0.5, hours=3.0)])
        text = compose_message(ctx, IntentionKind.REPORT_PROGRESS, ctx.assigned[0])
        assert "50%" in text
        assert "T1.1" in text

    def test_templates_deterministic(self):
        ctx = context(assigned=[held()])
        for kind in (IntentionKind.REQUEST_HELP, IntentionKind.NEED_CLARIFICATION,
                     IntentionKind.REPORT_PROGRESS):
            assert compose_message(ctx, kind, ctx.assigned[0]) == \
                compose_message(ctx, kind, ctx.assigned[0])

    def test_clarification_reply_is_long_form_email(self):
        manager = AgentProfile("M1", "Manager 1", Role.MANAGER,
                               frozenset({"planning"}))
        brief = compose_reply("T1.1", MessageType.NEED_CLARIFICATION, manager)
        assert word_count(brief) >= 301
        assert reply_channel(word_count(brief)) is Channel.EMAIL

    def test_help_reply_is_short_chat(self):
        worker = AgentProfile("W2", "Worker 2", Role.WORKER,
                              frozenset({"oauth"}))
        note = compose_reply("T1.1", MessageType.HELP_REQUEST, worker)
        assert word_count(note) < 120
        assert reply_channel(word_count(note)) is Channel.CHAT


# Every field a policy can read from a context.
CONTEXT_FIELDS = {
    "agent", "step", "assigned", "busy", "team", "manager_id",
    "unanswered_inbound", "blocked_collaborators",
}


class TestValueTypes:
    """A policy is a pure function of a read-only context: no field of a
    context, a view or an intention can be reassigned."""

    def values(self):
        return [
            context(assigned=[held()], teammates=[mate("W2", {"api"})],
                    last_action=LastAction("work", None, 4)),
            held().view,
            LastAction("work", None, 4),
            Intention(IntentionKind.REQUEST_HELP, "T1.1", ("note",)),
        ]

    def test_every_field_is_read_only(self):
        values = self.values()
        assert {type(v) for v in values} == {PolicyContext, TaskAssignmentView,
                                             LastAction, Intention}
        for value in values:
            fields = (CONTEXT_FIELDS if type(value) is PolicyContext
                      else type(value)._fields)
            for name in fields:
                with pytest.raises(AttributeError):
                    setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                value.extra = 1

    def test_context_fields_are_the_documented_ones(self):
        assert {name for name, value in vars(PolicyContext).items()
                if isinstance(value, property)} == CONTEXT_FIELDS

    def test_context_fields_read_what_world_answers(self):
        last = LastAction("work", None, 4)
        tasks = [held(task_id="T1.1", done=True),
                 held(task_id="T1.2", milestone=0.5), held(task_id="T1.3")]
        teammates = (mate("W2", {"api"}),)
        ctx = context(step=7, assigned=tasks, teammates=teammates, busy={"W2"},
                      unanswered=("th1",), open_outbound={"T1.3"}, invite=True,
                      meeting_start=True, blocked={"T1.2": ("W2",)},
                      organized={"T1.2"}, last_action=last)
        assert (ctx.agent.agent_id, ctx.step, ctx.manager_id) == ("W1", 7, "M1")
        assert ctx.busy == {"W2"}
        assert ctx.team == {"W1": ctx.agent, "W2": teammates[0]}
        assert ctx.assigned == tuple(task.view for task in tasks)
        assert ctx.unanswered_inbound == ("th1",)
        assert ctx.blocked_collaborators == {"T1.2": ("W2",)}

    def test_a_context_asks_world_only_for_what_is_read(self):
        """Building a context reads only its O(1) fields; `NoCommPolicy` reads
        none, and a field is asked of `World` when it is read."""
        asked = []

        class CountingWorld(StandInWorld):
            def __getattribute__(self, name):
                if name in {"task_view", "assignments", "unanswered_inbound",
                            "open_outbound_tasks", "pending_invites", "blocked_collaborators",
                            "last_actions", "invites",
                            "inbound_requests", "meeting_started", "active_task_id",
                            "alignment", "stats", "outbound", "blocked",
                            "organized", "due"}:
                    asked.append(name)
                return super().__getattribute__(name)

        agent = AgentProfile("W1", "Worker 1", Role.WORKER, frozenset({"api"}))
        world = CountingWorld(agent, 3, (held(),), (), frozenset(), False, False,
                              {}, frozenset(), None)
        ctx = build_context(world, "W1", frozenset())
        assert NoCommPolicy().decide(ctx) is policy_module.CONTINUE
        assert asked == []
        assert ctx.unanswered_inbound == ()
        assert asked == ["unanswered_inbound"]

    def test_values_compare_by_field(self):
        assert held().view == held().view
        assert held(af=0.31).view != held().view

    def test_policy_context_has_no_default(self):
        # A context holds only what `build_context` gives it: no instance
        # dict, and no field value on the class, which every context would
        # share.
        assert PolicyContext.__slots__ == ()
        assert not any(isinstance(value, (dict, list, set, frozenset, tuple))
                       for name, value in vars(PolicyContext).items()
                       if not name.startswith("__"))
        # A named-tuple default is one object shared by every instance.
        for value_type in (TaskAssignmentView, LastAction, Intention):
            for default in value_type._field_defaults.values():
                assert isinstance(default, (str, tuple, type(None)))

    @pytest.mark.parametrize("name,kind", [
        ("CONTINUE", IntentionKind.CONTINUE_TASK),
        ("CHECK_INBOX", IntentionKind.CHECK_MESSAGES),
    ])
    def test_constant_intentions_hold_only_their_kind(self, name, kind):
        assert getattr(policy_module, name) == Intention(kind)
        assert getattr(policy_module, name) == (kind, None, ())

    # Each situation that a constant intention once named in its reasoning,
    # with the policy that meets it: the reason now lies in the situation
    # alone, and the policy answers it with the shared constant of its kind.
    @pytest.mark.parametrize("name,kind,policy,situation", [
        ("NO_COMM", IntentionKind.CONTINUE_TASK, NoCommPolicy,
         dict(unanswered=("th1",), invite=True)),
        ("NO_TRIGGER", IntentionKind.CONTINUE_TASK, HeuristicPolicy,
         dict(assigned=[held(af=0.55, hours=1.0)])),
        ("MEETING_TRAFFIC", IntentionKind.CHECK_MESSAGES, HeuristicPolicy,
         dict(meeting_start=True)),
        ("UNANSWERED_REQUEST", IntentionKind.CHECK_MESSAGES, HeuristicPolicy,
         dict(unanswered=("th1",), assigned=[held(af=0.30, hours=0.0)])),
        ("INBOX_HAS_REQUESTS", IntentionKind.CHECK_MESSAGES, FixedStepsPolicy,
         dict(step=9, unanswered=("th1",))),
        ("BETWEEN_CHECK_INS", IntentionKind.CONTINUE_TASK, FixedStepsPolicy,
         dict(step=9, assigned=[held(hours=3.0)])),
    ])
    def test_constant_intentions_keep_kind_and_reasoning(self, name, kind, policy,
                                                         situation):
        constant = (policy_module.CONTINUE if kind is IntentionKind.CONTINUE_TASK
                    else policy_module.CHECK_INBOX)
        intention = policy().decide(context(**situation))
        assert intention is constant
        assert intention == (kind, None, ())
        assert not hasattr(policy_module, name)
        assert "reasoning" not in Intention._fields

    def test_policies_return_the_constants(self):
        assert NoCommPolicy().decide(context()) is policy_module.CONTINUE
        aligned = context(assigned=[held(af=0.55, hours=1.0)])
        assert HeuristicPolicy().decide(aligned) is policy_module.CONTINUE
        assert HeuristicPolicy().decide(context(invite=True)) is \
            policy_module.CHECK_INBOX
        assert FixedStepsPolicy().decide(context(step=9)) is \
            policy_module.CONTINUE
