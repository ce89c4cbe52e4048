"""Policy decisions, recipient and channel selection, and message templates."""

import dataclasses
import types

import pytest

from teamsim.comms import Channel, MessageType, word_count
from teamsim.model import AgentProfile, Role
from teamsim import policy as policy_module
from teamsim.policy import (FixedStepsPolicy, HeuristicPolicy, Intention,
                            IntentionKind, LastAction, NoCommPolicy,
                            PolicyContext, TaskAssignmentView, TeammateView,
                            build_context, compose_message, compose_reply,
                            reply_channel, select_channel, select_recipients)


def view(task_id="T1.1", af=0.30, hours=0.0, stuck=0, progress=0.0,
         milestone=None, ready=True, done=False,
         skills=frozenset({"oauth"})):
    return TaskAssignmentView(
        task_id=task_id, description="integrate the external api",
        estimated_hours=6.0, required_skills=skills, af=af,
        hours_worked=hours, stuck_worked_steps=stuck, progress=progress,
        pending_milestone=milestone, ready=ready, done=done,
    )


@dataclasses.dataclass
class StandInWorld:
    """The `World` a context reads, answering explicit values for one agent:
    what `build_context` and each context field ask of `World`."""

    agent: AgentProfile
    step: int
    assigned: tuple[TaskAssignmentView, ...]
    unanswered: tuple[str, ...]
    open_outbound: frozenset[str]
    invite: bool
    meeting_start: bool
    blocked: dict[str, tuple[str, ...]]
    organized: frozenset[str]
    last_action: LastAction | None
    manager_id: str = "M1"

    @property
    def agents(self):
        return {self.agent.agent_id: self.agent}

    @property
    def clock(self):
        return types.SimpleNamespace(step=self.step)

    @property
    def delivered_by_type(self):
        return {self.agent.agent_id: {}}

    @property
    def last_actions(self):
        return {} if self.last_action is None else {self.agent.agent_id: self.last_action}

    def task_views(self, agent_id):
        return self.assigned

    # The active and report-due views, derived by their rules.
    def active_view(self, agent_id):
        return next((v for v in self.assigned if v.ready and not v.done), None)

    def report_due_view(self, agent_id):
        return next((v for v in self.assigned if v.pending_milestone is not None), None)

    def unanswered_inbound(self, agent_id):
        return self.unanswered

    def open_outbound_tasks(self, agent_id):
        return self.open_outbound

    def has_unprocessed_invite(self, agent_id):
        return self.invite

    def has_meeting_start(self, agent_id):
        return self.meeting_start

    def blocked_collaborators(self, agent_id):
        return self.blocked

    def organized_meeting_tasks(self, agent_id):
        return self.organized


def context(agent_role=Role.WORKER, step=5, assigned=(), teammates=(),
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
                         blocked or {}, frozenset(organized), last_action)
    return build_context(world, agent.agent_id, tuple(teammates))


def mate(agent_id, skills, busy=False, role=Role.WORKER):
    return TeammateView(agent_id=agent_id, role=role,
                        skills=frozenset(skills), busy=busy)


class TestNoComm:
    def test_always_continue(self):
        policy = NoCommPolicy()
        for ctx in (context(), context(assigned=[view()]),
                    context(unanswered=("th1",))):
            assert policy.decide(ctx).kind is IntentionKind.CONTINUE_TASK


class TestFixedSteps:
    def test_report_on_the_interval(self):
        policy = FixedStepsPolicy()
        ctx = context(step=16, assigned=[view(hours=3.0)])
        assert policy.decide(ctx).kind is IntentionKind.REPORT_PROGRESS

    def test_step_zero_not_a_report_step(self):
        ctx = context(step=0, assigned=[view()])
        assert FixedStepsPolicy().decide(ctx).kind is IntentionKind.CONTINUE_TASK

    def test_help_follows_the_report(self):
        last = LastAction("message_sent", MessageType.PROGRESS_UPDATE.value, 16)
        tasks = [view(task_id="T1.1", af=0.45), view(task_id="T1.2", af=0.30)]
        ctx = context(step=17, assigned=tasks, last_action=last)
        intention = FixedStepsPolicy().decide(ctx)
        assert intention.kind is IntentionKind.REQUEST_HELP
        assert intention.task_hint == "T1.2"  # lowest alignment wins

    def test_between_intervals_continue_or_check(self):
        policy = FixedStepsPolicy()
        assert policy.decide(context(step=9, assigned=[view()])).kind \
            is IntentionKind.CONTINUE_TASK
        checked = policy.decide(context(step=9, assigned=[view()],
                                        unanswered=("th1",)))
        assert checked.kind is IntentionKind.CHECK_MESSAGES

    def test_manager_only_checks(self):
        policy = FixedStepsPolicy()
        ctx = context(agent_role=Role.MANAGER, step=16, unanswered=("th1",))
        assert policy.decide(ctx).kind is IntentionKind.CHECK_MESSAGES


class TestHeuristic:
    def test_invite_wins(self):
        ctx = context(invite=True, assigned=[view(af=0.2, hours=1.0, stuck=9)])
        assert HeuristicPolicy().decide(ctx).kind is IntentionKind.CHECK_MESSAGES

    def test_unanswered_inbound_wins_over_help(self):
        ctx = context(unanswered=("th1",),
                      assigned=[view(af=0.2, hours=1.0, stuck=9)])
        assert HeuristicPolicy().decide(ctx).kind is IntentionKind.CHECK_MESSAGES

    def test_stuck_low_alignment_asks_for_help(self):
        ctx = context(assigned=[view(af=0.30, hours=1.0, stuck=4)])
        intention = HeuristicPolicy().decide(ctx)
        assert intention.kind is IntentionKind.REQUEST_HELP
        assert intention.task_hint == "T1.1"

    def test_zero_hours_asks_for_clarification(self):
        ctx = context(assigned=[view(af=0.30, hours=0.0)])
        assert HeuristicPolicy().decide(ctx).kind is IntentionKind.NEED_CLARIFICATION

    def test_open_thread_guard_blocks_requests(self):
        ctx = context(assigned=[view(af=0.30, hours=1.0, stuck=8)],
                      open_outbound={"T1.1"})
        assert HeuristicPolicy().decide(ctx).kind is IntentionKind.CONTINUE_TASK

    def test_aligned_agent_just_works(self):
        ctx = context(assigned=[view(af=0.55, hours=1.0, stuck=9)])
        assert HeuristicPolicy().decide(ctx).kind is IntentionKind.CONTINUE_TASK

    def test_blocked_collaborators_trigger_meeting(self):
        ctx = context(assigned=[view(af=0.55)],
                      blocked={"T1.1": ("W2", "W3")})
        assert HeuristicPolicy().decide(ctx).kind is IntentionKind.SCHEDULE_MEETING

    def test_meeting_not_rescheduled(self):
        ctx = context(assigned=[view(af=0.55)],
                      blocked={"T1.1": ("W2", "W3")}, organized={"T1.1"})
        assert HeuristicPolicy().decide(ctx).kind is IntentionKind.CONTINUE_TASK

    def test_milestone_reported(self):
        ctx = context(assigned=[view(af=0.55, progress=0.5, milestone=0.5)])
        intention = HeuristicPolicy().decide(ctx)
        assert intention.kind is IntentionKind.REPORT_PROGRESS

    def test_purity(self):
        ctx = context(assigned=[view(af=0.30, hours=1.0, stuck=4)])
        first = HeuristicPolicy().decide(ctx)
        second = HeuristicPolicy().decide(ctx)
        assert first == second


def recipients(ctx, kind):
    """Whom `kind` addresses about the context's one held task."""
    return select_recipients(ctx, kind, ctx.assigned[0])


class TestSelectRecipients:
    def test_help_goes_to_best_skilled_free_worker(self):
        ctx = context(
            assigned=[view(skills=frozenset({"oauth"}))],
            teammates=[mate("W2", {"backend"}), mate("W3", {"oauth"}),
                       mate("M1", {"planning"}, role=Role.MANAGER)],
        )
        assert recipients(ctx, IntentionKind.REQUEST_HELP) == ["W3"]

    def test_skill_tie_breaks_to_lower_id(self):
        ctx = context(
            assigned=[view(skills=frozenset({"oauth"}))],
            teammates=[mate("W5", {"oauth"}), mate("W2", {"oauth"})],
        )
        assert recipients(ctx, IntentionKind.REQUEST_HELP) == ["W2"]

    def test_busy_candidates_skipped(self):
        ctx = context(
            assigned=[view(skills=frozenset({"oauth"}))],
            teammates=[mate("W2", {"oauth"}, busy=True), mate("W3", {"oauth"})],
        )
        assert recipients(ctx, IntentionKind.REQUEST_HELP) == ["W3"]

    def test_no_match_degrades_to_manager(self):
        ctx = context(
            assigned=[view(skills=frozenset({"oauth"}))],
            teammates=[mate("W2", {"frontend"}, busy=True)],
        )
        assert recipients(ctx, IntentionKind.REQUEST_HELP) == ["M1"]

    def test_help_never_goes_to_the_asker(self):
        """The team view holds the deciding worker too, idle and the best
        match of all; the request goes to the best other worker."""
        required = frozenset({"backend", "api"})
        me = mate("W1", {"backend", "api"})
        ctx = context(
            assigned=[view(skills=required)],
            teammates=[mate("M1", {"planning"}, role=Role.MANAGER), me,
                       mate("W2", {"frontend"}), mate("W3", {"api"})],
        )
        assert recipients(ctx, IntentionKind.REQUEST_HELP) == ["W3"]
        ctx = context(
            assigned=[view(skills=required)],
            teammates=[mate("M1", {"planning"}, role=Role.MANAGER), me,
                       mate("W2", {"frontend"}), mate("W3", {"api"}, busy=True)],
        )
        assert recipients(ctx, IntentionKind.REQUEST_HELP) == ["M1"]

    def test_clarification_and_report_go_to_manager(self):
        ctx = context(assigned=[view()])
        assert recipients(ctx, IntentionKind.NEED_CLARIFICATION) == ["M1"]
        assert recipients(ctx, IntentionKind.REPORT_PROGRESS) == ["M1"]

    def test_meeting_invites_manager_plus_blocked(self):
        ctx = context(assigned=[view()], blocked={"T1.1": ("W3", "W2")})
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
        ctx = context(assigned=[view(af=0.30, hours=1.0,
                                     skills=frozenset({"oauth"}))])
        text = compose_message(ctx, IntentionKind.REQUEST_HELP, ctx.assigned[0])
        assert "T1.1" in text
        assert "0.30" in text
        assert "oauth" in text
        assert word_count(text) >= 120  # detailed request rides email

    def test_report_template_contains_progress(self):
        ctx = context(assigned=[view(progress=0.5, hours=3.0)])
        text = compose_message(ctx, IntentionKind.REPORT_PROGRESS, ctx.assigned[0])
        assert "50%" in text
        assert "T1.1" in text

    def test_templates_deterministic(self):
        ctx = context(assigned=[view()])
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
    "agent", "step", "assigned", "active_task", "report_due", "delivered_by_type",
    "team_view", "manager_id", "last_action", "unanswered_inbound",
    "open_outbound_tasks", "has_unprocessed_invite", "has_meeting_start",
    "blocked_collaborators", "meeting_organized_tasks",
}


class TestValueTypes:
    """A policy is a pure function of a read-only context: no field of a
    context, a view or an intention can be reassigned."""

    def values(self):
        return [
            context(assigned=[view()], teammates=[mate("W2", {"api"})],
                    last_action=LastAction("work", None, 4)),
            view(),
            mate("W2", {"api"}),
            LastAction("work", None, 4),
            Intention(IntentionKind.REQUEST_HELP, "why", "T1.1", ("note",)),
        ]

    def test_every_field_is_read_only(self):
        values = self.values()
        assert {type(v) for v in values} == {PolicyContext, TaskAssignmentView,
                                             TeammateView, LastAction, Intention}
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
        tasks = [view(task_id="T1.1", done=True),
                 view(task_id="T1.2", milestone=0.5), view(task_id="T1.3")]
        teammates = (mate("W2", {"api"}),)
        ctx = context(step=7, assigned=tasks, teammates=teammates,
                      unanswered=("th1",), open_outbound={"T1.3"}, invite=True,
                      meeting_start=True, blocked={"T1.2": ("W2",)},
                      organized={"T1.2"}, last_action=last)
        assert (ctx.agent.agent_id, ctx.step, ctx.manager_id) == ("W1", 7, "M1")
        assert ctx.team_view == teammates
        assert ctx.assigned == tuple(tasks)
        assert ctx.active_task == tasks[1]
        assert ctx.report_due == tasks[1]
        assert ctx.delivered_by_type == {}
        assert ctx.last_action == last
        assert ctx.unanswered_inbound == ("th1",)
        assert ctx.open_outbound_tasks == {"T1.3"}
        assert ctx.has_unprocessed_invite and ctx.has_meeting_start
        assert ctx.blocked_collaborators == {"T1.2": ("W2",)}
        assert ctx.meeting_organized_tasks == {"T1.2"}

    def test_a_context_asks_world_only_for_what_is_read(self):
        """Building a context reads only its O(1) fields; `NoCommPolicy` reads
        none, and a field is asked of `World` when it is read."""
        asked = []

        class CountingWorld(StandInWorld):
            def __getattribute__(self, name):
                if name in {"task_views", "active_view", "report_due_view",
                            "unanswered_inbound", "open_outbound_tasks",
                            "has_unprocessed_invite", "has_meeting_start",
                            "blocked_collaborators", "organized_meeting_tasks",
                            "delivered_by_type", "last_actions"}:
                    asked.append(name)
                return super().__getattribute__(name)

        agent = AgentProfile("W1", "Worker 1", Role.WORKER, frozenset({"api"}))
        world = CountingWorld(agent, 3, (view(),), (), frozenset(), False, False,
                              {}, frozenset(), None)
        ctx = build_context(world, "W1", ())
        assert NoCommPolicy().decide(ctx) is policy_module.NO_COMM
        assert asked == []
        assert ctx.unanswered_inbound == ()
        assert asked == ["unanswered_inbound"]

    def test_values_compare_by_field(self):
        assert view() == view()
        assert view(af=0.31) != view()

    def test_policy_context_has_no_default(self):
        # A context holds only what `build_context` gives it: no instance
        # dict, and no field value on the class, which every context would
        # share.
        assert PolicyContext.__slots__ == ()
        assert not any(isinstance(value, (dict, list, set, frozenset, tuple))
                       for name, value in vars(PolicyContext).items()
                       if not name.startswith("__"))
        # A named-tuple default is one object shared by every instance.
        for value_type in (TaskAssignmentView, TeammateView, LastAction, Intention):
            for default in value_type._field_defaults.values():
                assert isinstance(default, (str, tuple, type(None)))

    @pytest.mark.parametrize("name,kind,reasoning", [
        ("NO_COMM", IntentionKind.CONTINUE_TASK, "no-communication policy"),
        ("NO_TRIGGER", IntentionKind.CONTINUE_TASK, "no trigger fired"),
        ("MEETING_TRAFFIC", IntentionKind.CHECK_MESSAGES, "meeting traffic in inbox"),
        ("UNANSWERED_REQUEST", IntentionKind.CHECK_MESSAGES,
         "unanswered request in inbox"),
        ("INBOX_HAS_REQUESTS", IntentionKind.CHECK_MESSAGES, "inbox has requests"),
        ("BETWEEN_CHECK_INS", IntentionKind.CONTINUE_TASK,
         "between scheduled check-ins"),
    ])
    def test_constant_intentions_keep_kind_and_reasoning(self, name, kind, reasoning):
        assert getattr(policy_module, name) == Intention(kind, reasoning)

    def test_policies_return_the_constants(self):
        assert NoCommPolicy().decide(context()) is policy_module.NO_COMM
        aligned = context(assigned=[view(af=0.55, hours=1.0)])
        assert HeuristicPolicy().decide(aligned) is policy_module.NO_TRIGGER
        assert HeuristicPolicy().decide(context(invite=True)) is \
            policy_module.MEETING_TRAFFIC
        assert FixedStepsPolicy().decide(context(step=9)) is \
            policy_module.BETWEEN_CHECK_INS
