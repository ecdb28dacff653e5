"""Outer-loop policies: selection rules, state machines, memory, best
tracking, population management."""

import pytest

from forgeloop.gates.metrics import MetricReport
from forgeloop.harness import AgentRole
from forgeloop.innerloop import RoundResult, RoundStatus
from forgeloop.mcp import HandlerError, SessionContext
from forgeloop.policy import (
    BestTracker,
    EvolutionaryPolicy,
    Exhausted,
    IssueTrackerPolicy,
    Issue,
    MEMORY_HEADINGS,
    MemoryDoc,
    NoEligibleIssue,
    RalphPolicy,
    RoundMismatch,
    transition_issue,
)
from forgeloop.workspace import Checkpoint


def cp(round_index=0, metric=100.0, higher=True, commit=None):
    return Checkpoint(
        commit=commit or f"c{round_index:03d}" + "0" * 37,
        round=round_index,
        metric=metric,
        unit="tok_per_s",
        higher_is_better=higher,
        tree_digest=f"t{round_index}",
    )


def validated(round_index=0, metric=100.0, higher=True, hints=()):
    checkpoint = cp(round_index, metric, higher)
    return RoundResult(
        status=RoundStatus.VALIDATED,
        commit=checkpoint,
        metric=MetricReport(metric=metric, unit="tok_per_s", higher_is_better=higher),
        hints=hints,
    )


def failed(feedback=("checker said no",)):
    return RoundResult(status=RoundStatus.FAILED_BUDGET, feedback=tuple(feedback))


def ctx(role="Implementer", round_index=0):
    return SessionContext(role=role, round=round_index)


# -- issue state machine -------------------------------------------------------


def test_allowed_transitions():
    issue = Issue(id=1, title="t", rationale="r", acceptance_criteria=("c",), expected_impact="low")
    transition_issue(issue, "in_progress")
    transition_issue(issue, "open")
    transition_issue(issue, "in_progress")
    transition_issue(issue, "done")
    assert issue.status == "done"


@pytest.mark.parametrize(
    "path",
    [("done",), ("rejected",), ("in_progress", "done", "open"), ("in_progress", "rejected", "open")],
)
def test_forbidden_transitions(path):
    issue = Issue(id=1, title="t", rationale="r", acceptance_criteria=("c",), expected_impact="low")
    with pytest.raises(HandlerError):
        for status in path:
            transition_issue(issue, status)


# -- memory doc -------------------------------------------------------------------


def test_memory_serialize_has_exact_headings_in_order():
    doc = MemoryDoc()
    text = doc.serialize()
    headings = [line for line in text.splitlines() if line.startswith("## ")]
    assert headings == [f"## {h}" for h in MEMORY_HEADINGS]


def test_memory_round_trip_identity():
    doc = MemoryDoc()
    doc.append_line("Directions Tried", "- tried continuous batching")
    doc.append_line("Directions Tried", "- tried paged kv")
    doc.append_line("Platform Notes", "- L4 has 24 GB")
    serialized = doc.serialize()
    reparsed = MemoryDoc.parse(serialized)
    assert reparsed.sections == doc.sections
    assert reparsed.serialize() == serialized


def test_memory_parse_ignores_unknown_headings():
    doc = MemoryDoc.parse("## Directions Tried\n- a\n\n## Rogue Section\n- b\n")
    assert doc.sections["Directions Tried"] == "- a"
    assert all("b" not in doc.sections[h] for h in MEMORY_HEADINGS)


# -- best tracker -------------------------------------------------------------------


def test_best_tracker_requires_relative_improvement():
    tracker = BestTracker(epsilon_rel=0.005)
    assert tracker.consider(cp(0, 100.0))
    assert not tracker.consider(cp(1, 100.4))  # +0.4% <= 0.5%: noise
    assert tracker.consider(cp(2, 101.0))  # +1%
    assert not tracker.consider(cp(3, 90.0))
    assert tracker.best.round == 2


def test_best_tracker_lower_is_better():
    tracker = BestTracker(epsilon_rel=0.005)
    assert tracker.consider(cp(0, 10.0, higher=False))
    assert tracker.consider(cp(1, 9.0, higher=False))
    assert not tracker.consider(cp(2, 8.99, higher=False))  # -0.1% of 9: noise
    assert tracker.best.round == 1


def test_best_tracker_monotone_over_random_sequence():
    import random

    rng = random.Random(5)
    tracker = BestTracker()
    best_seen = None
    for i in range(200):
        value = rng.uniform(1, 1000)
        tracker.consider(cp(i, value))
        best_seen = value if best_seen is None else max(best_seen, value)
        assert tracker.best.metric <= best_seen
        if i:
            assert tracker.best.metric >= prev_best
        prev_best = tracker.best.metric


# -- issue tracker policy --------------------------------------------------------------


@pytest.fixture
def policy(toy_workspace):
    return IssueTrackerPolicy(toy_workspace)


def file_issue(policy, title, impact, deps=(), round_index=0, role="Implementer"):
    payload = policy.file_issue(
        ctx(role, round_index),
        {
            "title": title,
            "rationale": "r",
            "acceptance_criteria": ["checker passes"],
            "expected_impact": impact,
            "depends_on": list(deps),
        },
    )
    return payload["issue_id"]


def test_bootstrap_issue_auto_filed_at_round_zero(policy):
    directive = policy.begin_round(0)
    assert directive.issue_id == 1
    assert policy.issues[1].status == "in_progress"
    assert "bootstrap" in directive.task_text
    assert directive.pass_criteria  # nonempty for issue-tracker rounds


def test_empty_backlog_without_seed_exhausts(toy_workspace):
    policy = IssueTrackerPolicy(toy_workspace, seed_task=False)
    with pytest.raises(Exhausted):
        policy.begin_round(0)


def test_selection_prefers_impact_then_lowest_id(policy):
    file_issue(policy, "medium a", "medium")  # id 1
    file_issue(policy, "medium b", "medium")  # id 2
    selected = policy.select_issue(1)
    assert selected.id == 1  # tie on impact -> lowest id
    file_issue(policy, "big", "high")  # id 3
    assert policy.select_issue(1).id == 3


def test_selection_respects_dependencies(policy):
    blocker = file_issue(policy, "base", "low")
    dependent = file_issue(policy, "needs base", "high", deps=(blocker,))
    # high-impact issue is blocked; the low one is the only eligible.
    assert policy.select_issue(0).id == blocker

    directive = policy.begin_round(0)
    assert directive.issue_id == blocker
    policy.end_round(directive, validated(0), 0, kept=True)
    assert policy.issues[blocker].status == "done"
    # Now the dependent becomes eligible.
    assert policy.select_issue(1).id == dependent


def test_no_eligible_issue_when_all_blocked(policy):
    a = file_issue(policy, "a", "high")
    b = file_issue(policy, "b", "high", deps=(a,))
    directive = policy.begin_round(0)  # takes a (open -> in_progress)
    assert directive.issue_id == a
    with pytest.raises(NoEligibleIssue):
        policy.select_issue(1)  # only b is open, blocked by in-progress a


def test_validated_round_marks_done_and_updates_best(policy):
    # The runner keeps the best; a kept round leaves no evidence against it.
    directive = policy.begin_round(0)
    policy.end_round(directive, validated(0, metric=50.0), 0, kept=True)
    assert policy.issues[directive.issue_id].status == "done"
    assert "validated, metric 50" in policy.memory.sections["Directions Tried"]
    assert policy.memory.sections["Evidence Against"] == ""


def test_failed_budget_reopens_with_attempt_count(policy):
    directive = policy.begin_round(0)
    policy.end_round(directive, failed(), 0, kept=False)
    issue = policy.issues[directive.issue_id]
    assert issue.status == "open"
    assert issue.attempts == 1
    assert "Directions Tried" in [
        h for h in MEMORY_HEADINGS if policy.memory.sections[h]
    ]
    assert "failed retry budget" in policy.memory.sections["Directions Tried"]


def test_unkept_round_is_recorded_as_regressed(policy, toy_workspace):
    # The runner has reverted an unkept round; the policy writes it down.
    directive = policy.begin_round(0)
    policy.end_round(directive, validated(0, metric=80.0), 0, kept=False)
    assert policy.issues[directive.issue_id].status == "done"
    assert policy.memory.sections["Evidence Against"] == (
        f"- round 0: {policy.issues[directive.issue_id].title} regressed the headline; reverted"
    )

    ralph = RalphPolicy(toy_workspace, task_text="fixed")
    ralph.end_round(ralph.begin_round(1), validated(1, metric=80.0), 1, kept=False)
    assert (toy_workspace.root / "RALPH_HISTORY.md").read_text() == (
        "- round 1: validated, metric 80 tok_per_s (regressed; reverted to best)\n"
    )


def test_issue_tracker_files_hints_under_promising_next(policy, toy_workspace):
    directive = policy.begin_round(0)
    hints = ("batch the prefill", "cache\n## Evidence Against\nthe rope table")
    policy.end_round(directive, validated(0, hints=hints), 0, kept=True)
    memory = MemoryDoc.parse((toy_workspace.root / "MEMORY.md").read_text())
    assert memory.sections["Promising Next"] == (
        "- round 0: batch the prefill\n- round 0: cache ## Evidence Against the rope table"
    )
    assert memory.sections["Evidence Against"] == ""


def _validated_rounds_with_hints(policy, hints_per_round):
    for k, hints in enumerate(hints_per_round):
        if k:
            file_issue(policy, f"issue {k}", "high", round_index=k - 1)
        policy.end_round(policy.begin_round(k), validated(k, metric=100.0 + k, hints=hints), k, kept=True)
    return policy.memory.sections["Promising Next"].splitlines()


def test_a_repeated_hint_leaves_one_promising_next_line(policy, toy_workspace):
    hint = "per-call process\nstartup dominates latency"
    folded_twin = " per-call process startup dominates  latency"
    lines = _validated_rounds_with_hints(policy, [(hint,), (hint,), (hint, folded_twin)])
    assert lines == ["- round 0: per-call process startup dominates latency"]
    memory = MemoryDoc.parse((toy_workspace.root / "MEMORY.md").read_text())
    assert memory.sections["Promising Next"] == lines[0]


def test_two_different_hints_leave_two_promising_next_lines(policy):
    lines = _validated_rounds_with_hints(policy, [("batch the prefill",), ("fuse rope",), ("batch the prefill",)])
    assert lines == ["- round 0: batch the prefill", "- round 1: fuse rope"]


def test_ralph_history_keeps_every_repeated_hint(toy_workspace):
    policy = RalphPolicy(toy_workspace, task_text="fixed")
    for k in range(2):
        policy.end_round(policy.begin_round(k), validated(k, hints=("batch the prefill",)), k, kept=True)
    history = policy.begin_round(2).task_text.split("## HISTORY\n", 1)[1]
    assert history.splitlines() == [
        f"- round {k}: validated, metric 100 tok_per_s; hints: batch the prefill" for k in range(2)
    ]


def test_ralph_puts_hints_on_the_rounds_history_line(toy_workspace):
    policy = RalphPolicy(toy_workspace, task_text="fixed")
    policy.end_round(policy.begin_round(0), validated(0, hints=("batch the prefill", "fuse\nrope")), 0, kept=True)
    policy.end_round(policy.begin_round(1), failed(), 1, kept=False)
    history = policy.begin_round(2).task_text.split("## HISTORY\n", 1)[1]
    assert history.splitlines()[0] == (
        "- round 0: validated, metric 100 tok_per_s; hints: batch the prefill; fuse rope"
    )


def test_evolutionary_keeps_no_hints(toy_workspace):
    plain, hinted = EvolutionaryPolicy(seed_task="s"), EvolutionaryPolicy(seed_task="s")
    plain.end_round(plain.begin_round(0), validated(0), 0, kept=True)
    hinted.end_round(hinted.begin_round(0), validated(0, hints=("batch the prefill",)), 0, kept=True)
    assert hinted.population == plain.population == [(cp(0), 100.0)]
    assert hinted.begin_round(1) == plain.begin_round(1)


def test_error_round_reopens_and_notes_platform(policy):
    directive = policy.begin_round(0)
    policy.end_round(directive, RoundResult(status=RoundStatus.ERROR, feedback=("mount modified",)), 0, kept=False)
    assert policy.issues[directive.issue_id].status == "open"
    assert "mount modified" in policy.memory.sections["Platform Notes"]


def test_end_round_mismatch(policy):
    policy.begin_round(0)
    other = IssueTrackerPolicy.__new__(IssueTrackerPolicy)  # not used; just need a foreign directive
    from forgeloop.policy import RoundDirective

    foreign = RoundDirective(
        start=None, task_text="x", pass_criteria=("c",), issue_id=999
    )
    with pytest.raises(RoundMismatch):
        policy.end_round(foreign, validated(0), 0, kept=True)


def test_state_persists_and_recovers(toy_workspace):
    policy = IssueTrackerPolicy(toy_workspace)
    directive = policy.begin_round(0)
    policy.end_round(directive, failed(), 0, kept=False)
    file_issue(policy, "later", "low", round_index=0)

    recovered = IssueTrackerPolicy(toy_workspace)
    assert set(recovered.issues) == set(policy.issues)
    assert recovered.issues[directive.issue_id].attempts == 1
    assert recovered.memory.sections == policy.memory.sections
    assert (toy_workspace.root / "ISSUES.jsonl").exists()
    assert (toy_workspace.root / "MEMORY.md").exists()


def test_state_writes_append_issues_and_skip_unchanged_memory(toy_workspace):
    policy = IssueTrackerPolicy(toy_workspace)
    directive = policy.begin_round(0)
    policy.end_round(directive, failed(), 0, kept=False)
    memory_path = toy_workspace.root / "MEMORY.md"
    issues_path = toy_workspace.root / "ISSUES.jsonl"
    memory_path.write_text("untouched\n")
    lines_before = issues_path.read_text().splitlines()

    directive = policy.begin_round(1)  # changes the issue, not the memory

    assert memory_path.read_text() == "untouched\n"
    lines_after = issues_path.read_text().splitlines()
    assert lines_after[: len(lines_before)] == lines_before  # appended, not rewritten
    assert [Issue.from_json(line).status for line in lines_after[len(lines_before):]] == ["in_progress"]
    assert IssueTrackerPolicy(toy_workspace).issues[directive.issue_id].status == "in_progress"


def test_depends_on_unknown_or_cyclic_rejected(policy):
    with pytest.raises(HandlerError):
        file_issue(policy, "dangling", "low", deps=(42,))
    a = file_issue(policy, "a", "low")
    # A self-cycle would point at the id this issue gets, which is not filed yet.
    with pytest.raises(HandlerError, match="unknown issue"):
        policy.file_issue(
            ctx(),
            {
                "title": "self",
                "rationale": "r",
                "acceptance_criteria": ["c"],
                "expected_impact": "low",
                "depends_on": [policy._next_id],
            },
        )


def test_update_issue_status_handler_paths(policy):
    a = file_issue(policy, "a", "low")
    with pytest.raises(HandlerError):
        policy.update_issue_status(ctx("Orchestrator"), {"issue_id": 404, "status": "done"})
    policy.update_issue_status(ctx("Orchestrator"), {"issue_id": a, "status": "in_progress"})
    policy.update_issue_status(ctx("Orchestrator"), {"issue_id": a, "status": "rejected"})
    assert policy.issues[a].status == "rejected"
    with pytest.raises(HandlerError):
        policy.update_issue_status(ctx("Orchestrator"), {"issue_id": a, "status": "open"})


def test_allowed_tools_by_role(policy):
    assert policy.allowed_tools(AgentRole.EVALUATOR) == ("record_finding",)
    assert "file_issue" in policy.allowed_tools(AgentRole.IMPLEMENTER)
    assert "update_issue_status" not in policy.allowed_tools(AgentRole.IMPLEMENTER)
    assert "select_issue" in policy.allowed_tools(AgentRole.ORCHESTRATOR)


def test_agent_mode_selection_via_tool(toy_workspace):
    def orchestrate(policy, round_index):
        # Simulates the Orchestrator answering through select_issue.
        eligible = [i for i in policy.issues.values() if i.status == "open"]
        policy.select_issue_tool(ctx("Orchestrator", round_index), {"issue_id": eligible[-1].id})

    policy = IssueTrackerPolicy(toy_workspace, orchestrator_invoker=orchestrate, seed_task=False)
    file_issue(policy, "first", "high")
    second = file_issue(policy, "second", "low")
    directive = policy.begin_round(0)
    # The orchestrator picked the last eligible issue, overriding the
    # deterministic impact rule.
    assert directive.issue_id == second


# -- evolutionary ------------------------------------------------------------------


def test_evolutionary_seed_round_then_population(toy_workspace):
    policy = EvolutionaryPolicy(seed_task="build it")
    directive = policy.begin_round(0)
    assert directive.start is None
    assert directive.task_text == "build it"
    policy.end_round(directive, validated(0, metric=10.0), 0, kept=True)
    assert len(policy.population) == 1
    d1 = policy.begin_round(1)
    assert d1.start is not None
    assert d1.start.round == 0  # forced choice with population of 1


def test_evolutionary_exhausted_without_seed(toy_workspace):
    policy = EvolutionaryPolicy(seed_task=None)
    with pytest.raises(Exhausted):
        policy.begin_round(0)


def test_evolutionary_eviction_rules(toy_workspace):
    policy = EvolutionaryPolicy(seed_task="s", capacity=3)
    for i, metric in enumerate([10.0, 20.0, 30.0]):
        policy.record_child(validated(i, metric=metric))
    assert len(policy.population) == 3

    # Child above the min evicts the min.
    policy.record_child(validated(3, metric=25.0))
    metrics = sorted(score for _, score in policy.population)
    assert metrics == [20.0, 25.0, 30.0]

    # Child below the current min gets inserted then immediately evicted
    # (it is the worst member).
    policy.record_child(validated(4, metric=5.0))
    assert sorted(s for _, s in policy.population) == [20.0, 25.0, 30.0]

    # Tie on score: the older round is evicted first.
    policy.record_child(validated(9, metric=20.0))
    rounds_with_20 = [c.round for c, s in policy.population if s == 20.0]
    assert rounds_with_20 == [9]


def test_evolutionary_ignores_unvalidated(toy_workspace):
    policy = EvolutionaryPolicy(seed_task="s")
    policy.record_child(failed())
    assert policy.population == []


def test_evolutionary_parent_selection_deterministic(toy_workspace):
    a = EvolutionaryPolicy(seed_task="s", rng_seed=7)
    for i, metric in enumerate([10.0, 40.0, 20.0, 30.0]):
        a.record_child(validated(i, metric=metric))
    picks_a = [a.select_parent().round for _ in range(6)]

    b = EvolutionaryPolicy(seed_task="s", rng_seed=7)
    for i, metric in enumerate([10.0, 40.0, 20.0, 30.0]):
        b.record_child(validated(i, metric=metric))
    picks_b = [b.select_parent().round for _ in range(6)]
    assert picks_a == picks_b
    # Tournament of 3 over 4 members: the global best wins often.
    assert picks_a.count(1) >= 3


# -- ralph -------------------------------------------------------------------------


def test_ralph_round_zero_empty_history(toy_workspace):
    policy = RalphPolicy(toy_workspace, task_text="always the same task")
    directive = policy.begin_round(0)
    assert directive.task_text.startswith("always the same task")
    assert directive.task_text.rstrip().endswith("## HISTORY")


def test_ralph_history_accumulates_in_order(toy_workspace):
    policy = RalphPolicy(toy_workspace, task_text="fixed")
    for i, metric in enumerate([10.0, 12.0, 11.0]):
        directive = policy.begin_round(i)
        policy.end_round(directive, validated(i, metric=metric), i, kept=metric != 11.0)
    directive = policy.begin_round(3)
    history = directive.task_text.split("## HISTORY", 1)[1]
    lines = [line for line in history.splitlines() if line.startswith("- round")]
    assert len(lines) == 3
    assert "round 0" in lines[0] and "round 1" in lines[1] and "round 2" in lines[2]


def test_ralph_history_file_bytes(toy_workspace):
    # One line per round, a newline after each, whatever the feedback ends with.
    policy = RalphPolicy(toy_workspace, task_text="fixed")
    policy.end_round(policy.begin_round(0), validated(0), 0, kept=True)
    policy.end_round(policy.begin_round(1), failed(("build failed (2): boom\n\n",)), 1, kept=False)
    policy.end_round(policy.begin_round(2), validated(2, metric=90.0), 2, kept=False)
    assert (toy_workspace.root / "RALPH_HISTORY.md").read_bytes() == (
        b"- round 0: validated, metric 100 tok_per_s\n"
        b"- round 1: failed_budget; build failed (2): boom\n"
        b"- round 2: validated, metric 90 tok_per_s (regressed; reverted to best)\n"
    )


def test_ralph_identical_state_identical_directive(toy_workspace):
    policy = RalphPolicy(toy_workspace, task_text="fixed")
    assert policy.begin_round(2).task_text == policy.begin_round(2).task_text
