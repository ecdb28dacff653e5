"""Outer-loop planning over validated checkpoints.

Three interchangeable policies share one base, ``Policy``: the per-round
contract (begin_round / end_round) and the tool schema inner-loop agents talk
back through, whose ``record_finding`` tool every policy serves. Policies only
plan. Checkpoints are git commits; the runner keeps the best one under
``BestTracker``'s noise-floor rule, reverts to it when a validated round
regresses, and tells ``end_round`` whether the round was kept.

* issue-tracker: a backlog of structured issues plus a long-term memory
  markdown file. Agents file issues over the tool contract; each round
  dispatches one eligible issue (deterministic rule in stub mode, an
  Orchestrator harness answering via select_issue in agent mode).
* evolutionary: a capacity-bounded population of scored checkpoints;
  parents picked by seeded best-of-3 tournament, worst member evicted.
* Ralph: one fixed task re-dispatched every round with the full prior-round
  history appended.
"""

from __future__ import annotations

import json
import os
from typing import Callable, NamedTuple, Optional, Sequence

from forgeloop.errors import ForgeloopError, checked
from forgeloop.gates.rng import DeterministicRng
from forgeloop.harness import AgentRole
from forgeloop.innerloop import RoundResult, RoundStatus
from forgeloop.mcp import HandlerError, SessionContext, ToolSpec
from forgeloop.workspace import Checkpoint, Workspace


class PolicyError(ForgeloopError):
    pass


class Exhausted(PolicyError):
    """Nothing left to dispatch: empty backlog/population and no seed task."""


class NoEligibleIssue(PolicyError):
    """Open issues exist but every one is blocked by an unfinished dependency."""


class RoundMismatch(PolicyError):
    pass


# -- issues ------------------------------------------------------------------

IMPACTS = ("high", "medium", "low")
STATUSES = ("open", "in_progress", "done", "rejected")

ALLOWED_TRANSITIONS = {
    ("open", "in_progress"),
    ("in_progress", "done"),
    ("in_progress", "rejected"),
    ("in_progress", "open"),  # failed round returns the issue to the backlog
}


class Issue:
    def __init__(self, id: int, title: str, rationale: str, acceptance_criteria: tuple[str, ...],
                 expected_impact: str, status: str = "open", filed_by: str = AgentRole.ORCHESTRATOR.value,
                 round_filed: int = 0, depends_on: tuple[int, ...] = (), attempts: int = 0):
        self.id, self.title, self.rationale = id, title, rationale
        self.acceptance_criteria, self.expected_impact = acceptance_criteria, expected_impact
        self.status, self.filed_by, self.round_filed = status, filed_by, round_filed
        self.depends_on, self.attempts = depends_on, attempts

    def to_json(self) -> str:
        return json.dumps(
            {
                "id": self.id,
                "title": self.title,
                "rationale": self.rationale,
                "acceptance_criteria": list(self.acceptance_criteria),
                "expected_impact": self.expected_impact,
                "status": self.status,
                "filed_by": self.filed_by,
                "round_filed": self.round_filed,
                "depends_on": list(self.depends_on),
                "attempts": self.attempts,
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(line: str) -> "Issue":
        doc = json.loads(line)
        return Issue(
            id=int(doc["id"]),
            title=doc["title"],
            rationale=doc["rationale"],
            acceptance_criteria=tuple(doc["acceptance_criteria"]),
            expected_impact=doc["expected_impact"],
            status=doc["status"],
            filed_by=doc.get("filed_by", AgentRole.ORCHESTRATOR.value),
            round_filed=int(doc.get("round_filed", 0)),
            depends_on=tuple(doc.get("depends_on", ())),
            attempts=int(doc.get("attempts", 0)),
        )


def transition_issue(issue: Issue, new_status: str) -> None:
    if new_status not in STATUSES:
        raise HandlerError(f"unknown issue status: {new_status}")
    if (issue.status, new_status) not in ALLOWED_TRANSITIONS:
        raise HandlerError(f"forbidden transition {issue.status} -> {new_status} on issue {issue.id}")
    issue.status = new_status


# -- long-term memory ----------------------------------------------------------

MEMORY_HEADINGS = ("Directions Tried", "Evidence Against", "Promising Next", "Platform Notes")


class MemoryDoc:
    """Four fixed level-2 sections; serialize/parse round-trip exactly."""

    def __init__(self, sections: Optional[dict[str, str]] = None):
        self.sections = {h: "" for h in MEMORY_HEADINGS} if sections is None else sections

    def serialize(self) -> str:
        blocks = []
        for heading in MEMORY_HEADINGS:
            body = self.sections.get(heading, "").rstrip()
            blocks.append(f"## {heading}\n{body}".rstrip())
        return "\n\n".join(blocks) + "\n"

    @staticmethod
    def parse(text: str) -> "MemoryDoc":
        sections = {h: "" for h in MEMORY_HEADINGS}
        current = None
        lines: dict[str, list[str]] = {h: [] for h in MEMORY_HEADINGS}
        for line in text.splitlines():
            if line.startswith("## "):
                heading = line[3:].strip()
                current = heading if heading in MEMORY_HEADINGS else None
                continue
            if current is not None:
                lines[current].append(line)
        for heading in MEMORY_HEADINGS:
            sections[heading] = "\n".join(lines[heading]).strip("\n")
        return MemoryDoc(sections=sections)

    def append_line(self, heading: str, line: str) -> None:
        if heading not in MEMORY_HEADINGS:
            raise ValueError(f"unknown memory heading: {heading}")
        body = self.sections.get(heading, "")
        self.sections[heading] = (body + "\n" + _one_line(line)).strip("\n")


# -- best tracker ----------------------------------------------------------------


class BestTracker:
    """Keeps the best validated checkpoint; replacement needs a relative
    improvement beyond the noise floor, in the metric's declared direction."""

    def __init__(self, epsilon_rel: float = 0.005, best: Optional[Checkpoint] = None):
        self.epsilon_rel, self.best = epsilon_rel, best

    def consider(self, cp: Checkpoint) -> bool:
        if self.best is None:
            self.best = cp
            return True
        old, new = self.best.metric, cp.metric
        if old == 0:
            improved = new > 0 if cp.higher_is_better else new < 0
        else:
            rel = (new - old) / abs(old) if cp.higher_is_better else (old - new) / abs(old)
            improved = rel > self.epsilon_rel
        if improved:
            self.best = cp
        return improved


# -- the per-round contract -------------------------------------------------------


@checked
class RoundDirective(NamedTuple):
    start: Optional[Checkpoint]  # None = continue from the current head
    task_text: str
    pass_criteria: tuple[str, ...]
    issue_id: Optional[int] = None

    def _check(self):
        if not self.task_text.strip():
            raise PolicyError("directive task_text must be nonempty")


BOOTSTRAP_TITLE = "bootstrap: produce a minimal correct serving system"
DEFAULT_CRITERIA = ("the candidate passes the accuracy checker",)


def _one_line(text: str) -> str:
    """Agent or checker text as one line, so it cannot open a section of a
    markdown state file."""
    return " ".join(text.split())


def _hints_in(section: str) -> set[str]:
    """The hints of a memory section's ``- round N: <hint>`` lines."""
    hints = set()
    for line in section.splitlines():
        head, sep, hint = line.partition(": ")
        if sep and head.startswith("- round ") and head[len("- round "):].isdigit():
            hints.add(hint)
    return hints


class Policy:
    """What every policy shares: the ``record_finding`` tool and the default
    tool filter. Subclasses plan the rounds; ``end_round(directive, result,
    round_index, kept)`` hears whether the round's checkpoint became the best."""

    def record_finding(self, ctx: SessionContext, args: dict) -> dict:
        # Findings are consumed from the per-invocation tool log; the handler
        # only acknowledges so hints stay attributable to their invocation.
        return {"recorded": True}

    def toolset(self) -> tuple[ToolSpec, ...]:
        """The tools a round's agents may call."""
        return (
            ToolSpec(
                name="record_finding",
                description="Record a performance or review finding for the policy.",
                input_schema={
                    "type": "object",
                    "properties": {"text": {"type": "string", "minLength": 1}},
                    "required": ["text"],
                    "additionalProperties": False,
                },
                handler=self.record_finding,
            ),
        )

    def served_toolset(self) -> tuple[ToolSpec, ...]:
        """Every tool the run's tool server exposes; ``allowed_tools`` narrows it per role."""
        return self.toolset()

    def allowed_tools(self, role: AgentRole) -> Optional[Sequence[str]]:
        return ("record_finding",)

    def backlog_counts(self) -> dict[str, int]:
        return {s: 0 for s in STATUSES}

    def round_transition(self, directive: RoundDirective) -> Optional[str]:
        """The issue transition a finished round made, if the policy tracks issues."""
        return None


class IssueTrackerPolicy(Policy):
    """Backlog of structured issues + MemoryDoc, persisted at the workspace root."""

    name = "issue_tracker"

    def __init__(
        self,
        workspace: Workspace,
        orchestrator_invoker: Optional[Callable[["IssueTrackerPolicy", int], None]] = None,
        seed_task: bool = True,
    ):
        self.orchestrator_invoker = orchestrator_invoker
        self.seed_task = seed_task
        self.issues: dict[int, Issue] = {}
        self._next_id = 1
        self._current: Optional[Issue] = None
        self._selected_by_tool: Optional[int] = None
        self.memory = MemoryDoc()
        self._issues_path = workspace.root / "ISSUES.jsonl"
        self._memory_path = workspace.root / "MEMORY.md"
        self._memory_written: Optional[str] = None  # MEMORY.md as last read or written
        self._load_state()

    # -- persistence (crash recovery) -----------------------------------

    def _load_state(self) -> None:
        if self._issues_path.exists():
            for line in self._issues_path.read_text(encoding="utf-8").splitlines():
                if line.strip():
                    issue = Issue.from_json(line)
                    self.issues[issue.id] = issue
                    self._next_id = max(self._next_id, issue.id + 1)
        if self._memory_path.exists():
            self._memory_written = self._memory_path.read_text(encoding="utf-8")
            self.memory = MemoryDoc.parse(self._memory_written)

    def _persist(self, issue: Issue) -> None:
        """Append ``issue``'s new state (the last line per id wins on load) and
        write MEMORY.md over in place, only when its text changed: on a
        filesystem that discards freed blocks synchronously, a truncation
        waits on a discard, and the document only grows."""
        with self._issues_path.open("a", encoding="utf-8") as fh:
            fh.write(issue.to_json() + "\n")
        memory = self.memory.serialize()
        if memory != self._memory_written:
            with open(os.open(self._memory_path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
                fh.write(memory.encode("utf-8"))
                fh.truncate()
            self._memory_written = memory

    # -- tool surface -----------------------------------------------------

    def file_issue(self, ctx: SessionContext, args: dict) -> dict:
        if ctx.round < 0:
            raise HandlerError("file_issue outside any active round")
        issue = Issue(
            id=self._next_id,
            title=args["title"],
            rationale=args["rationale"],
            acceptance_criteria=tuple(args["acceptance_criteria"]),
            expected_impact=args["expected_impact"],
            filed_by=ctx.role,
            round_filed=ctx.round,
            depends_on=tuple(args.get("depends_on", ())),
        )
        # No cycle can form: dependencies are filed already, ids only grow, and no tool edits depends_on.
        for dep in issue.depends_on:
            if dep not in self.issues:
                raise HandlerError(f"depends_on references unknown issue {dep}")
        self._next_id += 1
        self.issues[issue.id] = issue
        self._persist(issue)
        return {"issue_id": issue.id}

    def update_issue_status(self, ctx: SessionContext, args: dict) -> dict:
        issue = self.issues.get(args["issue_id"])
        if issue is None:
            raise HandlerError(f"unknown issue id {args['issue_id']}")
        transition_issue(issue, args["status"])
        self._persist(issue)
        return {"issue_id": issue.id, "status": issue.status}

    # Defined on this class too: overheadbench's tracer wraps only methods a
    # class defines itself, and times this one with the other tool handlers.
    record_finding = Policy.record_finding

    def select_issue_tool(self, ctx: SessionContext, args: dict) -> dict:
        issue = self.issues.get(args["issue_id"])
        if issue is None:
            raise HandlerError(f"unknown issue id {args['issue_id']}")
        if issue.status != "open" or not self._deps_done(issue):
            raise HandlerError(f"issue {issue.id} is not eligible for dispatch")
        self._selected_by_tool = issue.id
        return {"issue_id": issue.id}

    def toolset(self) -> tuple[ToolSpec, ...]:
        return (
            ToolSpec(
                name="file_issue",
                description="File a structured backlog issue for a future round.",
                input_schema={
                    "type": "object",
                    "properties": {
                        "title": {"type": "string", "minLength": 1},
                        "rationale": {"type": "string"},
                        "acceptance_criteria": {
                            "type": "array",
                            "items": {"type": "string"},
                            "minItems": 1,
                        },
                        "expected_impact": {"enum": list(IMPACTS)},
                        "depends_on": {"type": "array", "items": {"type": "integer"}},
                    },
                    "required": ["title", "rationale", "acceptance_criteria", "expected_impact"],
                    "additionalProperties": False,
                },
                handler=self.file_issue,
            ),
            ToolSpec(
                name="update_issue_status",
                description="Move a backlog issue along its status machine.",
                input_schema={
                    "type": "object",
                    "properties": {
                        "issue_id": {"type": "integer"},
                        "status": {"enum": list(STATUSES)},
                    },
                    "required": ["issue_id", "status"],
                    "additionalProperties": False,
                },
                handler=self.update_issue_status,
            ),
        ) + super().toolset()

    def served_toolset(self) -> tuple[ToolSpec, ...]:
        select = ToolSpec(
            name="select_issue",
            description="Choose the open issue to dispatch this round.",
            input_schema={
                "type": "object",
                "properties": {"issue_id": {"type": "integer"}},
                "required": ["issue_id"],
                "additionalProperties": False,
            },
            handler=self.select_issue_tool,
        )
        return self.toolset() + (select,)

    def allowed_tools(self, role: AgentRole) -> Optional[Sequence[str]]:
        if role is AgentRole.EVALUATOR:
            return ("record_finding",)
        if role is AgentRole.ORCHESTRATOR:
            return ("select_issue", "file_issue", "update_issue_status", "record_finding")
        return ("file_issue", "record_finding")

    # -- selection ---------------------------------------------------------

    def _deps_done(self, issue: Issue) -> bool:
        return all(
            dep in self.issues and self.issues[dep].status == "done" for dep in issue.depends_on
        )

    def select_issue(self, round_index: int) -> Issue:
        open_issues = [i for i in self.issues.values() if i.status == "open"]
        if not open_issues:
            raise Exhausted("no open issues in the backlog")
        eligible = [i for i in open_issues if self._deps_done(i)]
        if not eligible:
            raise NoEligibleIssue("every open issue is blocked by an unfinished dependency")
        if self.orchestrator_invoker is not None:
            self._selected_by_tool = None
            self.orchestrator_invoker(self, round_index)
            if self._selected_by_tool is not None:
                return self.issues[self._selected_by_tool]
            # A harness that never answered falls back to the deterministic rule.
        eligible.sort(key=lambda i: (IMPACTS.index(i.expected_impact), i.id))
        return eligible[0]

    # -- per-round contract ---------------------------------------------------

    def begin_round(self, round_index: int) -> RoundDirective:
        if round_index == 0 and not self.issues and self.seed_task:
            bootstrap = Issue(
                id=self._next_id,
                title=BOOTSTRAP_TITLE,
                rationale="An empty workspace has nothing to optimize; start from a "
                "correct baseline that the checker accepts.",
                acceptance_criteria=DEFAULT_CRITERIA,
                expected_impact="high",
                round_filed=0,
            )
            self.issues[bootstrap.id] = bootstrap
            self._next_id += 1
            self._persist(bootstrap)
        issue = self.select_issue(round_index)
        transition_issue(issue, "in_progress")
        self._current = issue
        self._persist(issue)
        task_text = f"{issue.title}\n\n{issue.rationale}".strip()
        return RoundDirective(
            start=None,
            task_text=task_text,
            pass_criteria=issue.acceptance_criteria,
            issue_id=issue.id,
        )

    def end_round(self, directive: RoundDirective, result: RoundResult, round_index: int, kept: bool) -> None:
        issue = self.issues.get(directive.issue_id or -1)
        if issue is None or self._current is None or issue.id != self._current.id:
            raise RoundMismatch("result does not belong to the in-progress issue")
        self._current = None

        if result.status is RoundStatus.VALIDATED:
            if issue.status == "in_progress":
                transition_issue(issue, "done")
            line = (
                f"- round {result.commit.round}: {issue.title} -> validated, "
                f"metric {result.commit.metric:g} {result.commit.unit}"
            )
            self.memory.append_line("Directions Tried", line)
            if not kept:
                self.memory.append_line(
                    "Evidence Against",
                    f"- round {result.commit.round}: {issue.title} regressed the headline; reverted",
                )
            known = _hints_in(self.memory.sections["Promising Next"])
            for hint in map(_one_line, result.hints):
                if hint not in known:  # an Evaluator repeating itself adds no line
                    known.add(hint)
                    self.memory.append_line("Promising Next", f"- round {round_index}: {hint}")
        else:
            issue.attempts += 1
            if issue.status == "in_progress":
                transition_issue(issue, "open")
            if result.status is RoundStatus.FAILED_BUDGET:
                detail = result.feedback[0] if result.feedback else "no feedback"
                self.memory.append_line(
                    "Directions Tried",
                    f"- {issue.title}: failed retry budget (attempt {issue.attempts}); {detail}",
                )
            else:  # error
                detail = result.feedback[0] if result.feedback else "environment error"
                self.memory.append_line("Platform Notes", f"- {issue.title}: round errored; {detail}")
        self._persist(issue)

    def backlog_counts(self) -> dict[str, int]:
        counts = {s: 0 for s in STATUSES}
        for issue in self.issues.values():
            counts[issue.status] += 1
        return counts

    def round_transition(self, directive: RoundDirective) -> Optional[str]:
        return f"in_progress->{self.issues[directive.issue_id].status}"


# -- evolutionary ----------------------------------------------------------------


class EvolutionaryPolicy(Policy):
    """Population search over checkpoints; a scalar score is the whole state."""

    name = "evolutionary"
    TOURNAMENT = 3

    def __init__(self, seed_task: Optional[str] = None, rng_seed: int = 42, capacity: int = 8):
        self.seed_task = seed_task
        self.population: list[tuple[Checkpoint, float]] = []
        self.capacity = capacity
        self._rng = DeterministicRng(rng_seed)

    def select_parent(self) -> Checkpoint:
        population = self.population
        if not population:
            raise Exhausted("empty population")
        k = min(self.TOURNAMENT, len(population))
        indices: list[int] = []
        while len(indices) < k:
            i = self._rng.next_index(len(population))
            if i not in indices:
                indices.append(i)
        entrants = [population[i] for i in indices]
        higher = entrants[0][0].higher_is_better
        entrants.sort(key=lambda pair: pair[1], reverse=higher)
        return entrants[0][0]

    def begin_round(self, round_index: int) -> RoundDirective:
        if self.population:
            parent = self.select_parent()
            task = (
                f"Improve the serving system starting from checkpoint {parent.commit[:12]} "
                f"(round {parent.round}, metric {parent.metric:g} {parent.unit}). "
                "Change one thing; keep the checker green."
            )
        elif self.seed_task is not None:
            parent, task = None, self.seed_task
        else:
            raise Exhausted("empty population and no seed task configured")
        return RoundDirective(start=parent, task_text=task, pass_criteria=DEFAULT_CRITERIA)

    def record_child(self, result: RoundResult) -> None:
        if result.status is not RoundStatus.VALIDATED or result.commit is None:
            return
        cp = result.commit
        population = self.population
        population.append((cp, cp.metric))
        if len(population) > self.capacity:
            higher = cp.higher_is_better
            # Evict the worst score; ties go to the older round.
            worst = min(
                range(len(population)),
                key=lambda i: (population[i][1] if higher else -population[i][1], population[i][0].round),
            )
            population.pop(worst)

    def end_round(self, directive: RoundDirective, result: RoundResult, round_index: int, kept: bool) -> None:
        # Hints are not kept: the score alone is this policy's state.
        self.record_child(result)


# -- Ralph ----------------------------------------------------------------------


class RalphPolicy(Policy):
    """The same task every round, with the whole prior history as context."""

    name = "ralph"

    def __init__(self, workspace: Workspace, task_text: str):
        if not task_text.strip():
            raise PolicyError("ralph needs a fixed task text")
        self.task_text = task_text
        self._history_path = workspace.root / "RALPH_HISTORY.md"

    def begin_round(self, round_index: int) -> RoundDirective:
        path = self._history_path
        history = path.read_text(encoding="utf-8").strip("\n") if path.exists() else ""
        task = f"{self.task_text}\n\n## HISTORY\n{history}\n"
        return RoundDirective(start=None, task_text=task, pass_criteria=DEFAULT_CRITERIA)

    def end_round(self, directive: RoundDirective, result: RoundResult, round_index: int, kept: bool) -> None:
        if result.status is RoundStatus.VALIDATED and result.commit is not None:
            summary = (
                f"- round {result.commit.round}: validated, metric "
                f"{result.commit.metric:g} {result.commit.unit}"
            )
            if not kept:
                summary += " (regressed; reverted to best)"
            if result.hints:
                summary += "; hints: " + "; ".join(result.hints)
        else:
            detail = result.feedback[0] if result.feedback else "no feedback"
            summary = f"- round {round_index}: {result.status.value}; {detail}"
        with self._history_path.open("a", encoding="utf-8") as history:
            history.write(_one_line(summary) + "\n")
