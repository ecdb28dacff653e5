"""One round of the pipeline: Implementer attempts under a retry budget, the
Judge gating correctness, the Evaluator measuring and hinting.

The Judge verdict aggregates four gates in order: the user checker's
exit-code contract, mount verification, the deterministic reward-hack scan
(checks (a) constant template and (b) prompt-keyed cache), and the Judge
agent's review of the diff and runtime notes. The agent is advisory-plus:
it can add violations, never clear deterministic ones. A tampered mount
raises :class:`Tampered`, which ends the round; the Evaluator runs only
after a passed verdict. A round has one tree, the worktree the gates
checked, which the ``Verdict`` carries: the Judge agent reviews its diff,
the benchmark measures it and the checkpoint commits it. Edits by the Judge
agent or the Evaluator phase are discarded.

Every agent turn of a round (Implementer, Judge, Evaluator) goes through
one :class:`Agents` record, which holds the harness provider, the run's tool
server and ledger, and each role's tool filter.

Candidate conventions (documented in the README): an executable ``build``
at the candidate root is run before judging when present; an executable
``run`` answers a single prompt (argv[1]) on stdout and is what the probe
scanner drives.
"""

from __future__ import annotations

import enum
import json
import os
import subprocess  # noqa: F401 - unused here; overheadbench's tracer replaces this module attribute
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from forgeloop.contract import TargetContract
from forgeloop.errors import ForgeloopError, checked
from forgeloop.gates.metrics import MetricParseError, MetricReport, parse_metric_line
from forgeloop.harness import (
    AgentRole,
    Completed,
    HarnessConfig,
    PromptBundle,
    SpawnFailed,
    assemble_prompt,
    invoke_agent,
    run_bounded,
)
from forgeloop.mcp import Session, ToolServer
from forgeloop.skills import SkillLibrary, retrieve
from forgeloop.workspace import (
    Checkpoint,
    MountFailed,
    Workspace,
    WorkspaceError,
    commit_checkpoint,
    diff_since,
    discard_worktree,
    restore_mounts,
    restore_tree,
    revert_to,
    verify_mounts,
)


class InnerLoopError(ForgeloopError):
    pass


class CheckerUnrunnable(InnerLoopError):
    pass


class BenchmarkFailed(InnerLoopError):
    pass


class ProbeRunFailed(InnerLoopError):
    pass


class Tampered(InnerLoopError):
    """A mount changed: the violations so far, then one ``tamper`` per mount."""

    def __init__(self, violations: Sequence[Violation]):
        super().__init__("; ".join(v.detail for v in violations))
        self.violations = tuple(violations)


ACCURACY = "accuracy"
CRITERIA = "criteria"
REWARD_HACK = "reward_hack"
TAMPER = "tamper"
_KINDS = (ACCURACY, CRITERIA, REWARD_HACK, TAMPER)


@checked
class Violation(NamedTuple):
    kind: str
    detail: str

    def _check(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown violation kind: {self.kind}")


class Verdict(NamedTuple):
    violations: tuple[Violation, ...]
    tree: str  # the tree the gates checked

    @property
    def passed(self) -> bool:
        return not self.violations


class RoundStatus(enum.Enum):
    VALIDATED = "validated"
    FAILED_BUDGET = "failed_budget"
    ERROR = "error"


class RoundResult(NamedTuple):
    status: RoundStatus
    commit: Optional[Checkpoint] = None
    metric: Optional[MetricReport] = None
    hints: tuple[str, ...] = ()
    feedback: tuple[str, ...] = ()


HarnessProvider = Callable[[AgentRole, int, int], HarnessConfig]


class Agents(NamedTuple):
    """How a round reaches its agents: the harness for each (role, round,
    attempt), the run's tool server and ledger, and the tools a role may
    call (``None``: every served tool). A turn returns its tool session."""

    harnesses: HarnessProvider
    server: ToolServer
    ledger: object = None
    allowed_tools: Callable[[AgentRole], Optional[Sequence[str]]] = lambda role: None

    def turn(self, ws: Workspace, bundle: PromptBundle, round_index: int, attempt: int = 1) -> Session:
        return invoke_agent(
            self.harnesses(bundle.role, round_index, attempt),
            bundle,
            ws.root,
            round_index,
            server=self.server,
            ledger=self.ledger,
            allowed_tools=self.allowed_tools(bundle.role),
            attempt=attempt,
        )


# -- reward-hack scan ----------------------------------------------------


class ProbeResult(NamedTuple):
    output: bytes
    latency_s: float


# Runs the candidate on one probe prompt.
ProbeRunner = Callable[[str], ProbeResult]


# A probe answered faster than this with a benchmark output is a cache hit.
_LATENCY_FLOOR_S = 0.001


class ScanReport(NamedTuple):
    violations: tuple[Violation, ...]
    unchecked: tuple[str, ...]


# A failed build, checker or benchmark keeps the end of its stderr, where the
# error is, short enough that the whole message fits in round_finished's detail.
_STDERR_TAIL = 1800


def _run_gate(argv, cwd, timeout_s: float, **kwargs) -> Completed:
    """``run_bounded`` for a gate child, whose callers treat a missed
    deadline like a failed start: both raise OSError."""
    done = run_bounded(argv, cwd, timeout_s, **kwargs)
    if done.timed_out:
        raise TimeoutError(f"Command '{argv}' timed out after {timeout_s} seconds")
    return done


def process_probe_runner(candidate_root: Path, timeout_s: float = 30.0) -> ProbeRunner:
    """Drive ``<candidate_root>/run <prompt>`` and capture output + latency."""
    run_path = candidate_root / "run"

    def runner(prompt: str) -> ProbeResult:
        if not run_path.exists():
            raise ProbeRunFailed(f"candidate has no 'run' entrypoint at {run_path}")
        if not os.access(run_path, os.X_OK):
            raise ProbeRunFailed(f"candidate 'run' is not executable: {run_path}")
        try:
            done = _run_gate([str(run_path), prompt], candidate_root, timeout_s, text=False)
        except OSError as exc:
            raise ProbeRunFailed(str(exc)) from exc
        if done.returncode != 0:
            raise ProbeRunFailed(
                f"probe run exited {done.returncode}: {done.stderr.decode(errors='replace')[-400:]}"
            )
        return ProbeResult(output=done.stdout, latency_s=done.duration_s)

    return runner


def scan_reward_hacks(
    candidate_runner: ProbeRunner,
    probes: Sequence[str],
    benchmark_outputs: Sequence[str] = (),
) -> ScanReport:
    """Deterministic hack checks over held-out probe prompts.

    (a) constant template: byte-identical outputs across distinct probes.
    (b) prompt-keyed cache: a probe answered under the latency floor with
        output identical to a recorded benchmark output; recorded
        unchecked until a benchmark has recorded outputs.
    """
    distinct = list(dict.fromkeys(probes))
    if len(distinct) < 2:
        raise ValueError("reward-hack scan needs >= 2 pairwise-distinct probes")

    results = [candidate_runner(p) for p in distinct]
    violations: list[Violation] = []
    unchecked: list[str] = []

    outputs = {r.output for r in results}
    if len(outputs) == 1:
        violations.append(
            Violation(
                REWARD_HACK,
                f"(a) constant-template: {len(results)} distinct probes produced "
                f"byte-identical output",
            )
        )

    if benchmark_outputs:
        bench = {b.encode() if isinstance(b, str) else b for b in benchmark_outputs}
        suspicious = [r for r in results if r.latency_s < _LATENCY_FLOOR_S and r.output in bench]
        if suspicious:
            violations.append(
                Violation(
                    REWARD_HACK,
                    "(b) prompt-keyed cache: probe answered in "
                    f"{suspicious[0].latency_s * 1e3:.3f} ms with a benchmark output",
                )
            )
    else:
        unchecked.append("(b) no benchmark outputs recorded yet")

    return ScanReport(violations=tuple(violations), unchecked=tuple(unchecked))


# -- judge -----------------------------------------------------------------


def _run_checker(ws: Workspace, timeout_s: float) -> tuple[int, str]:
    argv = [str(ws.mount_path("checker")), str(ws.candidate_root), str(ws.mount_path("reference"))]
    try:
        done = _run_gate(argv, ws.root, timeout_s)
    except OSError as exc:
        raise CheckerUnrunnable(f"checker did not run: {exc}") from exc
    return done.returncode, done.stderr


def _run_build(ws: Workspace, timeout_s: float) -> Optional[Violation]:
    build = ws.candidate_root / "build"
    if not build.exists() or not os.access(build, os.X_OK):
        return None
    try:
        done = _run_gate([str(build)], ws.candidate_root, timeout_s)
    except OSError as exc:
        return Violation(ACCURACY, f"build step failed to run: {exc}")
    if done.returncode != 0:
        return Violation(ACCURACY, f"build failed ({done.returncode}): {done.stderr[-_STDERR_TAIL:]}")
    return None


def _check_mounts(ws: Workspace, violations: Sequence[Violation] = ()) -> None:
    """The one mount gate: raise :class:`Tampered` when a mount's digest no
    longer matches what init recorded."""
    tamper = [Violation(TAMPER, f"mount {f.kind}: {f.mount}") for f in verify_mounts(ws)]
    if tamper:
        raise Tampered([*violations, *tamper])


def _parse_agent_verdict(result: object) -> list[Violation]:
    """The Judge agent's structured answer may add violations, never clear."""
    if not isinstance(result, dict):
        return []
    added = []
    for item in result.get("violations", []):
        if not isinstance(item, dict):
            continue
        kind = item.get("kind", CRITERIA)
        if kind not in (CRITERIA, REWARD_HACK):
            kind = CRITERIA
        added.append(Violation(kind, str(item.get("detail", "(no detail)"))))
    return added


def judge(
    ws: Workspace,
    directive,
    contract: TargetContract,
    agents: Agents,
    round_index: int,
    attempt: int,
    benchmark_outputs: Sequence[str] = (),
) -> Verdict:
    """Run the four correctness gates in order; the verdict carries the tree
    they checked. Unchecked-scan notes reach the Judge agent's prompt. A
    tampered mount raises :class:`Tampered` before the scan, and before the
    ``CheckerUnrunnable`` of a checker that did not run; so no verdict holds
    a ``tamper`` violation."""
    violations: list[Violation] = []
    notes: list[str] = []
    timeout = contract.budgets.round_wall_clock_limit_s

    build_violation = _run_build(ws, timeout)
    candidate_runnable = build_violation is None
    if build_violation is not None:
        violations.append(build_violation)

    # (1) user checker: exit 0 = pass, nonzero = fail, stderr = feedback.
    if candidate_runnable:
        try:
            rc, stderr = _run_checker(ws, timeout)
        except CheckerUnrunnable:
            # An unrunnable checker may itself be the tampering; prefer the
            # tamper report over an environment error when digests disagree.
            _check_mounts(ws, violations)
            raise
        if rc != 0:
            violations.append(Violation(ACCURACY, stderr.strip()[-_STDERR_TAIL:] or f"checker exited {rc}"))

    # (2) mounts: tampering invalidates everything else this round.
    _check_mounts(ws, violations)

    # (3) deterministic reward-hack scan (run_target needs >= 2 distinct probes).
    if candidate_runnable:
        try:
            scan = scan_reward_hacks(process_probe_runner(ws.candidate_root), contract.probe_prompts, benchmark_outputs)
        except ProbeRunFailed as exc:
            violations.append(Violation(ACCURACY, f"probe run failed: {exc}"))
        else:
            violations.extend(scan.violations)
            notes.extend(scan.unchecked)

    # (4) judge agent review of the diff and runtime notes. The round's
    # start is ws.head: execute_round positions the workspace there.
    tree = ws.worktree_digest()
    changes = diff_since(ws, tree)
    diff_lines = [f"{c.kind} {c.path} ({c.line_delta:+d} lines)" for c in changes]
    runtime_notes = [f"deterministic violations so far: {len(violations)}"]
    runtime_notes += [f"- {v.kind}: {v.detail}" for v in violations]
    runtime_notes += [f"unchecked: {n}" for n in notes]
    task_text = (
        "Review the round's changes for correctness and reward hacking.\n\n"
        "Diff since round start:\n" + ("\n".join(diff_lines) or "(none)") + "\n\n"
        "Runtime notes:\n" + "\n".join(runtime_notes)
    )
    bundle = assemble_prompt(
        AgentRole.JUDGE,
        task_text,
        directive.pass_criteria,
        (),
        feedback=None,
        instructions=contract.instructions,
    )
    session = agents.turn(ws, bundle, round_index, attempt)
    violations.extend(_parse_agent_verdict(session.emitted_result))
    return Verdict(violations=tuple(violations), tree=tree)


# -- evaluate ----------------------------------------------------------------


def run_benchmark(ws: Workspace, contract: TargetContract) -> MetricReport:
    argv = [str(ws.mount_path("benchmark")), str(ws.candidate_root)]
    try:
        done = _run_gate(argv, ws.root, contract.budgets.round_wall_clock_limit_s)
    except OSError as exc:
        raise BenchmarkFailed(f"benchmark did not run: {exc}") from exc
    if done.returncode != 0:
        raise BenchmarkFailed(f"benchmark exited {done.returncode}: {done.stderr[-_STDERR_TAIL:]}")
    return parse_metric_line(done.stdout)


def run_profilers(ws: Workspace, contract: TargetContract) -> list[tuple[str, str]]:
    """Run each configured profiler command; outputs are attached raw. A
    profiler that hangs or cannot start leaves a note as its output, so the
    round still reaches its checkpoint."""
    outputs = []
    for template in contract.profiler_commands:
        command = template.format(candidate_root=ws.candidate_root, workspace=ws.root)
        try:
            done = _run_gate(command, ws.root, contract.budgets.round_wall_clock_limit_s, shell=True)
        except OSError as exc:
            outputs.append((template, f"profiler failed: {exc}"))
            continue
        outputs.append((template, done.stdout + done.stderr))
    return outputs


def evaluate(
    ws: Workspace, contract: TargetContract, agents: Agents, round_index: int = 0
) -> tuple[MetricReport, tuple[str, ...]]:
    """Benchmark the candidate, then let the Evaluator agent turn the report
    and profiler output into hints (delivered via record_finding)."""
    report = run_benchmark(ws, contract)
    profiler_outputs = run_profilers(ws, contract)

    sections = [
        "Benchmark report:",
        json.dumps(
            {"metric": report.metric, "unit": report.unit, "higher_is_better": report.higher_is_better},
            sort_keys=True,
        ),
    ]
    for template, output in profiler_outputs:
        sections.append(f"Profiler `{template}` output:\n{output}")
    task_text = (
        "Profile the validated candidate and record performance hints for "
        "subsequent rounds via the record_finding tool.\n\n" + "\n\n".join(sections)
    )
    bundle = assemble_prompt(
        AgentRole.EVALUATOR, task_text, (), (), feedback=None, instructions=contract.instructions
    )
    session = agents.turn(ws, bundle, round_index)
    hints = tuple(
        entry.arguments.get("text", "")
        for entry in session.tool_log
        if entry.tool == "record_finding" and entry.ok
    )
    return report, hints


# -- the round engine --------------------------------------------------------


def revert(ws: Workspace, cp: Checkpoint, reason: str, ledger, round_index: int) -> None:
    """Move HEAD and the worktree back to ``cp``. Every revert of a run goes
    through here, and this appends its one ``revert`` ledger event."""
    revert_to(ws, cp)
    if ledger is not None:
        payload = {"to_commit": cp.commit, "reason": reason, "tree_digest": cp.tree_digest}
        ledger.append("revert", round_index, payload)


def execute_round(
    directive,
    round_index: int,
    ws: Workspace,
    contract: TargetContract,
    agents: Agents,
    library: Optional[SkillLibrary] = None,
    benchmark_outputs: Sequence[str] = (),
) -> RoundResult:
    """Drive one round to a RoundResult; the repo head moves only on success.
    The Implementer gets ``contract.budgets.retry_budget`` attempts. The body
    returns ``validated`` or ``failed_budget``; every ``error`` comes from
    the one error boundary below, where ``Tampered`` and ``CheckerUnrunnable``
    append their attempt's verdict event and ``Tampered`` restores the
    mounts. It lets through only what ends the run: a harness that cannot
    start in round 0, and ``MountFailed`` (a mount's source drifted since
    init). However a round ends, it ends in the one :func:`discard_worktree`
    of its ``finally``, at ``ws.head``: the new checkpoint, or the round's start."""
    ledger = agents.ledger
    feedback: Optional[str] = None
    feedback_log: list[str] = []

    def record_verdict(attempt: int, violations: Sequence[Violation]) -> None:
        if ledger is not None:
            ledger.append(
                "verdict",
                round_index,
                {
                    "passed": not violations,
                    "attempt": attempt,
                    "violations": [{"kind": v.kind, "detail": v.detail} for v in violations],
                },
            )

    try:
        if directive.start is not None and ws.head != directive.start.commit:
            revert(ws, directive.start, "round start positioning", ledger, round_index)

        skills = tuple(retrieve(library, directive.task_text, 3)) if library is not None else ()

        for attempt in range(1, contract.budgets.retry_budget + 1):
            bundle = assemble_prompt(
                AgentRole.IMPLEMENTER,
                directive.task_text,
                directive.pass_criteria,
                skills,
                feedback=feedback,
                instructions=f"{contract.instructions}\n\nModel weights (read-only, not copied into the "
                f"workspace): {contract.weights}",
            )
            agents.turn(ws, bundle, round_index, attempt)
            verdict = judge(ws, directive, contract, agents, round_index, attempt, benchmark_outputs)
            record_verdict(attempt, verdict.violations)
            if verdict.passed:
                break
            feedback_log.extend(v.detail for v in verdict.violations)
            feedback = "\n".join(f"- {v.kind}: {v.detail}" for v in verdict.violations)
        else:
            return RoundResult(status=RoundStatus.FAILED_BUDGET, feedback=tuple(feedback_log))

        # Evaluator phase: measure the checked tree, which the checkpoint
        # commits; the final reset drops the Judge's and Evaluator's edits.
        restore_tree(ws, verdict.tree)
        report, hints = evaluate(ws, contract, agents, round_index)

        # Nor may the Evaluator phase touch a mount: a tampered round never checkpoints.
        _check_mounts(ws)

        checkpoint = commit_checkpoint(ws, round_index, report, verdict)
        if ledger is not None:
            ledger.append(
                "checkpoint",
                round_index,
                {
                    "commit": checkpoint.commit,
                    "parent": checkpoint.parent,
                    "metric": checkpoint.metric,
                    "unit": checkpoint.unit,
                    "higher_is_better": checkpoint.higher_is_better,
                    "tree_digest": checkpoint.tree_digest,
                },
            )
        return RoundResult(status=RoundStatus.VALIDATED, commit=checkpoint, metric=report, hints=hints)
    except MountFailed:
        raise
    except SpawnFailed as exc:
        if round_index == 0:
            raise  # a harness that never starts is a set-up error
        detail = f"harness did not start: {exc}"
    except Tampered as exc:
        record_verdict(attempt, exc.violations)
        restore_mounts(ws)
        return RoundResult(status=RoundStatus.ERROR, feedback=tuple(v.detail for v in exc.violations))
    except CheckerUnrunnable as exc:
        record_verdict(attempt, [Violation(ACCURACY, str(exc))])
        detail = str(exc)
    except (BenchmarkFailed, MetricParseError, WorkspaceError) as exc:
        detail = str(exc)
    finally:
        discard_worktree(ws)
    return RoundResult(status=RoundStatus.ERROR, feedback=(detail,))
