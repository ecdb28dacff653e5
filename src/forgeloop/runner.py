"""Drives a full run: rounds until the budget is spent or the policy is done.

Wires together the workspace, the policy's tool server, harness providers,
and the event ledger. The runner, not the policy, keeps the best validated
checkpoint (``BestTracker``: a new best must beat the old by 0.5 %); when a
validated round does not, it reverts to the best through
:func:`~forgeloop.innerloop.revert`, then tells ``policy.end_round`` whether
the round was kept. Every agent turn, the Orchestrator's included, goes
through one :class:`~forgeloop.innerloop.Agents` record, and ``{endpoint}``
in a harness command is the run's tool socket. A failed round ends inside
:func:`~forgeloop.innerloop.execute_round`; an Orchestrator harness that
cannot start leaves the pick to the policy's deterministic rule. In stub
mode every agent turn is a scripted stub resolved from the scripts
directory by naming convention:

    <role>_r<round>_a<attempt>.jsonl   (most specific)
    <role>_r<round>.jsonl
    <role>_default.jsonl
    (missing -> empty script: the agent completes without acting)
"""

from __future__ import annotations

import contextlib
import os
import shlex
import shutil
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional

from forgeloop.contract import TargetContract, validate_contract
from forgeloop.errors import ForgeloopError
from forgeloop.harness import AgentRole, HarnessConfig, SpawnFailed, assemble_prompt, prompt_digest, scripted_stub
from forgeloop.innerloop import Agents, RoundStatus, execute_round, revert
from forgeloop.ledger import LedgerWriter
from forgeloop.mcp import ToolServer
from forgeloop.policy import (
    BestTracker,
    Exhausted,
    IssueTrackerPolicy,
    EvolutionaryPolicy,
    NoEligibleIssue,
    RalphPolicy,
)
from forgeloop.skills import default_library_path, load_library
from forgeloop.workspace import Checkpoint, Workspace, init_workspace


class RunSetupError(ForgeloopError):
    pass


DEFAULT_TASK = (
    "Build or improve the bespoke serving system for this target. Keep the "
    "accuracy checker green and optimize the benchmark headline metric."
)

_DETAIL_TAIL = 2000  # characters of a failed round's feedback kept in its round_finished event


def stub_harness_provider(scripts_dir: Path, timeout_s: float):
    # Stub processes run with cwd inside the workspace; script paths must
    # survive that, so resolve them here.
    scripts_dir = Path(scripts_dir).resolve()

    def provider(role: AgentRole, round_index: int, attempt: int) -> HarnessConfig:
        stem = role.value.lower()
        for name in (
            f"{stem}_r{round_index}_a{attempt}.jsonl",
            f"{stem}_r{round_index}.jsonl",
            f"{stem}_default.jsonl",
        ):
            candidate = scripts_dir / name
            if candidate.exists():
                return scripted_stub(candidate, timeout_s)
        return scripted_stub(os.devnull, timeout_s)

    return provider


def agent_harness_provider(command_template: str, timeout_s: float):
    tokens = tuple(shlex.split(command_template))

    def provider(role: AgentRole, round_index: int, attempt: int) -> HarnessConfig:
        return HarnessConfig(command_template=tokens, timeout_s=timeout_s)

    return provider


class RunOutcome(NamedTuple):
    rounds_run: int
    checkpoints: int
    best: Optional[Checkpoint]
    stopped_reason: str


def make_policy(name: str, ws: Workspace, task_text: str, orchestrator_invoker=None):
    if name == "issue_tracker":
        return IssueTrackerPolicy(ws, orchestrator_invoker=orchestrator_invoker)
    if name == "evolutionary":
        return EvolutionaryPolicy(seed_task=task_text)
    if name == "ralph":
        return RalphPolicy(ws, task_text=task_text)
    raise RunSetupError(f"unknown policy: {name}")


def run_target(
    contract: TargetContract,
    workspace_root: Path,
    ledger_path: Path,
    policy_name: str = "issue_tracker",
    mode: str = "stub",
    stub_scripts: Optional[Path] = None,
    harness_cmd: Optional[str] = None,
    task_text: str = DEFAULT_TASK,
) -> RunOutcome:
    report = validate_contract(contract)
    if not report.ok:
        details = "; ".join(f"{v.subject}: {v.detail}" for v in report.violations)
        raise RunSetupError(f"contract is not usable: {details}")
    if mode == "stub":
        if stub_scripts is None:
            raise RunSetupError("stub mode needs a stub scripts directory")
        harnesses = stub_harness_provider(stub_scripts, contract.budgets.agent_timeout_s)
    elif mode == "agent":
        if not harness_cmd:
            raise RunSetupError("agent mode needs a harness command template")
        harnesses = agent_harness_provider(harness_cmd, contract.budgets.agent_timeout_s)
    else:
        raise RunSetupError(f"unknown mode: {mode}")

    ws = init_workspace(contract, workspace_root)
    library = load_library(default_library_path())
    tracker = BestTracker()
    checkpoints = 0
    rounds_run = 0
    stopped = "budget exhausted"
    benchmark_outputs: tuple[str, ...] = ()

    # What is set up from here on is torn down however the run ends.
    with contextlib.ExitStack() as cleanup:
        ledger = cleanup.enter_context(LedgerWriter(ledger_path))
        # The endpoint lives in its own short tmp dir: socket paths have a
        # hard length cap and workspace roots can be deep.
        sock_dir = tempfile.mkdtemp(prefix="fl-")
        cleanup.callback(shutil.rmtree, sock_dir, ignore_errors=True)
        endpoint = os.path.join(sock_dir, "tools.sock")

        orchestrator_invoker = None
        if mode == "agent" and policy_name == "issue_tracker":

            def orchestrator_invoker(policy, round_index):
                backlog = "\n".join(i.to_json() for i in sorted(policy.issues.values(), key=lambda i: i.id))
                task = (
                    "Pick the next open issue to dispatch via the select_issue tool.\n\n"
                    f"## BACKLOG\n{backlog}\n\n## MEMORY\n{policy.memory.serialize()}"
                )
                bundle = assemble_prompt(
                    AgentRole.ORCHESTRATOR, task, (), (), feedback=None, instructions=contract.instructions
                )
                with contextlib.suppress(SpawnFailed):
                    agents.turn(ws, bundle, round_index)

        policy = make_policy(policy_name, ws, task_text, orchestrator_invoker)
        server = ToolServer(list(policy.served_toolset()), ledger=ledger)
        cleanup.callback(server.shutdown)
        server.serve(endpoint)
        agents = Agents(harnesses, server, ledger=ledger, allowed_tools=policy.allowed_tools)

        for round_index in range(contract.budgets.max_rounds):
            try:
                directive = policy.begin_round(round_index)
            except (Exhausted, NoEligibleIssue) as exc:
                stopped = f"policy exhausted: {exc}"
                break
            ledger.append(
                "round_started",
                round_index,
                {
                    "policy": policy.name,
                    "issue_id": directive.issue_id,
                    "start_commit": directive.start.commit if directive.start else ws.head,
                    "task_digest": prompt_digest(directive.task_text),
                },
            )

            result = execute_round(directive, round_index, ws, contract, agents, library, benchmark_outputs)
            rounds_run += 1
            kept = False
            if result.status is RoundStatus.VALIDATED:
                checkpoints += 1
                outputs = result.metric.extras.get("outputs", []) if result.metric else []
                if outputs:
                    benchmark_outputs = tuple(str(o) for o in outputs)
                kept = tracker.consider(result.commit)
                if not kept:
                    reason = "validated round regressed on the headline metric"
                    revert(ws, tracker.best, reason, ledger, round_index)
            policy.end_round(directive, result, round_index, kept)
            best = tracker.best
            finished = {
                "status": result.status.value,
                "issue_id": directive.issue_id,
                "transition": policy.round_transition(directive),
                "metric": result.metric.metric if result.metric else None,
                "best_metric": best.metric if best else None,
                "best_commit": best.commit if best else None,
                "backlog": policy.backlog_counts(),
            }
            if result.status is not RoundStatus.VALIDATED:
                finished["detail"] = "\n".join(result.feedback)[-_DETAIL_TAIL:]
            ledger.append("round_finished", round_index, finished)

    return RunOutcome(
        rounds_run=rounds_run,
        checkpoints=checkpoints,
        best=tracker.best,
        stopped_reason=stopped,
    )
