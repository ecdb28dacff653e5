"""Adapters between the loop and external coding-agent processes.

Every agent turn is a fresh subprocess: a prompt document is rendered to a
file, the harness command template is expanded with the workspace root, the
prompt path, and the tool endpoint, and the child runs inside the workspace
with a sanitized environment. Structured results come back exclusively
through the tool endpoint (``result/emit``); stdout is captured for logs
but never parsed for meaning.

The scripted stub (:mod:`forgeloop.stubagent`) is a drop-in harness for
offline tests: it replays a JSONL step script (apply_patch / call_tool /
emit / sleep) fully deterministically.
"""

from __future__ import annotations

import enum
import hashlib
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from forgeloop.errors import ForgeloopError
from forgeloop.skills import SkillEntry


class HarnessError(ForgeloopError):
    pass


class EmptyTask(HarnessError):
    pass


class SpawnFailed(HarnessError):
    pass


class AgentRole(enum.Enum):
    ORCHESTRATOR = "Orchestrator"
    IMPLEMENTER = "Implementer"
    JUDGE = "Judge"
    EVALUATOR = "Evaluator"


class ExitKind(enum.Enum):
    COMPLETED = "completed"
    TIMEOUT = "timeout"
    CRASHED = "crashed"


@dataclass(frozen=True)
class PromptBundle:
    """Everything an invocation's prompt is built from; fresh per turn."""

    role: AgentRole
    task_text: str
    pass_criteria: tuple[str, ...]
    skills_excerpts: tuple[SkillEntry, ...]
    feedback: Optional[str]
    instructions: str


@dataclass(frozen=True)
class AgentInvocation:
    role: AgentRole
    round: int
    started: float
    ended: float
    exit_kind: ExitKind
    tool_calls: int
    prompt_digest: str

    @property
    def duration(self) -> float:
        return self.ended - self.started


@dataclass(frozen=True)
class InvocationOutcome:
    exit_kind: ExitKind
    exit_code: Optional[int]
    result: Optional[object]  # final structured result from result/emit
    tool_calls: int
    tool_log: tuple = ()  # ToolLogEntry sequence observed at the endpoint
    stdout: str = ""
    stderr: str = ""


@dataclass(frozen=True)
class HarnessConfig:
    """Command template with ``{workspace}``, ``{prompt_file}``, ``{endpoint}``
    and ``{role}`` placeholders, plus the env names allowed through."""

    command_template: tuple[str, ...]
    env_allowlist: tuple[str, ...] = ()
    timeout_s: float = 900.0

    def __post_init__(self):
        if not self.command_template:
            raise HarnessError("command_template must be nonempty")


def assemble_prompt(
    role: AgentRole,
    task: str,
    criteria: Sequence[str],
    skills: Sequence[SkillEntry],
    feedback: Optional[str],
    instructions: str,
) -> PromptBundle:
    if role is AgentRole.IMPLEMENTER and not task.strip():
        raise EmptyTask("Implementer task text must be nonempty")
    return PromptBundle(
        role=role,
        task_text=task,
        pass_criteria=tuple(criteria),
        skills_excerpts=tuple(skills),
        feedback=feedback,
        instructions=instructions,
    )


def render_prompt(bundle: PromptBundle) -> str:
    """Render the bundle to the prompt document: fixed section order, byte
    deterministic for identical inputs. FEEDBACK is omitted when absent."""
    parts = [f"## ROLE\n{bundle.role.value}\n"]
    parts.append(f"## INSTRUCTIONS\n{bundle.instructions}\n")
    parts.append(f"## TASK\n{bundle.task_text}\n")
    criteria = "\n".join(f"- {c}" for c in bundle.pass_criteria) or "(none)"
    parts.append(f"## PASS CRITERIA\n{criteria}\n")
    if bundle.skills_excerpts:
        skill_blocks = []
        for s in bundle.skills_excerpts:
            skill_blocks.append(f"### {s.layer}/{s.name}\n{s.description}\n\n{s.body.strip()}")
        parts.append("## SKILLS\n" + "\n\n".join(skill_blocks) + "\n")
    else:
        parts.append("## SKILLS\n(none)\n")
    if bundle.feedback is not None:
        parts.append(f"## FEEDBACK\n{bundle.feedback}\n")
    return "\n".join(parts)


def prompt_digest(document: str) -> str:
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


_BASE_ENV = ("PATH", "HOME")


def _sanitized_env(allowlist: Sequence[str]) -> dict[str, str]:
    allowed = set(_BASE_ENV) | set(allowlist)
    return {k: v for k, v in os.environ.items() if k in allowed}


def invoke_agent(
    cfg: HarnessConfig,
    bundle: PromptBundle,
    workspace_root: Path,
    tools_endpoint: str,
    round_index: int,
    server=None,
    ledger=None,
    allowed_tools: Optional[Sequence[str]] = None,
    attempt: int = 1,
) -> tuple[InvocationOutcome, AgentInvocation]:
    """Run one agent turn and account for it.

    The child is launched in its own session group so a timeout can kill the
    whole process tree; on timeout the worktree is left as-is for the Judge
    to inspect. When ``server`` is given, a tool session brackets the spawn
    and supplies the tool-call count and the final structured result.
    """
    document = render_prompt(bundle)
    digest = prompt_digest(document)
    prompts_dir = workspace_root / ".prompts"
    prompts_dir.mkdir(exist_ok=True)
    prompt_file = prompts_dir / f"{bundle.role.value.lower()}-r{round_index}-a{attempt}.md"
    prompt_file.write_text(document, encoding="utf-8")

    # Targeted replacement, not str.format: templates may contain literal
    # braces (inline JSON, shell snippets).
    substitutions = {
        "{workspace}": str(workspace_root),
        "{prompt_file}": str(prompt_file),
        "{endpoint}": tools_endpoint,
        "{role}": bundle.role.value,
    }
    command = []
    for token in cfg.command_template:
        for placeholder, value in substitutions.items():
            token = token.replace(placeholder, value)
        command.append(token)

    session = None
    if server is not None:
        session = server.begin_session(bundle.role.value, round_index, allowed_tools)

    # Wall-clock stamps for the ledger; the duration comes from the monotonic
    # clock, so a clock step during the turn cannot skew it.
    started = time.time()
    clock = time.monotonic()
    try:
        proc = subprocess.Popen(
            command,
            cwd=workspace_root,
            env=_sanitized_env(cfg.env_allowlist),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
    except OSError as exc:
        if server is not None:
            server.end_session()
        raise SpawnFailed(f"cannot launch harness {command[0]!r}: {exc}") from exc

    exit_kind = ExitKind.COMPLETED
    exit_code: Optional[int] = None
    try:
        stdout, stderr = proc.communicate(timeout=cfg.timeout_s)
        exit_code = proc.returncode
        if exit_code != 0:
            exit_kind = ExitKind.CRASHED
    except subprocess.TimeoutExpired:
        _kill_process_group(proc)
        stdout, stderr = proc.communicate()
        exit_kind = ExitKind.TIMEOUT

    ended = started + (time.monotonic() - clock)
    tool_calls = 0
    result = None
    tool_log: tuple = ()
    if session is not None:
        done = server.end_session()
        tool_calls = done.tool_calls
        result = done.emitted_result
        tool_log = tuple(done.tool_log)

    invocation = AgentInvocation(
        role=bundle.role,
        round=round_index,
        started=started,
        ended=ended,
        exit_kind=exit_kind,
        tool_calls=tool_calls,
        prompt_digest=digest,
    )
    if ledger is not None:
        ledger.append(
            "invocation",
            round_index,
            {
                "role": bundle.role.value,
                "attempt": attempt,
                "started": started,
                "ended": ended,
                "duration_s": invocation.duration,
                "exit_kind": exit_kind.value,
                "tool_calls": tool_calls,
                "prompt_digest": digest,
            },
        )
    outcome = InvocationOutcome(
        exit_kind=exit_kind,
        exit_code=exit_code,
        result=result,
        tool_calls=tool_calls,
        tool_log=tool_log,
        stdout=stdout,
        stderr=stderr,
    )
    return outcome, invocation


def _kill_process_group(proc: subprocess.Popen) -> None:
    """SIGTERM the child's whole session, then SIGKILL stragglers."""
    try:
        pgid = os.getpgid(proc.pid)
    except ProcessLookupError:
        return
    try:
        os.killpg(pgid, signal.SIGTERM)
    except ProcessLookupError:
        return
    deadline = time.time() + 0.5
    while time.time() < deadline and proc.poll() is None:
        time.sleep(0.02)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def scripted_stub(script_path: str | Path, timeout_s: float = 60.0) -> HarnessConfig:
    """Harness config that replays a stub step script deterministically.

    The stub is stdlib-only, so it is launched by file path in isolated mode
    without ``site``: it needs nothing from the caller's environment or
    install layout, and each spawn skips site start-up.
    """
    return HarnessConfig(
        command_template=(
            sys.executable,
            "-I",
            "-S",
            str(Path(__file__).with_name("stubagent.py")),
            str(script_path),
            "{workspace}",
            "{prompt_file}",
            "{endpoint}",
        ),
        timeout_s=timeout_s,
    )
