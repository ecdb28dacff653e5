"""Adapters between the loop and external coding-agent processes.

Every agent turn is a fresh subprocess: a prompt document is rendered to a
file, the harness command template is expanded with the workspace root, the
prompt path, and the tool endpoint, and the child runs inside the workspace
with a sanitized environment. Structured results come back exclusively
through the tool endpoint (``result/emit``); stdout is never parsed for
meaning. A turn leaves two records: the tool server's session, in memory,
holds its tool calls and emitted result, and its ``invocation`` ledger
event is the durable account, stderr tail included.

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
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from forgeloop.errors import ForgeloopError, checked
from forgeloop.mcp import Session, ToolServer
from forgeloop.skills import SkillEntry


class HarnessError(ForgeloopError):
    pass


class SpawnFailed(HarnessError):
    pass


class AgentRole(enum.Enum):
    ORCHESTRATOR = "Orchestrator"
    IMPLEMENTER = "Implementer"
    JUDGE = "Judge"
    EVALUATOR = "Evaluator"


class PromptBundle(NamedTuple):
    """Everything an invocation's prompt is built from; fresh per turn."""

    role: AgentRole
    task_text: str
    pass_criteria: tuple[str, ...]
    skills_excerpts: tuple[SkillEntry, ...]
    feedback: Optional[str]
    instructions: str


@checked
class HarnessConfig(NamedTuple):
    """Command template with ``{workspace}``, ``{prompt_file}``, ``{endpoint}``
    and ``{role}`` placeholders, and the turn's deadline. The agent's
    environment holds only ``PATH`` and ``HOME``."""

    command_template: tuple[str, ...]
    timeout_s: float = 900.0

    def _check(self):
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


_AGENT_ENV = ("PATH", "HOME")  # the only environment names an agent sees
_STDERR_TAIL = 2000  # characters of an agent's stderr kept in its ledger event


def invoke_agent(
    cfg: HarnessConfig,
    bundle: PromptBundle,
    workspace_root: Path,
    round_index: int,
    server: ToolServer,
    ledger=None,
    allowed_tools: Optional[Sequence[str]] = None,
    attempt: int = 1,
) -> Session:
    """Run one agent turn; return its tool session.

    The session on ``server`` brackets the spawn and is the turn's record:
    its tool calls and the result it emitted. The ``invocation`` event on
    ``ledger`` is the turn's account: exit kind and code, stderr tail,
    duration, tool-call count and prompt digest, written before a harness
    that cannot start raises :class:`SpawnFailed`. The child is launched in
    its own session group so a timeout can kill the whole process tree; on
    timeout the worktree is left as-is for the Judge to inspect.
    ``{endpoint}`` expands to the server's socket path (``""`` when unbound).
    """
    document = render_prompt(bundle)
    prompts_dir = workspace_root / ".prompts"
    prompts_dir.mkdir(exist_ok=True)
    prompt_file = prompts_dir / f"{bundle.role.value.lower()}-r{round_index}-a{attempt}.md"
    prompt_file.write_text(document, encoding="utf-8")

    # Targeted replacement, not str.format: templates may contain literal
    # braces (inline JSON, shell snippets).
    substitutions = {
        "{workspace}": str(workspace_root),
        "{prompt_file}": str(prompt_file),
        "{endpoint}": server.socket_path or "",
        "{role}": bundle.role.value,
    }
    command = []
    for token in cfg.command_template:
        for placeholder, value in substitutions.items():
            token = token.replace(placeholder, value)
        command.append(token)

    server.begin_session(bundle.role.value, round_index, allowed_tools)
    # A wall-clock stamp for the ledger; the duration comes from the
    # monotonic clock, so a clock step during the turn cannot skew it.
    started = time.time()
    launch_error: Optional[OSError] = None
    env = {k: os.environ[k] for k in _AGENT_ENV if k in os.environ}
    try:
        done = run_bounded(command, workspace_root, cfg.timeout_s, env=env)
    except OSError as exc:
        # A crash with no exit code, whose stderr is the launch error.
        launch_error = exc
        done = Completed(None, "", f"cannot launch harness {command[0]!r}: {exc}", False, 0.0)
    session = server.end_session()

    exit_kind = "timeout" if done.timed_out else "completed" if done.returncode == 0 else "crashed"
    if ledger is not None:
        ended = started + done.duration_s  # duration_s is then exactly ended - started
        ledger.append(
            "invocation",
            round_index,
            {
                "role": bundle.role.value,
                "attempt": attempt,
                "started": started,
                "ended": ended,
                "duration_s": ended - started,
                "exit_kind": exit_kind,
                "exit_code": done.returncode,
                "stderr_tail": done.stderr[-_STDERR_TAIL:],
                "tool_calls": session.tool_calls,
                "prompt_digest": prompt_digest(document),
            },
        )
    if launch_error is not None:
        raise SpawnFailed(done.stderr) from launch_error
    return session


class Completed(NamedTuple):
    """What a bounded child left behind."""

    returncode: Optional[int]  # None when the deadline killed it
    stdout: str | bytes
    stderr: str | bytes
    timed_out: bool
    duration_s: float  # monotonic


_POLL_S = 0.05  # how often run_bounded looks whether its child has exited


def run_bounded(argv, cwd, timeout_s: float, env=None, text: bool = True, shell: bool = False) -> Completed:
    """Run one child in its own session with stdout and stderr captured, and
    kill its whole process group when it exits or at the deadline, whichever
    comes first, so no background process outlives it. The child's exit ends
    the call even while a background process still holds its pipes. A
    descendant that calls ``setsid`` itself leaves the group and escapes.
    Raises OSError when the child cannot start."""
    clock = time.monotonic()
    deadline = clock + timeout_s
    proc = subprocess.Popen(
        argv,
        cwd=cwd,
        env=env,
        shell=shell,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=text,
        start_new_session=True,
    )
    drained = False
    while not drained and proc.poll() is None and time.monotonic() < deadline:
        try:
            stdout, stderr = proc.communicate(timeout=min(_POLL_S, deadline - time.monotonic()))
            drained = True
        except subprocess.TimeoutExpired:
            pass
    timed_out = proc.poll() is None
    _kill_process_group(proc)  # returns at once when the group is empty
    if not drained:
        stdout, stderr = proc.communicate()
    return Completed(
        returncode=None if timed_out else proc.returncode,
        stdout=stdout,
        stderr=stderr,
        timed_out=timed_out,
        duration_s=time.monotonic() - clock,
    )


def _kill_process_group(proc: subprocess.Popen) -> None:
    """SIGTERM the session ``proc`` leads, then SIGKILL stragglers. The
    group id is the leader's pid, so this works after the leader is gone."""
    try:
        os.killpg(proc.pid, signal.SIGTERM)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 0.5
    while time.monotonic() < deadline and proc.poll() is None:
        time.sleep(0.02)
    try:
        os.killpg(proc.pid, signal.SIGKILL)
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
