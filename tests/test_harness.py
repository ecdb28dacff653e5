"""Harness adapters: prompt rendering, the invocation ledger event,
timeouts, and the scripted stub."""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from forgeloop.harness import (
    AgentRole,
    HarnessConfig,
    SpawnFailed,
    _kill_process_group,
    assemble_prompt,
    invoke_agent,
    prompt_digest,
    render_prompt,
    run_bounded,
    scripted_stub,
)
from forgeloop.ledger import LedgerWriter, read_ledger
from forgeloop.mcp import ToolServer, ToolSpec
from forgeloop.skills import SkillEntry
from forgeloop.stubagent import MalformedScript, load_script

import toy


def sample_skill():
    return SkillEntry(
        layer="serving_algorithm",
        name="continuous-batching",
        description="admit per step",
        body="scheduler notes",
    )


def test_prompt_sections_order_and_feedback_omitted():
    bundle = assemble_prompt(
        AgentRole.IMPLEMENTER,
        "add continuous batching",
        ["checker passes", "throughput improves"],
        [sample_skill()],
        feedback=None,
        instructions="serve the toy model",
    )
    doc = render_prompt(bundle)
    headings = [line for line in doc.splitlines() if line.startswith("## ")]
    assert headings == ["## ROLE", "## INSTRUCTIONS", "## TASK", "## PASS CRITERIA", "## SKILLS"]
    assert "## FEEDBACK" not in doc
    assert "- checker passes" in doc
    assert "### serving_algorithm/continuous-batching" in doc


def test_prompt_feedback_section_when_present():
    bundle = assemble_prompt(
        AgentRole.IMPLEMENTER, "task", ["c"], [], feedback="- accuracy: mismatch at token 7",
        instructions="i",
    )
    doc = render_prompt(bundle)
    assert doc.rstrip().endswith("mismatch at token 7")
    assert doc.splitlines()[-2] == "## FEEDBACK"


def test_prompt_deterministic_bytes():
    args = (AgentRole.JUDGE, "review", ["c1"], [sample_skill()], "fb", "inst")
    assert render_prompt(assemble_prompt(*args)) == render_prompt(assemble_prompt(*args))


def test_fresh_context_no_cross_round_bytes():
    marker = "SENTINEL-FROM-ROUND-1"
    first = render_prompt(
        assemble_prompt(AgentRole.IMPLEMENTER, f"task {marker}", ["c"], [], None, "i")
    )
    second = render_prompt(assemble_prompt(AgentRole.IMPLEMENTER, "task two", ["c"], [], None, "i"))
    assert marker in first
    assert marker not in second


def test_command_template_must_be_nonempty():
    with pytest.raises(Exception):
        HarnessConfig(command_template=())


def bundle_for(role=AgentRole.IMPLEMENTER, task="do the thing"):
    return assemble_prompt(role, task, ["crit"], [], None, "instructions")


def invoke_logged(cfg, root, tmp_path, server=None):
    """One round-0 turn with a ledger; returns its session and the payload
    of the ``invocation`` event it appended."""
    ledger_path = tmp_path / "turns.jsonl"
    ledger = LedgerWriter(ledger_path)
    try:
        session = invoke_agent(cfg, bundle_for(), root, 0, server or ToolServer([]), ledger=ledger)
    finally:
        ledger.close()
    event = read_ledger(ledger_path)[-1]
    assert event.kind == "invocation"
    return session, event.payload


def test_invoke_agent_runs_in_workspace_with_sanitized_env(toy_workspace, tmp_path):
    out_file = tmp_path / "env.json"
    cfg = HarnessConfig(
        command_template=(
            sys.executable,
            "-c",
            (
                "import json, os, sys; "
                f"open({str(out_file)!r}, 'w').write(json.dumps("
                "{'cwd': os.getcwd(), 'env': sorted(os.environ), 'argv_ws': sys.argv[1]}))"
            ),
            "{workspace}",
        ),
        timeout_s=10,
    )
    os.environ["FORGELOOP_TEST_SECRET"] = "do-not-leak"
    try:
        _, event = invoke_logged(cfg, toy_workspace.root, tmp_path)
    finally:
        del os.environ["FORGELOOP_TEST_SECRET"]
    seen = json.loads(out_file.read_text())
    assert event["exit_kind"] == "completed"
    assert seen["cwd"] == str(toy_workspace.root)
    assert seen["argv_ws"] == str(toy_workspace.root)
    assert "FORGELOOP_TEST_SECRET" not in seen["env"]
    assert event["duration_s"] >= 0
    assert event["prompt_digest"] == prompt_digest(render_prompt(bundle_for()))


def test_endpoint_is_the_tool_servers_socket(toy_workspace, tmp_path):
    cfg = HarnessConfig(
        command_template=(sys.executable, "-c", "import sys; sys.stderr.write(sys.argv[1])", "{endpoint}"),
        timeout_s=10,
    )
    # An unbound server has no socket: the endpoint is empty.
    assert invoke_logged(cfg, toy_workspace.root, tmp_path)[1]["stderr_tail"] == ""
    server = ToolServer([])
    server.serve(str(tmp_path / "ep.sock"))
    try:
        _, event = invoke_logged(cfg, toy_workspace.root, tmp_path, server)
        assert event["stderr_tail"] == server.socket_path
    finally:
        server.shutdown()


def test_invocation_duration_ignores_wall_clock_steps(toy_workspace, tmp_path, monkeypatch):
    # The wall clock steps back an hour mid-turn; the duration must not.
    stamps = iter([10_000.0, 10_000.0 - 3600.0])
    monkeypatch.setattr(time, "time", lambda: next(stamps, 10_000.0 - 3600.0))
    cfg = HarnessConfig(command_template=(sys.executable, "-c", "pass"), timeout_s=10)
    _, event = invoke_logged(cfg, toy_workspace.root, tmp_path)
    assert 0 <= event["duration_s"] < 60
    assert event["started"] == 10_000.0


def test_invoke_agent_spawn_failure(toy_workspace):
    cfg = HarnessConfig(command_template=("/no/such/binary",), timeout_s=5)
    server = ToolServer([])
    with pytest.raises(SpawnFailed):
        invoke_agent(cfg, bundle_for(), toy_workspace.root, 0, server)
    server.begin_session("Implementer", 0)  # the failed turn closed its session


def test_invoke_agent_crash_exit_kind(toy_workspace, tmp_path):
    cfg = HarnessConfig(command_template=(sys.executable, "-c", "raise SystemExit(3)"), timeout_s=5)
    _, event = invoke_logged(cfg, toy_workspace.root, tmp_path)
    assert event["exit_kind"] == "crashed"
    assert event["exit_code"] == 3


def test_timeout_kills_whole_process_tree(toy_workspace, tmp_path):
    pid_file = tmp_path / "grandchild.pid"
    # The agent spawns a grandchild sleeper, writes its pid, then hangs.
    script = (
        "import subprocess, sys, time\n"
        f"child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        f"open({str(pid_file)!r}, 'w').write(str(child.pid))\n"
        "time.sleep(60)\n"
    )
    cfg = HarnessConfig(command_template=(sys.executable, "-c", script), timeout_s=1.0)
    started = time.monotonic()
    _, event = invoke_logged(cfg, toy_workspace.root, tmp_path)
    assert event["exit_kind"] == "timeout"
    assert event["exit_code"] is None
    assert time.monotonic() - started < 10
    grandchild = int(pid_file.read_text())
    deadline = time.monotonic() + 3.0
    alive = True
    while time.monotonic() < deadline:
        try:
            os.kill(grandchild, 0)
        except ProcessLookupError:
            alive = False
            break
        time.sleep(0.05)
    assert not alive, "grandchild survived the timeout kill"


def test_timeout_preserves_partial_edits(toy_workspace, tmp_path):
    script = (
        "from pathlib import Path\n"
        "import time\n"
        "Path('candidate/partial.txt').write_text('half-done')\n"
        "time.sleep(60)\n"
    )
    cfg = HarnessConfig(command_template=(sys.executable, "-c", script), timeout_s=1.0)
    _, event = invoke_logged(cfg, toy_workspace.root, tmp_path)
    assert event["exit_kind"] == "timeout"
    assert (toy_workspace.candidate_root / "partial.txt").read_text() == "half-done"


def test_invocation_ledger_event(toy_workspace, tmp_path):
    ledger_path = tmp_path / "ledger.jsonl"
    ledger = LedgerWriter(ledger_path)
    cfg = HarnessConfig(command_template=(sys.executable, "-c", "pass"), timeout_s=5)
    invoke_agent(cfg, bundle_for(), toy_workspace.root, 4, ToolServer([]), ledger=ledger, attempt=2)
    ledger.close()
    events = read_ledger(ledger_path)
    assert len(events) == 1
    ev = events[0]
    assert ev.kind == "invocation"
    assert ev.round == 4
    assert ev.payload["role"] == "Implementer"
    assert ev.payload["attempt"] == 2
    assert ev.payload["exit_kind"] == "completed"
    assert ev.payload["duration_s"] == pytest.approx(ev.payload["ended"] - ev.payload["started"])


def test_crashed_agent_leaves_exit_code_and_stderr_tail_in_ledger(toy_workspace, tmp_path):
    ledger_path = tmp_path / "ledger.jsonl"
    ledger = LedgerWriter(ledger_path)
    script = "import sys; sys.stderr.write('x' * 5000 + 'cannot find the model'); raise SystemExit(3)"
    cfg = HarnessConfig(command_template=(sys.executable, "-c", script), timeout_s=10)
    invoke_agent(cfg, bundle_for(), toy_workspace.root, 0, ToolServer([]), ledger=ledger)
    ledger.close()
    (ev,) = read_ledger(ledger_path)
    assert ev.payload["exit_kind"] == "crashed"
    assert ev.payload["exit_code"] == 3
    assert ev.payload["stderr_tail"] == ("x" * 5000 + "cannot find the model")[-2000:]


def assert_gone_soon(pid: int) -> None:
    deadline = time.monotonic() + 3.0
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    os.kill(pid, signal.SIGKILL)
    raise AssertionError(f"background child {pid} outlived its parent's normal exit")


def test_normal_exit_reaps_background_children(tmp_path):
    # The child exits at once, leaving a sleeper in its process group.
    done = run_bounded(["sh", "-c", "sleep 30 >/dev/null 2>&1 & echo $! > pid; exit 0"], tmp_path, 5)
    assert done.returncode == 0 and not done.timed_out
    assert_gone_soon(int((tmp_path / "pid").read_text()))


def test_exit_ends_the_call_while_a_background_child_holds_the_pipes(tmp_path):
    # The sleeper keeps the child's stdout open; the child's exit, not the
    # pipe closing, ends the call.
    started = time.monotonic()
    done = run_bounded(["sh", "-c", "sleep 30 & echo $! > pid; echo hi; exit 0"], tmp_path, 10)
    assert time.monotonic() - started < 2.0
    assert (done.returncode, done.timed_out, done.stdout) == (0, False, "hi\n")
    assert_gone_soon(int((tmp_path / "pid").read_text()))


def test_kill_process_group_ignores_wall_clock(monkeypatch):
    # A child that ignores SIGTERM gets the 0.5 s grace, then SIGKILL, even
    # when the wall clock stands still.
    child = subprocess.Popen(
        [sys.executable, "-c",
         "import signal, time; signal.signal(signal.SIGTERM, signal.SIG_IGN); print('ready', flush=True); "
         "time.sleep(60)"],
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        assert child.stdout.readline() == b"ready\n"
        monkeypatch.setattr(time, "time", lambda: 1000.0)
        killer = threading.Thread(target=_kill_process_group, args=(child,), daemon=True)
        killer.start()
        killer.join(timeout=5)
        assert not killer.is_alive(), "the grace loop never ended"
        assert child.wait(timeout=5) == -signal.SIGKILL
    finally:
        child.kill()
        child.wait()
        child.stdout.close()


# -- scripted stub ---------------------------------------------------------------


def finding_tool(findings):
    def handler(ctx, args):
        findings.append(args["text"])
        return {"recorded": True}

    return ToolSpec(
        name="record_finding",
        description="d",
        input_schema={
            "type": "object",
            "properties": {"text": {"type": "string"}},
            "required": ["text"],
            "additionalProperties": False,
        },
        handler=handler,
    )


def run_stub(toy_workspace, tmp_path, steps, timeout=30.0):
    script = tmp_path / "script.jsonl"
    toy.write_script(script, steps)
    findings = []
    server = ToolServer([finding_tool(findings)])
    sock = str(tmp_path / "s.sock")
    server.serve(sock)
    try:
        session, event = invoke_logged(scripted_stub(script, timeout_s=timeout), toy_workspace.root, tmp_path, server)
    finally:
        server.shutdown()
    assert event["tool_calls"] == session.tool_calls
    return session, event, findings


def test_stub_apply_patch_and_tool_call(toy_workspace, tmp_path):
    patch = toy.new_file_diff("candidate/run", "#!/bin/sh\necho patched\n")
    session, event, findings = run_stub(
        toy_workspace,
        tmp_path,
        [
            {"step": "apply_patch", "patch": patch},
            {"step": "call_tool", "name": "record_finding", "arguments": {"text": "observed"}},
        ],
    )
    assert event["exit_kind"] == "completed"
    assert event["tool_calls"] == 1
    assert [(e.tool, e.ok) for e in session.tool_log] == [("record_finding", True)]
    assert findings == ["observed"]
    target = toy_workspace.candidate_root / "run"
    assert target.read_text() == "#!/bin/sh\necho patched\n"
    assert os.access(target, os.X_OK)


def test_stub_empty_script_completes_with_no_effects(toy_workspace, tmp_path):
    session, event, findings = run_stub(toy_workspace, tmp_path, [])
    assert event["exit_kind"] == "completed"
    assert event["tool_calls"] == 0
    assert session.tool_log == [] and session.emitted_result is None
    assert findings == []
    assert list(toy_workspace.candidate_root.iterdir()) == []


def test_stub_emit_becomes_final_result(toy_workspace, tmp_path):
    session, event, _ = run_stub(
        toy_workspace,
        tmp_path,
        [{"step": "emit", "approve": False, "violations": [{"kind": "criteria", "detail": "nope"}]}],
    )
    assert session.emitted_result == {"approve": False, "violations": [{"kind": "criteria", "detail": "nope"}]}
    assert event["tool_calls"] == 0


@pytest.mark.parametrize("pythonpath", ["src", None], ids=["relative-src", "unset"])
def test_stub_starts_whatever_the_callers_pythonpath(toy_workspace, tmp_path, monkeypatch, pythonpath):
    # The stub runs with cwd inside the workspace, where a relative
    # PYTHONPATH resolves to nothing; it must start from its own file.
    if pythonpath is None:
        monkeypatch.delenv("PYTHONPATH", raising=False)
    else:
        monkeypatch.setenv("PYTHONPATH", pythonpath)
    session, event, _ = run_stub(toy_workspace, tmp_path, [{"step": "emit", "answer": 42}])
    assert event["exit_kind"] == "completed", event["stderr_tail"]
    assert session.emitted_result == {"answer": 42}


def test_stub_unknown_step_is_malformed(tmp_path):
    script = tmp_path / "bad.jsonl"
    script.write_text('{"step": "launch_missiles"}\n')
    with pytest.raises(MalformedScript) as exc:
        load_script(script)
    assert exc.value.index == 0


def test_stub_sleep_step_runs(toy_workspace, tmp_path):
    started = time.monotonic()
    _, event, _ = run_stub(toy_workspace, tmp_path, [{"step": "sleep", "seconds": 0.3}])
    assert event["exit_kind"] == "completed"
    assert time.monotonic() - started >= 0.3
