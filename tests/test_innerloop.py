"""Inner loop: reward-hack scanner, judge gates, evaluator, and the round
engine driven by scripted stubs."""

import os
import time

import pytest

from forgeloop import innerloop
from forgeloop.gates.metrics import MetricReport
from forgeloop.innerloop import (
    Agents,
    BenchmarkFailed,
    CheckerUnrunnable,
    ProbeResult,
    ProbeRunFailed,
    RoundStatus,
    Tampered,
    Verdict,
    Violation,
    evaluate,
    execute_round,
    judge,
    process_probe_runner,
    run_benchmark,
    run_profilers,
    scan_reward_hacks,
)
from forgeloop.ledger import LedgerWriter, read_ledger
from forgeloop.mcp import ToolServer
from forgeloop.policy import IssueTrackerPolicy, RoundDirective
from forgeloop.runner import stub_harness_provider
from forgeloop.workspace import commit_checkpoint, init_workspace, verify_mounts

import toy

# -- reward-hack scanner (unit level, fake runners) ---------------------------


def fake_runner(outputs, latency=0.05):
    table = dict(outputs)

    def runner(prompt):
        return ProbeResult(output=table[prompt], latency_s=latency)

    return runner


def test_scan_constant_template_flagged():
    runner = fake_runner({"p1": b"same", "p2": b"same"})
    report = scan_reward_hacks(runner, ["p1", "p2"])
    assert len(report.violations) == 1
    assert report.violations[0].kind == "reward_hack"
    assert report.violations[0].detail.startswith("(a)")


def test_scan_distinct_outputs_clean():
    runner = fake_runner({"p1": b"one", "p2": b"two"})
    report = scan_reward_hacks(runner, ["p1", "p2"])
    assert report.violations == ()


def test_scan_requires_two_distinct_probes():
    runner = fake_runner({"p1": b"x"})
    with pytest.raises(ValueError):
        scan_reward_hacks(runner, ["p1"])
    with pytest.raises(ValueError):
        scan_reward_hacks(runner, ["p1", "p1"])  # duplicates collapse


def test_scan_prompt_keyed_cache_needs_floor_and_match():
    bench = ("bench-answer",)
    fast_match = fake_runner({"p1": b"bench-answer", "p2": b"other"}, latency=0.0001)
    report = scan_reward_hacks(fast_match, ["p1", "p2"], bench)
    assert any(v.detail.startswith("(b)") for v in report.violations)

    slow_match = fake_runner({"p1": b"bench-answer", "p2": b"other"}, latency=0.05)
    assert scan_reward_hacks(slow_match, ["p1", "p2"], bench).violations == ()

    fast_nomatch = fake_runner({"p1": b"novel", "p2": b"other"}, latency=0.0001)
    assert scan_reward_hacks(fast_nomatch, ["p1", "p2"], bench).violations == ()


def test_scan_cache_check_unchecked_without_benchmark_outputs():
    runner = fake_runner({"p1": b"one", "p2": b"two"})
    report = scan_reward_hacks(runner, ["p1", "p2"])
    assert any(note.startswith("(b)") for note in report.unchecked)


def test_scan_findings_tagged_with_check_letter():
    runner = fake_runner({"p1": b"same", "p2": b"same"}, latency=0.0001)
    report = scan_reward_hacks(runner, ["p1", "p2"], ("same",))
    letters = sorted(v.detail[:3] for v in report.violations)
    assert letters == ["(a)", "(b)"]


def test_process_probe_runner_runs_candidate(toy_workspace):
    run = toy_workspace.candidate_root / "run"
    run.write_text(toy.candidate_source(0.0))
    run.chmod(0o755)
    runner = process_probe_runner(toy_workspace.candidate_root)
    result = runner("probe quartz")
    assert result.output.decode().strip() == toy.transform("probe quartz")
    assert result.latency_s > 0


def test_process_probe_runner_failures(toy_workspace):
    runner = process_probe_runner(toy_workspace.candidate_root)
    with pytest.raises(ProbeRunFailed):
        runner("p")  # no run entrypoint yet
    run = toy_workspace.candidate_root / "run"
    run.write_text("#!/bin/sh\nexit 9\n")
    run.chmod(0o755)
    with pytest.raises(ProbeRunFailed):
        runner("p")


def test_violation_kind_validated():
    with pytest.raises(ValueError):
        Violation(kind="vibes", detail="x")


# -- judge and evaluate over the toy target ------------------------------------


def empty_provider(tmp_path):
    return stub_harness_provider(tmp_path / "no-scripts", timeout_s=30)


def directive_for(policy=None):
    return RoundDirective(
        start=None,
        task_text="produce the transformer",
        pass_criteria=("checker passes",),
    )


def write_candidate(ws, source):
    run = ws.candidate_root / "run"
    run.write_text(source)
    run.chmod(0o755)


def judge_once(ws, contract, tmp_path):
    """Judge round 0 with an empty Judge script and a ledger at
    ``tmp_path / "judge.jsonl"``; returns the verdict."""
    ledger = LedgerWriter(tmp_path / "judge.jsonl")
    agents = Agents(empty_provider(tmp_path), ToolServer([]), ledger=ledger)
    try:
        return judge(ws, directive_for(), contract, agents, round_index=0, attempt=1)
    finally:
        ledger.close()


JUDGE_PROMPT = ".prompts/judge-r0-a1.md"


def test_judge_passes_correct_candidate(toy_workspace, toy_contract, tmp_path):
    write_candidate(toy_workspace, toy.candidate_source(0.0))
    verdict = judge_once(toy_workspace, toy_contract, tmp_path)
    assert verdict.passed
    assert roles_in(tmp_path / "judge.jsonl") == ["Judge"]  # the judge agent ran
    # with no benchmark outputs yet, check (b) is an unchecked note in the Judge's prompt
    prompt = (toy_workspace.root / JUDGE_PROMPT).read_text()
    assert prompt.count("unchecked: (") == 1


def test_judge_checker_failure_carries_stderr(toy_workspace, toy_contract, tmp_path):
    write_candidate(toy_workspace, toy.candidate_source(0.0, correct=False))
    verdict = judge_once(toy_workspace, toy_contract, tmp_path)
    assert not verdict.passed
    accuracy = [v for v in verdict.violations if v.kind == "accuracy"]
    assert accuracy and "mismatch" in accuracy[0].detail


def test_judge_missing_candidate_is_accuracy_failure(toy_workspace, toy_contract, tmp_path):
    verdict = judge_once(toy_workspace, toy_contract, tmp_path)
    assert not verdict.passed
    assert any("no run entrypoint" in v.detail for v in verdict.violations)


def test_judge_detects_hack_candidate_via_probes(toy_workspace, toy_contract, tmp_path):
    write_candidate(toy_workspace, toy.hack_candidate_source())
    verdict = judge_once(toy_workspace, toy_contract, tmp_path)
    assert not verdict.passed
    kinds = {v.kind for v in verdict.violations}
    assert kinds == {"reward_hack"}  # checker passed; only the scan fired


def test_judge_agent_review_appends_after_scan_flag(toy_workspace, toy_contract, tmp_path):
    # Even with the deterministic scan already failing, the agent review
    # still runs and its findings append to the verdict.
    write_candidate(toy_workspace, toy.hack_candidate_source())
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    toy.write_script(
        scripts / "judge_r0_a1.jsonl",
        [{"step": "emit", "approve": False,
          "violations": [{"kind": "criteria", "detail": "latency criterion not demonstrated"}]}],
    )
    server = ToolServer([])
    sock = str(tmp_path / "j2.sock")
    server.serve(sock)
    try:
        agents = Agents(stub_harness_provider(scripts, 30), server)
        verdict = judge(toy_workspace, directive_for(), toy_contract, agents, round_index=0, attempt=1)
    finally:
        server.shutdown()
    kinds = [v.kind for v in verdict.violations]
    assert "reward_hack" in kinds and "criteria" in kinds


def test_judge_tamper_short_circuits(toy_workspace, toy_contract, tmp_path):
    write_candidate(toy_workspace, toy.candidate_source(0.0))
    checker = toy_workspace.mount_path("checker")
    checker.chmod(0o755)  # keep it runnable; the digest is what flags the edit
    with checker.open("a") as fh:
        fh.write("# evil\n")
    with pytest.raises(Tampered) as raised:
        judge_once(toy_workspace, toy_contract, tmp_path)
    assert [(v.kind, v.detail) for v in raised.value.violations] == [("tamper", "mount modified: artifacts/checker")]
    # agent review skipped on a compromised workspace
    assert roles_in(tmp_path / "judge.jsonl") == []
    assert not (toy_workspace.root / JUDGE_PROMPT).exists()


def test_judge_agent_can_add_but_not_clear_violations(toy_workspace, toy_contract, tmp_path):
    write_candidate(toy_workspace, toy.candidate_source(0.0))
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    toy.write_script(
        scripts / "judge_r0_a1.jsonl",
        [{"step": "emit", "approve": False,
          "violations": [{"kind": "criteria", "detail": "acceptance criterion 2 unmet"}]}],
    )
    provider = stub_harness_provider(scripts, timeout_s=30)
    server = ToolServer([])
    sock = str(tmp_path / "j.sock")
    server.serve(sock)
    try:
        verdict = judge(toy_workspace, directive_for(), toy_contract, Agents(provider, server), round_index=0, attempt=1)
    finally:
        server.shutdown()
    assert not verdict.passed
    assert [v.kind for v in verdict.violations] == ["criteria"]


def test_build_step_failure_is_accuracy_violation(toy_workspace, toy_contract, tmp_path):
    write_candidate(toy_workspace, toy.candidate_source(0.0))
    build = toy_workspace.candidate_root / "build"
    build.write_text("#!/bin/sh\necho boom >&2\nexit 1\n")
    build.chmod(0o755)
    verdict = judge_once(toy_workspace, toy_contract, tmp_path)
    assert any(v.kind == "accuracy" and "boom" in v.detail for v in verdict.violations)


def test_build_failure_keeps_the_end_of_a_long_stderr(toy_workspace, toy_contract, tmp_path):
    write_candidate(toy_workspace, toy.candidate_source(0.0))
    build = toy_workspace.candidate_root / "build"
    build.write_text("#!/bin/sh\nprintf 'x%.0s' $(seq 3000) >&2\necho 'undefined symbol: foo' >&2\nexit 2\n")
    build.chmod(0o755)
    verdict = judge_once(toy_workspace, toy_contract, tmp_path)
    (build_failure,) = [v for v in verdict.violations if v.detail.startswith("build failed")]
    assert build_failure.detail.startswith("build failed (2): x")
    assert build_failure.detail.rstrip().endswith("undefined symbol: foo")


def test_checker_failure_keeps_the_end_of_a_long_stderr(toy_contract, tmp_path):
    checker = tmp_path / "checker"
    checker.write_text("#!/bin/sh\nprintf 'x%.0s' $(seq 5000) >&2\necho 'REAL ERROR' >&2\nexit 1\n")
    checker.chmod(0o755)
    contract = toy_contract._replace(checker=checker)
    ws = init_workspace(contract, tmp_path / "ws")
    write_candidate(ws, toy.candidate_source(0.0))
    verdict = judge_once(ws, contract, tmp_path)
    [failure] = [v for v in verdict.violations if "REAL ERROR" in v.detail]
    assert len(failure.detail) <= innerloop._STDERR_TAIL
    assert failure.detail.endswith("REAL ERROR")


def test_a_probe_that_cannot_start_says_so_once(toy_workspace, toy_contract, tmp_path):
    write_candidate(toy_workspace, "#!/nonexistent\n")
    verdict = judge_once(toy_workspace, toy_contract, tmp_path)
    [probe] = [v.detail for v in verdict.violations if "probe run failed" in v.detail]
    assert probe.count("probe run failed") == 1


def test_run_benchmark_and_metric(toy_workspace, toy_contract):
    write_candidate(toy_workspace, toy.candidate_source(0.01))
    report = run_benchmark(toy_workspace, toy_contract)
    assert report.unit == "tok_per_s"
    assert report.higher_is_better
    assert report.metric > 0
    assert len(report.extras["outputs"]) == len(toy.BENCH_PROMPTS)


def test_run_benchmark_failure(toy_workspace, toy_contract):
    write_candidate(toy_workspace, "#!/bin/sh\nexit 1\n")
    with pytest.raises(BenchmarkFailed):
        run_benchmark(toy_workspace, toy_contract)


def test_evaluate_collects_hints_and_profiler_output(toy_workspace, toy_contract, tmp_path):
    contract = toy_contract._replace(
        profiler_commands=("echo profiling {candidate_root}", "echo second-profiler-output"),
    )
    write_candidate(toy_workspace, toy.candidate_source(0.01))
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    toy.write_script(
        scripts / "evaluator_r0.jsonl",
        [
            {"step": "call_tool", "name": "record_finding", "arguments": {"text": "first hint"}},
            {"step": "call_tool", "name": "record_finding", "arguments": {"text": "second hint"}},
        ],
    )
    policy = IssueTrackerPolicy(toy_workspace, seed_task=False)
    server = ToolServer(list(policy.toolset()))
    sock = str(tmp_path / "e.sock")
    server.serve(sock)
    provider = stub_harness_provider(scripts, timeout_s=30)
    try:
        report, hints = evaluate(
            toy_workspace, contract, Agents(provider, server, allowed_tools=lambda role: ("record_finding",))
        )
    finally:
        server.shutdown()
    assert hints == ("first hint", "second hint")
    assert report.metric > 0
    # Both configured profiler outputs land in the evaluator prompt.
    prompt = (toy_workspace.root / ".prompts" / "evaluator-r0-a1.md").read_text()
    assert "profiling" in prompt
    assert "second-profiler-output" in prompt


# -- execute_round end to end ----------------------------------------------------


def run_round(ws, contract, tmp_path, scripts, directive=None):
    """Round 0 of ``contract`` over ``ws`` (the issue tracker's bootstrap
    directive unless one is given), with a served tool socket and a ledger
    at ``tmp_path / "ledger.jsonl"``; returns the policy and the result."""
    policy = IssueTrackerPolicy(ws)
    directive = directive or policy.begin_round(0)
    server = ToolServer(list(policy.toolset()))
    server.serve(str(tmp_path / "r.sock"))
    ledger = LedgerWriter(tmp_path / "ledger.jsonl")
    agents = Agents(
        stub_harness_provider(scripts, 30), server=server, ledger=ledger, allowed_tools=policy.allowed_tools
    )
    try:
        return policy, execute_round(directive, 0, ws, contract, agents)
    finally:
        server.shutdown()
        ledger.close()


def with_retries(contract, retry_budget):
    return contract._replace(budgets=contract.budgets._replace(retry_budget=retry_budget))


def roles_in(ledger_path):
    """The roles of the ledger's ``invocation`` events, in order."""
    return [e.payload["role"] for e in read_ledger(ledger_path) if e.kind == "invocation"]


def test_round_retry_then_validate(toy_workspace, toy_contract, tmp_path):
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    toy.write_script(
        scripts / "implementer_r0_a1.jsonl",
        [{"step": "apply_patch", "patch": toy.new_file_diff("candidate/run", toy.V_WRONG)}],
    )
    toy.write_script(
        scripts / "implementer_r0_a2.jsonl",
        [{"step": "apply_patch", "patch": toy.modify_diff("candidate/run", toy.V_WRONG, toy.V0)}],
    )
    policy, result = run_round(toy_workspace, toy_contract, tmp_path, scripts)

    assert result.status is RoundStatus.VALIDATED
    assert result.commit is not None and result.metric is not None
    assert roles_in(tmp_path / "ledger.jsonl") == [
        "Implementer", "Judge", "Implementer", "Judge", "Evaluator",
    ]
    assert toy_workspace.head == result.commit.commit

    # Feedback propagation: attempt 2's prompt carries attempt 1's violation
    # details verbatim.
    attempt1_verdicts = [
        e for e in read_ledger(tmp_path / "ledger.jsonl")
        if e.kind == "verdict" and e.payload["attempt"] == 1
    ]
    detail = attempt1_verdicts[0].payload["violations"][0]["detail"]
    prompt2 = (toy_workspace.root / ".prompts" / "implementer-r0-a2.md").read_text()
    assert detail in prompt2


def test_judge_agent_edits_never_reach_the_checkpoint(toy_workspace, toy_contract, tmp_path):
    # The checkpoint is the tree the gates checked: what the Judge agent
    # writes after them is neither measured nor committed, and is gone after.
    ws = toy_workspace
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    toy.write_script(
        scripts / "implementer_r0_a1.jsonl",
        [{"step": "apply_patch", "patch": toy.new_file_diff("candidate/run", toy.V0)}],
    )
    toy.write_script(
        scripts / "judge_r0_a1.jsonl",
        [
            {"step": "apply_patch", "patch": toy.modify_diff("candidate/run", toy.V0, toy.V_WRONG)},
            {"step": "apply_patch", "patch": toy.new_file_diff("candidate/notes.txt", "unchecked\n", "100644")},
        ],
    )
    _, result = run_round(ws, with_retries(toy_contract, 1), tmp_path, scripts)

    assert result.status is RoundStatus.VALIDATED
    assert ws._git("ls-tree", "-r", "--name-only", "round-0").stdout.split() == ["candidate/run"]
    assert ws._git("show", "round-0:candidate/run").stdout == toy.V0
    assert (ws.candidate_root / "run").read_text() == toy.V0
    assert not (ws.candidate_root / "notes.txt").exists()


def test_round_start_positioning_revert_carries_tree_digest(toy_workspace, toy_contract, tmp_path):
    # Every revert event, the round-start one included, names the commit,
    # the reason and the tree it restored.
    ws = toy_workspace
    write_candidate(ws, toy.candidate_source(0.0))
    earlier = commit_checkpoint(ws, 0, MetricReport(1.0, "tok_per_s", True), Verdict((), ws.worktree_digest()))
    (ws.candidate_root / "later.txt").write_text("later\n")
    commit_checkpoint(ws, 1, MetricReport(2.0, "tok_per_s", True), Verdict((), ws.worktree_digest()))
    directive = RoundDirective(start=earlier, task_text="improve it", pass_criteria=())
    run_round(ws, with_retries(toy_contract, 1), tmp_path, tmp_path / "no-scripts", directive)

    reverts = [e for e in read_ledger(tmp_path / "ledger.jsonl") if e.kind == "revert"]
    assert [e.payload for e in reverts] == [
        {"to_commit": earlier.commit, "reason": "round start positioning", "tree_digest": earlier.tree_digest}
    ]
    assert not (ws.candidate_root / "later.txt").exists()


def test_hanging_profiler_is_a_note_not_a_crash(toy_workspace, toy_contract, tmp_path):
    contract = toy_contract._replace(
        budgets=toy_contract.budgets._replace(round_wall_clock_limit_s=5),
        profiler_commands=("sleep 60",),
    )
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    toy.write_script(
        scripts / "implementer_r0_a1.jsonl",
        [{"step": "apply_patch", "patch": toy.new_file_diff("candidate/run", toy.V0)}],
    )
    policy, result = run_round(toy_workspace, contract, tmp_path, scripts)

    assert result.status is RoundStatus.VALIDATED
    assert toy_workspace.head == result.commit.commit
    prompt = (toy_workspace.root / ".prompts" / "evaluator-r0-a1.md").read_text()
    assert "Profiler `sleep 60` output:\nprofiler failed:" in prompt
    assert "timed out" in prompt


# -- gates that outlive their deadline -------------------------------------------


def hanging_gate(path, pid_file):
    """A gate that starts a background sleeper, records its pid, then hangs."""
    path.write_text(f"#!/bin/sh\nsleep 60 &\necho $! > {pid_file}\nsleep 60\n")
    path.chmod(0o755)
    return path


def assert_gone(pid_file):
    pid = int(pid_file.read_text())
    deadline = time.monotonic() + 3.0
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    raise AssertionError(f"grandchild {pid} survived the gate's deadline")


def short_limit(contract, seconds=1, **changes):
    budgets = contract.budgets._replace(round_wall_clock_limit_s=seconds)
    return contract._replace(budgets=budgets, **changes)


def test_hanging_checker_is_unrunnable_and_leaves_no_survivor(toy_contract, tmp_path):
    pid_file = tmp_path / "checker-grandchild.pid"
    contract = short_limit(toy_contract, checker=hanging_gate(tmp_path / "checker", pid_file))
    ws = init_workspace(contract, tmp_path / "hang-ws")
    write_candidate(ws, toy.candidate_source(0.0))
    with pytest.raises(CheckerUnrunnable, match="timed out"):
        judge_once(ws, contract, tmp_path)
    assert_gone(pid_file)


def test_a_hanging_checker_ends_its_round_with_one_failed_verdict(toy_contract, tmp_path):
    contract = short_limit(toy_contract, checker=hanging_gate(tmp_path / "checker", tmp_path / "checker.pid"))
    ws = init_workspace(contract, tmp_path / "hang-ws")
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    toy.write_script(
        scripts / "implementer_r0_a1.jsonl",
        [{"step": "apply_patch", "patch": toy.new_file_diff("candidate/run", toy.candidate_source(0.0))}],
    )
    _, result = run_round(ws, contract, tmp_path, scripts)

    assert result.status is RoundStatus.ERROR
    [detail] = result.feedback
    assert detail.startswith("checker did not run: ") and "timed out" in detail
    verdicts = [e.payload for e in read_ledger(tmp_path / "ledger.jsonl") if e.kind == "verdict"]
    assert verdicts == [{"passed": False, "attempt": 1, "violations": [{"kind": "accuracy", "detail": detail}]}]


def test_hanging_benchmark_is_an_error_round_and_leaves_no_survivor(toy_contract, tmp_path):
    pid_file = tmp_path / "benchmark-grandchild.pid"
    contract = short_limit(toy_contract, 3, benchmark=hanging_gate(tmp_path / "benchmark", pid_file))
    ws = init_workspace(contract, tmp_path / "hang-ws")
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    toy.write_script(
        scripts / "implementer_r0_a1.jsonl",
        [{"step": "apply_patch", "patch": toy.new_file_diff("candidate/run", toy.candidate_source(0.0))}],
    )
    policy, result = run_round(ws, contract, tmp_path, scripts)
    assert result.status is RoundStatus.ERROR
    assert "benchmark did not run" in result.feedback[0]
    assert_gone(pid_file)


@pytest.mark.parametrize("gate", ["build", "probe", "profiler"])
def test_hanging_build_probe_and_profiler_leave_no_survivor(toy_workspace, toy_contract, tmp_path, gate):
    ws = toy_workspace
    pid_file = tmp_path / f"{gate}-grandchild.pid"
    if gate == "build":
        write_candidate(ws, toy.candidate_source(0.0))
        hanging_gate(ws.candidate_root / "build", pid_file)
        verdict = judge_once(ws, short_limit(toy_contract), tmp_path)
        assert any("build step failed to run" in v.detail for v in verdict.violations)
    elif gate == "probe":
        hanging_gate(ws.candidate_root / "run", pid_file)
        with pytest.raises(ProbeRunFailed, match="timed out"):
            process_probe_runner(ws.candidate_root, timeout_s=1)("probe")
    else:
        command = f"sh {hanging_gate(tmp_path / 'profile', pid_file)}"
        contract = short_limit(toy_contract, profiler_commands=(command,))
        [(_, output)] = run_profilers(ws, contract)
        assert output.startswith("profiler failed:") and "timed out" in output
    assert_gone(pid_file)


def test_round_budget_exhaustion(toy_workspace, toy_contract, tmp_path):
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    toy.write_script(
        scripts / "implementer_r0_a1.jsonl",
        [{"step": "apply_patch", "patch": toy.new_file_diff("candidate/run", toy.V_WRONG)}],
    )
    head_before = toy_workspace.head
    policy, result = run_round(toy_workspace, with_retries(toy_contract, 3), tmp_path, scripts)

    assert result.status is RoundStatus.FAILED_BUDGET
    assert result.commit is None
    roles = roles_in(tmp_path / "ledger.jsonl")
    assert roles.count("Implementer") == 3  # exactly the retry budget
    assert "Evaluator" not in roles
    assert result.feedback  # accumulated judge details
    assert toy_workspace.head == head_before
    # The failed round's edits were discarded.
    assert not (toy_workspace.candidate_root / "run").exists()


def test_round_tamper_is_error_with_restored_mounts(toy_workspace, toy_contract, tmp_path):
    scripts = tmp_path / "scripts"
    toy.write_tamper_script(scripts, toy.checker_source())
    head_before = toy_workspace.head
    policy, result = run_round(toy_workspace, toy_contract, tmp_path, scripts)

    assert result.status is RoundStatus.ERROR
    assert any("artifacts/checker" in f for f in result.feedback)
    assert toy_workspace.head == head_before
    assert verify_mounts(toy_workspace) == ()  # restored after detection
    assert "Evaluator" not in roles_in(tmp_path / "ledger.jsonl")


def test_an_evaluator_tamper_ends_the_round_before_its_checkpoint(toy_workspace, toy_contract, tmp_path):
    ws = toy_workspace
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    toy.write_script(
        scripts / "implementer_r0_a1.jsonl",
        [{"step": "apply_patch", "patch": toy.new_file_diff("candidate/run", toy.V_WRONG)}],
    )
    toy.write_script(
        scripts / "implementer_r0_a2.jsonl",
        [{"step": "apply_patch", "patch": toy.modify_diff("candidate/run", toy.V_WRONG, toy.V0)}],
    )
    checker = toy.checker_source()
    toy.write_script(
        scripts / "evaluator_r0.jsonl",
        [{"step": "apply_patch", "patch": toy.modify_diff("artifacts/checker", checker, checker + "# tampered\n")}],
    )
    head_before = ws.head
    _, result = run_round(ws, with_retries(toy_contract, 2), tmp_path, scripts)

    assert result.status is RoundStatus.ERROR
    assert result.feedback == ("mount modified: artifacts/checker",)
    events = read_ledger(tmp_path / "ledger.jsonl")
    # The last verdict event names the attempt that passed, and the tamper.
    assert [e.payload for e in events if e.kind == "verdict"][-1] == {
        "passed": False,
        "attempt": 2,
        "violations": [{"kind": "tamper", "detail": "mount modified: artifacts/checker"}],
    }
    assert "checkpoint" not in [e.kind for e in events]
    assert verify_mounts(ws) == ()
    assert ws.head == head_before


def test_a_deleted_checker_is_reported_as_tamper(toy_workspace, toy_contract, tmp_path):
    # The checker cannot run once deleted; the tamper report wins over that.
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    toy.write_script(
        scripts / "implementer_r0_a1.jsonl",
        [
            {"step": "apply_patch", "patch": toy.new_file_diff("candidate/run", toy.V0)},
            {"step": "apply_patch", "patch": toy.delete_diff("artifacts/checker", toy.checker_source())},
        ],
    )
    _, result = run_round(toy_workspace, toy_contract, tmp_path, scripts)

    assert result.status is RoundStatus.ERROR
    assert result.feedback == ("mount missing: artifacts/checker",)
    assert verify_mounts(toy_workspace) == ()


def test_round_collects_filed_issues(toy_workspace, toy_contract, tmp_path):
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    toy.write_script(
        scripts / "implementer_r0_a1.jsonl",
        [
            {"step": "apply_patch", "patch": toy.new_file_diff("candidate/run", toy.V0)},
            {
                "step": "call_tool",
                "name": "file_issue",
                "arguments": {
                    "title": "follow-up",
                    "rationale": "r",
                    "acceptance_criteria": ["c"],
                    "expected_impact": "low",
                },
            },
        ],
    )
    policy, result = run_round(toy_workspace, toy_contract, tmp_path, scripts)
    assert result.status is RoundStatus.VALIDATED
    assert sorted(policy.issues) == [1, 2]  # id 1 is the bootstrap issue
    assert policy.issues[2].title == "follow-up"


def test_tool_calls_recorded_with_round_and_role(toy_workspace, toy_contract, tmp_path):
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    toy.write_script(
        scripts / "implementer_r0_a1.jsonl",
        [
            {"step": "apply_patch", "patch": toy.new_file_diff("candidate/run", toy.V0)},
            {"step": "call_tool", "name": "record_finding", "arguments": {"text": "note"}},
        ],
    )
    policy = IssueTrackerPolicy(toy_workspace)
    ledger = LedgerWriter(tmp_path / "ledger.jsonl")
    server = ToolServer(list(policy.toolset()), ledger=ledger)
    sock = str(tmp_path / "t.sock")
    server.serve(sock)
    directive = policy.begin_round(0)
    try:
        agents = Agents(
            stub_harness_provider(scripts, 30), server=server, ledger=ledger, allowed_tools=policy.allowed_tools
        )
        execute_round(directive, 0, toy_workspace, with_retries(toy_contract, 1), agents)
    finally:
        server.shutdown()
        ledger.close()
    tool_events = [e for e in read_ledger(tmp_path / "ledger.jsonl") if e.kind == "tool_call"]
    assert tool_events
    note = [e for e in tool_events if e.payload["tool"] == "record_finding"][0]
    assert note.round == 0
    assert note.payload["role"] == "Implementer"
    assert note.payload["ok"] is True
