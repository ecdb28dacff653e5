"""Full-run driver: stub runs end to end across the three policies."""

import hashlib
import subprocess
import sys

import pytest

from forgeloop.contract import load_contract
from forgeloop.harness import AgentRole, HarnessConfig, SpawnFailed
from forgeloop.ledger import read_ledger
from forgeloop.runner import RunSetupError, run_target
from forgeloop.workspace import MountFailed

import toy


def fast_target(tmp_path, **kw):
    kw.setdefault("ref_delay", 0.0)
    config = toy.write_target(tmp_path / "target", **kw)
    return load_contract(config)


def correct_patch_script(scripts_dir, name="implementer_r0_a1.jsonl", source=None):
    scripts_dir.mkdir(parents=True, exist_ok=True)
    toy.write_script(
        scripts_dir / name,
        [{"step": "apply_patch", "patch": toy.new_file_diff("candidate/run", source or toy.candidate_source(0.0))}],
    )


def test_single_round_success(tmp_path):
    contract = fast_target(tmp_path, max_rounds=1, retry_budget=1)
    scripts = tmp_path / "scripts"
    correct_patch_script(scripts)
    outcome = run_target(
        contract,
        workspace_root=tmp_path / "ws",
        ledger_path=tmp_path / "ledger.jsonl",
        mode="stub",
        stub_scripts=scripts,
    )
    assert outcome.checkpoints == 1
    assert outcome.rounds_run == 1
    assert outcome.best is not None
    events = read_ledger(tmp_path / "ledger.jsonl")
    kinds = [e.kind for e in events]
    assert kinds.count("round_started") == 1
    assert kinds.count("round_finished") == 1
    assert kinds.count("checkpoint") == 1
    finished = [e for e in events if e.kind == "round_finished"][0]
    assert finished.payload["status"] == "validated"
    assert finished.payload["transition"] == "in_progress->done"
    assert finished.payload["backlog"]["done"] == 1


def test_the_implementer_is_told_where_the_weights_are(tmp_path):
    contract = fast_target(tmp_path, max_rounds=1, retry_budget=1)
    scripts = tmp_path / "scripts"
    correct_patch_script(scripts)
    run_target(
        contract, workspace_root=tmp_path / "ws", ledger_path=tmp_path / "ledger.jsonl", stub_scripts=scripts
    )
    prompt = (tmp_path / "ws" / ".prompts" / "implementer-r0-a1.md").read_text()
    assert f"(read-only, not copied into the workspace): {contract.weights}" in prompt
    assert not (tmp_path / "ws" / "weights").exists()


def test_round_started_carries_the_task_digest(tmp_path):
    contract = fast_target(tmp_path, max_rounds=1, retry_budget=1)
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    run_target(
        contract,
        workspace_root=tmp_path / "ws",
        ledger_path=tmp_path / "ledger.jsonl",
        policy_name="evolutionary",  # round 0 dispatches the task text as given
        stub_scripts=scripts,
        task_text="tune the toy service",
    )
    started = [e for e in read_ledger(tmp_path / "ledger.jsonl") if e.kind == "round_started"]
    assert [e.payload["task_digest"] for e in started] == [
        hashlib.sha256(b"tune the toy service").hexdigest()
    ]


def test_run_with_no_scripts_fails_cleanly(tmp_path):
    contract = fast_target(tmp_path, max_rounds=1, retry_budget=2)
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    outcome = run_target(
        contract,
        workspace_root=tmp_path / "ws",
        ledger_path=tmp_path / "ledger.jsonl",
        mode="stub",
        stub_scripts=scripts,
    )
    assert outcome.checkpoints == 0
    events = read_ledger(tmp_path / "ledger.jsonl")
    finished = [e for e in events if e.kind == "round_finished"][0]
    assert finished.payload["status"] == "failed_budget"
    impl = [e for e in events if e.kind == "invocation" and e.payload["role"] == "Implementer"]
    assert len(impl) == 2  # exactly the retry budget


def test_run_stops_when_policy_exhausts(tmp_path):
    # One bootstrap issue, max_rounds=4: after round 0 succeeds there is
    # nothing left to dispatch.
    contract = fast_target(tmp_path, max_rounds=4, retry_budget=1)
    scripts = tmp_path / "scripts"
    correct_patch_script(scripts)
    outcome = run_target(
        contract,
        workspace_root=tmp_path / "ws",
        ledger_path=tmp_path / "ledger.jsonl",
        mode="stub",
        stub_scripts=scripts,
    )
    assert outcome.rounds_run == 1
    assert "exhausted" in outcome.stopped_reason


def test_stub_mode_requires_scripts_dir(tmp_path):
    contract = fast_target(tmp_path)
    with pytest.raises(RunSetupError):
        run_target(
            contract,
            workspace_root=tmp_path / "ws",
            ledger_path=tmp_path / "l.jsonl",
            mode="stub",
            stub_scripts=None,
        )


def test_agent_mode_requires_command(tmp_path):
    contract = fast_target(tmp_path)
    with pytest.raises(RunSetupError):
        run_target(
            contract,
            workspace_root=tmp_path / "ws",
            ledger_path=tmp_path / "l.jsonl",
            mode="agent",
        )


def test_unusable_contract_rejected(tmp_path):
    contract = fast_target(tmp_path, probe_prompts=["only-one"])
    with pytest.raises(RunSetupError) as exc:
        run_target(
            contract,
            workspace_root=tmp_path / "ws",
            ledger_path=tmp_path / "l.jsonl",
            mode="stub",
            stub_scripts=tmp_path,
        )
    assert "probe" in str(exc.value)


def test_evolutionary_two_rounds(tmp_path):
    contract = fast_target(tmp_path, max_rounds=2, retry_budget=1)
    scripts = tmp_path / "scripts"
    correct_patch_script(scripts)
    toy.write_script(
        scripts / "implementer_r1_a1.jsonl",
        [
            {
                "step": "apply_patch",
                "patch": toy.modify_diff(
                    "candidate/run", toy.candidate_source(0.0), toy.candidate_source(0.0, memo=True)
                ),
            }
        ],
    )
    outcome = run_target(
        contract,
        workspace_root=tmp_path / "ws",
        ledger_path=tmp_path / "ledger.jsonl",
        policy_name="evolutionary",
        mode="stub",
        stub_scripts=scripts,
    )
    assert outcome.rounds_run == 2
    assert outcome.checkpoints == 2
    assert outcome.best is not None


def test_ralph_two_rounds_history_grows(tmp_path):
    contract = fast_target(tmp_path, max_rounds=2, retry_budget=1)
    scripts = tmp_path / "scripts"
    correct_patch_script(scripts)
    toy.write_script(
        scripts / "implementer_r1_a1.jsonl",
        [
            {
                "step": "apply_patch",
                "patch": toy.modify_diff(
                    "candidate/run", toy.candidate_source(0.0), toy.candidate_source(0.0, memo=True)
                ),
            }
        ],
    )
    outcome = run_target(
        contract,
        workspace_root=tmp_path / "ws",
        ledger_path=tmp_path / "ledger.jsonl",
        policy_name="ralph",
        mode="stub",
        stub_scripts=scripts,
        task_text="keep improving the transformer service",
    )
    assert outcome.checkpoints == 2
    history = (tmp_path / "ws" / "RALPH_HISTORY.md").read_text()
    assert history.count("- round") == 2


def test_agent_mode_with_generic_command(tmp_path):
    # Agent mode with an arbitrary command: a shell one-liner that writes a
    # correct candidate, standing in for a real coding-agent harness.
    contract = fast_target(tmp_path, max_rounds=1, retry_budget=1)
    agent = tmp_path / "fake_agent.sh"
    candidate = toy.candidate_source(0.0)
    payload = tmp_path / "payload.py"
    payload.write_text(candidate)
    agent.write_text(
        "#!/bin/sh\n"
        "mkdir -p \"$1/candidate\"\n"
        f"cp {payload} \"$1/candidate/run\"\n"
        "chmod +x \"$1/candidate/run\"\n"
    )
    agent.chmod(0o755)
    outcome = run_target(
        contract,
        workspace_root=tmp_path / "ws",
        ledger_path=tmp_path / "ledger.jsonl",
        mode="agent",
        harness_cmd=f"{agent} {{workspace}}",
    )
    assert outcome.checkpoints == 1


def test_benchmark_prose_only_is_error_round(tmp_path):
    import fuzz

    config = fuzz.write_fuzz_target(tmp_path / "target", max_rounds=1, retry_budget=1)
    # Replace the benchmark with one that never emits the metric line.
    benchmark = tmp_path / "target" / "benchmark"
    benchmark.write_text("#!/bin/sh\necho benchmark ran fine, trust me\n")
    benchmark.chmod(0o755)
    scripts = tmp_path / "scripts"
    correct_patch_script(scripts, source=fuzz.correct_candidate(1))
    outcome = run_target(
        load_contract(config),
        workspace_root=tmp_path / "ws",
        ledger_path=tmp_path / "ledger.jsonl",
        mode="stub",
        stub_scripts=scripts,
    )
    assert outcome.checkpoints == 0
    events = read_ledger(tmp_path / "ledger.jsonl")
    finished = [e for e in events if e.kind == "round_finished"][0]
    assert finished.payload["status"] == "error"


OOM_BENCHMARK = "#!/bin/sh\necho 'GPU OOM in kernel foo' >&2\nexit 7\n"


def test_failed_benchmark_leaves_its_diagnostic_in_the_ledger(tmp_path):
    import fuzz

    config = fuzz.write_fuzz_target(tmp_path / "target", max_rounds=1, retry_budget=1)
    (tmp_path / "target" / "benchmark").write_text(OOM_BENCHMARK)
    scripts = tmp_path / "scripts"
    correct_patch_script(scripts, source=fuzz.correct_candidate(1))
    run_target(
        load_contract(config),
        workspace_root=tmp_path / "ws",
        ledger_path=tmp_path / "ledger.jsonl",
        mode="stub",
        stub_scripts=scripts,
    )
    finished = [e for e in read_ledger(tmp_path / "ledger.jsonl") if e.kind == "round_finished"]
    assert finished[0].payload["status"] == "error"
    assert "exited 7" in finished[0].payload["detail"]
    assert "GPU OOM in kernel foo" in finished[0].payload["detail"]


def test_failed_budget_detail_is_the_feedback_tail(tmp_path):
    contract = fast_target(tmp_path, max_rounds=1, retry_budget=2)
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    run_target(
        contract,
        workspace_root=tmp_path / "ws",
        ledger_path=tmp_path / "ledger.jsonl",
        mode="stub",
        stub_scripts=scripts,
    )
    events = read_ledger(tmp_path / "ledger.jsonl")
    finished = [e for e in events if e.kind == "round_finished"][0]
    assert finished.payload["status"] == "failed_budget"
    details = [v["detail"] for e in events if e.kind == "verdict" for v in e.payload["violations"]]
    assert details and finished.payload["detail"] == "\n".join(details)[-2000:]


def test_validated_round_with_no_changes_is_error(tmp_path):
    import fuzz

    config = fuzz.write_fuzz_target(tmp_path / "target", max_rounds=2, retry_budget=1)
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    toy.write_script(
        scripts / "implementer_r0_a1.jsonl",
        [
            {"step": "apply_patch", "patch": toy.new_file_diff("candidate/run", fuzz.correct_candidate(1))},
            {
                "step": "call_tool",
                "name": "file_issue",
                "arguments": {
                    "title": "round 1 work",
                    "rationale": "keep the loop going",
                    "acceptance_criteria": ["checker passes"],
                    "expected_impact": "low",
                },
            },
        ],
    )
    # Round 1 has no script: the candidate still passes every gate but the
    # tree is unchanged, so there is nothing to checkpoint.
    outcome = run_target(
        load_contract(config),
        workspace_root=tmp_path / "ws",
        ledger_path=tmp_path / "ledger.jsonl",
        mode="stub",
        stub_scripts=scripts,
    )
    assert outcome.checkpoints == 1
    events = read_ledger(tmp_path / "ledger.jsonl")
    statuses = {e.round: e.payload["status"] for e in events if e.kind == "round_finished"}
    assert statuses == {0: "validated", 1: "error"}
    details = {e.round: e.payload.get("detail") for e in events if e.kind == "round_finished"}
    assert details == {0: None, 1: "round 1 left the tree unchanged"}


def test_issue_tracker_state_reloads_after_a_run(tmp_path, monkeypatch):
    import forgeloop.runner as runner
    from forgeloop.policy import IssueTrackerPolicy

    made = []
    make_policy = runner.make_policy

    def capture(name, ws, *args):
        made.append((make_policy(name, ws, *args), ws))
        return made[-1][0]

    monkeypatch.setattr(runner, "make_policy", capture)
    contract = fast_target(tmp_path, max_rounds=3, retry_budget=1)
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    toy.write_script(
        scripts / "implementer_r0_a1.jsonl",
        [
            {"step": "apply_patch", "patch": toy.new_file_diff("candidate/run", toy.candidate_source(0.0))},
            {
                "step": "call_tool",
                "name": "file_issue",
                "arguments": {
                    "title": "later work",
                    "rationale": "keep the backlog going",
                    "acceptance_criteria": ["checker passes"],
                    "expected_impact": "low",
                },
            },
        ],
    )
    # Rounds 1 and 2 change nothing, so the filed issue errors twice.
    outcome = run_target(
        contract,
        workspace_root=tmp_path / "ws",
        ledger_path=tmp_path / "ledger.jsonl",
        mode="stub",
        stub_scripts=scripts,
    )
    assert outcome.rounds_run == 3
    policy, ws = made[0]
    fresh = IssueTrackerPolicy(ws)

    def state(p):
        return {i.id: (i.status, i.attempts) for i in p.issues.values()}

    assert state(fresh) == state(policy) == {1: ("done", 0), 2: ("open", 2)}
    assert fresh.memory.sections == policy.memory.sections
    assert fresh.memory.serialize() == (ws.root / "MEMORY.md").read_text()


def test_workspace_head_matches_last_checkpoint(tmp_path):
    contract = fast_target(tmp_path, max_rounds=1, retry_budget=1)
    scripts = tmp_path / "scripts"
    correct_patch_script(scripts)
    run_target(
        contract,
        workspace_root=tmp_path / "ws",
        ledger_path=tmp_path / "ledger.jsonl",
        mode="stub",
        stub_scripts=scripts,
    )
    events = read_ledger(tmp_path / "ledger.jsonl")
    checkpoint = [e for e in events if e.kind == "checkpoint"][0]
    head = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=tmp_path / "ws", capture_output=True, text=True
    ).stdout.strip()
    assert head == checkpoint.payload["commit"]


def chars_candidate(chars: int) -> str:
    """A candidate the fuzz checker accepts, whose fuzz benchmark metric is ``chars``."""
    return (
        "#!/bin/sh\n"
        f'[ "$1" = "bench prompt" ] && {{ printf "%0{chars}d" 0; exit 0; }}\n'
        "echo \"$1\" | tr 'a-z' 'A-Z'\n"
    )


@pytest.mark.parametrize("policy_name", ["issue_tracker", "evolutionary", "ralph"])
def test_regressing_validated_round_reverts_to_best(policy_name, tmp_path):
    import fuzz

    config = fuzz.write_fuzz_target(tmp_path / "target", max_rounds=2, retry_budget=1)
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    round0 = [{"step": "apply_patch", "patch": toy.new_file_diff("candidate/run", chars_candidate(100))}]
    if policy_name == "issue_tracker":
        round0.append({
            "step": "call_tool",
            "name": "file_issue",
            "arguments": {
                "title": "round 1 work",
                "rationale": "keep the loop going",
                "acceptance_criteria": ["checker passes"],
                "expected_impact": "low",
            },
        })
    toy.write_script(scripts / "implementer_r0_a1.jsonl", round0)
    # Round 1 validates at 80 chars: 20 % below the best.
    regress = toy.modify_diff("candidate/run", chars_candidate(100), chars_candidate(80))
    toy.write_script(scripts / "implementer_r1_a1.jsonl", [{"step": "apply_patch", "patch": regress}])
    outcome = run_target(
        load_contract(config),
        workspace_root=tmp_path / "ws",
        ledger_path=tmp_path / "ledger.jsonl",
        policy_name=policy_name,
        stub_scripts=scripts,
        task_text="make the echo service faster",
    )
    events = read_ledger(tmp_path / "ledger.jsonl")
    checkpoints = {e.round: e.payload for e in events if e.kind == "checkpoint"}
    assert [checkpoints[r]["metric"] for r in (0, 1)] == [100, 80]
    best = checkpoints[0]
    assert [(e.round, e.payload) for e in events if e.kind == "revert"] == [
        (1, {
            "to_commit": best["commit"],
            "reason": "validated round regressed on the headline metric",
            "tree_digest": best["tree_digest"],
        })
    ]
    head, tag = subprocess.run(
        ["git", "rev-parse", "HEAD", "round-0"], cwd=tmp_path / "ws", capture_output=True, text=True
    ).stdout.split()
    assert head == tag == best["commit"]
    finished = [e.payload for e in events if e.kind == "round_finished" and e.round == 1]
    assert finished[0]["status"] == "validated"
    assert finished[0]["best_commit"] == best["commit"]
    assert (outcome.best.round, outcome.best.commit) == (0, best["commit"])


def test_failed_benchmark_keeps_the_end_of_a_long_stderr(tmp_path):
    import fuzz

    config = fuzz.write_fuzz_target(tmp_path / "target", max_rounds=1, retry_budget=1)
    (tmp_path / "target" / "benchmark").write_text(
        "#!/bin/sh\nprintf 'x%.0s' $(seq 3000) >&2\necho 'GPU OOM in kernel foo' >&2\nexit 7\n"
    )
    scripts = tmp_path / "scripts"
    correct_patch_script(scripts, source=fuzz.correct_candidate(1))
    run_target(
        load_contract(config),
        workspace_root=tmp_path / "ws",
        ledger_path=tmp_path / "ledger.jsonl",
        mode="stub",
        stub_scripts=scripts,
    )
    (finished,) = [e for e in read_ledger(tmp_path / "ledger.jsonl") if e.kind == "round_finished"]
    assert finished.payload["status"] == "error"
    assert "exited 7" in finished.payload["detail"]
    assert "GPU OOM in kernel foo" in finished.payload["detail"]


def missing_judge_in_round_1(monkeypatch):
    """Make stub runs name a missing harness binary for round 1's Judge."""
    import forgeloop.runner as runner

    stub_provider = runner.stub_harness_provider

    def provider_for(scripts_dir, timeout_s):
        stub = stub_provider(scripts_dir, timeout_s)

        def provider(role, round_index, attempt):
            if role is AgentRole.JUDGE and round_index == 1:
                return HarnessConfig(command_template=("/no/such/harness",), timeout_s=timeout_s)
            return stub(role, round_index, attempt)

        return provider

    monkeypatch.setattr(runner, "stub_harness_provider", provider_for)


def test_harness_that_stops_starting_mid_run_ends_only_its_round(tmp_path, monkeypatch):
    missing_judge_in_round_1(monkeypatch)
    contract = fast_target(tmp_path, max_rounds=3, retry_budget=1)
    scripts = tmp_path / "scripts"
    correct_patch_script(scripts)
    # Round 1's Implementer edits the tree before its Judge fails to start.
    toy.write_script(
        scripts / "implementer_r1_a1.jsonl",
        [{"step": "apply_patch", "patch": toy.new_file_diff("candidate/notes.txt", "round 1\n")}],
    )
    outcome = run_target(
        contract,
        workspace_root=tmp_path / "ws",
        ledger_path=tmp_path / "ledger.jsonl",
        policy_name="evolutionary",
        mode="stub",
        stub_scripts=scripts,
    )
    assert outcome.rounds_run == 3
    finished = [e for e in read_ledger(tmp_path / "ledger.jsonl") if e.kind == "round_finished"]
    assert [e.round for e in finished] == [0, 1, 2]
    assert finished[1].payload["status"] == "error"
    assert finished[1].payload["detail"].startswith("harness did not start: cannot launch harness '/no/such/harness'")
    # Round 1's edit was discarded, so round 2 (no script) has nothing to commit.
    assert finished[2].payload["detail"] == "round 2 left the tree unchanged"


def test_harness_that_never_starts_is_a_setup_error(tmp_path):
    contract = fast_target(tmp_path, max_rounds=2, retry_budget=1)
    with pytest.raises(SpawnFailed):
        run_target(
            contract,
            workspace_root=tmp_path / "ws",
            ledger_path=tmp_path / "ledger.jsonl",
            policy_name="evolutionary",
            mode="agent",
            harness_cmd="/no/such/harness {workspace}",
        )
    kinds = [e.kind for e in read_ledger(tmp_path / "ledger.jsonl")]
    assert "round_finished" not in kinds


def run_committing_agent(tmp_path, candidates, before_commit="", judge=":", policy_name="ralph", ledger_path=None):
    """An agent-mode run of ``policy_name`` whose Implementer runs the shell
    line ``before_commit`` (``$1`` is the workspace, ``$r`` the round), writes
    ``candidates[round]`` and commits it with git itself; the Judge runs the
    shell line ``judge`` and every other role does nothing. The ledger is
    ``ledger_path``, by default ``tmp_path / "ledger.jsonl"``. Returns the
    outcome and a git runner on the workspace."""
    import fuzz

    config = fuzz.write_fuzz_target(tmp_path / "target", max_rounds=len(candidates), retry_budget=1)
    payloads = tmp_path / "payloads"
    payloads.mkdir()
    for k, source in enumerate(candidates):
        (payloads / f"run{k}").write_text(source)
    agent = tmp_path / "committing_agent.sh"
    agent.write_text(
        "#!/bin/sh\n"
        f'[ "$2" = Judge ] && {{ {judge}; exit 0; }}\n'
        '[ "$2" = Implementer ] || exit 0\n'
        'r=${3##*implementer-r}; r=${r%%-*}\n'
        f"{before_commit}\n"
        f'cp "{payloads}/run$r" "$1/candidate/run" && chmod +x "$1/candidate/run"\n'
        'git -C "$1" add -A && git -C "$1" commit -qm "agent wip"\n'
    )
    agent.chmod(0o755)
    outcome = run_target(
        load_contract(config),
        workspace_root=tmp_path / "ws",
        ledger_path=ledger_path or tmp_path / "ledger.jsonl",
        policy_name=policy_name,
        mode="agent",
        harness_cmd=f"{agent} {{workspace}} {{role}} {{prompt_file}}",
    )

    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=tmp_path / "ws", capture_output=True, text=True, check=True
        ).stdout.split()

    return outcome, git


def test_an_agent_that_commits_still_checkpoints_the_checked_tree(tmp_path):
    outcome, git = run_committing_agent(tmp_path, [chars_candidate(100), chars_candidate(120)])
    assert outcome.checkpoints == 2
    baseline = git("rev-list", "--max-parents=0", "main")
    # Each checkpoint's parent is the previous checkpoint, not the agent's commit.
    assert git("rev-parse", "round-0^", "round-1^") == baseline + git("rev-parse", "round-0")
    assert git("rev-parse", "main") == git("rev-parse", "round-1") == [outcome.best.commit]
    assert "wip" not in git("log", "--format=%s", "main")


def test_a_failed_round_drops_the_agents_commit_from_main(tmp_path):
    import fuzz

    outcome, git = run_committing_agent(tmp_path, [chars_candidate(100), fuzz.wrong_candidate(1)])
    assert outcome.checkpoints == 1
    statuses = [e.payload["status"] for e in read_ledger(tmp_path / "ledger.jsonl") if e.kind == "round_finished"]
    assert statuses == ["validated", "failed_budget"]
    assert git("rev-parse", "main") == git("rev-parse", "round-0")
    assert "wip" not in git("log", "--format=%s", "main")
    assert (tmp_path / "ws" / "candidate" / "run").read_text() == chars_candidate(100)


BRANCH = 'git -C "$1" checkout -q -b "agent$r"'
DETACH = 'git -C "$1" checkout -q --detach'
ELSEWHERE = 'git -C "$1" symbolic-ref HEAD refs/heads/elsewhere'


@pytest.mark.parametrize("switch, last_round", [
    pytest.param(BRANCH, "validated", id="validated"),
    pytest.param(BRANCH, "failed_budget", id="failed_budget"),
    pytest.param(DETACH, "validated", id="detach-validated"),
    pytest.param(DETACH, "failed_budget", id="detach-failed_budget"),
    pytest.param(ELSEWHERE, "validated", id="elsewhere-validated"),
    pytest.param(ELSEWHERE, "failed_budget", id="elsewhere-failed_budget"),
])
def test_an_agent_that_switches_branches_leaves_head_on_main(switch, last_round, tmp_path):
    import fuzz

    last = chars_candidate(120) if last_round == "validated" else fuzz.wrong_candidate(1)
    outcome, git = run_committing_agent(tmp_path, [chars_candidate(100), last], before_commit=switch)
    statuses = [e.payload["status"] for e in read_ledger(tmp_path / "ledger.jsonl") if e.kind == "round_finished"]
    assert statuses == ["validated", last_round]
    assert git("symbolic-ref", "HEAD") == ["refs/heads/main"]
    assert git("rev-parse", "HEAD") == git("rev-parse", "main") == [outcome.best.commit]


@pytest.mark.parametrize("force_add, last_statuses", [
    pytest.param('[ "$r" = 1 ] &&', ["failed_budget", "validated"], id="round-1"),
    pytest.param("", ["validated", "validated"], id="every-round"),
])
def test_an_agent_that_force_stages_the_mounts_ends_no_run(force_add, last_statuses, tmp_path):
    # The agent commits artifacts/ with its candidate, in round 1 only (a
    # wrong candidate) or in every round; no reset deletes the mounts, so
    # every later round can still run the checker.
    import fuzz

    second = fuzz.wrong_candidate(1) if last_statuses[0] == "failed_budget" else chars_candidate(120)
    run_committing_agent(
        tmp_path,
        [chars_candidate(100), second, chars_candidate(140)],
        before_commit=f'{force_add} git -C "$1" add -f artifacts',
    )
    statuses = [e.payload["status"] for e in read_ledger(tmp_path / "ledger.jsonl") if e.kind == "round_finished"]
    assert statuses == ["validated"] + last_statuses
    assert (tmp_path / "ws" / "artifacts" / "checker").is_file()


def assert_round_0_measured_what_it_checked(tmp_path):
    checkpoint = next(e.payload for e in read_ledger(tmp_path / "ledger.jsonl") if e.kind == "checkpoint")
    assert checkpoint["metric"] == 100
    shown = subprocess.run(
        ["git", "show", "round-0:candidate/run"], cwd=tmp_path / "ws", capture_output=True, text=True, check=True
    ).stdout
    assert shown == chars_candidate(100)


def test_a_judge_that_rewrites_the_checked_index_changes_nothing_measured(tmp_path):
    # Round 0's Judge edits the candidate and rebuilds .git/forgeloop-index
    # from its edit, cache tree and all; the benchmark still measures the
    # tree the gates checked, and the checkpoint commits it.
    judged = tmp_path / "judged"
    judged.write_text(chars_candidate(300))
    judge = (
        f'cp "{judged}" "$1/candidate/run"; export GIT_INDEX_FILE="$1/.git/forgeloop-index"; '
        'git -C "$1" add -A && git -C "$1" write-tree >/dev/null'
    )
    run_committing_agent(tmp_path, [chars_candidate(100)], judge=judge)
    assert_round_0_measured_what_it_checked(tmp_path)


def test_a_judge_that_hides_its_edit_behind_skip_worktree_changes_nothing_measured(tmp_path):
    # Round 0's Judge makes git's index name the checked tree, flags the
    # candidate skip-worktree and then edits it; a reset that kept that index
    # would leave the edit on disk for the benchmark.
    judged = tmp_path / "judged"
    judged.write_text(chars_candidate(300))
    judge = (
        'T=$(GIT_INDEX_FILE="$1/.git/forgeloop-index" git -C "$1" write-tree); rm "$1/.git/forgeloop-index"; '
        'git -C "$1" read-tree "$T" && git -C "$1" update-index --skip-worktree candidate/run; '
        f'cp "{judged}" "$1/candidate/run"'
    )
    run_committing_agent(tmp_path, [chars_candidate(100)], judge=judge)
    assert_round_0_measured_what_it_checked(tmp_path)


FORGE_INDEX = """\
import hashlib, sys

# Point one entry of a version-2 git index at another blob, keeping its
# cache tree, and write a valid trailing checksum.
index, path, blob = sys.argv[1], sys.argv[2].encode(), bytes.fromhex(sys.argv[3])
data = bytearray(open(index, "rb").read())
offset, count = 12, int.from_bytes(data[8:12], "big")
for _ in range(count):
    length = int.from_bytes(data[offset + 60:offset + 62], "big") & 0xFFF
    if data[offset + 62:offset + 62 + length] == path:
        data[offset + 40:offset + 60] = blob
    offset += (62 + length + 8) & ~7
data[-20:] = hashlib.sha1(data[:-20]).digest()
open(index, "wb").write(data)
"""


def test_a_judge_that_forges_the_checked_index_changes_nothing_measured(tmp_path):
    # Round 0's Judge reads the checked tree into an index of its own, whose
    # cache tree names that tree, points the candidate's entry at another
    # blob and moves the file onto .git/forgeloop-index.
    judged = tmp_path / "judged"
    judged.write_text(chars_candidate(300))
    forge = tmp_path / "forge_index.py"
    forge.write_text(FORGE_INDEX)
    judge = (
        'T=$(GIT_INDEX_FILE="$1/.git/forgeloop-index" git -C "$1" write-tree); '
        f'B=$(git -C "$1" hash-object -w "{judged}"); '
        'GIT_INDEX_FILE="$1/.git/forged" git -C "$1" read-tree "$T" && '
        f'"{sys.executable}" "{forge}" "$1/.git/forged" candidate/run "$B" && '
        'mv "$1/.git/forged" "$1/.git/forgeloop-index"'
    )
    run_committing_agent(tmp_path, [chars_candidate(100)], judge=judge)
    assert_round_0_measured_what_it_checked(tmp_path)


def test_a_hook_an_agent_plants_runs_in_no_loop_git_call(tmp_path):
    # A reference-transaction hook that fails would abort every ref update,
    # the checkpoint's and the round-end reset's included.
    hook = '"$1/.git/hooks/reference-transaction"'
    _, git = run_committing_agent(
        tmp_path,
        [chars_candidate(100), chars_candidate(120), chars_candidate(140)],
        before_commit=(
            f'[ "$r" = 0 ] && mkdir -p "$1/.git/hooks" && printf "#!/bin/sh\\nexit 1\\n" > {hook} '
            f"&& chmod +x {hook}"
        ),
    )
    statuses = [e.payload["status"] for e in read_ledger(tmp_path / "ledger.jsonl") if e.kind == "round_finished"]
    assert statuses == ["validated"] * 3
    assert git("tag") == ["round-0", "round-1", "round-2"]


def test_an_agent_that_deletes_a_gitignore_commits_no_loop_state(tmp_path):
    # The loop's ignore rules are in .git/info/exclude, in no tree; the
    # ledger inside the workspace keeps every event of the round.
    ledger = tmp_path / "ws" / "ledger.jsonl"
    _, git = run_committing_agent(
        tmp_path,
        [chars_candidate(100)],
        before_commit='[ "$r" = 0 ] && rm -f "$1/.gitignore"',
        policy_name="issue_tracker",
        ledger_path=ledger,
    )
    kinds = [e.kind for e in read_ledger(ledger)]
    assert kinds.count("checkpoint") == kinds.count("round_finished") == 1
    assert git("ls-tree", "-r", "--name-only", "round-0") == ["candidate/run"]


def test_a_ref_that_will_not_move_ends_only_its_round(tmp_path):
    outcome, git = run_committing_agent(
        tmp_path,
        [chars_candidate(100), chars_candidate(120)],
        before_commit='[ "$r" = 0 ] && : > "$1/.git/refs/tags/round-0.lock"',
    )
    events = read_ledger(tmp_path / "ledger.jsonl")
    finished = [e for e in events if e.kind == "round_finished"]
    assert [e.round for e in events if e.kind == "round_started"] == [e.round for e in finished] == [0, 1]
    assert finished[0].payload["status"] == "error"
    assert "cannot lock ref 'refs/tags/round-0'" in finished[0].payload["detail"]
    assert finished[1].payload["status"] == "validated"
    assert git("tag") == ["round-1"]
    # main had not moved: round 1's checkpoint sits on the baseline.
    assert git("rev-parse", "round-1^") == git("rev-list", "--max-parents=0", "main")
    assert outcome.checkpoints == 1


def test_a_stale_index_lock_is_removed_before_either_reset(tmp_path):
    # Round 0's agent leaves .git/index.lock behind, so its own commit fails;
    # the restore of the checked tree removes the lock, and the round is measured.
    outcome, git = run_committing_agent(
        tmp_path,
        [chars_candidate(100), chars_candidate(120)],
        before_commit='[ "$r" = 0 ] && : > "$1/.git/index.lock"',
    )
    statuses = [e.payload["status"] for e in read_ledger(tmp_path / "ledger.jsonl") if e.kind == "round_finished"]
    assert statuses == ["validated", "validated"]
    assert git("rev-parse", "main") == git("rev-parse", "round-1") == [outcome.best.commit]
    assert not (tmp_path / "ws" / ".git" / "index.lock").exists()


def test_a_checker_that_lost_its_execute_bits_is_a_tamper(tmp_path):
    # Round 0's agent makes the mounted checker unrunnable; the mount digest
    # counts execute bits, so the round reports the tamper and the mount is
    # restored for the rounds after it.
    run_committing_agent(
        tmp_path,
        [chars_candidate(100), chars_candidate(120), chars_candidate(140)],
        before_commit='[ "$r" = 0 ] && chmod a-x "$1/artifacts/checker"',
    )
    finished = [e.payload for e in read_ledger(tmp_path / "ledger.jsonl") if e.kind == "round_finished"]
    assert [p["status"] for p in finished] == ["error", "validated", "validated"]
    assert finished[0]["detail"] == "mount modified: artifacts/checker"


def test_a_discarded_round_keeps_the_candidate_directory(tmp_path):
    import fuzz

    # Round 1's agent copies into candidate/ without creating it first.
    run_committing_agent(tmp_path, [fuzz.wrong_candidate(0), chars_candidate(100)])
    statuses = [e.payload["status"] for e in read_ledger(tmp_path / "ledger.jsonl") if e.kind == "round_finished"]
    assert statuses == ["failed_budget", "validated"]
    assert (tmp_path / "ws" / "candidate" / "run").read_text() == chars_candidate(100)


def test_an_orchestrator_that_cannot_start_leaves_the_pick_to_the_rule(tmp_path, monkeypatch):
    from forgeloop import runner

    scripts = tmp_path / "scripts"
    scripts.mkdir()
    # Round 0's Implementer files a low-impact issue (2), then a high-impact one (3).
    filed = [
        {"step": "call_tool", "name": "file_issue", "arguments": {
            "title": f"{impact} follow-up", "rationale": "r", "acceptance_criteria": ["checker passes"],
            "expected_impact": impact}}
        for impact in ("low", "high")
    ]
    toy.write_script(
        scripts / "implementer_r0_a1.jsonl",
        [{"step": "apply_patch", "patch": toy.new_file_diff("candidate/run", toy.candidate_source(0.0))}] + filed,
    )
    stub = runner.stub_harness_provider(scripts, 60)

    def provider_for(command_template, timeout_s):
        def provider(role, round_index, attempt):
            if role is AgentRole.ORCHESTRATOR and round_index == 1:
                return HarnessConfig(command_template=("/no/such/harness",), timeout_s=timeout_s)
            return stub(role, round_index, attempt)

        return provider

    monkeypatch.setattr(runner, "agent_harness_provider", provider_for)
    outcome = run_target(
        fast_target(tmp_path, max_rounds=2, retry_budget=1),
        workspace_root=tmp_path / "ws",
        ledger_path=tmp_path / "ledger.jsonl",
        mode="agent",
        harness_cmd="unused",
    )
    assert outcome.rounds_run == 2
    events = read_ledger(tmp_path / "ledger.jsonl")
    assert [e.payload["issue_id"] for e in events if e.kind == "round_started"] == [1, 3]
    # The failed turn left its invocation event, which says why.
    [failed] = [e.payload for e in events
                if e.kind == "invocation" and e.round == 1 and e.payload["role"] == "Orchestrator"]
    assert (failed["exit_kind"], failed["exit_code"]) == ("crashed", None)
    assert failed["stderr_tail"].startswith("cannot launch harness '/no/such/harness'")


def test_a_mount_source_that_drifted_still_ends_the_run(tmp_path):
    contract = fast_target(tmp_path, max_rounds=2, retry_budget=1)
    # Every turn tampers with the checker mount and edits its source, so the
    # restore after the tamper cannot reproduce the digest recorded at init.
    agent = tmp_path / "drifting_agent.sh"
    agent.write_text(
        "#!/bin/sh\n"
        f'echo "# drifted" >> "{contract.checker}"\n'
        'chmod u+w "$1/artifacts/checker" && echo "# tampered" >> "$1/artifacts/checker"\n'
    )
    agent.chmod(0o755)
    with pytest.raises(MountFailed, match="drifted since init"):
        run_target(
            contract,
            workspace_root=tmp_path / "ws",
            ledger_path=tmp_path / "ledger.jsonl",
            policy_name="ralph",
            mode="agent",
            harness_cmd=f"{agent} {{workspace}}",
        )


@pytest.mark.parametrize("cause", ["unknown policy", "unbindable socket"])
def test_setup_that_fails_after_the_ledger_opens_leaks_nothing(cause, tmp_path, monkeypatch):
    import tempfile

    from forgeloop import runner
    from forgeloop.mcp import TransportUnavailable

    # A socket path past the AF_UNIX length cap cannot bind.
    tmp = tmp_path / ("t" * 100 if cause == "unbindable socket" else "t")
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    closed = []

    class Ledger(runner.LedgerWriter):
        def close(self):
            closed.append(self.path)
            super().close()

    monkeypatch.setattr(runner, "LedgerWriter", Ledger)
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    with pytest.raises((RunSetupError, TransportUnavailable)):
        run_target(
            fast_target(tmp_path, max_rounds=1, retry_budget=1),
            workspace_root=tmp_path / "ws",
            ledger_path=tmp_path / "ledger.jsonl",
            policy_name="no_such_policy" if cause == "unknown policy" else "issue_tracker",
            stub_scripts=scripts,
        )
    assert closed == [tmp_path / "ledger.jsonl"]
    assert list(tmp.iterdir()) == []
