"""Workspace: mounts, checkpoints, reverts, tamper detection, diffs."""

import os
import random
import shutil
import stat
import subprocess
import sys

import pytest

from forgeloop.gates.metrics import MetricReport
from forgeloop.innerloop import ACCURACY, Agents, RoundStatus, Verdict, Violation, execute_round
from forgeloop.mcp import ToolServer
from forgeloop.policy import IssueTrackerPolicy
from forgeloop.runner import stub_harness_provider
from forgeloop.workspace import (
    NothingToCommit,
    UnknownCommit,
    VerdictNotPassed,
    Workspace,
    WorkspaceError,
    commit_checkpoint,
    diff_since,
    init_workspace,
    restore_mounts,
    restore_tree,
    revert_to,
    verify_mounts,
)

import toy


def checked(ws):
    """A passed verdict over the current worktree, as ``judge`` returns one."""
    return Verdict(violations=(), tree=ws.worktree_digest())


def metric(value=100.0, unit="tok_per_s", higher=True):
    return MetricReport(metric=value, unit=unit, higher_is_better=higher)


def write_candidate(ws, name="run", text="#!/bin/sh\necho hi\n"):
    path = ws.candidate_root / name
    path.write_text(text)
    path.chmod(0o755)
    return path


def test_init_creates_manifest_with_three_digests(toy_workspace):
    ws = toy_workspace
    names = sorted(str(e.mount) for e in ws.mounts)
    assert names == ["artifacts/benchmark", "artifacts/checker", "artifacts/reference"]
    assert all(e.digest for e in ws.mounts)
    assert ws.head  # baseline commit exists
    assert (ws.root / ".git").is_dir()


def test_init_copies_no_git_template(toy_contract, tmp_path, monkeypatch):
    # Neither git's sample hooks nor a user's template hooks reach the
    # workspace: a template pre-commit hook that refuses every commit would
    # otherwise block the baseline and every checkpoint.
    hooks = tmp_path / "template" / "hooks"
    hooks.mkdir(parents=True)
    (hooks / "pre-commit").write_text("#!/bin/sh\nexit 1\n")
    (hooks / "pre-commit").chmod(0o755)
    monkeypatch.setenv("GIT_TEMPLATE_DIR", str(tmp_path / "template"))
    ws = init_workspace(toy_contract, tmp_path / "ws")
    assert ws.head
    hooks_dir = ws.root / ".git" / "hooks"
    assert not hooks_dir.exists() or not any(hooks_dir.iterdir())


def test_init_rejects_populated_root(toy_contract, tmp_path):
    root = tmp_path / "busy"
    root.mkdir()
    (root / "junk").write_text("x")
    with pytest.raises(WorkspaceError):
        init_workspace(toy_contract, root)


def test_reinit_same_contract_same_digests(toy_contract, tmp_path):
    a = init_workspace(toy_contract, tmp_path / "a")
    b = init_workspace(toy_contract, tmp_path / "b")
    assert [e.digest for e in a.mounts] == [e.digest for e in b.mounts]


def test_mounts_are_read_only(toy_workspace):
    mode = toy_workspace.mount_path("checker").stat().st_mode
    assert not mode & stat.S_IWUSR


def test_commit_checkpoint_trailers_and_head(toy_workspace):
    ws = toy_workspace
    write_candidate(ws)
    cp = commit_checkpoint(ws, 3, metric(100.0), checked(ws))
    assert ws.head == cp.commit
    assert cp.parent != cp.commit
    message = subprocess.run(
        ["git", "log", "-1", "--format=%B"], cwd=ws.root, capture_output=True, text=True
    ).stdout
    assert "Round: 3" in message
    assert "Metric: 100 tok_per_s higher_is_better=true" in message
    assert "Verdict: passed" in message


def test_commit_checkpoint_unchanged_tree(toy_workspace):
    with pytest.raises(NothingToCommit):
        commit_checkpoint(toy_workspace, 0, metric(), checked(toy_workspace))


def test_a_held_tag_lock_moves_no_ref(toy_workspace):
    # main and the round tag move in one transaction: when the tag cannot be
    # locked, main stays where it was and so does ws.head.
    ws = toy_workspace
    write_candidate(ws)
    head = ws.head
    lock = ws.root / ".git" / "refs" / "tags" / "round-0.lock"
    lock.parent.mkdir(parents=True, exist_ok=True)
    lock.write_text("")
    with pytest.raises(WorkspaceError):
        commit_checkpoint(ws, 0, metric(), checked(ws))
    assert ws.head == head
    assert ws._git("rev-parse", "main").stdout.strip() == head


def test_commit_checkpoint_requires_passed_verdict(toy_workspace):
    write_candidate(toy_workspace)
    failed = Verdict((Violation(ACCURACY, "wrong"),), toy_workspace.worktree_digest())
    with pytest.raises(VerdictNotPassed):
        commit_checkpoint(toy_workspace, 0, metric(), failed)


def test_revert_round_trip_tree_digest(toy_workspace):
    ws = toy_workspace
    write_candidate(ws, text="#!/bin/sh\necho v1\n")
    cp_a = commit_checkpoint(ws, 0, metric(1.0), checked(ws))
    write_candidate(ws, text="#!/bin/sh\necho v2\n")
    cp_b = commit_checkpoint(ws, 1, metric(2.0), checked(ws))
    assert cp_b.parent == cp_a.commit

    revert_to(ws, cp_a)
    assert ws.head == cp_a.commit
    assert ws.worktree_digest() == cp_a.tree_digest
    assert (ws.candidate_root / "run").read_text() == "#!/bin/sh\necho v1\n"

    # Reverting to the current head is a no-op.
    revert_to(ws, cp_a)
    assert ws.worktree_digest() == cp_a.tree_digest


def test_revert_unknown_commit(toy_workspace):
    from forgeloop.workspace import Checkpoint

    ghost = Checkpoint(
        commit="0" * 40, round=0, metric=1.0, unit="x", higher_is_better=True, tree_digest=""
    )
    with pytest.raises(UnknownCommit):
        revert_to(toy_workspace, ghost)


def test_revert_leaves_mounts_untouched(toy_workspace):
    ws = toy_workspace
    write_candidate(ws)
    cp = commit_checkpoint(ws, 0, metric(), checked(ws))
    before = [e.digest for e in ws.mounts]
    revert_to(ws, cp)
    assert verify_mounts(ws) == ()
    assert [e.digest for e in ws.mounts] == before


def test_revert_round_trip_fuzzed(toy_workspace):
    ws = toy_workspace
    rng = random.Random(7)
    checkpoints = []
    for round_index in range(6):
        for _ in range(rng.randint(1, 3)):
            name = f"f{rng.randint(0, 3)}.txt"
            (ws.candidate_root / name).write_text(f"content {rng.random()}\n")
        if rng.random() < 0.3 and (ws.candidate_root / "f0.txt").exists():
            (ws.candidate_root / "f0.txt").unlink()
        cp = commit_checkpoint(ws, round_index, metric(float(round_index + 1)), checked(ws))
        checkpoints.append(cp)
    for cp in rng.sample(checkpoints, len(checkpoints)):
        revert_to(ws, cp)
        assert ws.worktree_digest() == cp.tree_digest


def test_verify_mounts_detects_edit_and_restore_recovers(toy_workspace):
    ws = toy_workspace
    assert verify_mounts(ws) == ()

    checker = ws.mount_path("checker")
    checker.chmod(0o644)
    with checker.open("a") as fh:
        fh.write("# tampered\n")
    findings = verify_mounts(ws)
    assert findings[0].mount == "artifacts/checker"
    assert findings[0].kind == "modified"

    restore_mounts(ws)
    assert verify_mounts(ws) == ()


def test_verify_mounts_detects_missing(toy_workspace):
    ws = toy_workspace
    benchmark = ws.mount_path("benchmark")
    benchmark.chmod(0o755)
    benchmark.unlink()
    assert any(f.kind == "missing" and "benchmark" in f.mount for f in verify_mounts(ws))
    restore_mounts(ws)
    assert verify_mounts(ws) == ()


def test_diff_since_added_file(toy_workspace):
    ws = toy_workspace
    write_candidate(ws, text="#!/bin/sh\necho base\n")
    commit_checkpoint(ws, 0, metric(), checked(ws))
    lines = "".join(f"line {i}\n" for i in range(10))
    (ws.candidate_root / "extra.txt").write_text(lines)
    changes = diff_since(ws, ws.worktree_digest())
    assert len(changes) == 1
    assert changes[0].path == "candidate/extra.txt"
    assert changes[0].kind == "added"
    assert changes[0].line_delta == 10


def test_diff_since_no_changes(toy_workspace):
    ws = toy_workspace
    write_candidate(ws)
    commit_checkpoint(ws, 0, metric(), checked(ws))
    assert diff_since(ws, ws.worktree_digest()) == ()


def test_diff_since_reverted_edit_is_empty(toy_workspace):
    ws = toy_workspace
    path = write_candidate(ws, text="#!/bin/sh\necho original\n")
    commit_checkpoint(ws, 0, metric(), checked(ws))
    path.write_text("#!/bin/sh\necho changed\n")
    path.write_text("#!/bin/sh\necho original\n")
    assert diff_since(ws, ws.worktree_digest()) == ()


def test_diff_since_modification_and_delete(toy_workspace):
    ws = toy_workspace
    path = write_candidate(ws, text="a\nb\nc\n")
    (ws.candidate_root / "gone.txt").write_text("x\n")
    commit_checkpoint(ws, 0, metric(), checked(ws))
    path.write_text("a\nc\n")
    (ws.candidate_root / "gone.txt").unlink()
    changes = {c.path: c for c in diff_since(ws, ws.worktree_digest())}
    assert changes["candidate/run"].kind == "modified"
    assert changes["candidate/run"].line_delta == -1
    assert changes["candidate/gone.txt"].kind == "deleted"


def test_checkpoints_reachable_from_baseline_after_revert(toy_workspace):
    ws = toy_workspace
    write_candidate(ws, text="v1\n")
    cp1 = commit_checkpoint(ws, 0, metric(1.0), checked(ws))
    write_candidate(ws, text="v2\n")
    cp2 = commit_checkpoint(ws, 1, metric(2.0), checked(ws))
    revert_to(ws, cp1)
    write_candidate(ws, text="v3\n")
    cp3 = commit_checkpoint(ws, 2, metric(3.0), checked(ws))
    # Every checkpoint stays reachable via its round tag; parents chain back.
    for cp in (cp1, cp2, cp3):
        out = subprocess.run(
            ["git", "rev-parse", f"round-{cp.round}"], cwd=ws.root, capture_output=True, text=True
        )
        assert out.stdout.strip() == cp.commit
    assert cp3.parent == cp1.commit


def test_unknown_commit_raises_from_tree_digest(toy_workspace):
    ws = toy_workspace
    with pytest.raises(UnknownCommit):
        ws.tree_digest("0" * 40)
    with pytest.raises(UnknownCommit):  # a tree id is not a commit
        ws.tree_digest(ws.tree_digest(ws.head))


def test_diff_since_binary_file_has_zero_line_delta(toy_workspace):
    ws = toy_workspace
    write_candidate(ws)
    (ws.candidate_root / "weights.bin").write_bytes(bytes(range(256)))
    commit_checkpoint(ws, 0, metric(), checked(ws))
    (ws.candidate_root / "weights.bin").write_bytes(bytes(range(256)) * 2)
    (ws.candidate_root / "new.bin").write_bytes(b"\0\1\2")
    changes = [(c.path, c.kind, c.line_delta) for c in diff_since(ws, ws.worktree_digest())]
    assert changes == [("candidate/new.bin", "added", 0), ("candidate/weights.bin", "modified", 0)]


def test_restore_tree_undoes_every_evaluator_edit(toy_workspace):
    ws = toy_workspace
    stable = write_candidate(ws, "stable.txt", "aaaa\n")
    changed = write_candidate(ws, "changed.txt", "v1\n")
    doomed = write_candidate(ws, "doomed.txt", "keep me\n")
    commit_checkpoint(ws, 0, metric(), checked(ws))
    changed.write_text("v2 from this round\n")
    snapshot = ws.worktree_digest()
    restore_tree(ws, snapshot)  # as a round does before its Evaluator phase

    # Evaluator edits: same size and mtime on a file unchanged since HEAD,
    # a file changed this round, a deletion, a staged file, an untracked file.
    before = stable.stat()
    stable.write_text("bbbb\n")
    os.utime(stable, ns=(before.st_atime_ns, before.st_mtime_ns))
    changed.write_text("instrumented\n")
    doomed.unlink()
    write_candidate(ws, "added.txt", "staged\n")
    ws._git("add", "candidate/added.txt")
    write_candidate(ws, "scratch.txt", "untracked\n")

    restore_tree(ws, snapshot)
    assert ws.worktree_digest() == snapshot
    assert ws._git("write-tree").stdout.strip() == snapshot  # the index too
    assert stable.read_text() == "aaaa\n"
    assert changed.read_text() == "v2 from this round\n"
    assert doomed.read_text() == "keep me\n"
    assert not (ws.candidate_root / "added.txt").exists()
    assert not (ws.candidate_root / "scratch.txt").exists()


def test_restore_tree_swaps_kinds_back_and_restores_execute_bits(toy_workspace):
    # Between two restores of one snapshot the worktree trades a directory
    # for a file, a file for a directory, and loses an execute bit; the
    # second restore, which rewrites only what differs from the index,
    # puts each back.
    ws = toy_workspace
    run = write_candidate(ws)
    (ws.candidate_root / "lib").mkdir()
    write_candidate(ws, "lib/util.sh", "util\n")
    write_candidate(ws, "conf", "conf\n")
    commit_checkpoint(ws, 0, metric(), checked(ws))
    snapshot = ws.worktree_digest()
    restore_tree(ws, snapshot)

    (ws.candidate_root / "lib" / "util.sh").unlink()
    (ws.candidate_root / "lib").rmdir()
    (ws.candidate_root / "lib").write_text("now a file\n")
    (ws.candidate_root / "conf").unlink()
    (ws.candidate_root / "conf").mkdir()
    (ws.candidate_root / "conf" / "inner.txt").write_text("now a directory\n")
    run.chmod(0o644)

    restore_tree(ws, snapshot)
    assert ws.worktree_digest() == snapshot
    assert ws._git("write-tree").stdout.strip() == snapshot
    assert (ws.candidate_root / "lib" / "util.sh").read_text() == "util\n"
    assert (ws.candidate_root / "conf").read_text() == "conf\n"
    assert run.stat().st_mode & stat.S_IXUSR


def test_restore_mounts_recreates_a_deleted_artifacts_directory(toy_workspace):
    ws = toy_workspace
    for path in ws.artifacts_root.rglob("*"):
        path.chmod(0o755)
    shutil.rmtree(ws.artifacts_root)
    restore_mounts(ws)
    assert verify_mounts(ws) == ()


def test_validated_round_git_calls(toy_workspace, toy_contract, tmp_path, monkeypatch):
    # One validated round (Implementer, Judge, Evaluator, checkpoint) makes
    # at most this many git calls; a new call per round must be a decision.
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    toy.write_script(
        scripts / "implementer_r0_a1.jsonl",
        [{"step": "apply_patch", "patch": toy.new_file_diff("candidate/run", toy.V0)}],
    )
    policy = IssueTrackerPolicy(toy_workspace)
    server = ToolServer(list(policy.served_toolset()))
    server.serve(str(tmp_path / "g.sock"))
    directive = policy.begin_round(0)
    contract = toy_contract._replace(budgets=toy_contract.budgets._replace(retry_budget=1))
    agents = Agents(stub_harness_provider(scripts, 30), server=server, allowed_tools=policy.allowed_tools)

    calls = []  # (calling function, git subcommand)
    original = Workspace._git
    git_dir = toy_workspace.root / ".git"
    inodes = {"index": [], "HEAD": []}  # each file's inode, each time it changed

    def look():
        for name, seen in inodes.items():
            ino = (git_dir / name).stat().st_ino
            if not seen or seen[-1] != ino:
                seen.append(ino)

    def counting(self, *args, **kwargs):
        calls.append((sys._getframe(1).f_code.co_name, args[0]))
        look()
        try:
            return original(self, *args, **kwargs)
        finally:
            look()

    memory = toy_workspace.root / "MEMORY.md"
    memory_inode = memory.stat().st_ino
    monkeypatch.setattr(Workspace, "_git", counting)
    look()
    try:
        result = execute_round(directive, 0, toy_workspace, contract, agents)
        policy.end_round(directive, result, 0, True)
    finally:
        server.shutdown()
    look()
    assert result.status is RoundStatus.VALIDATED
    assert len(calls) <= 10, calls
    # The checkpoint commits the checked tree and moves its refs by id.
    assert [cmd for caller, cmd in calls if caller == "commit_checkpoint"] == ["commit-tree", "update-ref"]
    # The round ends in its one reset, onto the new checkpoint: main is
    # already there, and git's index is the one the loop wrote for its tree.
    assert calls[-3:] == [
        ("_check_out_main", "update-ref"), ("_check_out_tree", "checkout-index"), ("_clean", "clean"),
    ]
    # Git's index is replaced once, by the checked index; HEAD is never
    # rewritten, and MEMORY.md is written over in place.
    assert len(inodes["index"]) == 2 and len(inodes["HEAD"]) == 1, inodes
    assert memory.stat().st_ino == memory_inode
    assert memory.read_text() == policy.memory.serialize() and "validated" in memory.read_text()


def test_git_copies_the_environment_only_to_add_variables(toy_workspace, monkeypatch):
    import forgeloop.workspace as workspace

    envs = []
    run = subprocess.run

    def recording(argv, **kwargs):
        envs.append(kwargs.get("env"))
        return run(argv, **kwargs)

    monkeypatch.setattr(workspace.subprocess, "run", recording)
    toy_workspace._git("rev-parse", "HEAD")
    toy_workspace.worktree_digest()
    assert envs[0] is None
    assert envs[1:] and all(env["PATH"] == os.environ["PATH"] and "GIT_INDEX_FILE" in env for env in envs[1:])
