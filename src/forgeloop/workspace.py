"""Isolated, version-controlled build area for one target.

Layout under the workspace root:

    .git/            history of validated checkpoints (branch: main)
    .git/forgeloop-index   the checked index: the last worktree_digest's tree
    .gitignore       keeps mounts and loop state out of commits
    artifacts/       read-only copies of reference / checker / benchmark
    candidate/       the agent-writable serving-system tree
    MEMORY.md, ISSUES.jsonl, ...   policy state, never committed

Mount enforcement is double-layered: files are chmod'd read-only, and the
digests recorded at init (``ws.mounts``) are re-verified after every round.
The digest check is the portable gate; the chmod is best-effort since an
owner-uid agent process can always restore write permission.

Every accepted build is a commit on ``main`` tagged ``round-<N>`` so
checkpoints stay reachable after a revert resets the branch. A checkpoint
commits the tree the round's gates checked onto the previous checkpoint, so
an agent's own commits never stay on ``main``, and every round leaves
``HEAD`` on ``main``, whatever branch an agent switched to.

On a filesystem that discards freed blocks synchronously every replaced
file waits on the disk, so a round replaces only what must change. A reset
to a tree checks out git's index by taking the checked index when that
still names the tree, keeping git's own when it does, and reading the tree
otherwise; then it rewrites only the files whose stat differs from the
index. ``HEAD`` and ``main`` are rewritten only when they moved. Besides
the checked index, which each digest builds afresh, a validated round so
replaces git's index once and ``main`` once.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import stat
import subprocess
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Optional

from forgeloop.errors import ForgeloopError

if TYPE_CHECKING:  # pragma: no cover
    from forgeloop.gates.metrics import MetricReport


class WorkspaceError(ForgeloopError):
    pass


class MountFailed(WorkspaceError):
    pass


class NothingToCommit(WorkspaceError):
    pass


class VerdictNotPassed(WorkspaceError):
    pass


class UnknownCommit(WorkspaceError):
    pass


ARTIFACTS_DIR = "artifacts"
CANDIDATE_DIR = "candidate"
CHECKED_INDEX = "forgeloop-index"  # under .git/, so in no tree

_IGNORED = [
    "/artifacts/",
    "/MEMORY.md",
    "/ISSUES.jsonl",
    "/RALPH_HISTORY.md",
    "/ledger.jsonl",
    "/.prompts/",
    "__pycache__/",
]


class MountEntry(NamedTuple):
    source: Path
    mount: Path  # relative to workspace root
    digest: str


class TamperFinding(NamedTuple):
    mount: str
    kind: str  # "modified" | "missing"


class Checkpoint(NamedTuple):
    commit: str
    round: int
    metric: float
    unit: str
    higher_is_better: bool
    tree_digest: str
    parent: Optional[str] = None


def _file_digest(path: Path) -> str:
    # The execute bits count too: a checker that lost them no longer runs.
    acc = hashlib.sha256(path.read_bytes())
    acc.update(b"%o" % (path.stat().st_mode & 0o111))
    return acc.hexdigest()


def _digest_path(path: Path) -> str:
    """sha256 over file contents and execute bits; directories hash sorted
    (relpath, filehash) pairs."""
    if path.is_file():
        return _file_digest(path)
    if path.is_dir():
        acc = hashlib.sha256()
        for sub in sorted(p for p in path.rglob("*") if p.is_file()):
            rel = sub.relative_to(path).as_posix()
            acc.update(rel.encode())
            acc.update(b"\0")
            acc.update(_file_digest(sub).encode())
            acc.update(b"\n")
        return acc.hexdigest()
    raise MountFailed(f"mount source vanished: {path}")


def _set_readonly(path: Path) -> None:
    def lock(p: Path):
        mode = p.stat().st_mode
        p.chmod(mode & ~(stat.S_IWUSR | stat.S_IWGRP | stat.S_IWOTH))

    if path.is_dir():
        for sub in path.rglob("*"):
            lock(sub)
    lock(path)


def format_metric(value: float) -> str:
    """Trailer-friendly float rendering (100.0 -> '100')."""
    return f"{value:g}"


class Workspace:
    """One round at a time; operations are not concurrently callable."""

    def __init__(self, root: Path, mounts: tuple[MountEntry, ...], head: str):
        self.root = root
        self.mounts = mounts  # the digest of each mount, recorded at init
        self.head = head
        self.head_tree = ""  # the tree of ``head``, set wherever ``head`` moves

    # -- git plumbing -------------------------------------------------

    def _git(
        self, *args: str, check: bool = True, env: dict | None = None, input: str | None = None
    ) -> subprocess.CompletedProcess:
        # Only a call that adds variables pays for a copy of the environment;
        # every other one lets git inherit it.
        proc = subprocess.run(
            ["git", *args],
            cwd=self.root,
            capture_output=True,
            text=True,
            env={**os.environ, **env} if env else None,
            input=input,
        )
        if check and proc.returncode != 0:
            raise WorkspaceError(f"git {' '.join(args)} failed: {proc.stderr.strip()}")
        return proc

    def tree_digest(self, commit: str) -> str:
        proc = self._git("rev-parse", "--verify", "-q", f"{commit}^{{commit}}^{{tree}}", check=False)
        if proc.returncode != 0:
            raise UnknownCommit(commit)
        return proc.stdout.strip()

    def worktree_digest(self) -> str:
        """Tree hash of the current worktree (tracked + unignored untracked).

        It is built in the checked index, ``.git/forgeloop-index``: a stale
        copy is removed, ``add -A`` fills it from empty and ``write-tree``
        names it. The file stays, so a reset to this tree can take it as
        git's index instead of writing one."""
        index = self.root / ".git" / CHECKED_INDEX
        index.unlink(missing_ok=True)
        env = {"GIT_INDEX_FILE": str(index)}
        self._git("add", "-A", env=env)
        return self._git("write-tree", env=env).stdout.strip()

    # -- paths --------------------------------------------------------

    @property
    def candidate_root(self) -> Path:
        return self.root / CANDIDATE_DIR

    @property
    def artifacts_root(self) -> Path:
        return self.root / ARTIFACTS_DIR

    def mount_path(self, name: str) -> Path:
        return self.artifacts_root / name


def init_workspace(contract, root: str | Path) -> Workspace:
    """Create the repo, the baseline commit, and the read-only mounts.

    ``root`` must be empty or absent. ``ws.mounts`` records a digest per
    mounted artifact (reference, checker, benchmark).
    """
    root = Path(root).resolve()
    if root.exists() and any(root.iterdir()):
        raise WorkspaceError(f"workspace root is not empty: {root}")
    root.mkdir(parents=True, exist_ok=True)
    ws = Workspace(root=root, mounts=(), head="")

    # An empty template skips copying git's sample hooks and info/ into every
    # workspace; it also keeps a user's template hooks off checkpoint commits.
    ws._git("init", "-q", "-b", "main", "--template=")

    # One append sets identity and signing; each `git config` call would
    # rewrite the whole file.
    with open(root / ".git" / "config", "a", encoding="utf-8") as config:
        config.write("[user]\n\temail = loop@forgeloop.local\n\tname = forgeloop\n"
                     "[commit]\n\tgpgsign = false\n")

    (root / ".gitignore").write_text("\n".join(_IGNORED) + "\n", encoding="utf-8")
    ws._git("add", ".gitignore")
    ws._git("commit", "-q", "-m", "baseline")
    ws.head, ws.head_tree = ws._git("rev-parse", "HEAD", "HEAD^{tree}").stdout.split()

    (root / CANDIDATE_DIR).mkdir()
    artifacts = root / ARTIFACTS_DIR
    artifacts.mkdir()

    entries = []
    for name, source in (
        ("reference", contract.reference_impl),
        ("checker", contract.checker),
        ("benchmark", contract.benchmark),
    ):
        source = Path(source)
        dest = artifacts / name
        try:
            if source.is_dir():
                shutil.copytree(source, dest)
            else:
                shutil.copy2(source, dest)
        except OSError as exc:
            raise MountFailed(f"mounting {name} from {source}: {exc}") from exc
        _set_readonly(dest)
        entries.append(MountEntry(source=source, mount=dest.relative_to(root), digest=_digest_path(dest)))

    ws.mounts = tuple(entries)
    return ws


def verify_mounts(ws: Workspace) -> tuple[TamperFinding, ...]:
    """Re-hash every mount; a finding means an artifact was touched."""
    findings = []
    for entry in ws.mounts:
        target = ws.root / entry.mount
        if not target.exists():
            findings.append(TamperFinding(mount=str(entry.mount), kind="missing"))
            continue
        if _digest_path(target) != entry.digest:
            findings.append(TamperFinding(mount=str(entry.mount), kind="modified"))
    return tuple(findings)


def restore_mounts(ws: Workspace) -> None:
    """Re-copy tampered mounts from their sources (recovery after detection)."""
    for entry in ws.mounts:
        target = ws.root / entry.mount
        if target.exists() and _digest_path(target) == entry.digest:
            continue
        if target.exists():
            _make_writable(target)
            if target.is_dir():
                shutil.rmtree(target)
            else:
                target.unlink()
        target.parent.mkdir(exist_ok=True)  # an agent may have deleted artifacts/ whole
        if entry.source.is_dir():
            shutil.copytree(entry.source, target)
        else:
            shutil.copy2(entry.source, target)
        _set_readonly(target)
        if _digest_path(target) != entry.digest:
            raise MountFailed(f"mount source drifted since init: {entry.source}")


def _make_writable(path: Path) -> None:
    def unlock(p: Path):
        p.chmod(p.stat().st_mode | stat.S_IWUSR)

    if path.is_dir():
        for sub in path.rglob("*"):
            unlock(sub)
    unlock(path)


def commit_checkpoint(ws: Workspace, round_index: int, metric: "MetricReport", verdict) -> Checkpoint:
    """Commit the tree the verdict checked as a validated checkpoint on ``main``.

    The commit's parent is ``ws.head``, whatever the agents committed
    meanwhile; ``main`` and ``round-<N>`` move together or not at all. The
    worktree and ``HEAD`` are left to :func:`discard_worktree`, which ends
    every round. The commit message carries machine-readable trailers (Round
    / Metric / Verdict) so any policy can reconstruct history from the repo
    alone.
    """
    if not getattr(verdict, "passed", False):
        raise VerdictNotPassed(f"round {round_index} verdict did not pass")
    parent, tree = ws.head, verdict.tree
    if tree == ws.head_tree:
        raise NothingToCommit(f"round {round_index} left the tree unchanged")
    message = (
        f"checkpoint: round {round_index}\n"
        f"\n"
        f"Round: {round_index}\n"
        f"Metric: {format_metric(metric.metric)} {metric.unit} "
        f"higher_is_better={'true' if metric.higher_is_better else 'false'}\n"
        f"Verdict: passed\n"
    )
    commit = ws._git("commit-tree", tree, "-p", parent, "-m", message).stdout.strip()
    refs = f"update refs/heads/main {commit}\nupdate refs/tags/round-{round_index} {commit}\n"
    ws._git("update-ref", "-m", f"checkpoint: round {round_index}", "--stdin", input=refs)
    ws.head, ws.head_tree = commit, tree
    return Checkpoint(
        commit=commit,
        round=round_index,
        metric=metric.metric,
        unit=metric.unit,
        higher_is_better=metric.higher_is_better,
        tree_digest=tree,
        parent=parent,
    )


def _clean(ws: Workspace) -> None:
    # git drops candidate/ with its last tracked file; agents write into it.
    ws._git("clean", "-fdq")
    ws.candidate_root.mkdir(exist_ok=True)


def _unlock_index(ws: Workspace) -> None:
    # Every agent's process group is dead by now (run_bounded kills it), so
    # an index lock left behind is stale and would only block a reset.
    (ws.root / ".git" / "index.lock").unlink(missing_ok=True)


def _index_tree(ws: Workspace, index: Path) -> Optional[str]:
    # On an index whose cache tree is whole, write-tree names it and writes nothing.
    proc = ws._git("write-tree", check=False, env={"GIT_INDEX_FILE": str(index)})
    return proc.stdout.strip() if proc.returncode == 0 else None


def _check_out_tree(ws: Workspace, tree: str) -> None:
    """Make git's index and the worktree describe ``tree``. Git's index
    becomes the checked index when that names ``tree``, stays when it names
    it already, and is otherwise read from ``tree`` once the ignored paths
    an agent force-added have left it, so that no reset deletes a mount or
    a state file. Then only the files whose stat differs are rewritten."""
    _unlock_index(ws)
    checked, index = ws.root / ".git" / CHECKED_INDEX, ws.root / ".git" / "index"
    if checked.exists() and _index_tree(ws, checked) == tree:
        os.replace(checked, index)
    elif _index_tree(ws, index) != tree:
        ignored = ws._git("ls-files", "-ci", "--exclude-standard", "-z").stdout
        if ignored:
            ws._git("update-index", "--force-remove", "-z", "--stdin", input=ignored)
        ws._git("read-tree", "--reset", "-u", tree)
    ws._git("checkout-index", "-a", "-f", "-q")
    _clean(ws)


def _check_out_main(ws: Workspace, commit: str, tree: str) -> None:
    # HEAD and main are rewritten only when an agent moved them.
    head = ws.root / ".git" / "HEAD"
    if not head.is_file() or head.read_text(encoding="utf-8") != "ref: refs/heads/main\n":
        ws._git("symbolic-ref", "HEAD", "refs/heads/main")
    moved = ws._git("update-ref", "-m", f"check out {commit}", "refs/heads/main", f"{commit}^{{commit}}",
                    check=False)
    if moved.returncode != 0:
        ws.tree_digest(commit)  # raises UnknownCommit when that is the cause
        raise WorkspaceError(f"git update-ref refs/heads/main {commit} failed: {moved.stderr.strip()}")
    _check_out_tree(ws, tree)


def revert_to(ws: Workspace, cp: Checkpoint) -> None:
    """Check out ``main`` at the checkpoint, with its tree; mounts are untouched."""
    _check_out_main(ws, cp.commit, cp.tree_digest)
    ws.head, ws.head_tree = cp.commit, cp.tree_digest


def restore_tree(ws: Workspace, tree_digest: str) -> None:
    """Reset worktree content (not HEAD) to a previously snapshotted tree."""
    _check_out_tree(ws, tree_digest)


def discard_worktree(ws: Workspace) -> None:
    """End a round: check ``main`` out at ``ws.head`` (the new checkpoint, or
    the round's start), dropping the round's edits and any commit or branch
    switch an agent made."""
    _check_out_main(ws, ws.head, ws.head_tree)


class Change(NamedTuple):
    path: str
    kind: str  # "added" | "modified" | "deleted"
    line_delta: int


_KIND = {"A": "added", "M": "modified", "D": "deleted"}


def diff_since(ws: Workspace, tree: str) -> tuple[Change, ...]:
    """Content-based change summary from the round start, ``ws.head``, to a
    tree such as a ``worktree_digest``."""
    # Raw lines (":<modes> <shas> <code>\t<path>") come first, then numstat
    # lines ("<added>\t<deleted>\t<path>", "-" for binary files).
    out = ws._git("diff-tree", "-r", "--raw", "--numstat", "--no-abbrev", ws.head_tree, tree).stdout

    kinds: dict[str, str] = {}
    deltas: dict[str, int] = {}
    for line in out.splitlines():
        if line.startswith(":"):
            meta, path = line.split("\t", 1)
            code = meta.split()[-1][0]
            kinds[path] = _KIND.get(code, code)
        else:
            added, deleted, path = line.split("\t", 2)
            deltas[path] = 0 if added == "-" else int(added) - int(deleted)
    return tuple(
        Change(path=path, kind=kind, line_delta=deltas.get(path, 0)) for path, kind in sorted(kinds.items())
    )
