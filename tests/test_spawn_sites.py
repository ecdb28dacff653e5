"""Every child the loop starts goes through ``harness.run_bounded``, which
bounds it by a deadline and kills its whole process tree; git keeps its own
two call sites. Every agent turn goes through ``innerloop.Agents.turn``, the
one caller of ``harness.invoke_agent``. A new ad-hoc spawn site or agent
call site must fail this suite. Every move of HEAD back goes through
``innerloop.revert``, the one caller of ``workspace.revert_to`` and the one
writer of a ``revert`` ledger event. Only the four workspace functions that
own the refs run a git subcommand that can move one."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "forgeloop"
SPAWNERS = {
    "subprocess": {"Popen", "run", "call", "check_call", "check_output", "getoutput", "getstatusoutput"},
    "os": {"system", "popen", "fork", "posix_spawn", "posix_spawnp"},
}
ALLOWED = {
    ("harness.py", "run_bounded"),
    ("workspace.py", "Workspace._git"),
    ("workspace.py", "init_workspace"),
    # The stub runs inside the agent's process group, and it cannot import
    # the package: it is launched by file path without site.
    ("stubagent.py", "_apply_patch.run_apply"),
}


AGENT_TURN = ("innerloop.py", "Agents.turn")
REVERT = ("innerloop.py", "revert")


def scoped_nodes(path: Path):
    """Each AST node of ``path`` with the qualified name of its enclosing
    function or class (``<module>`` at top level)."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, scope + [child.name])
                continue
            yield ".".join(scope) or "<module>", child
            yield from visit(child, scope)

    return visit(ast.parse(path.read_text(encoding="utf-8")), [])


def spawn_sites(path: Path):
    """(file, enclosing qualified name) of each subprocess call in ``path``."""
    sites = []
    for scope, node in scoped_nodes(path):
        if isinstance(node, ast.ImportFrom) and node.module in SPAWNERS:
            names = SPAWNERS[node.module] | {"*"}
            sites.extend((path.name, f"from {node.module} import {a.name}")
                         for a in node.names if a.name in names)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.attr in SPAWNERS.get(node.func.value.id, ())
        ):
            sites.append((path.name, scope))
    return sites


def agent_call_sites(path: Path):
    """(file, enclosing qualified name) of each call to ``invoke_agent`` in
    ``path``, by name or as an attribute, and of each import that renames it."""
    sites = []
    for scope, node in scoped_nodes(path):
        if isinstance(node, ast.ImportFrom):
            sites.extend((path.name, f"import invoke_agent as {a.asname}")
                         for a in node.names if a.name == "invoke_agent" and a.asname)
        if isinstance(node, ast.Call) and "invoke_agent" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            sites.append((path.name, scope))
    return sites


def test_children_start_only_in_the_bounded_primitive_and_git():
    found = {site for path in sorted(SRC.rglob("*.py")) for site in spawn_sites(path)}
    assert found - ALLOWED == set()
    assert ("harness.py", "run_bounded") in found  # the walk sees the primitive


def test_the_walk_catches_an_ad_hoc_spawn(tmp_path):
    rogue = tmp_path / "rogue.py"
    rogue.write_text(
        "import os, subprocess\n"
        "from subprocess import check_output\n"
        "os.system('true')\n"
        "class Gate:\n"
        "    def run(self):\n"
        "        return subprocess.run(['true'])\n"
    )
    assert set(spawn_sites(rogue)) == {
        ("rogue.py", "from subprocess import check_output"),
        ("rogue.py", "<module>"),
        ("rogue.py", "Gate.run"),
    }


def test_agents_are_invoked_only_through_agents_turn():
    found = [site for path in sorted(SRC.rglob("*.py")) for site in agent_call_sites(path)]
    assert found == [AGENT_TURN]


def test_the_walk_catches_an_ad_hoc_agent_call(tmp_path):
    rogue = tmp_path / "rogue.py"
    rogue.write_text(
        "from forgeloop import harness\n"
        "from forgeloop.harness import invoke_agent, invoke_agent as spawn\n"
        "def orchestrate(cfg, bundle, root):\n"
        "    return invoke_agent(cfg, bundle, root, 0)\n"
        "class Judge:\n"
        "    def review(self, cfg, bundle, root):\n"
        "        return harness.invoke_agent(cfg, bundle, root, 0)\n"
    )
    assert set(agent_call_sites(rogue)) == {
        ("rogue.py", "import invoke_agent as spawn"),
        ("rogue.py", "orchestrate"),
        ("rogue.py", "Judge.review"),
    }


def revert_sites(path: Path):
    """(file, enclosing qualified name) of each call to ``revert_to``, of
    each import that renames it, and of each ``append("revert", ...)``."""
    sites = []
    for scope, node in scoped_nodes(path):
        if isinstance(node, ast.ImportFrom):
            sites.extend((path.name, f"import revert_to as {a.asname}")
                         for a in node.names if a.name == "revert_to" and a.asname)
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        first = node.args[0] if node.args else None
        if name == "revert_to" or (
            name == "append" and isinstance(first, ast.Constant) and first.value == "revert"
        ):
            sites.append((path.name, scope))
    return sites


def test_head_moves_back_only_through_innerloop_revert():
    found = [site for path in sorted(SRC.rglob("*.py")) for site in revert_sites(path)]
    assert found == [REVERT, REVERT]  # the revert_to call and the ledger event


def test_the_walk_catches_a_stray_revert(tmp_path):
    rogue = tmp_path / "rogue.py"
    rogue.write_text(
        "from forgeloop import workspace\n"
        "from forgeloop.workspace import revert_to as rewind\n"
        "def end_round(ws, cp, ledger):\n"
        "    workspace.revert_to(ws, cp)\n"
        "class Runner:\n"
        "    def regress(self, ledger):\n"
        "        ledger.append('revert', 0, {})\n"
    )
    assert set(revert_sites(rogue)) == {
        ("rogue.py", "import revert_to as rewind"),
        ("rogue.py", "end_round"),
        ("rogue.py", "Runner.regress"),
    }


REF_MOVERS = {"commit", "commit-tree", "update-ref", "tag", "reset", "checkout", "branch"}
REF_OWNERS = {
    ("workspace.py", name) for name in ("init_workspace", "commit_checkpoint", "revert_to", "discard_worktree")
}


def _git_subcommand(args):
    """The first literal non-option argument of a git argv (after git's own
    ``-C <dir>`` / ``-c <key=value>``); None when it is not a literal."""
    args = iter(args)
    for arg in args:
        if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
            return None
        if arg.value in ("-C", "-c"):
            next(args, None)
        elif not arg.value.startswith("-"):
            return arg.value
    return None


def ref_move_sites(path: Path):
    """(file, enclosing qualified name) of each git call in ``path`` whose
    subcommand can move a ref: ``_git("<sub>", ...)`` or ``["git", "<sub>", ...]``."""
    sites = []
    for scope, node in scoped_nodes(path):
        if isinstance(node, ast.Call) and "_git" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            args = node.args
        elif isinstance(node, ast.List) and node.elts and getattr(node.elts[0], "value", None) == "git":
            args = node.elts[1:]
        else:
            continue
        if _git_subcommand(args) in REF_MOVERS:
            sites.append((path.name, scope))
    return sites


def test_refs_move_only_in_the_workspace_functions_that_own_them():
    found = {site for path in sorted(SRC.rglob("*.py")) for site in ref_move_sites(path)}
    assert found == REF_OWNERS


def test_the_walk_catches_a_stray_ref_move(tmp_path):
    rogue = tmp_path / "rogue.py"
    rogue.write_text(
        "import subprocess\n"
        "def retag(ws):\n"
        "    ws._git('tag', '-f', 'round-0', 'HEAD')\n"
        "class Agent:\n"
        "    def save(self, root):\n"
        "        subprocess.run(['git', '-C', root, 'commit', '-qm', 'wip'])\n"
        "def harmless(ws):\n"
        "    ws._git('read-tree', '--reset', '-u', 'tree')\n"
        "    subprocess.run(['git', 'log', '--format=commit'])\n"
    )
    assert set(ref_move_sites(rogue)) == {("rogue.py", "retag"), ("rogue.py", "Agent.save")}
