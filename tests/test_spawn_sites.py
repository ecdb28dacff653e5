"""Every child the loop starts goes through ``harness.run_bounded``, which
bounds it by a deadline and kills its whole process tree; git keeps its own
two call sites. A new ad-hoc spawn site must fail this suite."""

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


def spawn_sites(path: Path):
    """(file, enclosing qualified name) of each subprocess call in ``path``."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.ImportFrom) and child.module in SPAWNERS:
                names = SPAWNERS[child.module] | {"*"}
                sites.extend((path.name, f"from {child.module} import {a.name}")
                             for a in child.names if a.name in names)
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and isinstance(child.func.value, ast.Name)
                and child.func.attr in SPAWNERS.get(child.func.value.id, ())
            ):
                sites.append((path.name, ".".join(scope) or "<module>"))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), [])
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
