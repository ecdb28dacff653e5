"""Skills library: loader, frontmatter reader, lexical retrieval, link validation."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from forgeloop.skills import (
    DuplicateName,
    MalformedFrontmatter,
    SkillsError,
    UnknownLayer,
    default_library_path,
    load_library,
    retrieve,
)


def write_skill(root, layer, name, description, body="", compatibility=None):
    d = root / layer / name
    d.mkdir(parents=True)
    lines = ["---", f"name: {name}", f"description: {description}"]
    if compatibility:
        lines.append("compatibility:")
        lines += [f"  - {link}" for link in compatibility]
    lines += ["---", body]
    (d / "SKILL.md").write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_fixture_tree_sorted(tmp_path):
    write_skill(tmp_path, "serving_algorithm", "paged-kv", "block tables")
    write_skill(tmp_path, "serving_algorithm", "continuous-batching", "per-step batching")
    write_skill(tmp_path, "hardware", "nvidia-gpu", "H100 notes")
    lib = load_library(tmp_path)
    assert [e.key for e in lib.entries] == [
        ("hardware", "nvidia-gpu"),
        ("serving_algorithm", "continuous-batching"),
        ("serving_algorithm", "paged-kv"),
    ]


def test_empty_dir_empty_library(tmp_path):
    assert load_library(tmp_path).entries == ()


def test_duplicate_name_within_layer(tmp_path):
    write_skill(tmp_path, "serving_algorithm", "paged-kv", "one")
    dup = tmp_path / "serving_algorithm" / "paged-kv2"
    dup.mkdir()
    (dup / "SKILL.md").write_text("---\nname: paged-kv\ndescription: two\n---\nbody\n")
    with pytest.raises(DuplicateName):
        load_library(tmp_path)


def test_malformed_frontmatter_reports_path(tmp_path):
    bad = tmp_path / "tooling" / "broken"
    bad.mkdir(parents=True)
    (bad / "SKILL.md").write_text("no frontmatter here\n")
    with pytest.raises(MalformedFrontmatter) as exc:
        load_library(tmp_path)
    assert "broken" in str(exc.value)


def test_missing_description_is_malformed(tmp_path):
    bad = tmp_path / "tooling" / "nameless"
    bad.mkdir(parents=True)
    (bad / "SKILL.md").write_text("---\nname: nameless\n---\nbody\n")
    with pytest.raises(MalformedFrontmatter):
        load_library(tmp_path)


def test_unknown_layer_rejected(tmp_path):
    write_skill(tmp_path, "serving_algorithm", "x", "y")
    stray = tmp_path / "mystery_layer" / "thing"
    stray.mkdir(parents=True)
    (stray / "SKILL.md").write_text("---\nname: thing\ndescription: d\n---\n")
    with pytest.raises(UnknownLayer):
        load_library(tmp_path)


def test_extra_frontmatter_preserved(tmp_path):
    d = tmp_path / "tooling" / "extra"
    d.mkdir(parents=True)
    (d / "SKILL.md").write_text(
        "---\nname: extra\ndescription: d\nversion: 3\nauthor: someone\n---\nbody text\n"
    )
    lib = load_library(tmp_path)
    entry = lib.entries[0]
    assert entry.extra_frontmatter == {"version": 3, "author": "someone"}
    assert entry.body.strip() == "body text"


def test_retrieve_ranks_expected_skill_first(tmp_path):
    write_skill(
        tmp_path, "serving_algorithm", "continuous-batching",
        "admit requests per decode step", body="scheduler state changes"
    )
    write_skill(tmp_path, "serving_algorithm", "paged-kv", "block tables", body="batching mention")
    write_skill(tmp_path, "hardware", "nvidia-gpu", "tuning", body="unrelated")
    lib = load_library(tmp_path)
    top = retrieve(lib, "continuous batching", 3)
    assert top[0].name == "continuous-batching"


def test_retrieve_k_zero_and_no_overlap(tmp_path):
    write_skill(tmp_path, "hardware", "nvidia-gpu", "tuning")
    lib = load_library(tmp_path)
    assert retrieve(lib, "anything", 0) == []
    assert retrieve(lib, "zzz qqq", 5) == []


def test_retrieve_stable_and_prefix_property(tmp_path):
    for i in range(6):
        write_skill(tmp_path, "serving_algorithm", f"skill-{i}", f"cache notes {i}", body="cache")
    lib = load_library(tmp_path)
    full = retrieve(lib, "cache", 6)
    assert retrieve(lib, "cache", 6) == full  # stable
    for k in range(7):
        assert retrieve(lib, "cache", k) == full[:k]  # prefix property


def test_retrieve_tie_break_by_layer_then_name(tmp_path):
    write_skill(tmp_path, "serving_algorithm", "bbb", "cache")
    write_skill(tmp_path, "hardware", "aaa", "cache")
    lib = load_library(tmp_path)
    top = retrieve(lib, "cache", 2)
    assert [e.key for e in top] == [("hardware", "aaa"), ("serving_algorithm", "bbb")]


def test_validate_reports_dangling_links(tmp_path):
    # A library cannot load with a link to a skill it lacks; the error
    # names the linking skill and the missing one.
    write_skill(tmp_path, "reference_engine", "vllm", "paged attention engine")
    write_skill(
        tmp_path, "serving_algorithm", "spec-dec", "draft verify",
        compatibility=["reference_engine/vllm", "reference_engine/ghost-engine"],
    )
    with pytest.raises(SkillsError, match="serving_algorithm/spec-dec links to unknown skill reference_engine/ghost-engine"):
        load_library(tmp_path)


def test_validate_no_links_and_self_link(tmp_path):
    write_skill(tmp_path, "hardware", "plain", "no links")
    write_skill(
        tmp_path, "framework", "selfy", "self reference", compatibility=["framework/selfy"]
    )
    lib = load_library(tmp_path)
    assert [e.compatibility for e in lib.entries] == [(("framework", "selfy"),), ()]


def test_shipped_library_loads_every_layer_and_resolves():
    # Loading checks every compatibility link: 13 bundled skills carry 22.
    lib = load_library(default_library_path())
    assert len(lib.entries) >= 10
    assert {e.layer for e in lib.entries} == {
        "model_architecture", "serving_algorithm", "framework", "backend_library",
        "hardware", "reference_engine", "tooling",
    }
    linked = [e for e in lib.entries if e.compatibility]
    assert (len(linked), sum(len(e.compatibility) for e in linked)) == (13, 22)


# -- frontmatter subset reader ---------------------------------------------

# Inputs the reader accepts; each must read as ``yaml.safe_load`` reads it.
AGREED_FRONTMATTER = [
    "name: x\ndescription: plain words, with commas and a-dash\n",
    "name: x\ndescription: 'a: b # c'\n",
    'name: x\ndescription: "a: b # c"\n',
    "description: 'it''s quoted'\n",
    "description: \"it's double\"\n",
    "description: '  padded  '\n",
    "description: ''\n",
    "description: a#b c:d e::f [g] {h}\n",
    "description: -dash ?query :colon ~tilde\n",
    "description: caf\u00e9 \u2014 \U0001f600\n",
    "version: 3\nzero: 0\nneg: -12\nplus: +7\n",
    "leading_zero: 089\n",
    "t: true\nT: True\nf: FALSE\n",
    "n1: ~\nn2: null\nn3: Null\nn4: NULL\nn5:\n",
    "nul: nULL\nyesish: yess\n",
    "compatibility:\n  - a/b\n  - c/d\n",
    "compatibility:\n- a/b\n- c/d\nafter: 1\n",
    "compatibility:\n    - 'quoted/link'\n    - \"dq/link\"\n    - 5\n    - true\n",
    "compatibility:\n  -\n  - x\n",
    "compatibility:\n",
    "compatibility:\n\n  # a comment\n  - a/b\n\n  - c/d\n",
    "# leading comment\nname: x\n  # indented comment\n\ndescription: d   \n",
    "name: first\nname: second\n",
    "compatibility:\n  - a/b\ncompatibility:\n  - c/d\n",
    "compatibility:\n  - a/b\ncompatibility: none\n",
    "-k: v\nk-: v\n_: v\n",
    "words:   several   spaces  inside  \n",
    "",
    "\n\n# only comments\n",
]

# One input per construct outside the subset.
REFUSED_FRONTMATTER = {
    "tab": "name: x\ndescription:\td\n",
    "next-line break": "description: a\x85b\n",
    "byte-order mark": "\ufeffname: x\n",
    "nested mapping": "meta:\n  author: someone\n",
    "deeper indentation": "compatibility:\n  - a/b\n    - c/d\n",
    "uneven list indentation": "compatibility:\n  - a/b\n - c/d\n",
    "item without a bare key": "name: x\n- a/b\n",
    "document is a list": "- a/b\n",
    "indented key": "  name: x\n",
    "space before colon": "name : x\n",
    "no space after colon": "name:x\n",
    "quoted key": "'name': x\n",
    "flow sequence": "compatibility: [a/b, c/d]\n",
    "flow mapping": "meta: {a: 1}\n",
    "literal block scalar": "description: |\n  text\n",
    "folded block scalar": "description: >\n  text\n",
    "anchor": "description: &anchor d\n",
    "alias": "description: *anchor\n",
    "tag": "description: !!str d\n",
    "directive": "%YAML 1.1\nname: x\n",
    "document marker": "--- x\nname: x\n",
    "multi-line plain scalar": "description: one\n  two\n",
    "multi-line quoted scalar": "description: 'one\n  two'\n",
    "backslash in double quotes": 'description: "a\\nb"\n',
    "text after closing quote": "description: 'a' b\n",
    "trailing comment": "description: d # note\n",
    "colon-space in plain": "description: a: b\n",
    "ends with colon": "description: see:\n",
    "starts with indicator": "description: @handle\n",
    "sequence entry as value": "description: - a\n",
    "YAML 1.1 yes": "flag: yes\n",
    "YAML 1.1 off": "flag: Off\n",
    "float": "ratio: 1.5\n",
    "infinity": "ratio: .inf\n",
    "not a number": "ratio: .NaN\n",
    "hex int": "mask: 0x1f\n",
    "octal int": "mode: 0755\n",
    "binary int": "bits: 0b101\n",
    "underscored int": "count: 1_000\n",
    "sexagesimal int": "duration: 1:30\n",
    "timestamp": "date: 2026-10-19\n",
    "merge key value": "merge: <<\n",
    "value key": "value: =\n",
    "key that reads as an int": "3: three\n",
    "key that reads as a bool": "true: x\n",
    "unclosed flow sequence": "name: [unclosed\ndescription: d\n",
}


def _typed(value):
    """A value with the type of every scalar kept, so True never equals 1."""
    if isinstance(value, dict):
        return {k: _typed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_typed(v) for v in value]
    return (type(value).__name__, value)


@pytest.mark.parametrize("text", AGREED_FRONTMATTER)
def test_reader_agrees_with_safe_load(tmp_path, text):
    yaml = pytest.importorskip("yaml")
    from forgeloop.skills import _read_frontmatter

    assert _typed(_read_frontmatter(tmp_path / "SKILL.md", text)) == _typed(yaml.safe_load(text))


@pytest.mark.parametrize("text", list(REFUSED_FRONTMATTER.values()), ids=list(REFUSED_FRONTMATTER))
def test_reader_refuses_outside_subset(tmp_path, text):
    bad = tmp_path / "tooling" / "broken"
    bad.mkdir(parents=True)
    (bad / "SKILL.md").write_text(f"---\n{text}---\nbody\n", encoding="utf-8")
    with pytest.raises(MalformedFrontmatter, match=r"broken.SKILL\.md: line \d+: ") as exc:
        load_library(tmp_path)
    assert exc.value.path == bad / "SKILL.md"


# Reference for _OUTSIDE: the printable set it is the complement of, as a negated class.
PRINTABLE_COMPLEMENT = re.compile(r"[^\x20-\x7e\xa0-\u2027\u202a-\ud7ff\ue000-\ufefe\uff00-\ufffd\U00010000-\U0010ffff]")


def test_outside_matches_the_negated_printable_class_on_every_code_point():
    from forgeloop.skills import _OUTSIDE

    every = "".join(map(chr, range(0x110000)))
    assert [m.span() for m in _OUTSIDE.finditer(every)] == [
        m.span() for m in PRINTABLE_COMPLEMENT.finditer(every)
    ]


def test_reader_names_the_file_line(tmp_path):
    d = tmp_path / "tooling" / "lined"
    d.mkdir(parents=True)
    (d / "SKILL.md").write_text("---\nname: lined\ndescription: d\nflag: yes\n---\nbody\n")
    with pytest.raises(MalformedFrontmatter, match="line 4: 'yes' is not"):
        load_library(tmp_path)


def test_reader_values_without_pyyaml(tmp_path):
    from forgeloop.skills import _read_frontmatter

    text = (
        "name: x\ndescription: 'a: b'\nversion: -3\nflag: true\nnone: ~\nname: y\n"
        "compatibility:\n- a/b\n-\n"
    )
    assert _read_frontmatter(tmp_path / "SKILL.md", text) == {
        "name": "y",
        "description": "a: b",
        "version": -3,
        "flag": True,
        "none": None,
        "compatibility": ["a/b", None],
    }
    assert _read_frontmatter(tmp_path / "SKILL.md", "# nothing\n") is None


def test_bundled_library_matches_pyyaml():
    yaml = pytest.importorskip("yaml")
    from forgeloop.skills import _read_frontmatter

    paths = sorted(default_library_path().glob("*/*/SKILL.md"))
    assert len(paths) == 13
    for path in paths:
        front = path.read_text(encoding="utf-8").split("\n---\n", 1)[0][4:]
        assert _typed(_read_frontmatter(path, front)) == _typed(yaml.safe_load(front)), path
    entries = load_library(default_library_path()).entries
    assert len(entries) == 13
    by_key = {(p.parent.parent.name, yaml.safe_load(p.read_text().split("\n---\n", 1)[0][4:])["name"]): p
              for p in paths}
    for entry in entries:
        want = yaml.safe_load(by_key[entry.key].read_text().split("\n---\n", 1)[0][4:])
        assert entry.description == want["description"]
        assert [f"{layer}/{name}" for layer, name in entry.compatibility] == want.get("compatibility", [])
        assert dict(entry.extra_frontmatter) == {
            k: v for k, v in want.items() if k not in ("name", "description", "compatibility")
        }


def test_run_path_does_not_load_yaml():
    code = (
        "import sys\n"
        "import forgeloop.cli, forgeloop.runner\n"
        "from forgeloop.skills import default_library_path, load_library\n"
        "assert len(load_library(default_library_path()).entries) == 13\n"
        "assert 'yaml' not in sys.modules, 'yaml was imported'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=Path(__file__).resolve().parent.parent,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_no_module_imports_yaml():
    src = Path(__file__).resolve().parent.parent / "src" / "forgeloop"
    for path in src.rglob("*.py"):
        for line in path.read_text(encoding="utf-8").splitlines():
            assert not re.match(r"\s*(import yaml|from yaml\b)", line), path
