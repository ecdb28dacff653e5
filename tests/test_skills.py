"""Skills library: loader, lexical retrieval, link validation."""

import pytest

from forgeloop.skills import (
    DuplicateName,
    MalformedFrontmatter,
    UnknownLayer,
    default_library_path,
    load_library,
    retrieve,
    validate_library,
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
    write_skill(
        tmp_path, "serving_algorithm", "spec-dec", "draft verify",
        compatibility=["reference_engine/ghost-engine"],
    )
    lib = load_library(tmp_path)
    dangling = validate_library(lib)
    assert len(dangling) == 1
    assert dangling[0].source == ("serving_algorithm", "spec-dec")
    assert dangling[0].target == ("reference_engine", "ghost-engine")


def test_validate_no_links_and_self_link(tmp_path):
    write_skill(tmp_path, "hardware", "plain", "no links")
    write_skill(
        tmp_path, "framework", "selfy", "self reference", compatibility=["framework/selfy"]
    )
    lib = load_library(tmp_path)
    assert validate_library(lib) == []


def test_shipped_library_loads_every_layer_and_resolves():
    lib = load_library(default_library_path())
    assert len(lib.entries) >= 10
    assert {e.layer for e in lib.entries} == {
        "model_architecture", "serving_algorithm", "framework", "backend_library",
        "hardware", "reference_engine", "tooling",
    }
    assert validate_library(lib) == []


def test_front_matter_loaders_agree(monkeypatch, tmp_path):
    # libyaml's loader is used when PyYAML has it; the pure-Python one is the
    # fallback. Both give the same library and the same malformed-YAML error.
    import yaml

    from forgeloop import skills

    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    assert skills._FRONTMATTER_LOADER is yaml.CSafeLoader
    bad = tmp_path / "tooling" / "broken"
    bad.mkdir(parents=True)
    (bad / "SKILL.md").write_text("---\nname: [unclosed\ndescription: d\n---\nbody\n")
    libraries = []
    for loader in (yaml.CSafeLoader, yaml.SafeLoader):
        monkeypatch.setattr(skills, "_FRONTMATTER_LOADER", loader)
        libraries.append(load_library(default_library_path()).entries)
        with pytest.raises(MalformedFrontmatter, match="not valid YAML"):
            load_library(tmp_path)
    assert len(libraries[0]) == 13
    assert libraries[0] == libraries[1]
