"""Serving-systems skills library: loading, validation, lexical retrieval.

A library is a directory tree ``<layer>/<skill-name>/SKILL.md``. Each
SKILL.md starts with ``---``-delimited frontmatter carrying ``name``,
``description``, and optionally ``compatibility`` (a list of
``layer/name`` links); the rest of the file is the markdown body. Layers
are the seven abstraction levels a serving engineer works through.

Retrieval is deterministic lexical scoring, not embeddings: a query term
counts 3 when it matches the entry name, 2 in the description, 1 in the
body; ties break on (layer, name).
"""

from __future__ import annotations

from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple

import yaml

from forgeloop.errors import ForgeloopError

# libyaml's loader reads the bundled library's front matter in about a
# quarter of the pure-Python loader's time; both build the same safe types.
_FRONTMATTER_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

LAYERS = (
    "model_architecture",
    "serving_algorithm",
    "framework",
    "backend_library",
    "hardware",
    "reference_engine",
    "tooling",
)


class SkillsError(ForgeloopError):
    pass


class MalformedFrontmatter(SkillsError):
    def __init__(self, path: Path, detail: str):
        super().__init__(f"{path}: {detail}")
        self.path = path


class DuplicateName(SkillsError):
    pass


class UnknownLayer(SkillsError):
    pass


class SkillEntry(NamedTuple):
    layer: str
    name: str
    description: str
    body: str
    compatibility: tuple[tuple[str, str], ...] = ()
    extra_frontmatter: Mapping = MappingProxyType({})  # read-only: no shared mutable default

    @property
    def key(self) -> tuple[str, str]:
        return (self.layer, self.name)


class SkillLibrary(NamedTuple):
    entries: tuple[SkillEntry, ...]

    def get(self, layer: str, name: str) -> SkillEntry | None:
        for e in self.entries:
            if e.key == (layer, name):
                return e
        return None


class DanglingLink(NamedTuple):
    source: tuple[str, str]
    target: tuple[str, str]


def default_library_path() -> Path:
    """The sample library shipped with the package."""
    return Path(__file__).parent / "data" / "skills"


def _parse_skill_md(path: Path, layer: str) -> SkillEntry:
    text = path.read_text(encoding="utf-8")
    if not text.startswith("---\n"):
        raise MalformedFrontmatter(path, "missing opening '---' frontmatter delimiter")
    end = text.find("\n---\n", 4)
    if end < 0:
        raise MalformedFrontmatter(path, "missing closing '---' frontmatter delimiter")
    raw_front = text[4:end + 1]
    body = text[end + 5 :].lstrip("\n")
    try:
        front = yaml.load(raw_front, Loader=_FRONTMATTER_LOADER)
    except yaml.YAMLError as exc:
        raise MalformedFrontmatter(path, f"frontmatter is not valid YAML: {exc}") from None
    if not isinstance(front, dict):
        raise MalformedFrontmatter(path, "frontmatter must be a mapping")
    for key in ("name", "description"):
        if key not in front or not isinstance(front[key], str) or not front[key]:
            raise MalformedFrontmatter(path, f"frontmatter needs a nonempty '{key}'")
    compat = []
    raw_compat = front.get("compatibility", [])
    if raw_compat is None:
        raw_compat = []
    if not isinstance(raw_compat, list):
        raise MalformedFrontmatter(path, "compatibility must be a list of 'layer/name' strings")
    for link in raw_compat:
        if not isinstance(link, str) or "/" not in link:
            raise MalformedFrontmatter(path, f"bad compatibility link: {link!r}")
        link_layer, link_name = link.split("/", 1)
        compat.append((link_layer, link_name))
    extra = {k: v for k, v in front.items() if k not in ("name", "description", "compatibility")}
    return SkillEntry(
        layer=layer,
        name=front["name"],
        description=front["description"],
        body=body,
        compatibility=tuple(compat),
        extra_frontmatter=extra,
    )


def load_library(directory: str | Path) -> SkillLibrary:
    """Load every ``<layer>/<name>/SKILL.md`` under ``directory``, sorted."""
    directory = Path(directory)
    if not directory.is_dir():
        raise SkillsError(f"skills directory does not exist: {directory}")
    entries: list[SkillEntry] = []
    seen: set[tuple[str, str]] = set()
    for layer_dir in sorted(p for p in directory.iterdir() if p.is_dir()):
        layer = layer_dir.name
        if layer not in LAYERS:
            raise UnknownLayer(f"{layer_dir} is not one of the skill layers {LAYERS}")
        for skill_dir in sorted(p for p in layer_dir.iterdir() if p.is_dir()):
            md = skill_dir / "SKILL.md"
            if not md.is_file():
                continue
            entry = _parse_skill_md(md, layer)
            if entry.key in seen:
                raise DuplicateName(f"duplicate skill {entry.name!r} under layer {layer}")
            seen.add(entry.key)
            entries.append(entry)
    entries.sort(key=lambda e: e.key)
    return SkillLibrary(entries=tuple(entries))


def _tokens(text: str) -> set[str]:
    out = set()
    word = []
    for ch in text.lower():
        if ch.isalnum():
            word.append(ch)
        elif word:
            out.add("".join(word))
            word = []
    if word:
        out.add("".join(word))
    return out


def retrieve(lib: SkillLibrary, query: str, k: int) -> list[SkillEntry]:
    """Top-k entries by lexical score; zero-score entries never returned."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return []
    terms = _tokens(query)
    scored = []
    for entry in lib.entries:
        name_toks = _tokens(entry.name)
        desc_toks = _tokens(entry.description)
        body_toks = _tokens(entry.body)
        score = sum(
            3 * (t in name_toks) + 2 * (t in desc_toks) + 1 * (t in body_toks) for t in terms
        )
        if score > 0:
            scored.append((score, entry))
    scored.sort(key=lambda pair: (-pair[0], pair[1].key))
    return [entry for _, entry in scored[:k]]


def validate_library(lib: SkillLibrary) -> list[DanglingLink]:
    """Report compatibility links that do not resolve to a library entry."""
    keys = {e.key for e in lib.entries}
    dangling = []
    for entry in lib.entries:
        for target in entry.compatibility:
            if target not in keys:
                dangling.append(DanglingLink(source=entry.key, target=target))
    return dangling
