"""Serving-systems skills library: loading, validation, lexical retrieval.

A library is a directory tree ``<layer>/<skill-name>/SKILL.md``. Each
SKILL.md starts with ``---``-delimited frontmatter carrying ``name``,
``description``, and optionally ``compatibility`` (a list of
``layer/name`` links, each to a skill of the library: ``load_library``
refuses a dangling one); the rest of the file is the markdown body. Layers
are the seven abstraction levels a serving engineer works through.

The frontmatter is read by a small built-in reader for a subset of YAML:
a flat mapping of ``key: value`` lines at column 0 (keys ``[A-Za-z0-9_-]+``),
where a bare ``key:`` may be followed by ``- item`` lines, all at one
indentation. A value is a one-line single-quoted scalar, a double-quoted
scalar without backslashes, or a plain scalar, which reads as null
(``~``, ``null``, empty), a bool (``true``/``false``), a decimal int, or
otherwise a string. Blank lines and ``#`` comment lines are skipped, and a
repeated key keeps its last value. Whatever the reader accepts,
``yaml.safe_load`` reads to the same value; anything else (tabs, nesting,
flow collections, block or multi-line scalars, anchors, aliases, tags,
directives, and plain scalars YAML 1.1 would read as another type, such
as ``yes``, ``1.5`` or ``0x1f``) raises ``MalformedFrontmatter`` with the
file and line.

Retrieval is deterministic lexical scoring, not embeddings: a query term
counts 3 when it matches the entry name, 2 in the description, 1 in the
body; ties break on (layer, name).
"""

from __future__ import annotations

import re
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from forgeloop.errors import ForgeloopError

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


def default_library_path() -> Path:
    """The sample library shipped with the package."""
    return Path(__file__).parent / "data" / "skills"


# -- frontmatter subset reader ---------------------------------------------

# Keys stay under PyYAML's 1024-character limit on a simple key.
_KEY_LINE = re.compile(r"([A-Za-z0-9_-]{1,1000}):(?: +(.*?))? *")
_ITEM_LINE = re.compile(r"( *)-(?: +(.*?))? *")
_SINGLE_QUOTED = re.compile(r"'((?:[^']|'')*)'")
_DOUBLE_QUOTED = re.compile(r'"([^"\\]*)"')
# Outside the subset: C0 and C1 controls (tab and CR too), YAML 1.1's extra
# line breaks (NEL, LS, PS), lone surrogates, the BOM, U+FFFE and U+FFFF. As
# this class, not a negated printable one, it compiles ten times faster.
_OUTSIDE = re.compile(r"[\x00-\x1f\x7f-\x9f\u2028\u2029\ud800-\udfff\ufeff\ufffe\uffff]")
_NULL = re.compile(r"~|null|Null|NULL")
_TRUE = ("true", "True", "TRUE")
_FALSE = ("false", "False", "FALSE")
_INT = re.compile(r"[-+]?(?:0|[1-9][0-9]*)")
# PyYAML's SafeLoader resolvers for plain scalars that read as any type
# but str beyond the null, bool and int forms above: YAML 1.1 bools,
# floats, other ints, merge, timestamps and value.
_OTHER_TYPE = re.compile(
    r"""yes|Yes|YES|no|No|NO|on|On|ON|off|Off|OFF
    |[-+]?(?:[0-9][0-9_]*)\.[0-9_]*(?:[eE][-+][0-9]+)?
    |\.[0-9][0-9_]*(?:[eE][-+][0-9]+)?
    |[-+]?[0-9][0-9_]*(?::[0-5]?[0-9])+\.[0-9_]*
    |[-+]?\.(?:inf|Inf|INF)
    |\.(?:nan|NaN|NAN)
    |[-+]?0b[0-1_]+
    |[-+]?0[0-7_]+
    |[-+]?(?:0|[1-9][0-9_]*)
    |[-+]?0x[0-9a-fA-F_]+
    |[-+]?[1-9][0-9_]*(?::[0-5]?[0-9])+
    |<<|=
    |[0-9][0-9][0-9][0-9]-[0-9][0-9]-[0-9][0-9]
    |[0-9][0-9][0-9][0-9] -[0-9][0-9]? -[0-9][0-9]?
     (?:[Tt]|[ \t]+)[0-9][0-9]?
     :[0-9][0-9] :[0-9][0-9] (?:\.[0-9]*)?
     (?:[ \t]*(?:Z|[-+][0-9][0-9]?(?::[0-9][0-9])?))?""",
    re.X,
)
_INDICATORS = ",[]{}#&*!|>'\"%@`"


def _scalar(text: str) -> object:
    """One nonempty one-line scalar, read as ``yaml.safe_load`` reads it;
    ValueError when it is outside the subset."""
    if text[0] == "'":
        quoted = _SINGLE_QUOTED.fullmatch(text)
        if quoted is None:
            raise ValueError("a single-quoted scalar must close on its line, with nothing after it")
        return quoted.group(1).replace("''", "'")
    if text[0] == '"':
        quoted = _DOUBLE_QUOTED.fullmatch(text)
        if quoted is None:
            raise ValueError("a double-quoted scalar must close on its line, with no backslash")
        return quoted.group(1)
    if text[0] in _INDICATORS or (text[0] in "-?:" and text[1:2] in ("", " ")):
        raise ValueError(f"a plain scalar cannot start with {text[0]!r}")
    if ": " in text or " #" in text or text.endswith(":"):
        raise ValueError("a plain scalar cannot hold ': ' or ' #' or end with ':'; quote it")
    if _NULL.fullmatch(text):
        return None
    if text in _TRUE or text in _FALSE:
        return text in _TRUE
    if _INT.fullmatch(text):
        return int(text)
    if _OTHER_TYPE.fullmatch(text):
        raise ValueError(f"{text!r} is not a string, decimal int, true/false or null; quote it")
    return text


def _read_frontmatter(path: Path, text: str) -> Optional[dict]:
    """The frontmatter mapping, or None when it holds no key; the first file
    line of ``text`` is line 2 of the file."""
    front: Optional[dict] = None
    list_key = None  # the bare key whose ``- item`` lines may follow
    item_indent = None
    for lineno, line in enumerate(text.split("\n"), start=2):
        try:
            bad = _OUTSIDE.search(line)
            if bad:
                raise ValueError(f"character {bad.group()!r} is outside the frontmatter subset")
            stripped = line.lstrip(" ")
            if not stripped or stripped[0] == "#":
                continue
            key_line = _KEY_LINE.fullmatch(line)
            if key_line:
                key = _scalar(key_line.group(1))
                if not isinstance(key, str):
                    raise ValueError(f"key {key_line.group(1)!r} does not read as a string")
                if front is None:
                    front = {}
                value = key_line.group(2)
                front[key] = _scalar(value) if value else None
                list_key = None if value else key
                item_indent = None
                continue
            item = _ITEM_LINE.fullmatch(line)
            if item is None or list_key is None or item_indent not in (None, len(item.group(1))):
                raise ValueError("expected 'key: value' or 'key:' at column 0, or a '- item' of a bare key")
            item_indent = len(item.group(1))
            if front[list_key] is None:
                front[list_key] = []
            front[list_key].append(_scalar(item.group(2)) if item.group(2) else None)
        except ValueError as exc:
            raise MalformedFrontmatter(path, f"line {lineno}: {exc}") from None
    return front


def _parse_skill_md(path: Path, layer: str) -> SkillEntry:
    text = path.read_text(encoding="utf-8")
    if not text.startswith("---\n"):
        raise MalformedFrontmatter(path, "missing opening '---' frontmatter delimiter")
    end = text.find("\n---\n", 4)
    if end < 0:
        raise MalformedFrontmatter(path, "missing closing '---' frontmatter delimiter")
    front = _read_frontmatter(path, text[4:end])
    body = text[end + 5 :].lstrip("\n")
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
    """Load every ``<layer>/<name>/SKILL.md`` under ``directory``, sorted; a
    compatibility link to a skill the library lacks raises ``SkillsError``."""
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
    for entry in entries:
        for target in entry.compatibility:
            if target not in seen:
                raise SkillsError(f"skill {'/'.join(entry.key)} links to unknown skill {'/'.join(target)}")
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

