"""Records: every immutable record is a NamedTuple that behaves like a value,
the self-checking ones reject bad fields, and loading the loop pulls in no
class-generating machinery."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import forgeloop
from forgeloop.harness import HarnessConfig, HarnessError
from forgeloop.innerloop import Violation
from forgeloop.policy import PolicyError, RoundDirective

SRC = Path(forgeloop.__file__).resolve().parent.parent

# Field values for the records whose constructors check their fields; every
# other field gets its default or a placeholder string.
VALID_FIELDS = {
    "Violation": {"kind": "accuracy"},
    "LoadSpec": {"rate": 2.0, "duration": 1.0, "prompt_pool": ("p",)},
}


def _records() -> list[type]:
    found = []
    for info in pkgutil.walk_packages(forgeloop.__path__, "forgeloop."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields") \
                    and obj.__module__ == module.__name__:
                found.append(obj)
    return found


RECORDS = _records()


def _fields(cls) -> dict:
    values = {name: cls._field_defaults.get(name, f"{name}-value") for name in cls._fields}
    return {**values, **VALID_FIELDS.get(cls.__name__, {})}


def test_every_immutable_record_is_found():
    names = {cls.__name__ for cls in RECORDS}
    assert len(RECORDS) >= 34
    assert {"TargetContract", "Checkpoint", "LedgerEvent", "RunOutcome", "Violation", "HarnessConfig",
            "RoundDirective", "MetricReport", "SkillEntry"} <= names


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: f"{cls.__module__}.{cls.__name__}")
def test_record_is_an_immutable_value(cls):
    fields = _fields(cls)
    record = cls(**fields)
    for name in (cls._fields[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, "changed")
    twin = cls(*fields.values())
    assert record == twin
    try:
        hashes = [hash(value) for value in fields.values()]
    except TypeError:
        hashes = None
    if hashes is not None:
        assert hash(record) == hash(twin)
    assert repr(record).startswith(f"{cls.__name__}(")


def test_mutable_defaults_are_read_only_and_unshared():
    from forgeloop.gates.metrics import MetricReport
    from forgeloop.skills import SkillEntry

    report = MetricReport(metric=1.0, unit="s", higher_is_better=False)
    entry = SkillEntry(layer="tooling", name="n", description="d", body="b")
    for mapping in (report.extras, entry.extra_frontmatter):
        assert mapping == {}
        with pytest.raises(TypeError):
            mapping["key"] = "value"


def test_violation_rejects_an_unknown_kind():
    with pytest.raises(ValueError) as caught:
        Violation("bogus", "x")
    assert str(caught.value) == "unknown violation kind: bogus"
    with pytest.raises(ValueError, match="unknown violation kind: bogus"):
        Violation("accuracy", "x")._replace(kind="bogus")


def test_harness_config_rejects_an_empty_template():
    with pytest.raises(HarnessError, match="command_template must be nonempty"):
        HarnessConfig(command_template=())


def test_round_directive_rejects_blank_task_text():
    with pytest.raises(PolicyError, match="directive task_text must be nonempty"):
        RoundDirective(start=None, task_text="  ", pass_criteria=())


def test_loading_the_loop_skips_dataclasses_and_inspect():
    # A child process, because pytest itself has loaded both modules.
    code = ("import sys, forgeloop.cli, forgeloop.runner; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_no_module_imports_dataclasses():
    importing = re.compile(r"^\s*(import|from)\s+dataclasses\b", re.MULTILINE)
    offenders = [str(path.relative_to(SRC)) for path in (SRC / "forgeloop").rglob("*.py")
                 if importing.search(path.read_text(encoding="utf-8"))]
    assert offenders == []
