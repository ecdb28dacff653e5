"""Per-target input contract: the artifacts that parameterize a whole run.

A target is declared by a single JSON config naming the reference
implementation, weights, checker, benchmark, free-text instructions,
held-out probe prompts for the reward-hack scanner, and round budgets.
Relative paths resolve against the config file's directory; unknown keys
are rejected. The records are the schema: a field without a default is
required.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import NamedTuple

from forgeloop.errors import ForgeloopError


class ContractError(ForgeloopError):
    pass


class MissingField(ContractError):
    def __init__(self, name: str):
        super().__init__(f"config missing required field: {name}")
        self.field = name


class UnknownField(ContractError):
    pass


class RoundBudget(NamedTuple):
    max_rounds: int = 15
    retry_budget: int = 3
    round_wall_clock_limit_s: int = 3600
    agent_timeout_s: int = 900

    def violations(self) -> list[str]:
        out = [f"RoundBudget.{name} must be > 0" for name in self._fields if getattr(self, name) <= 0]
        if self.agent_timeout_s > self.round_wall_clock_limit_s:
            out.append("RoundBudget.agent_timeout_s exceeds round_wall_clock_limit_s")
        return out


class TargetContract(NamedTuple):
    name: str
    reference_impl: Path
    weights: Path
    checker: Path
    benchmark: Path
    instructions: str
    probe_prompts: tuple[str, ...] = ()
    budgets: RoundBudget = RoundBudget()
    profiler_commands: tuple[str, ...] = ()


_PATHS = ("reference_impl", "weights", "checker", "benchmark")


class ContractViolation(NamedTuple):
    subject: str  # field or type the violation cites, e.g. "RoundBudget"
    detail: str


class ValidationReport(NamedTuple):
    violations: tuple[ContractViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _integer(key: str, raw: object) -> int:
    """A JSON integer or whole float; not a bool, ``Infinity`` or ``NaN``."""
    whole = isinstance(raw, int) or (isinstance(raw, float) and raw.is_integer())
    if isinstance(raw, bool) or not whole:
        raise ContractError(f"{key} must be an integer, got {json.dumps(raw)}")
    return int(raw)


def load_contract(config_path: str | Path) -> TargetContract:
    """Load a target config, type-checking every value as it comes in; all
    returned paths are absolute and each budget is a JSON integer. A
    missing, unknown or ill-typed key raises a :class:`ContractError` naming
    it. Whether the artifacts exist and run is :func:`validate_contract`'s
    question, which every run asks first. The weights path must exist, but
    no agent, gate or prompt reads it."""
    config_path = Path(config_path).resolve()
    doc = json.loads(config_path.read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ContractError("target config must be a JSON object")
    unknown = set(doc) - set(TargetContract._fields)
    if unknown:
        raise UnknownField(f"unknown config keys: {sorted(unknown)}")
    for key in TargetContract._fields:
        if key not in doc and key not in TargetContract._field_defaults:
            raise MissingField(key)
    for key in ("name", "instructions"):
        if not isinstance(doc[key], str):
            raise ContractError(f"config field {key} must be a string")

    fields = dict(doc)  # name and instructions as given; every other key is replaced below
    for key in _PATHS:
        raw = doc[key]
        if not isinstance(raw, str) or not raw:
            raise ContractError(f"config field {key} must be a nonempty string")
        p = Path(raw)
        fields[key] = p if p.is_absolute() else (config_path.parent / p).resolve()

    budgets_doc = doc.get("budgets", {})
    if not isinstance(budgets_doc, dict):
        raise ContractError("budgets must be a JSON object")
    unknown = set(budgets_doc) - set(RoundBudget._fields)
    if unknown:
        raise UnknownField(f"unknown budget keys: {sorted(unknown)}")
    fields["budgets"] = RoundBudget(**{k: _integer(f"budgets.{k}", v) for k, v in budgets_doc.items()})

    for key in ("probe_prompts", "profiler_commands"):
        value = doc.get(key, [])
        if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
            raise ContractError(f"{key} must be a list of strings")
        fields[key] = tuple(value)
    return TargetContract(**fields)


def validate_contract(c: TargetContract) -> ValidationReport:
    """Collect usability violations as data; an empty report means usable."""
    out: list[ContractViolation] = []
    for role in _PATHS:
        p = getattr(c, role)
        if not p.exists():
            out.append(ContractViolation(role, f"path does not exist: {p}"))
    for role, p in (("checker", c.checker), ("benchmark", c.benchmark)):
        if p.exists() and not os.access(p, os.X_OK):
            out.append(ContractViolation(role, f"not executable: {p}"))
    if len(set(c.probe_prompts)) < 2:
        out.append(
            ContractViolation(
                "probe_prompts",
                "reward-hack scanner needs >= 2 pairwise-distinct probe prompts",
            )
        )
    for detail in c.budgets.violations():
        out.append(ContractViolation("RoundBudget", detail))
    return ValidationReport(violations=tuple(out))
