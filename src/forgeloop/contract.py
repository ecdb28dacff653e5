"""Per-target input contract: the artifacts that parameterize a whole run.

A target is declared by a single JSON config naming the reference
implementation, weights, checker, benchmark, free-text instructions,
held-out probe prompts for the reward-hack scanner, and round budgets.
Relative paths resolve against the config file's directory; unknown keys
are rejected.
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


DEFAULT_MAX_ROUNDS = 15
DEFAULT_RETRY_BUDGET = 3
DEFAULT_ROUND_WALL_CLOCK_S = 3600
DEFAULT_AGENT_TIMEOUT_S = 900


class RoundBudget(NamedTuple):
    max_rounds: int = DEFAULT_MAX_ROUNDS
    retry_budget: int = DEFAULT_RETRY_BUDGET
    round_wall_clock_limit_s: int = DEFAULT_ROUND_WALL_CLOCK_S
    agent_timeout_s: int = DEFAULT_AGENT_TIMEOUT_S

    def violations(self) -> list[str]:
        out = []
        for name in ("max_rounds", "retry_budget", "round_wall_clock_limit_s", "agent_timeout_s"):
            if getattr(self, name) <= 0:
                out.append(f"RoundBudget.{name} must be > 0")
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


class ContractViolation(NamedTuple):
    subject: str  # field or type the violation cites, e.g. "RoundBudget"
    detail: str


class ValidationReport(NamedTuple):
    violations: tuple[ContractViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


_REQUIRED_KEYS = ("name", "reference_impl", "weights", "checker", "benchmark", "instructions")
_OPTIONAL_KEYS = ("probe_prompts", "budgets", "profiler_commands")
_BUDGET_KEYS = ("max_rounds", "retry_budget", "round_wall_clock_limit_s", "agent_timeout_s")


def _require(doc: dict, key: str):
    if key not in doc:
        raise MissingField(key)
    return doc[key]


def load_contract(config_path: str | Path) -> TargetContract:
    """Load and check a target config's schema; all returned paths are
    absolute. Whether the artifacts exist and run is
    :func:`validate_contract`'s question, which every run asks first. The
    weights path must exist, but no agent, gate or prompt reads it.
    """
    config_path = Path(config_path).resolve()
    doc = json.loads(config_path.read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ContractError("target config must be a JSON object")

    unknown = set(doc) - set(_REQUIRED_KEYS) - set(_OPTIONAL_KEYS)
    if unknown:
        raise UnknownField(f"unknown config keys: {sorted(unknown)}")

    base = config_path.parent

    def resolve(key: str) -> Path:
        raw = _require(doc, key)
        if not isinstance(raw, str) or not raw:
            raise ContractError(f"config field {key} must be a nonempty string")
        p = Path(raw)
        return p if p.is_absolute() else (base / p).resolve()

    name = _require(doc, "name")
    instructions = _require(doc, "instructions")
    reference_impl = resolve("reference_impl")
    weights = resolve("weights")
    checker = resolve("checker")
    benchmark = resolve("benchmark")

    budgets_doc = doc.get("budgets", {})
    if not isinstance(budgets_doc, dict):
        raise ContractError("budgets must be a JSON object")
    unknown_budget = set(budgets_doc) - set(_BUDGET_KEYS)
    if unknown_budget:
        raise UnknownField(f"unknown budget keys: {sorted(unknown_budget)}")
    budgets = RoundBudget(
        max_rounds=int(budgets_doc.get("max_rounds", DEFAULT_MAX_ROUNDS)),
        retry_budget=int(budgets_doc.get("retry_budget", DEFAULT_RETRY_BUDGET)),
        round_wall_clock_limit_s=int(
            budgets_doc.get("round_wall_clock_limit_s", DEFAULT_ROUND_WALL_CLOCK_S)
        ),
        agent_timeout_s=int(budgets_doc.get("agent_timeout_s", DEFAULT_AGENT_TIMEOUT_S)),
    )

    probe_prompts = doc.get("probe_prompts", [])
    if not isinstance(probe_prompts, list) or not all(isinstance(p, str) for p in probe_prompts):
        raise ContractError("probe_prompts must be a list of strings")
    profiler_commands = doc.get("profiler_commands", [])
    if not isinstance(profiler_commands, list) or not all(
        isinstance(c, str) for c in profiler_commands
    ):
        raise ContractError("profiler_commands must be a list of strings")

    return TargetContract(
        name=str(name),
        reference_impl=reference_impl,
        weights=weights,
        checker=checker,
        benchmark=benchmark,
        instructions=str(instructions),
        probe_prompts=tuple(probe_prompts),
        budgets=budgets,
        profiler_commands=tuple(profiler_commands),
    )


def validate_contract(c: TargetContract) -> ValidationReport:
    """Collect usability violations as data; an empty report means usable."""
    out: list[ContractViolation] = []
    for role, p in (
        ("reference_impl", c.reference_impl),
        ("weights", c.weights),
        ("checker", c.checker),
        ("benchmark", c.benchmark),
    ):
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
