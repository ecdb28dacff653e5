"""Target config loading, validation, and the schema's failure modes."""

import json

import pytest

from forgeloop.contract import (
    MissingField,
    RoundBudget,
    UnknownField,
    load_contract,
    validate_contract,
)

import toy


def test_load_resolves_all_paths_and_fields(tmp_path, toy_contract):
    c = toy_contract
    assert c.name == "toy"
    for p in (c.reference_impl, c.weights, c.checker, c.benchmark):
        assert p.is_absolute()
    assert c.reference_impl.name == "reference.py"
    assert c.checker.name == "checker"
    assert c.benchmark.name == "benchmark"
    assert "argv[1]" in c.instructions
    assert c.probe_prompts == tuple(toy.PROBE_PROMPTS)
    assert c.budgets.max_rounds == 6
    assert c.budgets.retry_budget == 2
    assert c.profiler_commands == ()


def test_load_is_deterministic(tmp_path):
    config = toy.write_target(tmp_path / "t")
    assert load_contract(config) == load_contract(config)


def test_missing_checker_field(tmp_path):
    config = toy.write_target(tmp_path / "t")
    doc = json.loads(config.read_text())
    del doc["checker"]
    config.write_text(json.dumps(doc))
    with pytest.raises(MissingField) as exc:
        load_contract(config)
    assert exc.value.field == "checker"


def test_non_executable_benchmark(tmp_path):
    config = toy.write_target(tmp_path / "t")
    (tmp_path / "t" / "benchmark").chmod(0o644)
    contract = load_contract(config)
    report = validate_contract(contract)
    assert [(v.subject, v.detail) for v in report.violations] == [
        ("benchmark", f"not executable: {contract.benchmark}")
    ]


def test_unknown_keys_rejected(tmp_path):
    config = toy.write_target(tmp_path / "t")
    doc = json.loads(config.read_text())
    doc["surprise"] = 1
    config.write_text(json.dumps(doc))
    with pytest.raises(UnknownField):
        load_contract(config)


def test_default_budgets_when_omitted(tmp_path):
    config = toy.write_target(tmp_path / "t")
    doc = json.loads(config.read_text())
    del doc["budgets"]
    config.write_text(json.dumps(doc))
    c = load_contract(config)
    assert c.budgets == RoundBudget(
        max_rounds=15, retry_budget=3, round_wall_clock_limit_s=3600, agent_timeout_s=900
    )


def test_validate_clean_contract_is_empty(toy_contract):
    assert validate_contract(toy_contract).ok


def test_validate_zero_retry_budget(toy_contract):
    bad = toy_contract._replace(budgets=toy_contract.budgets._replace(retry_budget=0))
    report = validate_contract(bad)
    assert not report.ok
    assert any(v.subject == "RoundBudget" for v in report.violations)
    assert len([v for v in report.violations if v.subject == "RoundBudget"]) == 1


def test_validate_single_probe_prompt(toy_contract):
    bad = toy_contract._replace(probe_prompts=("only one",))
    report = validate_contract(bad)
    assert any(v.subject == "probe_prompts" for v in report.violations)


def test_validate_duplicate_probes_count_as_one(toy_contract):
    bad = toy_contract._replace(probe_prompts=("same", "same"))
    assert not validate_contract(bad).ok


def test_validate_agent_timeout_exceeding_round_limit(toy_contract):
    bad = toy_contract._replace(
        budgets=toy_contract.budgets._replace(agent_timeout_s=7200, round_wall_clock_limit_s=3600)
    )
    report = validate_contract(bad)
    assert any("agent_timeout" in v.detail for v in report.violations)


def test_validate_missing_artifact_reported_as_data(tmp_path, toy_contract):
    bad = toy_contract._replace(checker=tmp_path / "vanished")
    report = validate_contract(bad)
    assert any(v.subject == "checker" and "does not exist" in v.detail for v in report.violations)


def test_validate_missing_weights_reported(tmp_path, toy_contract):
    report = validate_contract(toy_contract._replace(weights=tmp_path / "vanished"))
    assert [(v.subject, v.detail) for v in report.violations] == [
        ("weights", f"path does not exist: {tmp_path / 'vanished'}")
    ]
