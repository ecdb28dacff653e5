"""CLI surface: subcommands, exit codes, env overrides."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from forgeloop.cli import main

import toy


def run_cli(argv):
    return main(argv)


@pytest.fixture
def success_run(tmp_path):
    config = toy.write_target(tmp_path / "target", max_rounds=1, retry_budget=1, ref_delay=0.0)
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    toy.write_script(
        scripts / "implementer_r0_a1.jsonl",
        [{"step": "apply_patch", "patch": toy.new_file_diff("candidate/run", toy.candidate_source(0.0))}],
    )
    ledger = tmp_path / "ledger.jsonl"
    code = run_cli(
        [
            "run",
            "--config", str(config),
            "--policy", "issue_tracker",
            "--mode", "stub",
            "--stub-scripts", str(scripts),
            "--workspace", str(tmp_path / "ws"),
            "--ledger", str(ledger),
        ]
    )
    return code, ledger


def test_run_success_exit_zero(success_run):
    code, ledger = success_run
    assert code == 0
    assert ledger.exists()


def test_run_all_failing_exit_two(tmp_path):
    config = toy.write_target(tmp_path / "target", max_rounds=1, retry_budget=1, ref_delay=0.0)
    scripts = tmp_path / "scripts"
    scripts.mkdir()  # no scripts: nothing ever builds
    code = run_cli(
        [
            "run",
            "--config", str(config),
            "--mode", "stub",
            "--stub-scripts", str(scripts),
            "--workspace", str(tmp_path / "ws"),
            "--ledger", str(tmp_path / "ledger.jsonl"),
        ]
    )
    assert code == 2


def test_run_missing_benchmark_exit_one(tmp_path, capsys):
    config = toy.write_target(tmp_path / "target")
    doc = json.loads(config.read_text())
    doc["benchmark"] = "gone"
    config.write_text(json.dumps(doc))
    code = run_cli(
        ["run", "--config", str(config), "--mode", "stub", "--stub-scripts", str(tmp_path)]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_report_and_status_over_run_ledger(success_run, capsys):
    _, ledger = success_run
    assert run_cli(["report", "--ledger", str(ledger)]) == 0
    out = capsys.readouterr().out
    assert "Implementer" in out and "Judge" in out and "Evaluator" in out
    assert run_cli(["status", "--ledger", str(ledger)]) == 0
    out = capsys.readouterr().out
    assert "current round: 0" in out
    assert "best:" in out


# Reports the metric the candidate declares in candidate/metric.
PLANTED_BENCHMARK = (
    "#!/usr/bin/env python3\n"
    "import json, sys\n"
    "from pathlib import Path\n"
    "metric = float((Path(sys.argv[1]) / 'metric').read_text())\n"
    "print(json.dumps({'metric': metric, 'unit': 'tok_per_s', 'higher_is_better': True}))\n"
)


def test_status_names_the_checkpoint_the_loop_kept(tmp_path, capsys):
    # Round 1 gains 0.3 %, inside the 0.5 % noise floor, so the loop reverts
    # to round 0; status must name round 0, not the higher reverted round.
    config = toy.write_target(tmp_path / "target", max_rounds=2, retry_budget=1, ref_delay=0.0)
    (tmp_path / "target" / "benchmark").write_text(PLANTED_BENCHMARK)
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    toy.write_script(
        scripts / "implementer_r0_a1.jsonl",
        [
            {"step": "apply_patch", "patch": toy.new_file_diff("candidate/run", toy.candidate_source(0.0))},
            {"step": "apply_patch", "patch": toy.new_file_diff("candidate/metric", "100.0\n", mode="100644")},
        ],
    )
    toy.write_script(
        scripts / "implementer_r1_a1.jsonl",
        [{"step": "apply_patch", "patch": toy.modify_diff("candidate/metric", "100.0\n", "100.3\n")}],
    )
    ws, ledger = tmp_path / "ws", tmp_path / "ledger.jsonl"
    code = run_cli(
        [
            "run",
            "--config", str(config),
            "--policy", "ralph",
            "--mode", "stub",
            "--stub-scripts", str(scripts),
            "--workspace", str(ws),
            "--ledger", str(ledger),
        ]
    )
    assert code == 0
    round0 = subprocess.run(
        ["git", "-C", str(ws), "rev-parse", "round-0^{commit}"], capture_output=True, text=True, check=True
    ).stdout.strip()
    capsys.readouterr()
    assert run_cli(["status", "--ledger", str(ledger)]) == 0
    best = [line for line in capsys.readouterr().out.splitlines() if line.startswith("best:")]
    assert best == [f"best: 100 tok_per_s at {round0[:12]}"]


def test_status_shows_the_last_failure(tmp_path, capsys):
    config = toy.write_target(tmp_path / "target", max_rounds=1, retry_budget=1, ref_delay=0.0)
    (tmp_path / "target" / "benchmark").write_text("#!/bin/sh\necho 'GPU OOM in kernel foo' >&2\nexit 7\n")
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    toy.write_script(
        scripts / "implementer_r0_a1.jsonl",
        [{"step": "apply_patch", "patch": toy.new_file_diff("candidate/run", toy.candidate_source(0.0))}],
    )
    ledger = tmp_path / "ledger.jsonl"
    argv = ["run", "--config", str(config), "--mode", "stub", "--stub-scripts", str(scripts)]
    assert run_cli(argv + ["--workspace", str(tmp_path / "ws"), "--ledger", str(ledger)]) == 2
    capsys.readouterr()
    assert run_cli(["status", "--ledger", str(ledger)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "last failure: round 0 error: benchmark exited 7: GPU OOM in kernel foo" in lines
    assert "best: none" in lines


def test_replay_valid_ledger_exit_zero(success_run, capsys):
    _, ledger = success_run
    assert run_cli(["replay", "--ledger", str(ledger), "--speed", "inf"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(json.loads(line)["seq"] == i + 1 for i, line in enumerate(lines))


def test_replay_speed_zero_rejected(success_run):
    _, ledger = success_run
    with pytest.raises(SystemExit) as exc:
        run_cli(["replay", "--ledger", str(ledger), "--speed", "0"])
    assert exc.value.code == 2  # argparse flag rejection


def test_replay_inconsistent_ledger_fails(tmp_path, capsys):
    from forgeloop.ledger import LedgerWriter

    path = tmp_path / "bad.jsonl"
    with LedgerWriter(path) as writer:
        writer.append("round_started", 0, {})
        writer.append("checkpoint", 0, {"commit": "x", "metric": 1.0})
    assert run_cli(["replay", "--ledger", str(path), "--speed", "inf"]) == 1
    assert "checkpoint before passed verdict" in capsys.readouterr().err


def test_malformed_ledger_reports_error(tmp_path, capsys):
    path = tmp_path / "broken.jsonl"
    path.write_text("this is not json\n")
    assert run_cli(["status", "--ledger", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_ledger_env_override(success_run, tmp_path, monkeypatch, capsys):
    _, ledger = success_run
    monkeypatch.setenv("FORGELOOP_LEDGER", str(ledger))
    assert run_cli(["status", "--ledger", str(tmp_path / "ignored.jsonl")]) == 0
    assert "current round" in capsys.readouterr().out


def test_run_accepts_relative_paths(tmp_path, monkeypatch):
    # Stub subprocesses run with cwd inside the workspace; relative script
    # directories must still resolve.
    monkeypatch.chdir(tmp_path)
    config = toy.write_target(tmp_path / "target", max_rounds=1, retry_budget=1, ref_delay=0.0)
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    toy.write_script(
        scripts / "implementer_r0_a1.jsonl",
        [{"step": "apply_patch", "patch": toy.new_file_diff("candidate/run", toy.candidate_source(0.0))}],
    )
    code = run_cli(
        [
            "run",
            "--config", "target/target.json",
            "--mode", "stub",
            "--stub-scripts", "scripts",
            "--workspace", "ws",
            "--ledger", "ws/ledger.jsonl",
        ]
    )
    assert code == 0


def test_loadgen_prints_deterministic_schedule(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {"rate": 8, "duration": 2.0, "seed": 42, "max_tokens": 128, "prompt_pool": ["a", "b"]}
        )
    )
    assert run_cli(["loadgen", "--spec", str(spec)]) == 0
    first = capsys.readouterr().out
    assert run_cli(["loadgen", "--spec", str(spec)]) == 0
    second = capsys.readouterr().out
    assert first == second
    rows = [json.loads(line) for line in first.strip().splitlines()]
    assert all(0 < r["arrival"] < 2.0 for r in rows)


def test_read_only_subcommands_stay_light(tmp_path):
    # status/report/replay need only the ledger: numpy (image gate), the
    # skills' yaml, jsonschema and the runner stay unloaded, and the policy
    # module does not pull numpy in through the gates package.
    from forgeloop.ledger import LedgerWriter

    ledger = tmp_path / "ledger.jsonl"
    with LedgerWriter(ledger) as writer:
        writer.append("round_started", 0, {})
    code = (
        "import sys\n"
        "from forgeloop.cli import main\n"
        f"assert main(['status', '--ledger', {str(ledger)!r}]) == 0\n"
        "heavy = [m for m in ('numpy', 'jsonschema', 'yaml', 'forgeloop.runner') if m in sys.modules]\n"
        "assert not heavy, heavy\n"
        "import forgeloop.policy\n"
        "assert 'numpy' not in sys.modules\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "current round: 0" in proc.stdout
