"""Command-line entry points: run / report / status / replay / loadgen.

Exit codes for ``run``: 0 when at least one validated checkpoint exists,
2 when the run finished with none, 1 on an environment or configuration
error (diagnostic on stderr). ``FORGELOOP_LEDGER`` overrides the ledger
path for every subcommand.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from forgeloop.contract import load_contract
from forgeloop.errors import ForgeloopError
from forgeloop.ledger import (
    ConsistencyViolation,
    MalformedLedger,
    format_role_report,
    read_ledger,
    replay,
    role_report,
    status_summary,
)


def _ledger_path(args, default: Path | None = None) -> Path | None:
    env = os.environ.get("FORGELOOP_LEDGER")
    if env:
        return Path(env)
    return Path(args.ledger) if args.ledger else default


def _positive_speed(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {raw}") from None
    if value <= 0 or math.isnan(value):
        raise argparse.ArgumentTypeError("speed must be > 0 (use 'inf' for no delays)")
    return value


def cmd_run(args) -> int:
    # Each subcommand imports what only it needs (here the loop's modules),
    # so the read-only ones start fast. Every record is a NamedTuple or a
    # plain class, cheap to define, so this import costs little beyond
    # reading the modules.
    from forgeloop.runner import DEFAULT_TASK, run_target

    try:
        contract = load_contract(args.config)
    except (ForgeloopError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    workspace = Path(args.workspace) if args.workspace else Path.cwd() / f"{contract.name}_workspace"
    ledger = _ledger_path(args, default=workspace / "ledger.jsonl")

    try:
        outcome = run_target(
            contract,
            workspace_root=workspace,
            ledger_path=ledger,
            policy_name=args.policy,
            mode=args.mode,
            stub_scripts=Path(args.stub_scripts) if args.stub_scripts else None,
            harness_cmd=args.harness_cmd,
            task_text=args.task or DEFAULT_TASK,
        )
    except ForgeloopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"run finished: {outcome.rounds_run} rounds, {outcome.checkpoints} checkpoints "
        f"({outcome.stopped_reason})"
    )
    if outcome.best is not None:
        print(
            f"best: {outcome.best.metric:g} {outcome.best.unit} "
            f"at {outcome.best.commit[:12]} (round {outcome.best.round})"
        )
    return 0 if outcome.checkpoints > 0 else 2


def cmd_report(args) -> int:
    try:
        rows = role_report(read_ledger(_ledger_path(args)))
    except (MalformedLedger, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(format_role_report(rows))
    return 0


def cmd_status(args) -> int:
    try:
        summary = status_summary(read_ledger(_ledger_path(args)))
    except (MalformedLedger, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"current round: {summary.current_round if summary.current_round is not None else '-'}")
    if summary.best_commit:
        print(f"best: {summary.best_metric:g} {summary.best_unit} at {summary.best_commit[:12]}")
    else:
        print("best: none")
    print(f"issues: {summary.open_issues} open, {summary.in_progress_issues} in progress")
    if summary.last_failure is not None:
        round_index, status, detail = summary.last_failure
        first_line = detail.split("\n", 1)[0]
        print(f"last failure: round {round_index} {status}: {first_line}")
    if summary.last_event_at is not None:
        print(f"last event at: {summary.last_event_at:.3f}")
    return 0


def cmd_replay(args) -> int:
    try:
        events = read_ledger(_ledger_path(args))
        replay(events, speed=args.speed)
    except (MalformedLedger, OSError, ConsistencyViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_loadgen(args) -> int:
    from forgeloop.gates.loadgen import LoadSpec, gen_poisson_schedule

    try:
        spec = LoadSpec.from_json(json.loads(Path(args.spec).read_text(encoding="utf-8")))
    except (ForgeloopError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for item in gen_poisson_schedule(spec):
        print(json.dumps({"arrival": item.arrival, "prompt_index": item.prompt_index}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="forgeloop")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the loop against a target config")
    run.add_argument("--config", required=True)
    run.add_argument("--policy", choices=("issue_tracker", "evolutionary", "ralph"), default="issue_tracker")
    run.add_argument("--mode", choices=("agent", "stub"), required=True)
    run.add_argument("--stub-scripts", help="directory of stub step scripts (stub mode)")
    run.add_argument("--workspace", help="workspace root (default: ./<name>_workspace)")
    run.add_argument("--ledger", help="ledger path (default: <workspace>/ledger.jsonl)")
    run.add_argument(
        "--harness-cmd",
        help="agent-mode command template with {workspace} {prompt_file} {endpoint} {role}",
    )
    run.add_argument("--task", help="fixed task text for the ralph/evolutionary policies")
    run.set_defaults(func=cmd_run)

    report = sub.add_parser("report", help="per-role call/duration breakdown")
    report.add_argument("--ledger", required=True)
    report.set_defaults(func=cmd_report)

    status = sub.add_parser("status", help="summarize a run ledger")
    status.add_argument("--ledger", required=True)
    status.set_defaults(func=cmd_status)

    rep = sub.add_parser("replay", help="re-emit ledger events with scaled delays")
    rep.add_argument("--ledger", required=True)
    rep.add_argument("--speed", type=_positive_speed, required=True)
    rep.set_defaults(func=cmd_replay)

    loadgen = sub.add_parser("loadgen", help="print the Poisson schedule for a load spec")
    loadgen.add_argument("--spec", required=True, help="LoadSpec JSON file")
    loadgen.set_defaults(func=cmd_loadgen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
