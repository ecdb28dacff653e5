"""Loop-overhead benchmark: forgeloop's loop in stub mode on seeded workloads.

Run from the root of a source checkout:

    python3 overheadbench/run.py --workload long_campaign --seed 1 --seconds 35 --trace 0

One process drives the loop (``run_target`` in-process, rounds one after
another: a closed loop with one client). Agents are the scripted stub and
the target is a tiny shell checker, benchmark and candidate, so nearly all
of a round's time is the loop's own overhead. ``--seconds`` sets the amount
of work, calibrated so the timed part takes about that long on a 2-core
box; a run is never cut by the clock. With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it plays half that work once untraced
and once traced and prints the per-layer metrics. Every run checks the
program's outputs against its seeded plan. The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

All files go to ``.obrun/<pid>/`` under the checkout and are deleted when
the run ends; ``--trace 1`` also leaves a span summary in ``.obtrace/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import plans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "rounds_per_s": "1/s",
    "round_ms_p50": "ms",
    "round_ms_tail": "ms",
    "cpu_ms_per_round": "ms",
    "peak_rss_mb": "MB",
    "cli_ms_p50": "ms",
}
PER_LAYER = {
    "mcp.shutdown_ms": "ms",
    "mcp.serve_ms": "ms",
    "mcp.dispatch_calls_per_round": "count",
    "mcp.dispatch_ms": "ms",
    "workspace.init_ms": "ms",
    "workspace.git_calls_per_round": "count",
    "workspace.git_ms_per_round": "ms",
    "workspace.verify_mounts_ms_per_round": "ms",
    "workspace.commit_checkpoint_ms": "ms",
    "workspace.revert_ms": "ms",
    "workspace.diff_since_ms": "ms",
    "harness.spawns_per_round": "count",
    "harness.invoke_ms_p50.implementer": "ms",
    "harness.invoke_ms_p50.judge": "ms",
    "harness.invoke_ms_p50.evaluator": "ms",
    "innerloop.checker_ms_per_round": "ms",
    "innerloop.scan_ms_per_round": "ms",
    "innerloop.benchmark_ms_per_round": "ms",
    "innerloop.self_ms_per_round": "ms",
    "policy.state_ms_per_round": "ms",
    "skills.load_ms": "ms",
    "skills.retrieve_ms_per_round": "ms",
    "contract.load_ms": "ms",
    "cli.import_ms": "ms",
    "ledger.events_per_round": "count",
    "ledger.bytes_per_round": "B",
    "ledger.append_ms_per_round": "ms",
    "ledger.read_ms": "ms",
    "ledger.report_ms": "ms",
    "ledger.status_ms": "ms",
    "ledger.replay_ms": "ms",
    "round.unattributed_ms": "ms",
    "trace.overhead_pct": "%",
}

# Work per run, calibrated on a 2-core box with an ext4 checkout: a
# short_runs triple (one run_target call per policy) takes about 6 s, a
# 20-round campaign block about 12 s.
SHORT_TRIPLE_S = 6.0
CAMPAIGN_BLOCK_S = 12.0
SETUP_PROBES = 6
CLI_ROTATIONS = 10  # report, status and replay each
CLI_COMMANDS = (("report",), ("status",), ("replay", "--speed", "inf"))
TAIL_BEYOND = 10  # round_ms_tail: the value with exactly this many rounds above it


def workload_plans(name: str, rng: random.Random, seconds: int) -> list[plans.RunPlan]:
    if name == "short_runs":
        runs = 3 * max(2, round(seconds / SHORT_TRIPLE_S))  # >= 18 rounds, so the tail exists
        return [plans.plan_run(rng, plans.POLICIES[k % 3], list(plans.SHORT_RUN_KINDS)) for k in range(runs)]
    if name == "long_campaign":
        blocks = max(1, round(seconds / CAMPAIGN_BLOCK_S))
        return [plans.plan_run(rng, "issue_tracker", plans.campaign_kinds(rng, blocks))]
    raise SystemExit(f"unknown workload: {name}")


WORKLOADS = ("short_runs", "long_campaign")


# -- playing plans in-process -------------------------------------------------


@dataclass
class Played:
    runs: list  # (plan, target_dir, workspace, outcome)
    wall_s: float
    cpu_s: float
    round_ms: list = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return sum(len(p.rounds) for p, *_ in self.runs)


def _cpu() -> float:
    """User plus system CPU of this process and every child it has reaped."""
    own, children = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def play(run_plans: list[plans.RunPlan], base: Path, between=None) -> Played:
    """Write every target and script set, then run them one after another,
    timing each run_target call. ``between(runs)`` runs after each call,
    outside the timed windows."""
    from forgeloop.contract import load_contract
    from forgeloop.runner import run_target

    prepared = []
    for k, plan in enumerate(run_plans):
        target = base / f"run{k}"
        config = plans.write_target(target / "target", len(plan.rounds))
        plans.write_scripts(target / "scripts", plan)
        prepared.append((plan, target, config))
    runs, wall, cpu = [], 0.0, 0.0
    for plan, target, config in prepared:
        ws = target / "ws"
        cpu0, t0 = _cpu(), time.perf_counter()
        outcome = run_target(
            load_contract(config), ws, ws / "ledger.jsonl",
            policy_name=plan.policy, mode="stub", stub_scripts=target / "scripts",
        )
        wall += time.perf_counter() - t0
        cpu += _cpu() - cpu0
        runs.append((plan, target / "target", ws, outcome))
        if between is not None:
            between(runs)
    played = Played(runs=runs, wall_s=wall, cpu_s=cpu)
    for _, _, ws, _ in runs:
        started = {}
        for ev in checks.read_events(ws / "ledger.jsonl"):
            if ev["kind"] == "round_started":
                started[ev["round"]] = ev["timestamp"]
            elif ev["kind"] == "round_finished":
                played.round_ms.append((ev["timestamp"] - started[ev["round"]]) * 1e3)
    return played


def check_played(played: Played) -> tuple[int, list[str]]:
    """Failed rounds (every round of a run whose checks found a problem) and the problems."""
    failed, problems = 0, []
    for plan, target, ws, outcome in played.runs:
        found = (
            checks.check_ledger(checks.read_events(ws / "ledger.jsonl"), plan)
            + checks.check_repo(ws, plan)
            + checks.check_outcome(outcome, plan, ws)
            + checks.check_mounts(ws, target)
        )
        if found:
            failed += len(plan.rounds)
            problems += [f"{ws.parent.name} ({plan.policy}): {p}" for p in found]
    return failed, problems


# -- fresh processes ------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cli(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """``python -m forgeloop.cli ARGV`` from the source tree, timed from outside."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "forgeloop.cli", *argv], env=_env(),
                          capture_output=True, text=True, timeout=120)
    return time.perf_counter() - t0, proc


def setup_probe(config: Path, scripts: Path, ws: Path) -> tuple[float, list[str]]:
    """A fresh ``forgeloop run`` up to its first ``round_started`` event.

    The probe's one round fails its budget (the scripts do nothing), so the
    process exits 2 after the round and the tool-server shutdown."""
    ledger = ws / "ledger.jsonl"
    t0 = time.time()
    _, proc = cli(["run", "--config", str(config), "--policy", "issue_tracker", "--mode", "stub",
                   "--stub-scripts", str(scripts), "--workspace", str(ws), "--ledger", str(ledger)])
    events = checks.read_events(ledger) if ledger.exists() else []
    kinds = [e["kind"] for e in events]
    problems = []
    if proc.returncode != 2 or kinds.count("round_started") != 1 or kinds.count("round_finished") != 1:
        problems.append(f"setup probe: exit {proc.returncode}, events {kinds}: {proc.stderr.strip()[-300:]}")
        return 0.0, problems
    finished = [e for e in events if e["kind"] == "round_finished"][0]
    if finished["payload"]["status"] != "failed_budget":
        problems.append(f"setup probe round ended {finished['payload']['status']}")
    started = [e for e in events if e["kind"] == "round_started"][0]
    return started["timestamp"] - t0, problems


def cli_probe(command: tuple, ledger: Path, plan: plans.RunPlan, ws: Path) -> tuple[float, list[str]]:
    seconds, proc = cli([*command, "--ledger", str(ledger)])
    if proc.returncode != 0:
        return seconds, [f"{command[0]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    if command[0] == "report":
        return seconds, checks.check_report(proc.stdout, plan)
    if command[0] == "status":
        return seconds, checks.check_status(proc.stdout, plan, ws)
    return seconds, checks.check_replay(proc.stdout, ledger)


# -- metrics --------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """The value with TAIL_BEYOND values above it, and its percentile."""
    if len(values) <= TAIL_BEYOND:
        raise SystemExit(f"{len(values)} rounds are too few for a tail with {TAIL_BEYOND} beyond it")
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def in_process_ledger_ms(ledger: Path, repeats: int = 5) -> dict[str, float]:
    """Median in-process cost of reading the ledger and of each CLI analysis."""
    from forgeloop import ledger as fl

    def noop(_line):
        return None

    steps = {
        "ledger.read_ms": lambda events: fl.read_ledger(ledger),
        "ledger.report_ms": lambda events: fl.format_role_report(fl.role_report(events)),
        "ledger.status_ms": lambda events: fl.status_summary(events),
        "ledger.replay_ms": lambda events: fl.replay(events, speed=float("inf"), emit=noop),
    }
    events = fl.read_ledger(ledger)
    out = {}
    for name, step in steps.items():
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            step(events)
            times.append((time.perf_counter() - t0) * 1e3)
        out[name] = statistics.median(times)
    return out


def import_ms(repeats: int = 5) -> float:
    code = "import time; t = time.perf_counter(); import forgeloop.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(proc.stdout) * 1e3)
    return statistics.median(times)


# -- one benchmark run ---------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, attempted: int, failed: int, problems: list) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems += problems


def warm_up(base: Path, rng: random.Random) -> None:
    """Byte-compile the package and run one short plan, so imports, the page
    cache and lazy set-up are warm before anything is timed."""
    compileall.compile_dir(str(SRC / "forgeloop"), quiet=1)
    played = play([plans.plan_run(rng, "issue_tracker", list(plans.SHORT_RUN_KINDS))], base)
    cli(["status", "--ledger", str(played.runs[0][2] / "ledger.jsonl")])


def cli_rotation(run: tuple, tally: Tally) -> list[float]:
    """One ``report``, ``status`` and ``replay`` on a finished run's ledger."""
    plan, _, ws, _ = run
    times = []
    for command in CLI_COMMANDS:
        seconds, problems = cli_probe(command, ws / "ledger.jsonl", plan, ws)
        times.append(seconds)
        tally.add(1, 1 if problems else 0, problems)
    return times


def run_untraced(workload: str, seed: int, seconds: int, scratch: Path) -> tuple[dict, Tally]:
    rng = random.Random(seed)
    run_plans = workload_plans(workload, rng, seconds)
    warm_up(scratch / "warm", random.Random(seed + 1))
    tally = Tally()

    probe_dir = scratch / "probe"
    probe_target = plans.write_target(probe_dir / "target", max_rounds=1, retry_budget=1)
    (probe_dir / "scripts").mkdir()
    setup, cli_times = [], []

    def probe(_run) -> None:
        seconds_to_round, problems = setup_probe(probe_target, probe_dir / "scripts", probe_dir / f"ws{len(setup)}")
        setup.append(seconds_to_round)
        tally.add(1, 1 if problems else 0, problems)

    def cli_calls(run) -> None:
        cli_times.extend(cli_rotation(run, tally))

    # Set-up probes and CLI rotations alternate in the gaps after the
    # run_target calls, outside the timed windows: with many calls, every
    # metric samples the whole run instead of one stretch of it.
    steps = [probe, cli_calls] * SETUP_PROBES + [cli_calls] * (CLI_ROTATIONS - SETUP_PROBES)

    def between(runs) -> None:
        k = len(runs)
        for step in steps[(k - 1) * len(steps) // len(run_plans): k * len(steps) // len(run_plans)]:
            step(runs[-1])

    played = play(run_plans, scratch / "timed", between)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, problems = check_played(played)
    tally.add(played.rounds, failed, problems)
    tail_ms, tail_pct = tail(played.round_ms)
    metrics = {
        "setup_s": statistics.median(setup),
        "rounds_per_s": played.rounds / played.wall_s,
        "round_ms_p50": statistics.median(played.round_ms),
        "round_ms_tail": tail_ms,
        "cpu_ms_per_round": played.cpu_s * 1e3 / played.rounds,
        "peak_rss_mb": peak_rss_mb,
        "cli_ms_p50": statistics.median(cli_times) * 1e3,
    }
    print(f"{workload} seed={seed}: {len(played.runs)} run_target calls, {played.rounds} rounds in "
          f"{played.wall_s:.2f} s; tail = p{tail_pct:.1f}; {len(setup)} set-up probes; "
          f"{len(cli_times)} CLI calls")
    return {name: (value, END_TO_END[name]) for name, value in metrics.items()}, tally


def run_traced(workload: str, seed: int, seconds: int, scratch: Path) -> tuple[dict, Tally]:
    import tracing

    # Half the work, played twice: untraced, then traced.
    rng = random.Random(seed)
    run_plans = workload_plans(workload, rng, max(1, seconds // 2))
    warm_up(scratch / "warm", random.Random(seed + 1))
    tally = Tally()

    untraced = play(run_plans, scratch / "untraced")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = play(run_plans, scratch / "traced")
    finally:
        tracer.uninstall()

    metrics = tracing.per_layer(tracer)
    ledgers = [ws / "ledger.jsonl" for _, _, ws, _ in traced.runs]
    metrics["ledger.bytes_per_round"] = (sum(p.stat().st_size for p in ledgers) / traced.rounds, "B")
    for name, value in in_process_ledger_ms(ledgers[-1]).items():
        metrics[name] = (value, "ms")
    metrics["cli.import_ms"] = (import_ms(), "ms")
    overhead = (untraced.rounds / untraced.wall_s) / (traced.rounds / traced.wall_s) - 1.0
    metrics["trace.overhead_pct"] = (overhead * 100.0, "%")

    cli_rotation(traced.runs[-1], tally)
    for played in (untraced, traced):
        failed, problems = check_played(played)
        tally.add(played.rounds, failed, problems)

    trace_dir = ROOT / ".obtrace"
    trace_dir.mkdir(exist_ok=True)
    summary = {
        "workload": workload, "seed": seed, "rounds": traced.rounds,
        "round_windows_s": [end - start for start, end in tracer.rounds],
        "spans": [[s.layer, s.name, s.key, s.depth, s.round, s.duration, s.self_time] for s in tracer.spans],
    }
    (trace_dir / f"{workload}-seed{seed}.json").write_text(json.dumps(summary), encoding="utf-8")
    print(f"{workload} seed={seed} traced: {traced.rounds} rounds, {len(tracer.spans)} spans, "
          f"untraced {untraced.rounds / untraced.wall_s:.3f} rounds/s, traced "
          f"{traced.rounds / traced.wall_s:.3f} rounds/s")
    return {name: metrics[name] for name in PER_LAYER}, tally


def _prepare(scratch: Path) -> None:
    """Import forgeloop from this checkout's src/ and keep temp files in the checkout."""
    if not (SRC / "forgeloop" / "__init__.py").is_file():
        raise SystemExit(f"error: no forgeloop source tree at {SRC}; run from a source checkout")
    tmp = scratch / "t"
    tmp.mkdir(parents=True)
    # The tool endpoint lives in TMPDIR; keep its socket path under the
    # AF_UNIX length cap, or fall back to the system temp dir.
    if len(str(tmp)) <= 80:
        os.environ["TMPDIR"] = str(tmp)
    sys.path.insert(0, str(SRC))
    import forgeloop

    if Path(forgeloop.__file__).resolve().parent != SRC / "forgeloop":
        raise SystemExit(f"error: imported forgeloop from {forgeloop.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    scratch = ROOT / ".obrun" / str(os.getpid())
    try:
        _prepare(scratch)
        runner = run_traced if args.trace else run_untraced
        metrics, tally = runner(args.workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    for problem in tally.problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.4f} {unit}")
    print(f"  operations: {tally.attempted} attempted, {tally.failed} failed")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
