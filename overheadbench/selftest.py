"""Self-test of the benchmark: do its checks catch what they claim to catch?

Run from the root of a source checkout (takes about a minute):

    python3 overheadbench/selftest.py

It plays one short plan with every round kind, confirms every check passes
on it, then hands each check a wrong expectation or a corrupted ledger,
repository or CLI output and confirms the check reports a problem. It also
confirms that the tracer restores every attribute it patches, and that
``BENCHMARK.json`` names exactly the workloads and metrics the benchmark
prints. Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import stat
import subprocess
import sys

import checks
import plans
import run
import tracing

KINDS = [plans.IMPROVE, plans.REGRESS, plans.RETRY, plans.FAIL, plans.TAMPER, plans.IMPROVE]


class Results:
    def __init__(self):
        self.failures = 0

    def expect(self, label: str, ok: bool, detail="") -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {label}" + (f": {detail}" if detail and not ok else ""))
        self.failures += not ok

    def caught(self, label: str, problems: list) -> None:
        self.expect(f"catches {label}", bool(problems), "the check reported nothing")


def with_round(plan: plans.RunPlan, index: int, **changes) -> plans.RunPlan:
    rounds = list(plan.rounds)
    rounds[index] = dataclasses.replace(rounds[index], **changes)
    return dataclasses.replace(plan, rounds=tuple(rounds))


def snapshot() -> dict:
    """Every attribute of every forgeloop module and of the classes they define."""
    state = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("forgeloop"):
            continue
        for attr, value in vars(module).items():
            state[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    state[(name, attr, cattr)] = cvalue
    return state


def mutations(res: Results, plan: plans.RunPlan, played: run.Played) -> None:
    _, target, ws, outcome = played.runs[0]
    ledger = ws / "ledger.jsonl"
    events = checks.read_events(ledger)
    fail_round = KINDS.index(plans.FAIL)
    regress_round = KINDS.index(plans.REGRESS)
    last = len(KINDS) - 1

    res.expect("all checks pass on the played plan", not (
        checks.check_ledger(events, plan) + checks.check_repo(ws, plan)
        + checks.check_outcome(outcome, plan, ws) + checks.check_mounts(ws, target)),
        run.check_played(played)[1])

    # wrong expectations
    res.caught("a wrong round status", checks.check_ledger(events, with_round(plan, fail_round, kind=plans.TAMPER)))
    res.caught("wrong invocation counts", checks.check_ledger(events, with_round(plan, 2, kind=plans.IMPROVE)))
    res.caught("a wrong planted metric (ledger)", checks.check_ledger(events, with_round(plan, 0, metric=1.5)))
    res.caught("a wrong planted metric (trailers)", checks.check_repo(ws, with_round(plan, 0, metric=1.5)))
    res.caught("a wrong HEAD after a round", checks.check_repo(ws, with_round(plan, fail_round, head_after=None)))
    res.caught("a wrong candidate at HEAD", checks.check_repo(ws, with_round(plan, last, candidate_after="x\n")))
    res.caught("a wrong best checkpoint",
               checks.check_outcome(outcome, with_round(plan, last, metric=plan.rounds[last].metric / 2), ws))
    res.caught("a wrong run length", checks.check_outcome(outcome, dataclasses.replace(plan, rounds=plan.rounds[:-1]), ws))

    # corrupted ledgers
    def renumber(evs):
        return [dict(ev, seq=k) for k, ev in enumerate(evs, start=1)]

    res.caught("a seq gap", checks.check_ledger(events[:3] + events[4:], plan))
    started = next(k for k, ev in enumerate(events) if ev["kind"] == "round_started" and ev["round"] == 1)
    res.caught("a duplicated round_started", checks.check_ledger(renumber(events[:started + 1] + events[started:]), plan))
    finished = next(k for k, ev in enumerate(events) if ev["kind"] == "round_finished" and ev["round"] == 0)
    res.caught("a missing round_finished", checks.check_ledger(renumber(events[:finished] + events[finished + 1:]), plan))
    checkpoint = next(k for k, ev in enumerate(events) if ev["kind"] == "checkpoint")
    verdict = max(k for k in range(checkpoint) if events[k]["kind"] == "verdict")
    moved = events[:verdict] + [events[checkpoint]] + events[verdict:checkpoint] + events[checkpoint + 1:]
    res.caught("a checkpoint before its passed verdict", checks.check_ledger(renumber(moved), plan))
    evaluator = next(k for k, ev in enumerate(events)
                     if ev["kind"] == "invocation" and ev["payload"]["role"] == "Evaluator")
    moved = events[:verdict] + [events[evaluator]] + events[verdict:evaluator] + events[evaluator + 1:]
    res.caught("an Evaluator turn before its passed verdict", checks.check_ledger(renumber(moved), plan))
    flipped = [dict(ev, payload=dict(ev["payload"], status="validated")) if ev is events[finished] else ev
               for ev in events]
    res.caught("a wrong status in the ledger", checks.check_ledger(flipped, with_round(plan, 0, kind=plans.FAIL)))

    # CLI output
    _, report = run.cli(["report", "--ledger", str(ledger)])
    _, status = run.cli(["status", "--ledger", str(ledger)])
    _, replay = run.cli(["replay", "--ledger", str(ledger), "--speed", "inf"])
    res.expect("report, status and replay pass", not (
        checks.check_report(report.stdout, plan) + checks.check_status(status.stdout, plan, ws)
        + checks.check_replay(replay.stdout, ledger)))
    res.caught("wrong report call counts", checks.check_report(report.stdout, with_round(plan, 0, kind=plans.RETRY)))
    res.caught("a wrong status best metric", checks.check_status(status.stdout, with_round(plan, last, metric=1e4), ws))
    res.caught("a replay that drops an event", checks.check_replay("\n".join(replay.stdout.splitlines()[1:]), ledger))
    lines = replay.stdout.splitlines()
    res.caught("a replay out of order", checks.check_replay("\n".join(lines[1:2] + lines[:1] + lines[2:]), ledger))

    # corrupted repository and mounts (last: they change the workspace)
    subprocess.run(["git", "tag", "-d", f"round-{regress_round}"], cwd=ws, capture_output=True, check=True)
    res.caught("a missing round tag", checks.check_repo(ws, plan))
    mounted = ws / "artifacts" / "checker"
    mounted.chmod(mounted.stat().st_mode | stat.S_IWUSR)
    mounted.write_text(mounted.read_text() + "# edited\n")
    res.caught("a mounted artifact that no longer hashes to its source", checks.check_mounts(ws, target))


def tracer_restores(res: Results, scratch) -> None:
    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = snapshot()
        changed = [key for key in before if patched.get(key) is not before[key]]
        res.expect("tracer patches the layers' functions", len(changed) >= 40, f"{len(changed)} patched")
        played = run.play([plans.plan_run(random.Random(3), "issue_tracker", list(plans.SHORT_RUN_KINDS))],
                          scratch / "traced")
    finally:
        tracer.uninstall()
    after = snapshot()
    differing = [key for key in before if after.get(key) is not before[key]]
    res.expect("tracer restores every attribute it patched", not differing, str(differing[:5]))
    res.expect("traced run still passes its checks", not run.check_played(played)[1])
    layers = {s.layer for s in tracer.spans}
    want = {"contract", "skills", "workspace", "harness", "mcp", "policy", "innerloop", "ledger", "subprocess"}
    res.expect("spans cover every traced layer", want <= layers, str(sorted(want - layers)))
    groups = {s.key for s in tracer.select("subprocess")}
    res.expect("subprocess groups include git, agent, checker, benchmark, probe",
               {"git", "agent", "checker", "benchmark", "probe"} <= groups, str(sorted(groups)))


def benchmark_json_matches(res: Results, scratch) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    res.expect("BENCHMARK.json workloads are the benchmark's",
               [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS))
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed_e2e, _ = run.run_untraced("long_campaign", 5, 1, scratch / "untraced")
    printed_layer, _ = run.run_traced("short_runs", 5, 1, scratch / "traced")
    res.expect("end-to-end metrics printed = declared",
               {k: u for k, (_, u) in printed_e2e.items()} == declared_e2e,
               f"{sorted(set(printed_e2e) ^ set(declared_e2e))}")
    res.expect("per-layer metrics printed = declared",
               {k: u for k, (_, u) in printed_layer.items()} == declared_layer,
               f"{sorted(set(printed_layer) ^ set(declared_layer))}")


def main() -> int:
    scratch = run.ROOT / ".obrun" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    res = Results()
    try:
        run._prepare(scratch)
        plan = plans.plan_run(random.Random(7), "issue_tracker", KINDS)
        played = run.play([plan], scratch / "played")
        mutations(res, plan, played)
        tracer_restores(res, scratch / "tracer")
        benchmark_json_matches(res, scratch / "spec")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    print(f"self-test: {res.failures} failure(s)")
    return 1 if res.failures else 0


if __name__ == "__main__":
    sys.exit(main())
