"""Correctness checks of one finished run against its plan.

Every check returns a list of problems (empty = pass). The checks read the
ledger, the git repository and the CLI output with their own code, and
compare them with the plan and with properties of the method; none compares
against saved output of an earlier run, and none calls forgeloop.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from pathlib import Path

from plans import ARTIFACTS, REGRESS, UNIT, RunPlan


def read_events(ledger: Path) -> list[dict]:
    return [json.loads(line) for line in ledger.read_text(encoding="utf-8").splitlines() if line.strip()]


def check_ledger(events: list[dict], plan: RunPlan) -> list[str]:
    """Contiguous seqs; exactly one round_started/round_finished per planned
    round and nothing outside them; planned statuses and per-role counts; a
    checkpoint or Evaluator turn only after a passed verdict in its round."""
    problems = []
    for expected, ev in enumerate(events, start=1):
        if ev.get("seq") != expected:
            problems.append(f"seq {ev.get('seq')} where {expected} was due")
            break
    open_round = None
    next_round = 0
    per_round: dict[int, dict] = {}
    for ev in events:
        kind, r, payload = ev["kind"], ev["round"], ev["payload"]
        if kind == "round_started":
            if open_round is not None or r != next_round:
                problems.append(f"round_started for round {r} while round {open_round} open, {next_round} due")
            open_round, next_round = r, r + 1
            per_round[r] = {"Implementer": 0, "Judge": 0, "Evaluator": 0, "checkpoint": 0,
                            "revert": 0, "passed": False, "status": None, "metrics": []}
            continue
        if open_round is None or r != open_round:
            problems.append(f"seq {ev['seq']}: {kind} for round {r} outside its round")
            continue
        tally = per_round[r]
        if kind == "verdict" and payload.get("passed"):
            tally["passed"] = True
        elif kind == "checkpoint":
            if not tally["passed"]:
                problems.append(f"seq {ev['seq']}: checkpoint before a passed verdict in round {r}")
            tally["checkpoint"] += 1
            tally["metrics"].append(payload.get("metric"))
        elif kind == "invocation":
            role = payload.get("role")
            if role == "Evaluator" and not tally["passed"]:
                problems.append(f"seq {ev['seq']}: Evaluator before a passed verdict in round {r}")
            tally[role] = tally.get(role, 0) + 1
        elif kind == "revert":
            tally["revert"] += 1
        elif kind == "round_finished":
            tally["status"] = payload.get("status")
            open_round = None
    if open_round is not None:
        problems.append(f"round {open_round} never finished")
    if len(per_round) != len(plan.rounds):
        problems.append(f"{len(per_round)} rounds in the ledger, {len(plan.rounds)} planned")
    for rp in plan.rounds:
        tally = per_round.get(rp.index)
        if tally is None:
            continue
        if tally["status"] != rp.status:
            problems.append(f"round {rp.index} ({rp.kind}): status {tally['status']}, planned {rp.status}")
        for role, n in rp.invocations.items():
            if tally[role] != n:
                problems.append(f"round {rp.index} ({rp.kind}): {tally[role]} {role} invocations, planned {n}")
        if tally.get("Orchestrator", 0):
            problems.append(f"round {rp.index}: an Orchestrator ran in stub mode")
        want_cp = [rp.metric] if rp.validated else []
        if tally["metrics"] != want_cp:
            problems.append(f"round {rp.index} ({rp.kind}): checkpoint metrics {tally['metrics']}, planned {want_cp}")
        want_reverts = 1 if rp.kind == REGRESS else 0
        if tally["revert"] != want_reverts:
            problems.append(f"round {rp.index} ({rp.kind}): {tally['revert']} reverts, planned {want_reverts}")
    return problems


def _git(ws: Path, *args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=ws, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout


def _trailers(message: str) -> dict[str, str]:
    out = {}
    for line in message.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key in ("Round", "Metric", "Verdict"):
            out[key] = value.strip()
    return out


def check_repo(ws: Path, plan: RunPlan) -> list[str]:
    """Tags and trailers of validated rounds, HEAD after every round (from
    the reflog), and the candidate bytes at HEAD, all read with git."""
    problems = []
    tags = {}
    for line in _git(ws, "for-each-ref", "refs/tags", "--format=%(refname:short) %(objectname)").splitlines():
        name, sha = line.split()
        tags[name] = sha
    commits = {}
    for record in _git(ws, "log", "--all", "--format=%H%x1f%P%x1f%B%x1e").split("\x1e"):
        record = record.strip("\n")
        if record:
            sha, parents, body = record.split("\x1f", 2)
            commits[sha] = (parents.split(), body)
    planned_tags = {f"round-{r.index}" for r in plan.rounds if r.validated}
    if set(tags) != planned_tags:
        problems.append(f"tags {sorted(set(tags) ^ planned_tags)} differ from the plan")

    reflog = _git(ws, "log", "-g", "--format=%H", "HEAD").split()[::-1]
    positions = [sha for k, sha in enumerate(reflog) if k == 0 or sha != reflog[k - 1]]
    baseline = positions[0] if positions else None
    ref = lambda r: baseline if r is None else tags.get(f"round-{r}")  # noqa: E731
    expected = [baseline]
    head = None
    for rp in plan.rounds:
        if rp.validated:
            sha = tags.get(f"round-{rp.index}")
            parents, body = commits.get(sha, ([], ""))
            if parents != [ref(head)]:
                problems.append(f"round {rp.index}: checkpoint parent is not the HEAD the plan left")
            trailers = _trailers(body)
            metric = trailers.get("Metric", "").split()
            if (
                trailers.get("Round") != str(rp.index)
                or trailers.get("Verdict") != "passed"
                or len(metric) != 3
                or float(metric[0]) != rp.metric
                or metric[1:] != [UNIT, "higher_is_better=true"]
            ):
                problems.append(f"round {rp.index}: trailers {trailers} do not match metric {rp.metric}")
            expected.append(sha)  # the checkpoint commit moves HEAD
        expected.append(ref(rp.head_after))  # where HEAD rests after the round
        head = rp.head_after
    expected = [sha for k, sha in enumerate(expected) if k == 0 or sha != expected[k - 1]]
    if positions != expected:
        problems.append(f"HEAD moved through {len(positions)} positions, the plan has {len(expected)}")

    want = plan.rounds[-1].candidate_after if plan.rounds else None
    if _git(ws, "rev-parse", "HEAD").strip() != ref(head):
        problems.append("final HEAD is not the planned checkpoint")
    at_head = subprocess.run(["git", "show", "HEAD:candidate/run"], cwd=ws, capture_output=True, text=True)
    got = at_head.stdout if at_head.returncode == 0 else None
    if got != want:
        problems.append("candidate/run at HEAD differs from the planned bytes")
    on_disk = ws / "candidate" / "run"
    if (on_disk.read_text(encoding="utf-8") if on_disk.exists() else None) != want:
        problems.append("candidate/run in the worktree differs from the planned bytes")
    return problems


def check_outcome(outcome, plan: RunPlan, ws: Path) -> list[str]:
    """RunOutcome against the plan: rounds, checkpoints, best under the 0.5 % rule."""
    problems = []
    validated = sum(r.validated for r in plan.rounds)
    if (outcome.rounds_run, outcome.checkpoints) != (len(plan.rounds), validated):
        problems.append(
            f"outcome {outcome.rounds_run} rounds / {outcome.checkpoints} checkpoints, "
            f"planned {len(plan.rounds)} / {validated}"
        )
    best = plan.best
    got = None if outcome.best is None else (outcome.best.round, outcome.best.metric)
    want = None if best is None else (best.index, best.metric)
    if got != want:
        problems.append(f"best {got}, planned {want}")
    elif best is not None:
        tag = _git(ws, "rev-parse", f"round-{best.index}^{{commit}}").strip()
        if outcome.best.commit != tag:
            problems.append("best checkpoint commit is not its round tag")
    return problems


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_mounts(ws: Path, target_dir: Path) -> list[str]:
    """Every mounted artifact still hashes to its source."""
    problems = []
    for name in ARTIFACTS:
        mounted = ws / "artifacts" / name
        if not mounted.is_file() or _sha256(mounted) != _sha256(target_dir / name):
            problems.append(f"mounted {name} does not hash to its source")
    return problems


def check_report(stdout: str, plan: RunPlan) -> list[str]:
    """``forgeloop report``: per-role call counts as planned."""
    calls = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) >= 2 and fields[0] in ("Orchestrator", "Implementer", "Judge", "Evaluator"):
            calls[fields[0]] = int(fields[1])
    want = {role: n for role, n in plan.role_totals().items() if n}
    return [] if calls == want else [f"report calls {calls}, planned {want}"]


def check_status(stdout: str, plan: RunPlan, ws: Path) -> list[str]:
    """``forgeloop status``: the best line names the highest planted metric."""
    top = plan.highest
    lines = [line for line in stdout.splitlines() if line.startswith("best: ")]
    if top is None:
        return [] if lines == ["best: none"] else [f"status best {lines}, planned none"]
    fields = lines[0].split() if len(lines) == 1 else []
    if len(fields) != 5 or fields[3] != "at":
        return [f"status best line unreadable: {lines}"]
    problems = []
    if float(fields[1]) != top.metric or fields[2] != UNIT:
        problems.append(f"status best {fields[1]} {fields[2]}, planned {top.metric} {UNIT}")
    if not _git(ws, "rev-parse", f"round-{top.index}^{{commit}}").startswith(fields[4]):
        problems.append(f"status best commit {fields[4]} is not round-{top.index}")
    return problems


def check_replay(stdout: str, ledger: Path) -> list[str]:
    """``replay --speed inf`` re-emits exactly the ledger's events, in order."""
    want = [line for line in ledger.read_text(encoding="utf-8").splitlines() if line.strip()]
    got = stdout.splitlines()
    if got == want:
        return []
    return [f"replay emitted {len(got)} lines, the ledger has {len(want)} (or they differ)"]
