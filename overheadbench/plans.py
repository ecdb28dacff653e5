"""Seeded workload plans: the stub target, the stub scripts, and what the
loop must do with them.

A plan fixes, before anything runs, every round's kind, its planted metric
and the candidate bytes each attempt writes. From that it derives what the
method implies: each round's status, where HEAD sits after the round, which
checkpoint is best under the 0.5 % rule, how many times each role is
invoked. The seed picks only contents, planted metric values and the order
of round kinds; the share of each kind is fixed per workload.

The target is a tiny shell service: ``candidate/run`` upper-cases its
argument, the checker compares it against the reference on one prompt, and
the benchmark reports the metric the candidate carries (``run --metric``),
so the plan knows every measurement in advance.

This module does not import forgeloop: the program only ever sees the files
``write_target`` and ``write_scripts`` produce.
"""

from __future__ import annotations

import difflib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

EPSILON_REL = 0.005  # the loop's BestTracker noise floor
RETRY_BUDGET = 2
UNIT = "req_per_s"
PROBE_PROMPTS = ("probe one", "probe two")

REFERENCE = '#!/bin/sh\necho "$1" | tr a-z A-Z\n'

CHECKER = """#!/bin/sh
# the candidate must answer like the reference
cand="$1/run"
[ -x "$cand" ] || { echo "candidate has no run entrypoint" >&2; exit 1; }
want=$("$2" "check me") || exit 1
got=$("$cand" "check me") || { echo "candidate crashed" >&2; exit 1; }
[ "$want" = "$got" ] || { echo "output mismatch" >&2; exit 1; }
exit 0
"""

BENCHMARK = """#!/bin/sh
# one timed request, then the metric the candidate was built with
run="$1/run"
out=$("$run" "bench prompt") || { echo "candidate failed" >&2; exit 1; }
[ "$out" = "BENCH PROMPT" ] || { echo "wrong answer: $out" >&2; exit 1; }
metric=$("$run" --metric) || exit 1
printf '{"metric": %s, "unit": "req_per_s", "higher_is_better": true}\\n' "$metric"
"""

ARTIFACTS = {"reference": REFERENCE, "checker": CHECKER, "benchmark": BENCHMARK}

# Round kinds and what the loop must make of each.
IMPROVE, REGRESS, RETRY, FAIL, TAMPER = "improve", "regress", "retry", "fail", "tamper"
KIND_STATUS = {
    IMPROVE: "validated",
    REGRESS: "validated",
    RETRY: "validated",
    FAIL: "failed_budget",
    TAMPER: "error",
}
# (Implementer, Judge, Evaluator) invocations per round. A tampered mount
# ends the round before the Judge agent runs.
KIND_INVOCATIONS = {
    IMPROVE: (1, 1, 1),
    REGRESS: (1, 1, 1),
    RETRY: (2, 2, 1),
    FAIL: (RETRY_BUDGET, RETRY_BUDGET, 0),
    TAMPER: (1, 0, 0),
}

# long_campaign: one block of 20 rounds, repeated; improve is the clear
# majority. retry, the slowest kind, fills the top quarter, so the tail (the
# round with ten slower ones above it) falls inside one kind's band.
CAMPAIGN_BLOCK = {IMPROVE: 11, RETRY: 5, REGRESS: 2, FAIL: 1, TAMPER: 1}
# short_runs: every run_target call plays the same three rounds.
SHORT_RUN_KINDS = (IMPROVE, IMPROVE, REGRESS)
POLICIES = ("issue_tracker", "evolutionary", "ralph")


def candidate(nonce: str, metric: float, correct: bool = True) -> str:
    answer = 'echo "$1" | tr a-z A-Z' if correct else 'echo "$1"'
    return (
        "#!/bin/sh\n"
        f"# candidate {nonce}\n"
        f'if [ "$1" = "--metric" ]; then echo {metric:.2f}; exit 0; fi\n'
        f"{answer}\n"
    )


def _diff(path: str, old: Optional[str], new: str) -> str:
    """A git-style unified diff from ``old`` (None: file absent) to ``new``."""
    if old is None:
        body = "".join(
            difflib.unified_diff([], new.splitlines(True), fromfile="/dev/null", tofile=f"b/{path}")
        )
        return f"diff --git a/{path} b/{path}\nnew file mode 100755\n{body}"
    body = "".join(
        difflib.unified_diff(
            old.splitlines(True), new.splitlines(True), fromfile=f"a/{path}", tofile=f"b/{path}"
        )
    )
    return f"diff --git a/{path} b/{path}\n{body}"


@dataclass(frozen=True)
class RoundPlan:
    index: int
    kind: str
    metric: float  # planted; measured only when the round validates
    head_after: Optional[int]  # round whose checkpoint is HEAD afterwards; None = baseline
    candidate_after: Optional[str]  # candidate/run at HEAD afterwards

    @property
    def status(self) -> str:
        return KIND_STATUS[self.kind]

    @property
    def validated(self) -> bool:
        return self.status == "validated"

    @property
    def invocations(self) -> dict[str, int]:
        return dict(zip(("Implementer", "Judge", "Evaluator"), KIND_INVOCATIONS[self.kind]))


@dataclass(frozen=True)
class RunPlan:
    policy: str
    rounds: tuple[RoundPlan, ...]
    scripts: dict  # stub script file name -> list of steps

    @property
    def best(self) -> Optional[RoundPlan]:
        """The checkpoint the loop must report as best: a later one replaces
        it only by a relative gain above EPSILON_REL."""
        best = None
        for r in self.rounds:
            if r.validated and (best is None or (r.metric - best.metric) / abs(best.metric) > EPSILON_REL):
                best = r
        return best

    @property
    def highest(self) -> Optional[RoundPlan]:
        """The checkpoint ``forgeloop status`` reports: the strictly highest metric."""
        top = None
        for r in self.rounds:
            if r.validated and (top is None or r.metric > top.metric):
                top = r
        return top

    def role_totals(self) -> dict[str, int]:
        totals = {"Implementer": 0, "Judge": 0, "Evaluator": 0}
        for r in self.rounds:
            for role, n in r.invocations.items():
                totals[role] += n
        return totals


def _issue_step(rng: random.Random, round_index: int, attempt: int) -> dict:
    return {
        "step": "call_tool",
        "name": "file_issue",
        "arguments": {
            "title": f"round {round_index} attempt {attempt}: follow-up {rng.getrandbits(24):06x}",
            "rationale": "keep the backlog supplied",
            "acceptance_criteria": ["the checker passes"],
            "expected_impact": rng.choice(("high", "medium", "low")),
        },
    }


def plan_run(rng: random.Random, policy: str, kinds: list[str]) -> RunPlan:
    """Scripts and expectations for one run_target call playing ``kinds``."""
    files_issues = policy == "issue_tracker"
    scripts: dict[str, list[dict]] = {
        "judge_default.jsonl": [{"step": "emit", "approve": True, "violations": []}],
        "evaluator_default.jsonl": [
            {"step": "call_tool", "name": "record_finding", "arguments": {"text": "process start-up dominates"}}
        ],
    }
    rounds = []
    head_text: Optional[str] = None
    head_round: Optional[int] = None
    best_metric: Optional[float] = None
    for i, kind in enumerate(kinds):
        nonce = f"{rng.getrandbits(48):012x}"
        if kind in (IMPROVE, RETRY):
            # gains of 1-2 % keep metrics below 10^4 (where the Metric trailer's
            # 6 significant digits still hold 2 decimals) for about 250 rounds
            metric = rng.uniform(100.0, 200.0) if best_metric is None else best_metric * rng.uniform(1.01, 1.02)
        elif kind == REGRESS:
            if best_metric is None:
                raise ValueError("a regress round needs an earlier checkpoint")
            metric = best_metric * rng.uniform(0.70, 0.95)
        else:
            metric = rng.uniform(50.0, 90.0)
        metric = round(metric, 2)
        if metric >= 1e4:
            raise ValueError("plan too long: planted metrics outgrow the Metric trailer")
        good, bad = candidate(nonce, metric), candidate(nonce, metric, correct=False)
        run = "candidate/run"

        def attempt(a: int, *patches: tuple) -> None:
            steps = [{"step": "apply_patch", "patch": _diff(path, old, new)} for path, old, new in patches]
            if files_issues:
                steps.append(_issue_step(rng, i, a))
            scripts[f"implementer_r{i}_a{a}.jsonl"] = steps

        if kind in (IMPROVE, REGRESS):
            attempt(1, (run, head_text, good))
        elif kind == RETRY:
            attempt(1, (run, head_text, bad))
            attempt(2, (run, bad, good))
        elif kind == FAIL:
            attempt(1, (run, head_text, bad))
            for a in range(2, RETRY_BUDGET + 1):
                attempt(a)
        elif kind == TAMPER:
            tampered = BENCHMARK + f"# tampered {nonce}\n"
            attempt(1, (run, head_text, good), ("artifacts/benchmark", BENCHMARK, tampered))
        else:
            raise ValueError(f"unknown round kind: {kind}")

        if KIND_STATUS[kind] == "validated":
            gain = None if best_metric is None else (metric - best_metric) / abs(best_metric)
            improves = gain is None or gain > EPSILON_REL
            if improves != (kind != REGRESS):
                raise ValueError(f"round {i}: planted metric contradicts kind {kind}")
            if improves:
                head_text, head_round, best_metric = good, i, metric
            # a regressed checkpoint is reverted to the best: HEAD stays put
        rounds.append(RoundPlan(i, kind, metric, head_round, head_text))
    return RunPlan(policy=policy, rounds=tuple(rounds), scripts=scripts)


def campaign_kinds(rng: random.Random, blocks: int) -> list[str]:
    """``blocks`` x CAMPAIGN_BLOCK in seeded order; round 0 is an improve."""
    pool = [kind for kind, n in CAMPAIGN_BLOCK.items() for _ in range(n * blocks)]
    pool.remove(IMPROVE)
    rng.shuffle(pool)
    return [IMPROVE] + pool


def write_target(target_dir: Path, max_rounds: int, retry_budget: int = RETRY_BUDGET) -> Path:
    """The artifacts plus a target config; returns the config path."""
    target_dir.mkdir(parents=True, exist_ok=True)
    for name, text in ARTIFACTS.items():
        path = target_dir / name
        path.write_text(text, encoding="utf-8")
        path.chmod(0o755)
    (target_dir / "weights").mkdir(exist_ok=True)
    (target_dir / "weights" / "w.bin").write_bytes(b"\x01" * 16)
    config = {
        "name": "overhead",
        "reference_impl": "reference",
        "weights": "weights",
        "checker": "checker",
        "benchmark": "benchmark",
        "instructions": "upper-casing echo service; candidate/run answers argv[1] on stdout",
        "probe_prompts": list(PROBE_PROMPTS),
        "budgets": {
            "max_rounds": max_rounds,
            "retry_budget": retry_budget,
            "round_wall_clock_limit_s": 60,
            "agent_timeout_s": 30,
        },
        "profiler_commands": [],
    }
    path = target_dir / "target.json"
    path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    return path


def write_scripts(scripts_dir: Path, plan: RunPlan) -> Path:
    scripts_dir.mkdir(parents=True, exist_ok=True)
    for name, steps in plan.scripts.items():
        (scripts_dir / name).write_text("".join(json.dumps(s) + "\n" for s in steps), encoding="utf-8")
    return scripts_dir
