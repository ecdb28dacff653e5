"""Append-only JSONL event ledger and the analyses built on it.

One JSON object per line, flushed per event, never rewritten: crash-safe,
greppable, and parseable at any event boundary. Status, per-role reports,
and replays are all reconstructed from this file.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Iterator, NamedTuple, Optional

from forgeloop.errors import ForgeloopError

EVENT_KINDS = (
    "round_started",
    "invocation",
    "verdict",
    "checkpoint",
    "tool_call",
    "revert",
    "round_finished",
)


class MalformedLedger(ForgeloopError):
    pass


class ConsistencyViolation(ForgeloopError):
    def __init__(self, seq: int, detail: str):
        super().__init__(f"seq {seq}: {detail}")
        self.seq = seq


class LedgerEvent(NamedTuple):
    seq: int
    timestamp: float
    kind: str
    round: int
    payload: dict

    def to_json(self) -> str:
        return json.dumps(
            {
                "seq": self.seq,
                "timestamp": self.timestamp,
                "kind": self.kind,
                "round": self.round,
                "payload": self.payload,
            },
            sort_keys=True,
        )


class LedgerWriter:
    """Appends events to one ledger file; each hits disk before append returns.
    Appends are serialized: the tool server's handler threads append too."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._seq = 0
        existing = read_ledger(self.path) if self.path.exists() else []
        if existing:
            self._seq = existing[-1].seq
        self._fh = self.path.open("a", encoding="utf-8")
        self._lock = threading.Lock()

    def append(self, kind: str, round_index: int, payload: dict) -> LedgerEvent:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind: {kind}")
        with self._lock:
            self._seq += 1
            event = LedgerEvent(
                seq=self._seq,
                timestamp=time.time(),
                kind=kind,
                round=round_index,
                payload=payload,
            )
            self._fh.write(event.to_json() + "\n")
            self._fh.flush()
        return event

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "LedgerWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def iter_ledger(path: str | Path) -> Iterator[LedgerEvent]:
    expected_seq = 1
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                raise MalformedLedger(f"line {lineno} is not JSON") from None
            try:
                event = LedgerEvent(
                    seq=int(doc["seq"]),
                    timestamp=float(doc["timestamp"]),
                    kind=str(doc["kind"]),
                    round=int(doc["round"]),
                    payload=doc["payload"],
                )
            except (KeyError, TypeError, ValueError):
                raise MalformedLedger(f"line {lineno} has a bad event shape") from None
            if event.kind not in EVENT_KINDS:
                raise MalformedLedger(f"line {lineno}: unknown kind {event.kind}")
            if event.seq != expected_seq:
                raise MalformedLedger(
                    f"line {lineno}: seq gap (expected {expected_seq}, got {event.seq})"
                )
            expected_seq += 1
            yield event


def read_ledger(path: str | Path) -> list[LedgerEvent]:
    return list(iter_ledger(path))


# -- per-role report (Calls / Duration / Share / Avg per call) ----------


class RoleReportRow(NamedTuple):
    role: str
    calls: int
    duration_h: float
    share: float
    avg_per_call_s: float


ROLE_ORDER = ("Orchestrator", "Implementer", "Judge", "Evaluator")


def role_report(events: list[LedgerEvent]) -> list[RoleReportRow]:
    """Aggregate invocation events into per-role rows; shares sum to 1."""
    calls: dict[str, int] = {}
    seconds: dict[str, float] = {}
    for ev in events:
        if ev.kind != "invocation":
            continue
        role = ev.payload.get("role", "?")
        calls[role] = calls.get(role, 0) + 1
        seconds[role] = seconds.get(role, 0.0) + float(ev.payload.get("duration_s", 0.0))
    total = sum(seconds.values())
    rows = []
    ordered = [r for r in ROLE_ORDER if r in calls] + sorted(set(calls) - set(ROLE_ORDER))
    for role in ordered:
        dur = seconds[role]
        rows.append(
            RoleReportRow(
                role=role,
                calls=calls[role],
                duration_h=dur / 3600.0,
                share=(dur / total) if total > 0 else 0.0,
                avg_per_call_s=(dur / calls[role]) if calls[role] else 0.0,
            )
        )
    return rows


def format_role_report(rows: list[RoleReportRow]) -> str:
    header = f"{'Role':<14} {'Calls':>6} {'Duration (h)':>13} {'Share':>7} {'Avg/call (s)':>13}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.role:<14} {row.calls:>6} {row.duration_h:>13.2f} "
            f"{row.share * 100:>6.1f}% {row.avg_per_call_s:>13.0f}"
        )
    total_h = sum(r.duration_h for r in rows)
    total_calls = sum(r.calls for r in rows)
    lines.append("-" * len(header))
    lines.append(f"{'total':<14} {total_calls:>6} {total_h:>13.2f} {'100.0%':>7}")
    return "\n".join(lines)


# -- status summary ------------------------------------------------------


class StatusSummary(NamedTuple):
    current_round: Optional[int]
    best_commit: Optional[str]
    best_metric: Optional[float]
    best_unit: Optional[str]
    open_issues: int
    in_progress_issues: int
    last_event_at: Optional[float]
    last_failure: Optional[tuple[int, str, str]] = None  # (round, status, detail)


def status_summary(events: list[LedgerEvent]) -> StatusSummary:
    """Best is the checkpoint the last ``round_finished`` names as kept; ledgers
    without ``best_commit`` fall back to the highest metric checkpointed. The
    last failure is the last ``round_finished`` that carries a ``detail``."""
    current_round = None
    last_failure = None
    best: Optional[tuple[str, float, str, bool]] = None
    checkpoints: dict[str, tuple[str, float, str, bool]] = {}
    kept: Optional[dict] = None  # the last round_finished payload naming the kept checkpoint
    backlog = {"open": 0, "in_progress": 0}
    last_ts = None
    for ev in events:
        last_ts = ev.timestamp
        if ev.kind == "round_started":
            current_round = ev.round
        elif ev.kind == "checkpoint":
            metric = float(ev.payload["metric"])
            higher = bool(ev.payload.get("higher_is_better", True))
            entry = (ev.payload["commit"], metric, ev.payload.get("unit", ""), higher)
            checkpoints[entry[0]] = entry
            if best is None or (metric > best[1] if higher else metric < best[1]):
                best = entry
        elif ev.kind == "round_finished":
            if "best_commit" in ev.payload:
                kept = ev.payload
            if "detail" in ev.payload:
                last_failure = (ev.round, str(ev.payload.get("status")), str(ev.payload["detail"]))
            counts = ev.payload.get("backlog")
            if isinstance(counts, dict):
                backlog["open"] = int(counts.get("open", 0))
                backlog["in_progress"] = int(counts.get("in_progress", 0))
    if kept is not None:
        best = checkpoints.get(kept["best_commit"])
    return StatusSummary(
        current_round=current_round,
        best_commit=best[0] if best else None,
        best_metric=best[1] if best else None,
        best_unit=best[2] if best else None,
        open_issues=backlog["open"],
        in_progress_issues=backlog["in_progress"],
        last_event_at=last_ts,
        last_failure=last_failure,
    )


# -- replay --------------------------------------------------------------


def check_consistency(events: list[LedgerEvent]) -> None:
    """Structural invariants any transcript must satisfy.

    A checkpoint event requires a passed verdict earlier in the same round;
    an Evaluator invocation likewise runs only after a passed verdict.
    """
    passed_rounds: set[int] = set()
    for ev in events:
        if ev.kind == "verdict" and ev.payload.get("passed"):
            passed_rounds.add(ev.round)
        elif ev.kind == "checkpoint" and ev.round not in passed_rounds:
            raise ConsistencyViolation(ev.seq, f"checkpoint before passed verdict in round {ev.round}")
        elif (
            ev.kind == "invocation"
            and ev.payload.get("role") == "Evaluator"
            and ev.round not in passed_rounds
        ):
            raise ConsistencyViolation(
                ev.seq, f"Evaluator invocation before passed verdict in round {ev.round}"
            )


def replay(events: list[LedgerEvent], speed: float, emit=print, sleep=time.sleep) -> None:
    """Re-emit events in order with inter-event delays scaled by 1/speed."""
    if speed <= 0:
        raise ValueError("speed must be > 0")
    check_consistency(events)
    prev_ts = None
    for ev in events:
        if prev_ts is not None and speed != float("inf"):
            gap = max(0.0, ev.timestamp - prev_ts) / speed
            if gap > 0:
                sleep(gap)
        prev_ts = ev.timestamp
        emit(ev.to_json())
