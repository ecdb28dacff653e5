"""Ledger: append-only growth, crash recovery, reports, replay checks."""

import json
import sys
import threading

import pytest

from forgeloop.ledger import (
    ConsistencyViolation,
    LedgerWriter,
    MalformedLedger,
    check_consistency,
    format_role_report,
    read_ledger,
    replay,
    role_report,
    status_summary,
)


def write_events(path, events):
    with LedgerWriter(path) as writer:
        for kind, round_index, payload in events:
            writer.append(kind, round_index, payload)


def test_seq_strictly_increasing_and_flushed(tmp_path):
    path = tmp_path / "ledger.jsonl"
    writer = LedgerWriter(path)
    snapshots = []
    for i in range(5):
        writer.append("round_started", i, {"policy": "issue_tracker"})
        snapshots.append(path.read_bytes())
    writer.close()
    # Append-only: every snapshot is a prefix of the next.
    for earlier, later in zip(snapshots, snapshots[1:]):
        assert later.startswith(earlier)
    events = read_ledger(path)
    assert [e.seq for e in events] == [1, 2, 3, 4, 5]


def test_concurrent_appends_keep_seqs_contiguous(tmp_path):
    # The tool server's handler threads append tool_call events while the
    # loop appends the rest; a lost seq update would leave a gap or a repeat.
    path = tmp_path / "ledger.jsonl"
    writer = LedgerWriter(path)

    def append_many(worker):
        for i in range(200):
            writer.append("tool_call", 0, {"worker": worker, "i": i})

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=append_many, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
        writer.close()
    assert not any(t.is_alive() for t in threads)
    events = read_ledger(path)
    assert [e.seq for e in events] == list(range(1, 1601))


def test_writer_resumes_sequence_after_reopen(tmp_path):
    path = tmp_path / "ledger.jsonl"
    write_events(path, [("round_started", 0, {})])
    write_events(path, [("round_finished", 0, {"status": "validated"})])
    events = read_ledger(path)
    assert [e.seq for e in events] == [1, 2]


def test_seq_gap_rejected(tmp_path):
    path = tmp_path / "ledger.jsonl"
    write_events(path, [("round_started", 0, {}), ("round_finished", 0, {})])
    lines = path.read_text().splitlines()
    path.write_text(lines[0] + "\n" + lines[1].replace('"seq": 2', '"seq": 7') + "\n")
    with pytest.raises(MalformedLedger):
        read_ledger(path)


def test_bad_json_line_rejected(tmp_path):
    path = tmp_path / "ledger.jsonl"
    path.write_text('{"seq": 1, "timestamp": 1.0, "kind": "verdict", "round": 0, "payload": {}}\nnot json\n')
    with pytest.raises(MalformedLedger):
        read_ledger(path)


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "ledger.jsonl"
    path.write_text('{"seq": 1, "timestamp": 1.0, "kind": "mystery", "round": 0, "payload": {}}\n')
    with pytest.raises(MalformedLedger):
        read_ledger(path)


def test_truncation_at_any_event_boundary_parses(tmp_path):
    path = tmp_path / "ledger.jsonl"
    write_events(
        path,
        [("round_started", 0, {}), ("verdict", 0, {"passed": True}), ("round_finished", 0, {})],
    )
    lines = path.read_text().splitlines(keepends=True)
    for n in range(len(lines) + 1):
        truncated = tmp_path / f"trunc{n}.jsonl"
        truncated.write_text("".join(lines[:n]))
        events = read_ledger(truncated)
        assert len(events) == n
        status_summary(events)  # must not raise


# -- role report ------------------------------------------------------------------


def synthetic_invocations(rows):
    """rows: (role, calls, duration_h) -> invocation event triples."""
    events = []
    for role, calls, duration_h in rows:
        per_call = duration_h * 3600.0 / calls
        for _ in range(calls):
            events.append(("invocation", 0, {"role": role, "duration_s": per_call}))
    return events


def test_role_report_shares_and_averages(tmp_path):
    path = tmp_path / "ledger.jsonl"
    write_events(
        path,
        synthetic_invocations(
            [("Orchestrator", 10, 0.5), ("Implementer", 20, 1.5), ("Judge", 20, 1.0)]
        ),
    )
    rows = role_report(read_ledger(path))
    by_role = {r.role: r for r in rows}
    assert by_role["Implementer"].calls == 20
    assert by_role["Implementer"].duration_h == pytest.approx(1.5)
    assert by_role["Implementer"].share == pytest.approx(1.5 / 3.0)
    assert by_role["Implementer"].avg_per_call_s == pytest.approx(270.0)
    assert sum(r.share for r in rows) == pytest.approx(1.0, abs=1e-3)
    for row in rows:
        assert row.avg_per_call_s == pytest.approx(row.duration_h * 3600 / row.calls)


def test_report_durations_equal_ledger_sum_exactly(tmp_path):
    path = tmp_path / "ledger.jsonl"
    write_events(path, synthetic_invocations([("Implementer", 7, 0.31), ("Judge", 3, 0.11)]))
    events = read_ledger(path)
    rows = role_report(events)
    ledger_total = sum(e.payload["duration_s"] for e in events if e.kind == "invocation")
    assert sum(r.duration_h for r in rows) * 3600 == pytest.approx(ledger_total, abs=1e-9)


def test_empty_ledger_report(tmp_path):
    path = tmp_path / "ledger.jsonl"
    path.write_text("")
    rows = role_report(read_ledger(path))
    assert rows == []
    assert "total" in format_role_report(rows)


# -- status -----------------------------------------------------------------------


def test_status_summary_best_and_round(tmp_path):
    path = tmp_path / "ledger.jsonl"
    write_events(
        path,
        [
            ("round_started", 0, {}),
            ("verdict", 0, {"passed": True}),
            ("checkpoint", 0, {"commit": "aaa", "metric": 10.0, "unit": "tok_per_s", "higher_is_better": True}),
            ("round_finished", 0, {"backlog": {"open": 2, "in_progress": 0}}),
            ("round_started", 1, {}),
            ("verdict", 1, {"passed": True}),
            ("checkpoint", 1, {"commit": "bbb", "metric": 14.0, "unit": "tok_per_s", "higher_is_better": True}),
            ("round_finished", 1, {"backlog": {"open": 1, "in_progress": 1}}),
            ("round_started", 4, {}),
        ],
    )
    summary = status_summary(read_ledger(path))
    assert summary.current_round == 4
    assert summary.best_commit == "bbb"
    assert summary.best_metric == 14.0
    assert summary.open_issues == 1
    assert summary.in_progress_issues == 1
    assert summary.last_event_at is not None


def test_status_no_checkpoints(tmp_path):
    path = tmp_path / "ledger.jsonl"
    write_events(path, [("round_started", 0, {})])
    summary = status_summary(read_ledger(path))
    assert summary.best_commit is None


def test_status_best_respects_direction(tmp_path):
    path = tmp_path / "ledger.jsonl"
    write_events(
        path,
        [
            ("verdict", 0, {"passed": True}),
            ("checkpoint", 0, {"commit": "slow", "metric": 3.0, "unit": "s", "higher_is_better": False}),
            ("verdict", 1, {"passed": True}),
            ("checkpoint", 1, {"commit": "fast", "metric": 1.5, "unit": "s", "higher_is_better": False}),
            ("verdict", 2, {"passed": True}),
            ("checkpoint", 2, {"commit": "worse", "metric": 9.0, "unit": "s", "higher_is_better": False}),
        ],
    )
    assert status_summary(read_ledger(path)).best_commit == "fast"


# -- replay ------------------------------------------------------------------------


def test_replay_emits_in_order_at_infinite_speed(tmp_path):
    path = tmp_path / "ledger.jsonl"
    write_events(
        path,
        [("round_started", 0, {}), ("verdict", 0, {"passed": True}), ("checkpoint", 0, {"commit": "x", "metric": 1.0})],
    )
    events = read_ledger(path)
    out = []
    replay(events, speed=float("inf"), emit=out.append, sleep=lambda s: None)
    assert [json.loads(line)["seq"] for line in out] == [1, 2, 3]


def test_replay_rejects_checkpoint_before_verdict(tmp_path):
    path = tmp_path / "ledger.jsonl"
    write_events(path, [("round_started", 0, {}), ("checkpoint", 0, {"commit": "x", "metric": 1.0})])
    events = read_ledger(path)
    with pytest.raises(ConsistencyViolation) as exc:
        check_consistency(events)
    assert exc.value.seq == 2


def test_replay_rejects_evaluator_before_verdict(tmp_path):
    path = tmp_path / "ledger.jsonl"
    write_events(
        path,
        [("round_started", 0, {}), ("invocation", 0, {"role": "Evaluator", "duration_s": 1.0})],
    )
    with pytest.raises(ConsistencyViolation):
        check_consistency(read_ledger(path))


def test_replay_scales_delays():
    from forgeloop.ledger import LedgerEvent

    events = [
        LedgerEvent(seq=1, timestamp=100.0, kind="round_started", round=0, payload={}),
        LedgerEvent(seq=2, timestamp=101.0, kind="round_finished", round=0, payload={}),
    ]
    slept = []
    replay(events, speed=10.0, emit=lambda line: None, sleep=slept.append)
    assert slept == [pytest.approx(0.1)]


def test_replay_rejects_nonpositive_speed():
    with pytest.raises(ValueError):
        replay([], speed=0.0)
