"""Serving-latency metrics and the benchmark metric-line contract.

TTFT is first-token time minus arrival; TPOT is the mean gap between output
tokens after the first (defined only for records with >= 2 tokens);
throughput is total tokens over the span from earliest arrival to latest
completion. Failed records are excluded from all three and counted
separately.
"""

from __future__ import annotations

import json
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from forgeloop.errors import ForgeloopError


class NoCompleteRecords(ForgeloopError):
    pass


class MetricParseError(ForgeloopError):
    pass


class RequestRecord(NamedTuple):
    """Timestamps (seconds, shared clock) and token count for one request."""

    arrival: float
    first_token: float
    last_token: float
    tokens: int
    failed: bool = False
    failure: str = ""


class MetricsSummary(NamedTuple):
    throughput_tok_per_s: float
    mean_ttft_s: float
    mean_tpot_s: float | None  # None when no record had >= 2 tokens
    completed: int
    failed: int


class MetricReport(NamedTuple):
    """Headline benchmark metric plus optional per-request records."""

    metric: float
    unit: str
    higher_is_better: bool
    extras: Mapping = MappingProxyType({})  # read-only: no shared mutable default
    records: tuple[RequestRecord, ...] = ()


def compute_metrics(records: Sequence[RequestRecord]) -> MetricsSummary:
    """Aggregate throughput / mean TTFT / mean TPOT over non-failed records."""
    ok = [r for r in records if not r.failed]
    failed = len(records) - len(ok)
    if not ok:
        raise NoCompleteRecords("no non-failed records to aggregate")

    ttft_sum = 0.0
    tpot_sum = 0.0
    tpot_n = 0
    tokens_total = 0
    for r in ok:
        ttft_sum += r.first_token - r.arrival
        if r.tokens >= 2:
            tpot_sum += (r.last_token - r.first_token) / (r.tokens - 1)
            tpot_n += 1
        tokens_total += r.tokens

    span = max(r.last_token for r in ok) - min(r.arrival for r in ok)
    # Instantaneous fixture runs can produce a zero span; report infinite
    # throughput rather than dividing by zero.
    throughput = tokens_total / span if span > 0 else float("inf")
    return MetricsSummary(
        throughput_tok_per_s=throughput,
        mean_ttft_s=ttft_sum / len(ok),
        mean_tpot_s=(tpot_sum / tpot_n) if tpot_n else None,
        completed=len(ok),
        failed=failed,
    )


def parse_metric_line(stdout: str) -> MetricReport:
    """Parse the benchmark contract: the final stdout line is one JSON object
    ``{"metric": float, "unit": str, "higher_is_better": bool, "extras": {...}?}``.
    """
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise MetricParseError("benchmark produced no output")
    last = lines[-1].strip()
    try:
        doc = json.loads(last)
    except json.JSONDecodeError:
        raise MetricParseError(f"final benchmark line is not JSON: {last!r}") from None
    if not isinstance(doc, dict):
        raise MetricParseError(f"final benchmark line is not a JSON object: {last!r}")
    for key, kinds in (("metric", (int, float)), ("unit", str), ("higher_is_better", bool)):
        if key not in doc:
            raise MetricParseError(f"metric line missing key: {key}")
        if key == "higher_is_better":
            if not isinstance(doc[key], bool):
                raise MetricParseError("higher_is_better must be a JSON boolean")
        elif not isinstance(doc[key], kinds) or isinstance(doc[key], bool):
            raise MetricParseError(f"metric line key {key} has wrong type")
    extras = doc.get("extras", {})
    if not isinstance(extras, dict):
        raise MetricParseError("extras must be a JSON object when present")
    unknown = set(doc) - {"metric", "unit", "higher_is_better", "extras"}
    if unknown:
        raise MetricParseError(f"metric line has unknown keys: {sorted(unknown)}")
    return MetricReport(
        metric=float(doc["metric"]),
        unit=doc["unit"],
        higher_is_better=doc["higher_is_better"],
        extras=extras,
    )
