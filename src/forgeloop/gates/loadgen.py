"""Open-loop synthetic load: Poisson arrival schedules and a request driver.

Arrivals follow exponential inter-arrival gaps drawn from the fixed generator
in :mod:`forgeloop.gates.rng`; requests are dispatched at their scheduled
times independently of completions (open loop).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable, NamedTuple, Sequence

from forgeloop.errors import ForgeloopError, checked
from forgeloop.gates.metrics import RequestRecord
from forgeloop.gates.rng import DeterministicRng


class InvalidLoadSpec(ForgeloopError):
    pass


@checked
class LoadSpec(NamedTuple):
    """Parameters of one synthetic load run."""

    rate: float  # requests per second
    duration: float  # seconds
    seed: int
    max_tokens: int
    prompt_pool: tuple[str, ...]

    def _check(self):
        if self.rate <= 0:
            raise InvalidLoadSpec("rate must be > 0")
        if self.duration < 0:
            raise InvalidLoadSpec("duration must be >= 0")
        if not self.prompt_pool:
            raise InvalidLoadSpec("prompt_pool must be nonempty")

    @staticmethod
    def from_json(doc: dict) -> "LoadSpec":
        try:
            return LoadSpec(
                rate=float(doc["rate"]),
                duration=float(doc["duration"]),
                seed=int(doc["seed"]),
                max_tokens=int(doc["max_tokens"]),
                prompt_pool=tuple(doc["prompt_pool"]),
            )
        except KeyError as exc:
            raise InvalidLoadSpec(f"load spec missing key: {exc.args[0]}") from None


class ScheduledRequest(NamedTuple):
    arrival: float  # seconds from run start
    prompt_index: int


def gen_poisson_schedule(spec: LoadSpec) -> list[ScheduledRequest]:
    """Draw the arrival schedule for ``spec``.

    Per request the stream is consumed as (gap, prompt index) in that order,
    so extending the duration only appends: the shorter run's schedule is a
    prefix of the longer one under the same seed.
    """
    rng = DeterministicRng(spec.seed)
    schedule: list[ScheduledRequest] = []
    t = 0.0
    pool_size = len(spec.prompt_pool)
    while True:
        t += rng.exponential(spec.rate)
        if t >= spec.duration:
            break
        schedule.append(ScheduledRequest(arrival=t, prompt_index=rng.next_index(pool_size)))
    return schedule


# An endpoint takes (prompt, max_tokens) and yields output units (tokens).
# Raising marks the request failed; the run itself never aborts.
Endpoint = Callable[[str, int], Iterable[str]]


class _Collector:
    def __init__(self, records: list[RequestRecord | None], lock: threading.Lock | None = None):
        self.records, self.lock = records, threading.Lock() if lock is None else lock

    def put(self, i: int, record: RequestRecord) -> None:
        with self.lock:
            self.records[i] = record


def _drive_request(
    collector: _Collector,
    index: int,
    endpoint: Endpoint,
    prompt: str,
    max_tokens: int,
    clock_origin: float,
) -> None:
    sent = time.monotonic() - clock_origin
    first = None
    last = sent
    count = 0
    try:
        for _token in endpoint(prompt, max_tokens):
            now = time.monotonic() - clock_origin
            if first is None:
                first = now
            last = now
            count += 1
            if count >= max_tokens:
                break
    except Exception as exc:
        collector.put(
            index,
            RequestRecord(
                arrival=sent,
                first_token=first if first is not None else sent,
                last_token=last,
                tokens=count,
                failed=True,
                failure=repr(exc),
            ),
        )
        return
    if first is None:
        # Endpoint closed the stream without emitting anything.
        collector.put(
            index,
            RequestRecord(
                arrival=sent,
                first_token=sent,
                last_token=last,
                tokens=0,
                failed=True,
                failure="no output",
            ),
        )
        return
    collector.put(
        index,
        RequestRecord(arrival=sent, first_token=first, last_token=last, tokens=count),
    )


def run_open_loop(
    schedule: Sequence[ScheduledRequest],
    endpoint: Endpoint,
    max_tokens: int,
    prompt_pool: Sequence[str],
) -> list[RequestRecord]:
    """Dispatch every scheduled request at its arrival time on a monotonic clock.

    Launches are independent of in-flight completions; per-request failures
    are recorded with a failure mark and never abort the run.
    """
    if not schedule:
        return []
    collector = _Collector(records=[None] * len(schedule))
    origin = time.monotonic()
    threads: list[threading.Thread] = []
    for i, req in enumerate(schedule):
        delay = req.arrival - (time.monotonic() - origin)
        if delay > 0:
            time.sleep(delay)
        t = threading.Thread(
            target=_drive_request,
            args=(collector, i, endpoint, prompt_pool[req.prompt_index], max_tokens, origin),
            daemon=True,
        )
        t.start()
        threads.append(t)
    for t in threads:
        t.join()
    return [r for r in collector.records if r is not None]
