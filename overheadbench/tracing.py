"""Spans around the public functions of forgeloop's modules, patched in from
outside the program and restored afterwards.

Each layer is one module of the package. The tracer replaces module-level
functions (in every forgeloop module that imported them by name) and class
methods with timing wrappers, and gives ``workspace``, ``innerloop`` and
``harness`` a ``subprocess`` proxy that times each launch and groups it as
git, agent, checker, benchmark, probe (the candidate's ``run``), build or
other. Spans live in memory; a span's self time is its duration minus the
time its child spans cover. Round windows open on the ledger's
``round_started`` append and close after its ``round_finished`` append.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Optional

# Per layer: its module and the functions or Class.methods wrapped there.
# Spans of invoke_agent are keyed by agent role, ledger appends by event
# kind and subprocess launches by group.
TRACED = {
    "contract": ("forgeloop.contract", ["load_contract", "validate_contract"]),
    "skills": ("forgeloop.skills", ["load_library", "retrieve"]),
    "workspace": (
        "forgeloop.workspace",
        ["init_workspace", "verify_mounts", "restore_mounts", "commit_checkpoint", "revert_to",
         "restore_tree", "diff_since", "Workspace.worktree_digest", "Workspace.tree_digest"],
    ),
    "harness": ("forgeloop.harness", ["invoke_agent", "assemble_prompt"]),
    "mcp": (
        "forgeloop.mcp",
        ["ToolServer.__init__", "ToolServer.serve", "ToolServer.shutdown", "ToolServer.dispatch",
         "ToolServer.begin_session", "ToolServer.end_session"],
    ),
    "policy": (
        "forgeloop.policy",
        [f"{cls}.{m}" for cls in ("IssueTrackerPolicy", "EvolutionaryPolicy", "RalphPolicy")
         for m in ("__init__", "begin_round", "end_round")]
        + [f"IssueTrackerPolicy.{m}" for m in ("file_issue", "update_issue_status", "record_finding",
                                               "select_issue_tool")],
    ),
    "innerloop": (
        "forgeloop.innerloop",
        ["execute_round", "judge", "evaluate", "run_benchmark", "run_profilers", "scan_reward_hacks"],
    ),
    "ledger": ("forgeloop.ledger", ["LedgerWriter.__init__", "LedgerWriter.close"]),
}
SUBPROCESS_USERS = ("forgeloop.workspace", "forgeloop.innerloop", "forgeloop.harness")
POLICY_STATE = {"begin_round", "end_round", "file_issue", "update_issue_status", "record_finding",
                "select_issue_tool"}


def _role_key(args, kwargs):
    """The agent role of an ``invoke_agent`` call (its second argument)."""
    bundle = args[1] if len(args) > 1 else kwargs.get("bundle")
    return getattr(getattr(bundle, "role", None), "value", None)


def subprocess_group(argv) -> str:
    if isinstance(argv, (str, bytes)) or not argv:
        return "other"
    first = os.path.basename(str(argv[0]))
    if first == "git":
        return "git"
    if any(str(a).endswith("stubagent.py") for a in argv[:4]):
        return "agent"
    return {"checker": "checker", "benchmark": "benchmark", "run": "probe", "build": "build"}.get(first, "other")


@dataclass
class Span:
    layer: str
    name: str
    key: Optional[str]
    thread: int
    depth: int
    round: Optional[int]  # round window open when the span started
    start: float
    end: float = 0.0
    child: float = 0.0  # time covered by direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class _SubprocessProxy:
    """Stands in for the ``subprocess`` module inside one forgeloop module."""

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(subprocess, name)

    def run(self, *args, **kwargs):
        argv = args[0] if args else kwargs.get("args")
        return self._tracer.call("subprocess", "run", subprocess_group(argv), subprocess.run, args, kwargs)

    def Popen(self, *args, **kwargs):  # noqa: N802 - mirrors subprocess.Popen
        argv = args[0] if args else kwargs.get("args")
        return self._tracer.call("subprocess", "popen", subprocess_group(argv), subprocess.Popen, args, kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.rounds: list[list[float]] = []  # [start, end] per round window
        self.main_thread = threading.get_ident()
        self._open_round: Optional[int] = None
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, layer: str, name: str, key, fn, args, kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(layer, name, key, threading.get_ident(), len(stack), self._open_round, time.perf_counter())
        stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1].child += span.duration
            self.spans.append(span)  # list.append is atomic under the GIL

    def _wrap(self, layer: str, name: str, fn):
        key_of = _role_key if name == "invoke_agent" else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = key_of(args, kwargs) if key_of else None
            return tracer.call(layer, name, key, fn, args, kwargs)

        return traced

    def _wrap_append(self, fn):
        tracer = self

        @functools.wraps(fn)
        def append(writer, kind, round_index, payload):
            if kind == "round_started":
                tracer._open_round = len(tracer.rounds)
                tracer.rounds.append([time.perf_counter(), 0.0])
            try:
                return tracer.call("ledger", "append", kind, fn, (writer, kind, round_index, payload), {})
            finally:
                if kind == "round_finished" and tracer._open_round is not None:
                    tracer.rounds[tracer._open_round][1] = time.perf_counter()
                    tracer._open_round = None

        return append

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        importlib.import_module("forgeloop.runner")  # loads every layer the loop uses
        loaded = [m for name, m in sorted(sys.modules.items()) if name.startswith("forgeloop")]
        for layer, (module_name, names) in TRACED.items():
            module = importlib.import_module(module_name)
            for qualified in names:
                if "." in qualified:
                    cls_name, attr = qualified.split(".")
                    cls = getattr(module, cls_name)
                    self._set(cls, attr, self._wrap(layer, attr, cls.__dict__[attr]))
                    continue
                original = getattr(module, qualified)
                wrapped = self._wrap(layer, qualified, original)
                for mod in loaded:  # every module that imported it by name
                    if mod.__dict__.get(qualified) is original:
                        self._set(mod, qualified, wrapped)
        writer = sys.modules["forgeloop.ledger"].LedgerWriter
        self._set(writer, "append", self._wrap_append(writer.__dict__["append"]))
        for module_name in SUBPROCESS_USERS:
            self._set(sys.modules[module_name], "subprocess", _SubprocessProxy(self))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries -------------------------------------------------------------

    def select(self, layer=None, name=None, key=None, in_round=None) -> list[Span]:
        return [
            s for s in self.spans
            if (layer is None or s.layer == layer)
            and (name is None or s.name == name)
            and (key is None or s.key == key)
            and (in_round is None or (s.round is not None) == in_round)
        ]

    def unattributed_per_round(self) -> list[float]:
        """Per round window: main-thread time no top-level span covers."""
        covered = [0.0] * len(self.rounds)
        for s in self.spans:
            if s.round is not None and s.thread == self.main_thread and s.depth == 0:
                covered[s.round] += s.duration
        return [(end - start) - cov for (start, end), cov in zip(self.rounds, covered)]


def _median_ms(spans: list[Span]) -> float:
    return statistics.median(s.duration for s in spans) * 1e3 if spans else 0.0


def per_layer(tr: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics the trace itself yields, as name -> (value, unit)."""
    rounds = max(1, len(tr.rounds))

    def per_round_ms(spans: list[Span]) -> float:
        return sum(s.duration for s in spans) * 1e3 / rounds

    out = {
        "mcp.shutdown_ms": (_median_ms(tr.select("mcp", "shutdown")), "ms"),
        "mcp.serve_ms": (_median_ms(tr.select("mcp", "serve")), "ms"),
        "mcp.dispatch_calls_per_round": (len(tr.select("mcp", "dispatch", in_round=True)) / rounds, "count"),
        "mcp.dispatch_ms": (_median_ms(tr.select("mcp", "dispatch")), "ms"),
        "workspace.init_ms": (_median_ms(tr.select("workspace", "init_workspace")), "ms"),
        "workspace.git_calls_per_round": (len(tr.select("subprocess", "run", "git", True)) / rounds, "count"),
        "workspace.git_ms_per_round": (per_round_ms(tr.select("subprocess", "run", "git", True)), "ms"),
        "workspace.verify_mounts_ms_per_round": (
            per_round_ms(tr.select("workspace", "verify_mounts", in_round=True)), "ms"),
        "workspace.commit_checkpoint_ms": (_median_ms(tr.select("workspace", "commit_checkpoint")), "ms"),
        "workspace.revert_ms": (_median_ms(tr.select("workspace", "revert_to")), "ms"),
        "workspace.diff_since_ms": (_median_ms(tr.select("workspace", "diff_since")), "ms"),
        "harness.spawns_per_round": (len(tr.select("subprocess", "popen", "agent", True)) / rounds, "count"),
    }
    for role in ("Implementer", "Judge", "Evaluator"):
        out[f"harness.invoke_ms_p50.{role.lower()}"] = (
            _median_ms(tr.select("harness", "invoke_agent", role)), "ms")
    out.update({
        "innerloop.checker_ms_per_round": (per_round_ms(tr.select("subprocess", "run", "checker", True)), "ms"),
        "innerloop.scan_ms_per_round": (per_round_ms(tr.select("innerloop", "scan_reward_hacks", in_round=True)), "ms"),
        "innerloop.benchmark_ms_per_round": (per_round_ms(tr.select("innerloop", "run_benchmark", in_round=True)), "ms"),
        "innerloop.self_ms_per_round": (
            sum(s.self_time for s in tr.select("innerloop", in_round=True)) * 1e3 / rounds, "ms"),
        "policy.state_ms_per_round": (
            per_round_ms([s for s in tr.select("policy") if s.name in POLICY_STATE]), "ms"),
        "skills.load_ms": (_median_ms(tr.select("skills", "load_library")), "ms"),
        "skills.retrieve_ms_per_round": (per_round_ms(tr.select("skills", "retrieve", in_round=True)), "ms"),
        "contract.load_ms": (_median_ms(tr.select("contract", "load_contract")), "ms"),
        "ledger.events_per_round": (len(tr.select("ledger", "append", in_round=True)) / rounds, "count"),
        "ledger.append_ms_per_round": (per_round_ms(tr.select("ledger", "append", in_round=True)), "ms"),
        "round.unattributed_ms": (sum(tr.unattributed_per_round()) * 1e3 / rounds, "ms"),
    })
    return out
