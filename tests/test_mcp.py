"""Tool server: protocol conformance (golden transcripts), schema gating,
sessions, and the socket transport."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from forgeloop.mcp import (
    HandlerError,
    InvalidToolset,
    ToolServer,
    ToolSpec,
    first_error,
    validate_toolset,
)
from forgeloop.ledger import LedgerWriter, read_ledger
from forgeloop.policy import EvolutionaryPolicy, IssueTrackerPolicy, RalphPolicy
from forgeloop.stubagent import _Client

GOLDEN = Path(__file__).parent / "golden" / "mcp_transcript.json"


@pytest.fixture
def policy(toy_workspace):
    return IssueTrackerPolicy(toy_workspace, seed_task=False)


@pytest.fixture
def server(policy):
    return ToolServer(list(policy.toolset()))


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


GOLDEN_REQUESTS = [
    {"jsonrpc": "2.0", "id": 1, "method": "initialize", "params": {"protocolVersion": "2025-06-18"}},
    {"jsonrpc": "2.0", "id": 2, "method": "tools/list"},
    {
        "jsonrpc": "2.0",
        "id": 3,
        "method": "tools/call",
        "params": {
            "name": "file_issue",
            "arguments": {
                "title": "add continuous batching",
                "rationale": "static batching stalls the queue",
                "acceptance_criteria": ["checker passes", "throughput improves at rate 8"],
                "expected_impact": "high",
            },
        },
    },
    {
        "jsonrpc": "2.0",
        "id": 4,
        "method": "tools/call",
        "params": {
            "name": "file_issue",
            "arguments": {
                "title": "missing criteria",
                "rationale": "schema gate must reject this",
                "expected_impact": "low",
            },
        },
    },
    {
        "jsonrpc": "2.0",
        "id": 5,
        "method": "tools/call",
        "params": {"name": "update_issue_status", "arguments": {"issue_id": 99, "status": "done"}},
    },
    {"jsonrpc": "2.0", "id": 6, "method": "tools/call", "params": {"name": "no_such_tool", "arguments": {}}},
    {"jsonrpc": "2.0", "id": 7, "method": "resources/list"},
]


def run_transcript(server):
    server.begin_session("Implementer", 0)
    try:
        return [server.dispatch(req) for req in GOLDEN_REQUESTS]
    finally:
        server.end_session()


def test_golden_transcript_byte_stable(server):
    responses = run_transcript(server)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got_bytes = "\n".join(canonical(r) for r in responses)
    want_bytes = "\n".join(canonical(r) for r in expected)
    assert got_bytes == want_bytes


def test_transcript_error_codes(server):
    responses = run_transcript(server)
    by_id = {r["id"]: r for r in responses}
    assert by_id[3]["result"] == {"ok": True, "payload": {"issue_id": 1}}
    assert by_id[4]["error"]["code"] == -32602
    assert "acceptance_criteria" in by_id[4]["error"]["message"]
    assert by_id[5]["result"]["ok"] is False  # HandlerError: unknown issue id
    assert by_id[6]["error"]["code"] == -32601
    assert by_id[7]["error"]["code"] == -32601


def test_initialize_handshake(server):
    server.begin_session("Judge", 0)
    resp = server.dispatch({"jsonrpc": "2.0", "id": 1, "method": "initialize"})
    server.end_session()
    assert resp["result"]["protocolVersion"] == "2025-06-18"
    assert resp["result"]["capabilities"] == {"tools": {}}


def test_tools_list_shows_three_issue_tracker_tools(server):
    server.begin_session("Judge", 0)
    resp = server.dispatch({"jsonrpc": "2.0", "id": 1, "method": "tools/list"})
    server.end_session()
    names = [t["name"] for t in resp["result"]["tools"]]
    assert names == ["file_issue", "record_finding", "update_issue_status"]
    for tool in resp["result"]["tools"]:
        assert tool["inputSchema"]["type"] == "object"


def test_schema_gate_handler_never_runs_on_invalid(policy):
    calls = {"n": 0}

    def handler(ctx, args):
        calls["n"] += 1
        return {}

    spec = ToolSpec(
        name="probe",
        description="d",
        input_schema={
            "type": "object",
            "properties": {"x": {"type": "integer"}},
            "required": ["x"],
            "additionalProperties": False,
        },
        handler=handler,
    )
    server = ToolServer([spec])
    server.begin_session("Implementer", 0)
    bad = server.dispatch(
        {"jsonrpc": "2.0", "id": 1, "method": "tools/call", "params": {"name": "probe", "arguments": {}}}
    )
    good = server.dispatch(
        {"jsonrpc": "2.0", "id": 2, "method": "tools/call", "params": {"name": "probe", "arguments": {"x": 1}}}
    )
    server.end_session()
    assert bad["error"]["code"] == -32602
    assert good["result"]["ok"] is True
    assert calls["n"] == 1


def test_call_outside_session_rejected(server):
    resp = server.dispatch(
        {
            "jsonrpc": "2.0",
            "id": 9,
            "method": "tools/call",
            "params": {"name": "record_finding", "arguments": {"text": "hello"}},
        }
    )
    assert resp["result"]["ok"] is False
    assert "outside" in resp["result"]["error"]


def test_session_restricts_visible_tools(server):
    server.begin_session("Evaluator", 2, allowed_tools=("record_finding",))
    listed = server.dispatch({"jsonrpc": "2.0", "id": 1, "method": "tools/list"})
    blocked = server.dispatch(
        {
            "jsonrpc": "2.0",
            "id": 2,
            "method": "tools/call",
            "params": {
                "name": "file_issue",
                "arguments": {
                    "title": "t",
                    "rationale": "r",
                    "acceptance_criteria": ["c"],
                    "expected_impact": "low",
                },
            },
        }
    )
    server.end_session()
    assert [t["name"] for t in listed["result"]["tools"]] == ["record_finding"]
    assert blocked["error"]["code"] == -32601


def test_session_counts_calls_and_captures_result(server):
    session = server.begin_session("Implementer", 1)
    server.dispatch(
        {
            "jsonrpc": "2.0",
            "id": 1,
            "method": "tools/call",
            "params": {"name": "record_finding", "arguments": {"text": "note"}},
        }
    )
    server.dispatch({"jsonrpc": "2.0", "id": 2, "method": "result/emit", "params": {"approve": True}})
    done = server.end_session()
    assert done is session
    assert done.tool_calls == 1  # result/emit is not a tool call
    assert done.emitted_result == {"approve": True}
    assert done.tool_log[0].tool == "record_finding"
    assert done.tool_log[0].ok


def test_call_result_ids_pair_bijectively(server):
    server.begin_session("Implementer", 0)
    ids = [11, 22, 33]
    responses = [
        server.dispatch(
            {
                "jsonrpc": "2.0",
                "id": i,
                "method": "tools/call",
                "params": {"name": "record_finding", "arguments": {"text": f"n{i}"}},
            }
        )
        for i in ids
    ]
    server.end_session()
    assert [r["id"] for r in responses] == ids


def test_validate_toolset_rejects_duplicates_and_bad_schema():
    def handler(ctx, args):
        return {}

    good = ToolSpec("a", "d", {"type": "object"}, handler)
    with pytest.raises(InvalidToolset):
        validate_toolset([good, ToolSpec("a", "d2", {"type": "object"}, handler)])
    with pytest.raises(InvalidToolset):
        validate_toolset([ToolSpec("b", "d", {"type": "nonsense"}, handler)])


def test_dispatch_handler_error_becomes_result(tmp_path):
    seen = []

    def handler(ctx, args):
        seen.append((ctx.role, ctx.round))
        raise HandlerError("nope")

    ledger = LedgerWriter(tmp_path / "ledger.jsonl")
    server = ToolServer([ToolSpec("t", "d", {"type": "object"}, handler)], ledger=ledger)
    server.begin_session("Judge", 3)
    response = server.dispatch(
        {"jsonrpc": "2.0", "id": 1, "method": "tools/call", "params": {"name": "t", "arguments": {}}}
    )
    session = server.end_session()
    ledger.close()
    assert response == {"jsonrpc": "2.0", "id": 1, "result": {"ok": False, "error": "nope"}}
    assert seen == [("Judge", 3)]
    assert session.tool_calls == 1
    assert [(e.tool, e.ok, e.payload, e.error) for e in session.tool_log] == [("t", False, None, "nope")]
    (event,) = read_ledger(tmp_path / "ledger.jsonl")
    assert (event.kind, event.round) == ("tool_call", 3)
    assert event.payload == {"role": "Judge", "tool": "t", "ok": False, "error": "nope"}


def test_socket_transport_round_trip(server, tmp_path):
    sock = str(tmp_path / "t.sock")
    server.serve(sock)
    try:
        server.begin_session("Implementer", 0)
        client = _Client(sock)
        init = client.request("initialize", {})
        assert init["result"]["serverInfo"]["name"] == "forgeloop"
        called = client.request("tools/call", {"name": "record_finding", "arguments": {"text": "via socket"}})
        assert called["result"]["ok"] is True
        emitted = client.request("result/emit", {"approve": False})
        assert emitted["result"]["ok"] is True
        client.close()
        done = server.end_session()
        assert done.tool_calls == 1
        assert done.emitted_result == {"approve": False}
    finally:
        server.shutdown()


NOT_OBJECTS = [
    ([1], {"jsonrpc": "2.0", "id": None, "error": {"code": -32700, "message": "parse error"}}),
    (3, {"jsonrpc": "2.0", "id": None, "error": {"code": -32700, "message": "parse error"}}),
    (
        {"jsonrpc": "2.0", "id": 7, "method": "tools/call", "params": [1]},
        {"jsonrpc": "2.0", "id": 7, "error": {"code": -32602, "message": "tools/call params must be an object"}},
    ),
]


def test_dispatch_answers_requests_that_are_not_objects(server):
    server.begin_session("Implementer", 0)
    assert [server.dispatch(request) for request, _ in NOT_OBJECTS] == [want for _, want in NOT_OBJECTS]
    assert server.end_session().tool_log == []


def test_socket_keeps_answering_after_requests_that_are_not_objects(server, tmp_path):
    import socket

    sock = str(tmp_path / "n.sock")
    server.serve(sock)
    try:
        server.begin_session("Implementer", 0)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
            conn.connect(sock)
            stream = conn.makefile("rw", encoding="utf-8")
            for request, want in NOT_OBJECTS + [("{not json", NOT_OBJECTS[0][1])]:
                stream.write((request if isinstance(request, str) else json.dumps(request)) + "\n")
                stream.flush()
                assert json.loads(stream.readline()) == want
            stream.write(json.dumps({"jsonrpc": "2.0", "id": 8, "method": "initialize", "params": {}}) + "\n")
            stream.flush()
            answer = json.loads(stream.readline())
        assert answer["id"] == 8 and answer["result"]["serverInfo"]["name"] == "forgeloop"
        server.end_session()
    finally:
        server.shutdown()


def test_transport_unavailable():
    from forgeloop.mcp import TransportUnavailable

    server = ToolServer([])
    with pytest.raises(TransportUnavailable):
        server.serve("/nonexistent-dir/deep/t.sock")


def test_concurrent_session_rejected(server):
    from forgeloop.mcp import McpError

    server.begin_session("Implementer", 0)
    with pytest.raises(McpError):
        server.begin_session("Judge", 0)
    server.end_session()


def test_shutdown_is_prompt_and_closes_the_endpoint(policy, tmp_path):
    import socket
    import time

    for i in range(5):
        server = ToolServer(list(policy.toolset()))
        sock = str(tmp_path / f"s{i}.sock")
        server.serve(sock)
        client = _Client(sock)
        assert client.request("initialize", {})["result"]["serverInfo"]["name"] == "forgeloop"
        client.close()
        start = time.perf_counter()
        server.shutdown()
        assert time.perf_counter() - start < 0.05
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            with pytest.raises(OSError):
                probe.connect(sock)
        finally:
            probe.close()


def test_serve_shutdown_cycles_leave_no_threads(tmp_path):
    import threading

    # Compare thread sets, not counts: a handler thread of an earlier test may
    # still be finishing while this one runs.
    before = set(threading.enumerate())
    for i in range(20):
        server = ToolServer([])
        server.serve(str(tmp_path / f"c{i}.sock"))
        server.shutdown()
    assert set(threading.enumerate()) <= before


# -- the built-in JSON-Schema subset check ------------------------------------------

OBJ = {
    "type": "object",
    "properties": {"n": {"type": "integer"}, "s": {"type": "string", "minLength": 2}},
    "required": ["n"],
    "additionalProperties": False,
}


@pytest.mark.parametrize(
    "schema, instance, error",
    [
        ({"type": "object"}, {}, None),
        ({"type": "object"}, [], "[] is not of type 'object'"),
        ({"type": "array"}, [1], None),
        ({"type": "array"}, {}, "{} is not of type 'array'"),
        ({"type": "string"}, "x", None),
        ({"type": "string"}, 1, "1 is not of type 'string'"),
        ({"type": "integer"}, 3, None),
        ({"type": "integer"}, 1.0, None),
        ({"type": "integer"}, 1.5, "1.5 is not of type 'integer'"),
        ({"type": "integer"}, True, "True is not of type 'integer'"),
        ({"type": "number"}, 2.5, None),
        ({"type": "number"}, False, "False is not of type 'number'"),
        ({"type": "boolean"}, True, None),
        ({"type": "boolean"}, 0, "0 is not of type 'boolean'"),
        (OBJ, {"n": 1, "s": "ab"}, None),
        (OBJ, {"n": "1"}, "'1' is not of type 'integer'"),
        (OBJ, {"s": "ab"}, "'n' is a required property"),
        (OBJ, {"n": 1, "x": 0}, "Additional properties are not allowed ('x' was unexpected)"),
        (OBJ, {"n": 1, "y": 0, "x": 0}, "Additional properties are not allowed ('x', 'y' were unexpected)"),
        (OBJ, {"n": 1, "s": "a"}, "'a' is too short"),
        ({"type": "string", "minLength": 1}, "", "'' should be non-empty"),
        ({"type": "array", "items": {"type": "integer"}}, [1, 2], None),
        ({"type": "array", "items": {"type": "integer"}}, [1, "2"], "'2' is not of type 'integer'"),
        ({"type": "array", "minItems": 1}, [], "[] should be non-empty"),
        ({"type": "array", "minItems": 2}, [1], "[1] is too short"),
        ({"enum": ["a", 1]}, "a", None),
        ({"enum": ["a", 1]}, 1.0, None),
        ({"enum": ["a", 1]}, True, "True is not one of ['a', 1]"),
        ({"enum": ["a", 1]}, "b", "'b' is not one of ['a', 1]"),
        ({"type": "string", "description": "free text"}, "x", None),
    ],
)
def test_schema_keywords_accept_and_reject(schema, instance, error):
    validate_toolset([ToolSpec("t", "d", schema, lambda ctx, args: {})])
    assert first_error(schema, instance) == error


def test_first_error_is_the_first_by_json_path():
    # The root's missing property sorts before the nested type error, and
    # among errors at one path the keyword order of the schema decides.
    assert first_error(OBJ, {"s": 5}) == "'n' is a required property"
    assert first_error(OBJ, {"n": 1, "s": 5}) == "5 is not of type 'string'"
    schema = {"type": "string", "enum": ["ab"], "minLength": 2}
    assert first_error(schema, 3) == "3 is not of type 'string'"


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "string", "pattern": "^a"},
        {"type": "object", "properties": {"x": {"type": "string", "format": "email"}}},
        {"type": "array", "items": {"maxLength": 3}},
        {"type": "null"},
        {"type": ["string", "integer"]},
        {"type": "object", "additionalProperties": True},
        {"type": "object", "additionalProperties": {"type": "string"}},
        {"type": "object", "required": "x"},
        {"enum": []},
        {"enum": [["a"]]},
        {"type": "string", "minLength": -1},
        {"type": "array", "minItems": True},
        {"$ref": "#/defs/x"},
    ],
)
def test_unsupported_schema_is_refused_at_construction(schema):
    spec = ToolSpec("t", "d", schema, lambda ctx, args: {})
    with pytest.raises(InvalidToolset):
        validate_toolset([spec])
    with pytest.raises(InvalidToolset):
        ToolServer([spec])


def test_every_builtin_toolset_passes_the_check(toy_workspace):
    for policy in (
        IssueTrackerPolicy(toy_workspace, seed_task=False),
        EvolutionaryPolicy(seed_task="speed it up"),
        RalphPolicy(toy_workspace, task_text="speed it up"),
    ):
        validate_toolset(list(policy.served_toolset()))


ARGUMENT_CORPUS = [
    {},
    [],
    "text",
    None,
    7,
    {"text": "a finding"},
    {"text": ""},
    {"text": 5},
    {"text": "x", "extra": 1},
    {"text": "x", "b": 1, "a": 2},
    {"issue_id": 3},
    {"issue_id": True},
    {"issue_id": 1.0},
    {"issue_id": 1.5},
    {"issue_id": "3"},
    {"issue_id": 3, "status": "done"},
    {"issue_id": 3, "status": "finished"},
    {"issue_id": 3, "status": None},
    {"status": "open"},
    {"issue_id": "x", "status": "nope", "more": []},
    {
        "title": "t",
        "rationale": "r",
        "acceptance_criteria": ["c"],
        "expected_impact": "high",
    },
    {
        "title": "",
        "rationale": "r",
        "acceptance_criteria": [],
        "expected_impact": "huge",
    },
    {
        "title": "t",
        "rationale": 1,
        "acceptance_criteria": ["c", 2],
        "expected_impact": "low",
        "depends_on": [1, True, "2", 3.0],
    },
    {"title": "t", "acceptance_criteria": "c", "depends_on": {}},
    {"rationale": "r", "expected_impact": "medium", "surprise": True},
    {"title": None, "rationale": None, "acceptance_criteria": None, "expected_impact": None},
]


def test_check_agrees_with_jsonschema(toy_workspace):
    jsonschema = pytest.importorskip("jsonschema")
    tools = IssueTrackerPolicy(toy_workspace, seed_task=False).served_toolset()
    assert len(tools) == 4
    for tool in tools:
        jsonschema.Draft202012Validator.check_schema(tool.input_schema)
        validator = jsonschema.Draft202012Validator(tool.input_schema)
        for arguments in ARGUMENT_CORPUS:
            errors = sorted(validator.iter_errors(arguments), key=lambda e: e.json_path)
            want = errors[0].message if errors else None
            assert first_error(tool.input_schema, arguments) == want, (tool.name, arguments)


def test_the_loop_does_not_load_jsonschema():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, forgeloop.runner\nassert 'jsonschema' not in sys.modules\n"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_jsonschema_is_not_a_dependency():
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert "jsonschema" not in pyproject.read_text(encoding="utf-8")
