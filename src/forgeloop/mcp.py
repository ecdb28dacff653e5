"""Structured channel from inner-loop agents back to the active policy.

A small JSON-RPC 2.0 tool server: the policy defines the toolset (name,
description, JSON-Schema input contract, handler), agents call
``initialize`` / ``tools/list`` / ``tools/call`` over a per-run local Unix
socket with newline-delimited JSON framing. Arguments are schema-validated
before any handler runs; schema failures return error -32602 and unknown
methods or tools return -32601.

Input schemas use a small JSON-Schema (Draft 2020-12) subset, checked by
the code below rather than a schema library: ``type`` (object, array,
string, integer, number, boolean), ``properties``, ``required``,
``additionalProperties: false``, ``items``, ``enum``, ``minLength`` and
``minItems``, with ``description`` as an annotation. A toolset using any
other keyword is rejected when the server is built, so no constraint is
silently ignored. A failing call reports its first error by JSON path, in
jsonschema's wording.

One extension method exists beyond the protocol core: ``result/emit``
carries an agent's final structured result. Keeping it on the same channel
means stdout is never parsed for semantics.

Sessions are per agent invocation: the invoker brackets each spawn with
``begin_session`` / ``end_session`` so every tool call is attributed to a
role and round. The :class:`Session` is the turn's one in-memory record:
its tool-call count, the log of answered calls and the emitted result; the
harness's ``invocation`` ledger event is the turn's durable account. Calls
outside any session are policy-level rejections.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
from typing import Callable, NamedTuple, Optional

from forgeloop.errors import ForgeloopError

PROTOCOL_VERSION = "2025-06-18"
SERVER_INFO = {"name": "forgeloop", "version": "0.1.0"}

METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
PARSE_ERROR = -32700
INTERNAL_ERROR = -32603


class McpError(ForgeloopError):
    pass


class TransportUnavailable(McpError):
    pass


class HandlerError(McpError):
    """Policy-level rejection (unknown issue id, no active round, ...)."""


class InvalidToolset(McpError):
    pass


class SessionContext(NamedTuple):
    role: str
    round: int


# Handlers take (SessionContext, validated arguments) and return a payload.
ToolHandler = Callable[[SessionContext, dict], dict]


class ToolSpec(NamedTuple):
    name: str
    description: str
    input_schema: dict
    handler: ToolHandler


_TYPES: dict[str, Callable[[object], bool]] = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    # Draft 2020-12: a bool is not a number, and 1.0 is an integer.
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
}
_SCALARS = (str, int, float, bool, type(None))


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


# The supported keywords, each with the values it may take.
_KEYWORDS: dict[str, Callable[[object], bool]] = {
    "type": lambda v: isinstance(v, str) and v in _TYPES,
    "properties": lambda v: isinstance(v, dict),
    "required": lambda v: isinstance(v, list) and all(isinstance(n, str) for n in v),
    "additionalProperties": lambda v: v is False,
    "items": lambda v: True,  # a schema, checked below
    "enum": lambda v: isinstance(v, list) and bool(v) and all(isinstance(x, _SCALARS) for x in v),
    "minLength": _is_count,
    "minItems": _is_count,
    "description": lambda v: isinstance(v, str),
}


def _check_schema(schema, where: str = "schema") -> None:
    """Raise InvalidToolset unless ``schema`` keeps to the supported subset."""
    if not isinstance(schema, dict):
        raise InvalidToolset(f"{where} is not an object")
    for key, value in schema.items():
        if key not in _KEYWORDS:
            raise InvalidToolset(f"{where} uses an unsupported keyword: {key}")
        if not _KEYWORDS[key](value):
            raise InvalidToolset(f"{where}.{key} may not be {value!r}")
    for name, sub in schema.get("properties", {}).items():
        _check_schema(sub, f"{where}.properties.{name}")
    if "items" in schema:
        _check_schema(schema["items"], f"{where}.items")


def _too_short(instance, minimum: int) -> str:
    return f"{instance!r} {'should be non-empty' if minimum == 1 else 'is too short'}"


def _errors(schema: dict, instance, path: str):
    """Yield (JSON path, message) per violation, in jsonschema's order:
    keywords in schema order, properties in schema order."""
    for key, value in schema.items():
        if key == "type":
            if not _TYPES[value](instance):
                yield path, f"{instance!r} is not of type {value!r}"
        elif key == "enum":
            # JSON's true is not the number 1, though 1.0 is.
            is_bool = isinstance(instance, bool)
            if not any(v == instance and isinstance(v, bool) == is_bool for v in value):
                yield path, f"{instance!r} is not one of {value!r}"
        elif key == "minLength":
            if isinstance(instance, str) and len(instance) < value:
                yield path, _too_short(instance, value)
        elif key == "minItems":
            if isinstance(instance, list) and len(instance) < value:
                yield path, _too_short(instance, value)
        elif key == "items":
            if isinstance(instance, list):
                for i, item in enumerate(instance):
                    yield from _errors(value, item, f"{path}[{i}]")
        elif not isinstance(instance, dict):
            continue
        elif key == "properties":
            for name, sub in value.items():
                if name in instance:
                    yield from _errors(sub, instance[name], f"{path}.{name}")
        elif key == "required":
            for name in value:
                if name not in instance:
                    yield path, f"{name!r} is a required property"
        elif key == "additionalProperties":
            known = schema.get("properties", {})
            extras = sorted((k for k in instance if k not in known), key=str)
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                yield path, (f"Additional properties are not allowed "
                             f"({', '.join(repr(k) for k in extras)} {verb} unexpected)")


def first_error(schema: dict, instance) -> Optional[str]:
    """The message of the first violation by JSON path, or None if valid.

    ``schema`` must keep to the supported subset (see ``validate_toolset``)."""
    found = min(_errors(schema, instance, "$"), key=lambda e: e[0], default=None)
    return None if found is None else found[1]


def validate_toolset(tools: list[ToolSpec]) -> None:
    names = [t.name for t in tools]
    if len(set(names)) != len(names):
        raise InvalidToolset(f"duplicate tool names: {names}")
    for t in tools:
        try:
            _check_schema(t.input_schema)
        except InvalidToolset as exc:
            raise InvalidToolset(f"tool {t.name} has an invalid input schema: {exc}") from None


class ToolLogEntry(NamedTuple):
    tool: str
    arguments: dict
    ok: bool
    payload: Optional[dict]
    error: Optional[str]


class Session:
    """One agent turn's in-memory record: dispatch counts its tool calls,
    logs each answered call and keeps the result it emitted."""

    def __init__(self, role: str, round: int, allowed_tools: Optional[frozenset[str]] = None):
        self.role, self.round, self.allowed_tools = role, round, allowed_tools  # None = full toolset
        self.tool_calls = 0
        self.emitted_result: Optional[object] = None
        self.tool_log: list[ToolLogEntry] = []


class ToolServer:
    """Dispatch core plus an optional Unix-socket transport."""

    def __init__(self, tools: list[ToolSpec], ledger=None):
        validate_toolset(tools)
        self.tools: dict[str, ToolSpec] = {t.name: t for t in tools}
        self.ledger = ledger
        self._session: Optional[Session] = None
        self._lock = threading.Lock()
        self._server: Optional[socketserver.ThreadingUnixStreamServer] = None
        self._thread: Optional[threading.Thread] = None
        self.socket_path: Optional[str] = None

    # -- session management (invoker side) -----------------------------

    def begin_session(self, role: str, round_index: int, allowed_tools=None) -> Session:
        with self._lock:
            if self._session is not None:
                raise McpError("a session is already active; the pipeline is sequential")
            self._session = Session(
                role=role,
                round=round_index,
                allowed_tools=frozenset(allowed_tools) if allowed_tools is not None else None,
            )
            return self._session

    def end_session(self) -> Session:
        with self._lock:
            if self._session is None:
                raise McpError("no active session")
            done = self._session
            self._session = None
            return done

    # -- dispatch -------------------------------------------------------

    def _visible_tools(self, session: Optional[Session]) -> dict[str, ToolSpec]:
        if session is None or session.allowed_tools is None:
            return self.tools
        return {n: t for n, t in self.tools.items() if n in session.allowed_tools}

    def dispatch(self, request: object) -> Optional[dict]:
        """Handle one parsed JSON-RPC request; None for notifications. A
        request that is not a JSON object (``None`` for an unparsable line)
        gets a parse error with a null id."""
        if not isinstance(request, dict):
            return {"jsonrpc": "2.0", "id": None, "error": {"code": PARSE_ERROR, "message": "parse error"}}
        req_id = request.get("id")
        is_notification = "id" not in request

        def result(payload: dict) -> Optional[dict]:
            if is_notification:
                return None
            return {"jsonrpc": "2.0", "id": req_id, "result": payload}

        def error(code: int, message: str) -> Optional[dict]:
            if is_notification:
                return None
            return {"jsonrpc": "2.0", "id": req_id, "error": {"code": code, "message": message}}

        if request.get("jsonrpc") != "2.0" or "method" not in request:
            return error(PARSE_ERROR, "not a JSON-RPC 2.0 request")
        method = request["method"]
        params = request.get("params", {})
        with self._lock:
            session = self._session

        if method == "initialize":
            return result(
                {
                    "protocolVersion": PROTOCOL_VERSION,
                    "capabilities": {"tools": {}},
                    "serverInfo": dict(SERVER_INFO),
                }
            )

        if method == "tools/list":
            tools = [
                {"name": t.name, "description": t.description, "inputSchema": t.input_schema}
                for t in self._visible_tools(session).values()
            ]
            tools.sort(key=lambda t: t["name"])
            return result({"tools": tools})

        if method == "tools/call":
            if not isinstance(params, dict):
                return error(INVALID_PARAMS, "tools/call params must be an object")
            name = params.get("name")
            arguments = params.get("arguments", {})
            if session is not None:
                session.tool_calls += 1
            spec = self._visible_tools(session).get(name)
            if spec is None:
                return error(METHOD_NOT_FOUND, f"tool not found: {name}")
            if session is None:
                refusal = "tool call outside any active round"
                self._record_tool_event(None, name, ok=False, error=refusal)
                return result({"ok": False, "error": refusal})
            # The handler never runs on arguments that fail the schema.
            invalid = first_error(spec.input_schema, arguments)
            if invalid is not None:
                self._record_tool_event(session, name, ok=False, error=f"invalid params: {invalid}")
                return error(INVALID_PARAMS, f"invalid params for {name}: {invalid}")
            try:
                payload = spec.handler(SessionContext(session.role, session.round), arguments)
                entry = ToolLogEntry(name, arguments, ok=True, payload=payload, error=None)
            except HandlerError as exc:
                entry = ToolLogEntry(name, arguments, ok=False, payload=None, error=str(exc))
            session.tool_log.append(entry)
            self._record_tool_event(session, name, ok=entry.ok, error=entry.error)
            if entry.ok:
                return result({"ok": True, "payload": entry.payload})
            return result({"ok": False, "error": entry.error})

        if method == "result/emit":
            if session is None:
                return error(INTERNAL_ERROR, "result/emit outside any active session")
            session.emitted_result = params
            return result({"ok": True})

        return error(METHOD_NOT_FOUND, f"method not found: {method}")

    def _record_tool_event(self, session: Optional[Session], tool: str, ok: bool, error=None) -> None:
        if self.ledger is None:
            return
        payload = {"role": session.role if session else "?", "tool": tool, "ok": ok}
        if error:
            payload["error"] = error
        self.ledger.append("tool_call", session.round if session else -1, payload)

    # -- Unix socket transport ------------------------------------------

    def serve(self, socket_path: str) -> None:
        """Bind the socket and answer requests in a background thread."""
        dispatcher = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                for raw in self.rfile:
                    line = raw.decode("utf-8").strip()
                    if not line:
                        continue
                    try:
                        request = json.loads(line)
                    except json.JSONDecodeError:
                        request = None
                    response = dispatcher.dispatch(request)
                    if response is not None:
                        self.wfile.write((json.dumps(response, sort_keys=True) + "\n").encode())
                        self.wfile.flush()

        class Server(socketserver.ThreadingUnixStreamServer):
            daemon_threads = True

        try:
            self._server = Server(socket_path, Handler)
        except OSError as exc:
            raise TransportUnavailable(f"cannot bind tool endpoint {socket_path}: {exc}") from exc
        self.socket_path = socket_path
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    def shutdown(self) -> None:
        if self._server is not None:
            # A shut-down listening socket polls readable at once, so the
            # accept loop sees the stop request now rather than on its next
            # poll timeout.
            self._server.socket.shutdown(socket.SHUT_RDWR)
            self._server.shutdown()
            self._server.server_close()
            self._thread.join()
            self._server = None

