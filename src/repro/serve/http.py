"""Thin JSON-over-HTTP front end over :class:`ServerCore`.

Standard library only: :class:`http.server.ThreadingHTTPServer` gives
one handler thread per connection; every handler immediately delegates
to the shared :class:`~repro.serve.core.ServerCore`, so concurrency,
admission and coalescing semantics live in one place regardless of
transport.

Routes
------
``GET /search?q=...&s=...&k=...&deadline_ms=...``
    Run a keyword query; also accepts ``POST /search`` with the same
    fields as a JSON body.  A JSON body may also carry an ``options``
    object — the wire form of
    :class:`~repro.core.config.SearchOptions` (``s``, ``k``,
    ``use_cache``, ``strict_deadline``, ``deadline_ms``, ``mode``,
    ``threshold``); the same names given top-level win over its fields.
    The merged mapping is validated in one place,
    :meth:`SearchOptions.from_mapping`, and the resulting record travels
    to the engine as it is.  Responds with the
    :func:`repro.core.export.response_to_dict` payload plus a ``serve``
    envelope (degradation report, cache/coalesce provenance), written
    by :func:`repro.core.export.response_to_json`: the same bytes
    ``json.dumps`` prints for that dict, with each node rendered once
    and kept on the node, so a cache hit re-renders none.
``POST /documents``
    Append one XML document (JSON body ``{"text": "<xml...>",
    "name"?: ...}``) through the broker; on a durable engine the write
    is WAL'd and crash-safe before the 200 returns.
``POST /admin/flush`` / ``POST /admin/compact``
    Flush the memtable to an immutable segment / compact multi-run
    shards (durable engines only; 500 ``StorageError`` otherwise).
``GET /healthz``
    Liveness + drain state.
``GET /metrics``
    The metrics registry in Prometheus text exposition format.

Error mapping: client errors (bad query, wrongly typed or out-of-range
parameters, an unreadable body, a query mode the serving engine was not
configured for) are 400; :class:`~repro.errors.Overloaded` is 429 with a
``Retry-After`` header when the broker can suggest one;
:class:`~repro.errors.SearchTimeout` is 504; any other
:class:`~repro.errors.GKSError` is 500, and so is an exception nobody
anticipated (``"type": "InternalError"``) — every exchange ends in a
response, never in a dropped connection.  Bodies are always JSON:
``{"error": ..., "type": ..., "reason"?: ...}``.

Correlation: every ``/search`` exchange — success *or* error — answers
with an ``X-Request-Id`` header (the client's own when it sent a
well-formed one — 1 to 64 characters from ``[A-Za-z0-9._:-]`` —
otherwise minted at admission).  The same id is stamped on the
response's :class:`~repro.obs.stats.QueryStats`, the slow-query log
entry and the search's span tree, so one grep joins all four.
"""

from __future__ import annotations

import json
import re
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.core.config import SearchOptions
from repro.core.export import response_to_json
from repro.errors import (ConfigError, GKSError, Overloaded, QueryError,
                          SearchTimeout, ValidationError, XMLSyntaxError)
from repro.serve.core import ServerCore

#: A client-supplied request id is taken only in this shape: it lands
#: in the response header, the span tree and the one-line slow log, so
#: a folded header carrying CR/LF (or an unbounded one) is replaced by
#: a minted id.
_CLIENT_REQUEST_ID = re.compile(r"[A-Za-z0-9._:-]{1,64}")


class ServeHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` carrying the shared broker."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], core: ServerCore) -> None:
        self.core = core
        super().__init__(address, GKSRequestHandler)


class GKSRequestHandler(BaseHTTPRequestHandler):
    # quiet by default: one log line per request on stderr does not
    # belong in a library; front ends scrape /metrics instead
    def log_message(self, format: str, *args) -> None:
        pass

    @property
    def core(self) -> ServerCore:
        return self.server.core  # type: ignore[attr-defined]

    # -- plumbing -------------------------------------------------------
    def _send_json(self, status: int, payload: dict | bytes,
                   headers: dict[str, str] | None = None) -> None:
        """Send *payload*: a dict to dump, or a body already encoded."""
        body = (payload if isinstance(payload, bytes)
                else json.dumps(payload).encode("utf-8"))
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_failure(self, exc: Exception, client_errors: tuple,
                      headers: dict[str, str] | None = None) -> None:
        """Answer a failed exchange; *client_errors* are the route's 400s."""
        headers = dict(headers or {})
        payload = {"error": str(exc), "type": type(exc).__name__}
        if isinstance(exc, Overloaded):
            status = 429
            payload["reason"] = exc.reason
            if exc.retry_after_s is not None:
                headers["Retry-After"] = f"{exc.retry_after_s:.3f}"
        elif isinstance(exc, SearchTimeout):
            status = 504
        elif isinstance(exc, client_errors):
            status = 400
        else:
            status = 500
            if not isinstance(exc, GKSError):
                payload["type"] = "InternalError"
        self._send_json(status, payload, headers=headers)

    def _params(self) -> dict:
        """Merged query-string + JSON-body parameters (body wins)."""
        split = urlsplit(self.path)
        params = {name: values[-1]
                  for name, values in parse_qs(split.query).items()}
        try:
            length = int(self.headers.get("Content-Length") or 0)
            # (a negative length would make the read wait for EOF)
            body = (json.loads(self.rfile.read(length).decode("utf-8"))
                    if length > 0 else {})
        except ValueError as exc:  # bad length, bad UTF-8, bad JSON
            raise ValidationError(f"unreadable request body: {exc}") from exc
        if length < 0:
            raise ValidationError(f"negative Content-Length: {length}")
        if not isinstance(body, dict):
            raise ValidationError("request body must be a JSON object")
        params.update(body)
        return params

    @staticmethod
    def _pop_text(params: dict, *names: str) -> str:
        """Remove *names* from *params*; the first one present is the
        value, and it must be a non-empty string."""
        values = [params.pop(name) for name in names if name in params]
        if not values:
            raise ValidationError(
                f"missing required parameter {names[0]!r}")
        if not isinstance(values[0], str) or not values[0]:
            raise ValidationError(
                f"parameter {names[0]!r} must be a non-empty string")
        return values[0]

    def _answer(self, work, client_errors: tuple = (),
                headers: dict[str, str] | None = None) -> None:
        """Send ``work()``'s payload, or the failure it raised: whatever
        happens in a route, the exchange ends in a response."""
        try:
            payload = work()
        except Exception as exc:  # noqa: BLE001 - answered, not dropped
            self._send_failure(exc, client_errors, headers)
            return
        self._send_json(200, payload, headers=headers)

    # -- routes ---------------------------------------------------------
    def do_GET(self) -> None:
        route = urlsplit(self.path).path
        if route == "/healthz":
            payload = self.core.healthz()
            status = 200 if payload["status"] == "ok" else 503
            self._send_json(status, payload)
        elif route == "/metrics":
            text = self.core.registry.render_prometheus().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type",
                             "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(text)))
            self.end_headers()
            self.wfile.write(text)
        elif route == "/search":
            self._search()
        else:
            self._send_json(404, {"error": f"no route {route!r}",
                                  "type": "NotFound"})

    def do_POST(self) -> None:
        route = urlsplit(self.path).path
        if route == "/search":
            self._search()
        elif route == "/documents":
            # malformed XML is the client's fault; storage failures ours
            self._answer(self._add_document,
                         (XMLSyntaxError, ValidationError))
        elif route == "/admin/flush":
            self._answer(self.core.flush)
        elif route == "/admin/compact":
            self._answer(self.core.compact)
        else:
            self._send_json(404, {"error": f"no route {route!r}",
                                  "type": "NotFound"})

    def _search(self) -> None:
        # the correlation id is minted (or taken from the client) before
        # admission so even a shed or parse error answers with one;
        # coalesced followers share the leader's stamped id, the header
        # still reports the id minted for *this* HTTP exchange
        rid = self.headers.get("X-Request-Id") or ""
        if not _CLIENT_REQUEST_ID.fullmatch(rid):
            rid = self.core.mint_request_id()

        def work() -> bytes:
            params = self._params()
            raw = self._pop_text(params, "q", "query")
            # ``{"options": {...}}`` in the body (or a JSON object in the
            # query string) is the tuning record; every other parameter
            # is one of its fields given top-level, and wins
            tuning = params.pop("options", {})
            if isinstance(tuning, str):
                try:
                    tuning = json.loads(tuning)
                except ValueError as exc:
                    raise ValidationError(
                        f"options is not JSON: {exc}") from exc
            if not isinstance(tuning, dict):
                raise ValidationError("options must be a JSON object")
            tuning = {**tuning, **params}
            options = SearchOptions.from_mapping(tuning) if tuning else None
            response = self.core.search(raw, options=options,
                                        request_id=rid)
            return response_to_json(
                response, self.core.engine.repository,
                {"serve": _serve_envelope(response)})

        # bad queries, options and modes are the client's fault; the rest
        # are ours
        self._answer(work, (QueryError, ValidationError, ConfigError),
                     headers={"X-Request-Id": rid})

    def _add_document(self) -> dict:
        params = self._params()
        text = self._pop_text(params, "text", "xml")
        name = params.get("name")
        if name is not None and not isinstance(name, str):
            raise ValidationError("parameter 'name' must be a string")
        return self.core.add_document(text, name=name)


def _serve_envelope(response) -> dict:
    envelope: dict = {
        "degraded": response.degraded,
        "cache_hit": response.stats.cache_hit,
        "request_id": response.stats.request_id,
    }
    if response.degradation is not None:
        report = response.degradation
        envelope["degradation"] = {
            "stage": report.stage,
            "reason": report.reason,
            "processed": report.processed,
            "total": report.total,
            "elapsed_s": report.elapsed_s,
            "remaining_s": report.remaining_s,
        }
    return envelope


def serve_http(core: ServerCore, host: str = "127.0.0.1",
               port: int = 0) -> ServeHTTPServer:
    """Bind a :class:`ServeHTTPServer`; port 0 picks an ephemeral one.

    Returns the bound (not yet serving) server — call
    ``server.serve_forever()`` (the CLI does) or drive it from a thread
    in tests.  The chosen port is ``server.server_address[1]``.
    """
    return ServeHTTPServer((host, port), core)
