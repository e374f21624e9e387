"""HTTP/1.1 transport over the micro-batching serving layer.

:class:`StoreServer` (:mod:`.serving`) is the in-process half of
production serving — it turns many concurrent *single* requests into the
batched kernel calls the store amortizes. This module is the wire half:
:class:`StoreHTTPServer`, an asyncio HTTP/1.1 front-end built on
``asyncio.start_server`` with hand-rolled request parsing — stdlib only,
no web framework — where every request body parses into exactly one
``StoreServer`` awaitable, so wire traffic rides the same micro-batching
(and the same admission control and drain semantics) as in-process
callers.

**Route table** (:data:`ROUTES` — the single dispatch source):

=======  ====================  ==========================================
method   path                  body → awaitable → response
=======  ====================  ==========================================
POST     ``/v1/cleanup``       ``{"query": [...]}`` →
                               ``server.cleanup`` →
                               ``{"label", "similarity"}``
POST     ``/v1/topk``          ``{"query": [...], "k": 5}`` →
                               ``server.topk`` → ``{"results": [...]}``
POST     ``/v1/similarities``  ``{"query": [...]}`` →
                               ``server.similarities`` →
                               ``{"similarities": [...]}``
POST     ``/v1/delete``        ``{"labels": [...]}`` →
                               ``server.delete`` →
                               ``{"status": "ok", "deleted": n}``
POST     ``/v1/upsert``        ``{"labels": [...], "vectors": [[...]]}`` →
                               ``server.upsert`` →
                               ``{"status": "ok", "upserted": n}``
GET      ``/v1/stats``         per-route/status HTTP counters folded
                               with the ``StoreServer`` stats
GET      ``/v1/healthz``       ``{"status": "ok", "pending": n}``
=======  ====================  ==========================================

The mutation routes ride the serving layer's exclusive barrier (no
micro-batching) and are refused with **503** once a drain has begun —
mid-drain mutations never race the drain waves. They are not idempotent
on the wire; retrying clients must send them with ``idempotent=False``.

**Error mapping** — every failure is a JSON body
``{"error": {"status": ..., "message": ...}}``:

- :exc:`~.serving.ServerOverloaded` (admission ``"reject"``) → **429**,
  with ``Retry-After: 1``, the 1-second floor of the integer header (a
  slot frees as soon as one wave finishes);
- :exc:`~.serving.ServerClosed` / server draining → **503** (same
  ``Retry-After`` hint — drains are transient in a restart window);
- :exc:`~.serving.ServerTimeout` (request deadline expired) → **504**;
- validation (malformed JSON, missing/ill-typed ``query`` / ``k`` /
  ``timeout_ms``, a ``NaN``/``Infinity`` in ``query``, wrong
  dimensionality, unknown body keys) → **400**;
- unknown path → **404**; known path, wrong method → **405**; ``POST``
  without ``Content-Length`` → **411**; body over
  ``max_body_bytes`` → **413**; headers over ``max_header_bytes`` →
  **431**; chunked transfer encoding → **501**.

**Client-side failure typing**: :class:`JSONHTTPClient` raises
:class:`TransportError` (a :class:`StoreHTTPError` *and* a
``ConnectionError``) whenever the connection dies before a complete
response, and :class:`HTTPStatusError` on ``raise_for_status=True``
responses — callers and the retry layer key on types, never on message
strings. With a :class:`RetryPolicy` attached, idempotent requests
retry on 429/503/transport failures with capped exponential backoff,
deterministic jitter, and a total time budget; the clock and sleep are
injectable so the backoff schedule is unit-testable without real
sleeps.

**Decision contract**: answers serialize through
:func:`~.serving.jsonable_result` — similarity floats travel as JSON
numbers, which round-trip doubles exactly — so an answer fetched over
the wire is *bit-identical* to the same query issued directly against
the store (``tests/hdc/store/test_http.py`` pins this across executors ×
backends on tie-heavy inputs, and the CI ``http_smoke`` step re-checks
it over a persisted store).

**Shutdown** propagates the serving layer's drain: :meth:`stop` (or
leaving the ``async with`` block) first refuses *new* requests with
**503** while every request already dispatched into the ``StoreServer``
completes and its response is written, then closes the listening socket
and any idle keep-alive connections. A ``StoreServer`` the HTTP server
started itself (one passed in unstarted) is stopped too; a borrowed,
already-running one is left running.

Protocol support is deliberately minimal: ``HTTP/1.1`` (keep-alive by
default, ``Connection: close`` honored) and ``HTTP/1.0`` (close by
default), ``Content-Length`` bodies only. :class:`JSONHTTPClient` is the
matching minimal keep-alive client used by the tests, the smoke check,
the benchmark and the demo.
"""

from __future__ import annotations

import asyncio
import json
import random

import numpy as np

from .serving import (
    ServerClosed,
    ServerOverloaded,
    ServerTimeout,
    jsonable_result,
)

__all__ = [
    "StoreHTTPServer",
    "JSONHTTPClient",
    "RetryPolicy",
    "StoreHTTPError",
    "TransportError",
    "HTTPStatusError",
    "ROUTES",
    "MUTATION_KINDS",
]

#: the wire surface: ``(method, path)`` → request kind. Query kinds
#: (``cleanup`` / ``topk`` / ``similarities``) parse the body into one
#: :class:`~.serving.StoreServer` awaitable; ``stats`` / ``healthz`` are
#: read-only introspection.
ROUTES = {
    ("POST", "/v1/cleanup"): "cleanup",
    ("POST", "/v1/topk"): "topk",
    ("POST", "/v1/similarities"): "similarities",
    ("POST", "/v1/delete"): "delete",
    ("POST", "/v1/upsert"): "upsert",
    ("GET", "/v1/stats"): "stats",
    ("GET", "/v1/healthz"): "healthz",
}

#: the mutation routes: not micro-batched — each rides the serving
#: layer's exclusive mutation barrier. NOT idempotent on the wire
#: (an upsert re-orders ties; a replayed delete 400s on the missing
#: label): clients must pass ``idempotent=False`` so a
#: :class:`RetryPolicy` never replays one after a transport failure.
MUTATION_KINDS = ("delete", "upsert")

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: statuses that carry a ``Retry-After`` hint: transient by contract —
#: overload clears as waves complete, drain windows end with a restart
_RETRYABLE_STATUSES = (429, 503)

#: body keys each query route accepts — anything else is a 400, so a
#: misspelled field fails loudly instead of silently using a default
_ALLOWED_KEYS = {
    "cleanup": {"query", "timeout_ms"},
    "topk": {"query", "k", "timeout_ms"},
    "similarities": {"query", "timeout_ms"},
}

#: body keys each mutation route accepts (same strictness as queries)
_MUTATION_KEYS = {
    "delete": {"labels"},
    "upsert": {"labels", "vectors"},
}


class _BadRequest(Exception):
    """A transport-level parse failure with its HTTP status."""

    def __init__(self, status, message):
        super().__init__(message)
        self.status = status


def _error_payload(status, message):
    return {"error": {"status": status, "message": message}}


def _parse_body(kind, body):
    """Parse one query route's JSON body into ``(query, kwargs)``."""
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ValueError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    unknown = set(payload) - _ALLOWED_KEYS[kind]
    if unknown:
        raise ValueError(
            f"unknown body keys {sorted(unknown)}; "
            f"{kind} accepts {sorted(_ALLOWED_KEYS[kind])}"
        )
    if "query" not in payload:
        raise ValueError('request body must carry a "query" array')
    query = np.asarray(payload["query"])
    if query.dtype.kind not in "iuf":
        raise ValueError('"query" must be an array of numbers')
    # json.loads admits NaN/Infinity literals; a query holding one would
    # answer with bare NaN tokens, which are not JSON (RFC 8259)
    if query.dtype.kind == "f" and not np.isfinite(query).all():
        raise ValueError('"query" must hold finite numbers')
    kwargs = {}
    if kind == "topk":
        k = payload.get("k", 5)
        if isinstance(k, bool) or not isinstance(k, int):
            raise ValueError('"k" must be an integer')
        kwargs["k"] = k
    if "timeout_ms" in payload:
        timeout_ms = payload["timeout_ms"]
        if (isinstance(timeout_ms, bool)
                or not isinstance(timeout_ms, (int, float))
                or not timeout_ms > 0):
            raise ValueError('"timeout_ms" must be a positive number')
        kwargs["timeout_ms"] = float(timeout_ms)
    return query, kwargs


def _parse_mutation(kind, body):
    """Parse one mutation route's JSON body into the awaitable's args."""
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ValueError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    unknown = set(payload) - _MUTATION_KEYS[kind]
    if unknown:
        raise ValueError(
            f"unknown body keys {sorted(unknown)}; "
            f"{kind} accepts {sorted(_MUTATION_KEYS[kind])}"
        )
    labels = payload.get("labels")
    if not isinstance(labels, list) or not labels:
        raise ValueError('request body must carry a non-empty "labels" array')
    if kind == "delete":
        return (labels,)
    vectors = payload.get("vectors")
    if not isinstance(vectors, list):
        raise ValueError('request body must carry a "vectors" array of rows')
    vectors = np.asarray(vectors)
    if vectors.dtype.kind not in "iu":
        raise ValueError('"vectors" must be an array of bipolar integers')
    return labels, vectors


class StoreHTTPServer:
    """Stdlib asyncio HTTP/1.1 front-end over a :class:`StoreServer`.

    Every ``POST`` body becomes one ``StoreServer`` awaitable, so wire
    requests coalesce into the same micro-batched waves as in-process
    callers — same admission control, same drain, bit-identical answers
    (module docstring has the route table and the error mapping).

    Use it as an async context manager inside a running loop::

        async with StoreHTTPServer(StoreServer(store), port=8080) as http:
            print(http.port)  # serve until cancelled/stopped

    Parameters
    ----------
    server:
        The :class:`~.serving.StoreServer` to ride. Passed *unstarted*,
        the HTTP server starts it and owns it (stops it on
        :meth:`stop`); passed already started, it is borrowed and left
        running when the HTTP front stops.
    host, port:
        Listening address; ``port=0`` (default) picks an ephemeral port,
        readable from :attr:`port` once started.
    max_header_bytes, max_body_bytes:
        Transport bounds — requests beyond them fail with **431** /
        **413** before touching the serving layer.
    """

    def __init__(self, server, host="127.0.0.1", port=0,
                 max_header_bytes=16384, max_body_bytes=8 << 20):
        if int(max_header_bytes) < 1024:
            raise ValueError("max_header_bytes must be >= 1024")
        if int(max_body_bytes) < 1024:
            raise ValueError("max_body_bytes must be >= 1024")
        self._server = server
        self._host = host
        self._port = int(port)
        self.max_header_bytes = int(max_header_bytes)
        self.max_body_bytes = int(max_body_bytes)
        self._listener = None
        self._owns_server = False
        self._closing = False
        self._stopped = None  # set() once stop() fully completed
        self._inflight = 0
        self._drained = None  # set() when _closing and _inflight == 0
        self._writers = set()
        self._handlers = set()  # live _serve_connection tasks
        self._route_counts = dict.fromkeys(
            (f"{method} {path}" for method, path in ROUTES), 0)
        self._status_counts = {}
        self._connections = 0

    # -- lifecycle ---------------------------------------------------------- #

    async def start(self):
        """Bind the listening socket (and the server, if it is ours).

        Must run inside the event loop that will serve connections (the
        async-context-manager form does this). Starting twice or after
        :meth:`stop` raises.
        """
        if self._closing:
            raise ServerClosed("StoreHTTPServer was stopped; build a new one")
        if self._listener is not None:
            raise RuntimeError("StoreHTTPServer is already started")
        self._stopped = asyncio.Event()
        self._drained = asyncio.Event()
        self._owns_server = not self._server.started
        if self._owns_server:
            await self._server.start()
        self._listener = await asyncio.start_server(
            self._serve_connection, self._host, self._port,
            limit=self.max_header_bytes,
        )
        return self

    async def stop(self):
        """Drain and shut down the wire — :class:`StoreServer`-style.

        New requests (on new or kept-alive connections) get **503**
        while requests already past parsing finish and their responses
        are written; then the listening socket closes, idle connections
        are dropped, and an owned ``StoreServer`` is stopped (draining
        its queued waves in turn). Idempotent; a concurrent second call
        waits for the first to finish.
        """
        if self._closing:
            if self._stopped is not None:
                await self._stopped.wait()
            return
        self._closing = True
        if self._listener is None:
            return  # never started: nothing to drain
        if self._inflight:
            await self._drained.wait()
        self._listener.close()
        await self._listener.wait_closed()
        for writer in list(self._writers):
            writer.close()
        if self._handlers:
            # closed transports deliver EOF; wait for every connection
            # handler to unwind so none is left to be cancelled when the
            # caller's event loop shuts down
            await asyncio.gather(*list(self._handlers),
                                 return_exceptions=True)
        if self._owns_server:
            await self._server.stop()
        self._stopped.set()

    async def __aenter__(self):
        return await self.start()

    async def __aexit__(self, *exc_info):
        await self.stop()

    # -- introspection ------------------------------------------------------ #

    @property
    def server(self):
        """The wrapped :class:`~.serving.StoreServer`."""
        return self._server

    @property
    def host(self):
        return self._host

    @property
    def port(self):
        """The bound port (resolves ``port=0`` to the ephemeral pick)."""
        if self._listener is None:
            return self._port
        return self._listener.sockets[0].getsockname()[1]

    @property
    def stats(self):
        """Wire counters folded with the serving layer's stats.

        ``{"http": {connections, requests_by_route, responses_by_status},
        "server": StoreServer.stats}`` — the ``GET /v1/stats`` payload.
        Counters are cumulative; route counts only tick for known
        routes, status counts for every response written.
        """
        return {
            "http": {
                "connections": self._connections,
                "requests_by_route": dict(self._route_counts),
                "responses_by_status": {
                    str(status): count
                    for status, count in sorted(self._status_counts.items())
                },
            },
            "server": self._server.stats,
        }

    def __repr__(self):
        state = "closing" if self._closing else (
            "listening" if self._listener else "unstarted")
        return (
            f"StoreHTTPServer({self._host}:{self.port}, {state}, "
            f"server={self._server!r})"
        )

    # -- connection handling ------------------------------------------------ #

    async def _serve_connection(self, reader, writer):
        self._connections += 1
        self._writers.add(writer)
        self._handlers.add(asyncio.current_task())
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    await self._respond(
                        writer, exc.status,
                        _error_payload(exc.status, str(exc)),
                        keep_alive=False,
                    )
                    return
                if request is None:
                    return  # EOF / client went away
                method, path, body, keep_alive = request
                if self._closing:
                    await self._respond(
                        writer, 503,
                        _error_payload(503, "server is shutting down"),
                        keep_alive=False,
                    )
                    return
                # In-flight from here: stop() waits for the dispatched
                # awaitable to resolve AND the response bytes to go out.
                self._inflight += 1
                try:
                    status, payload = await self._dispatch(method, path, body)
                    await self._respond(writer, status, payload,
                                        keep_alive=keep_alive)
                finally:
                    self._inflight -= 1
                    if self._closing and self._inflight == 0:
                        self._drained.set()
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client dropped mid-request/response
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            finally:
                # Only now is the handler done: stop() must still find
                # it while it awaits wait_closed(), or the loop's
                # teardown cancels it mid-await.
                self._handlers.discard(asyncio.current_task())

    async def _read_request(self, reader):
        """Parse one request; ``None`` on clean EOF, :exc:`_BadRequest`
        on framing errors (response status attached)."""
        try:
            line = await reader.readline()
        except ValueError as exc:  # StreamReader limit overrun
            raise _BadRequest(431, "request line too long") from exc
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _BadRequest(400, "malformed request line")
        method, target, version = parts
        if version not in ("HTTP/1.1", "HTTP/1.0"):
            raise _BadRequest(400, f"unsupported protocol {version!r}")
        headers = {}
        total = len(line)
        while True:
            try:
                line = await reader.readline()
            except ValueError as exc:
                raise _BadRequest(431, "header line too long") from exc
            if not line:
                return None  # client vanished mid-headers
            total += len(line)
            if total > self.max_header_bytes:
                raise _BadRequest(431, "request headers too large")
            if line in (b"\r\n", b"\n"):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _BadRequest(400, "malformed header line")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            raise _BadRequest(
                501, "chunked transfer encoding is not supported; "
                     "send Content-Length bodies")
        body = b""
        if method == "POST":
            length = headers.get("content-length")
            if length is None:
                raise _BadRequest(411, "POST requires Content-Length")
            if not length.isdigit():
                raise _BadRequest(400, f"malformed Content-Length {length!r}")
            length = int(length)
            if length > self.max_body_bytes:
                raise _BadRequest(
                    413, f"request body of {length} bytes exceeds "
                         f"max_body_bytes={self.max_body_bytes}")
            body = await reader.readexactly(length)
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.0":
            keep_alive = connection == "keep-alive"
        else:
            keep_alive = connection != "close"
        return method, target.split("?", 1)[0], body, keep_alive

    async def _dispatch(self, method, path, body):
        """Route one parsed request; returns ``(status, json payload)``."""
        kind = ROUTES.get((method, path))
        if kind is None:
            allowed = [m for m, p in ROUTES if p == path]
            if allowed:
                return 405, _error_payload(
                    405, f"{path} only accepts {' / '.join(sorted(allowed))}")
            return 404, _error_payload(
                404, f"unknown route {path!r}; routes: "
                     + ", ".join(sorted(f"{m} {p}" for m, p in ROUTES)))
        self._route_counts[f"{method} {path}"] += 1
        try:
            if kind == "healthz":
                return 200, {"status": "ok", "pending": self._server.pending}
            if kind == "stats":
                return 200, self.stats
            if kind in MUTATION_KINDS:
                args = _parse_mutation(kind, body)
                await getattr(self._server, kind)(*args)
                counted = "deleted" if kind == "delete" else "upserted"
                return 200, {"status": "ok", counted: len(args[0])}
            query, kwargs = _parse_body(kind, body)
            result = await getattr(self._server, kind)(query, **kwargs)
            return 200, jsonable_result(kind, result)
        except ServerOverloaded as exc:
            return 429, _error_payload(429, str(exc))
        except ServerTimeout as exc:
            # ServerTimeout subclasses TimeoutError, not ServerClosed —
            # an expired deadline is the *request's* failure, never the
            # server's, so it must not read as retry-forever 503.
            return 504, _error_payload(504, str(exc))
        except ServerClosed as exc:
            return 503, _error_payload(503, str(exc))
        except (ValueError, TypeError) as exc:
            return 400, _error_payload(400, str(exc))
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # never leak a traceback onto the wire
            return 500, _error_payload(
                500, f"{type(exc).__name__}: {exc}")

    #: ``Retry-After`` seconds sent on 429/503 responses: the 1-second
    #: floor HTTP's integer header allows (a queue slot frees as soon as
    #: one wave finishes, far sooner than that)
    retry_after_hint = 1

    async def _respond(self, writer, status, payload, keep_alive):
        self._status_counts[status] = self._status_counts.get(status, 0) + 1
        body = json.dumps(payload).encode("utf-8")
        retry_after = ""
        if status in _RETRYABLE_STATUSES:
            retry_after = f"Retry-After: {self.retry_after_hint}\r\n"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            + retry_after
            + f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()


class StoreHTTPError(Exception):
    """Base of the client-side failure hierarchy.

    Everything :class:`JSONHTTPClient` raises about the *HTTP exchange*
    derives from this, so callers can write one ``except StoreHTTPError``
    and key on the concrete type — never on message strings.
    """


class TransportError(StoreHTTPError, ConnectionError):
    """The connection died before a complete response arrived.

    Wraps every raw ``OSError`` / ``ConnectionError`` /
    ``IncompleteReadError`` surface in the client (connect, send, read),
    so transport failures have exactly one type. Still a
    ``ConnectionError`` subclass, so pre-hierarchy ``except
    ConnectionError`` callers keep working. Retryable for idempotent
    requests: the request may or may not have executed, but every store
    query route is read-only, so replaying is always safe.
    """


class HTTPStatusError(StoreHTTPError):
    """A non-2xx response, raised by ``request(raise_for_status=True)``.

    Carries the parsed ``status`` and the decoded JSON ``payload`` (the
    server's ``{"error": {...}}`` body) for programmatic handling.
    """

    def __init__(self, status, payload):
        message = status if isinstance(payload, str) else (
            (payload or {}).get("error", {}).get("message", ""))
        super().__init__(f"HTTP {status}: {message}")
        self.status = int(status)
        self.payload = payload


class RetryPolicy:
    """Capped exponential backoff with deterministic jitter and a budget.

    Governs :class:`JSONHTTPClient` retries. A request is retried only
    when the failure is transient *and* replay is safe:

    - response status in ``retry_statuses`` (**429** overload, **503**
      drain/restart window — never 504: an expired deadline means the
      caller's time allowance is already spent, and never 4xx/500:
      replaying a bad request reproduces the answer, not fixes it);
    - :class:`TransportError`, for idempotent requests only.

    Delay for attempt *n* (0-based) is ``base_delay_ms * multiplier**n``
    capped at ``max_delay_ms``, then scaled by a jitter factor drawn
    deterministically from ``seed`` and *n* — two clients with different
    seeds desynchronize their retry storms, while any single schedule is
    exactly reproducible. A server ``Retry-After`` hint raises the delay
    to at least the hinted seconds (still capped at ``max_delay_ms``).
    ``budget_ms`` bounds the *total* time from first send: a retry whose
    delay would overrun the budget is not attempted.

    ``clock`` / ``sleep`` are injectable (defaults: the running loop's
    ``time`` and ``asyncio.sleep``) so tests pin the whole schedule on a
    fake clock with zero real sleeps.
    """

    def __init__(self, max_retries=4, base_delay_ms=25.0, max_delay_ms=1000.0,
                 budget_ms=10_000.0, retry_statuses=(429, 503), jitter=0.5,
                 seed=0, clock=None, sleep=None):
        if int(max_retries) < 0:
            raise ValueError("max_retries must be >= 0")
        if float(base_delay_ms) <= 0 or float(max_delay_ms) <= 0:
            raise ValueError("delays must be > 0")
        if float(budget_ms) <= 0:
            raise ValueError("budget_ms must be > 0")
        if not 0.0 <= float(jitter) <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self.max_retries = int(max_retries)
        self.base_delay_ms = float(base_delay_ms)
        self.max_delay_ms = float(max_delay_ms)
        self.budget_ms = float(budget_ms)
        self.retry_statuses = tuple(int(s) for s in retry_statuses)
        self.jitter = float(jitter)
        self.seed = seed
        self._clock = clock
        self._sleep = sleep

    def now_ms(self):
        if self._clock is not None:
            return float(self._clock()) * 1000.0
        return asyncio.get_running_loop().time() * 1000.0

    async def pause_ms(self, delay_ms):
        if self._sleep is not None:
            await self._sleep(delay_ms / 1000.0)
        else:
            await asyncio.sleep(delay_ms / 1000.0)

    def delay_ms(self, attempt, retry_after_s=None):
        """Backoff before retry *attempt* (0-based), in milliseconds."""
        raw = min(self.max_delay_ms,
                  self.base_delay_ms * (2.0 ** attempt))
        # deterministic jitter: same (seed, attempt) → same factor, so a
        # test can assert the exact schedule; factor spans [1-j, 1]
        factor = 1.0 - self.jitter * random.Random(
            f"retry:{self.seed}:{attempt}").random()
        delay = raw * factor
        if retry_after_s is not None:
            delay = max(delay, min(float(retry_after_s) * 1000.0,
                                   self.max_delay_ms))
        return delay


class JSONHTTPClient:
    """Minimal keep-alive HTTP/1.1 JSON client (one request at a time).

    The counterpart the agreement tests, the smoke check, the benchmark
    and the demo drive :class:`StoreHTTPServer` with — concurrency comes
    from opening several clients, one in-flight request per connection::

        client = await JSONHTTPClient.connect("127.0.0.1", port)
        status, payload = await client.request(
            "POST", "/v1/cleanup", {"query": [1, -1, ...]})
        await client.close()

    Transport failures raise :class:`TransportError`;
    ``request(..., raise_for_status=True)`` turns non-2xx responses into
    :class:`HTTPStatusError`. Pass ``retry=RetryPolicy(...)`` to
    ``connect`` and idempotent requests transparently survive overload
    (429), drain/restart windows (503, with reconnect) and dropped
    connections — see :class:`RetryPolicy` for exactly what retries.
    The headers of the last response are kept on :attr:`last_headers`
    (lower-cased names), where the retry layer reads ``Retry-After``.
    """

    def __init__(self, reader, writer, host=None, port=None, retry=None):
        self._reader = reader
        self._writer = writer
        self._host = host
        self._port = port
        self._retry = retry
        self.last_headers = {}

    @classmethod
    async def connect(cls, host, port, retry=None):
        """Open a connection; remembers ``host``/``port`` for reconnect."""
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except (ConnectionError, OSError) as exc:
            raise TransportError(
                f"cannot connect to {host}:{port}: {exc}") from exc
        return cls(reader, writer, host=host, port=port, retry=retry)

    async def _reconnect(self):
        if self._host is None or self._port is None:
            raise TransportError(
                "cannot reconnect: client was built without host/port")
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        try:
            self._reader, self._writer = await asyncio.open_connection(
                self._host, self._port)
        except (ConnectionError, OSError) as exc:
            raise TransportError(
                f"cannot reconnect to {self._host}:{self._port}: "
                f"{exc}") from exc

    async def request(self, method, path, payload=None, *,
                      idempotent=True, raise_for_status=False):
        """Issue one request; returns ``(status, decoded JSON body)``.

        With a :class:`RetryPolicy` attached, transient failures (429,
        503, and — for ``idempotent=True`` requests — transport errors,
        after reconnecting) are retried within the policy's attempt and
        time budget; the *final* outcome is returned or raised as usual.
        ``raise_for_status=True`` converts any non-2xx final status into
        :class:`HTTPStatusError` instead of returning it.
        """
        policy = self._retry
        if policy is None:
            status, body = await self._request_once(method, path, payload)
        else:
            status, body = await self._request_with_retry(
                policy, method, path, payload, idempotent)
        if raise_for_status and not 200 <= status < 300:
            raise HTTPStatusError(status, body)
        return status, body

    async def _request_with_retry(self, policy, method, path, payload,
                                  idempotent):
        start_ms = policy.now_ms()
        attempt = 0
        needs_reconnect = False
        while True:
            retry_after_s = None
            try:
                if needs_reconnect:
                    # the previous exchange died (or the reconnect itself
                    # failed — a refused port mid-restart retries too)
                    await self._reconnect()
                    needs_reconnect = False
                status, body = await self._request_once(method, path, payload)
            except TransportError:
                if not idempotent or attempt >= policy.max_retries:
                    raise
                retryable = True
                needs_reconnect = True
                outcome = None
            else:
                outcome = (status, body)
                retryable = (status in policy.retry_statuses
                             and attempt < policy.max_retries)
                header = self.last_headers.get("retry-after")
                if header is not None:
                    try:
                        retry_after_s = float(header)
                    except ValueError:
                        retry_after_s = None
            if not retryable:
                return outcome
            delay = policy.delay_ms(attempt, retry_after_s)
            if policy.now_ms() - start_ms + delay > policy.budget_ms:
                if outcome is None:
                    raise TransportError(
                        f"retry budget of {policy.budget_ms:g} ms exhausted "
                        f"after {attempt + 1} attempt(s)")
                return outcome
            await policy.pause_ms(delay)
            attempt += 1

    async def _request_once(self, method, path, payload):
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: localhost\r\n"
            + (f"Content-Length: {len(body)}\r\n" if method == "POST" else "")
            + "\r\n"
        )
        try:
            self._writer.write(head.encode("latin-1") + body)
            await self._writer.drain()
            status_line = await self._reader.readline()
            if not status_line:
                raise TransportError("server closed the connection")
            status = int(status_line.split(b" ", 2)[1])
            headers = {}
            while True:
                line = await self._reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            self.last_headers = headers
            length = headers.get("content-length")
            if length is None:
                raise TransportError("response without Content-Length")
            data = await self._reader.readexactly(int(length))
        except TransportError:
            raise
        except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
            raise TransportError(
                f"connection failed mid-request: {exc}") from exc
        return status, json.loads(data)

    async def close(self):
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
