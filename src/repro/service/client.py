"""Clients for the compile server.

:class:`AsyncCompileClient` speaks the protocol (one frame per request
and reply, :mod:`repro.service.wire`) over an asyncio stream, to TCP
(``host``/``port``, or an ``endpoints`` list it rotates through) or a
unix socket (``socket_path``).  :class:`CompileClient` is its blocking
driver for scripts, the CLI and CI: it holds one async client and runs
every call to completion on a private event loop, so there is one
connect, retry and failover path.  Call :class:`CompileClient` from a
thread with no running event loop; inside one it raises
``RuntimeError`` (use the async client there).  Both are context
managers::

    with CompileClient(socket_path="/tmp/repro.sock") as c:
        reply = c.compile({"kind": "torus", "width": 8},
                          pattern={"pattern": "all-to-all", "nodes": 64})
        assert reply["ok"] and reply["cache"] in ("hit", "miss")

The verbs (``ping``, ``stats``, ``health``, ``ready``, ``shutdown``,
``compile``, ``amend``) are written once, on :class:`AsyncClientBase`,
which the farm's shard-map-carrying client also inherits.

Failures are **typed** (:mod:`repro.service.errors`): an ``ok: false``
reply raises the exception its ``error_type`` names
(:class:`ServerError`, :class:`ProtocolError`, :class:`Overloaded`,
:class:`ServiceTimeout`), and transport faults -- resets, refusals,
timeouts -- are wrapped in :class:`TransportError` /
:class:`ServiceTimeout` instead of leaking raw ``OSError``.
``timeout`` bounds each connect attempt as well as each round trip; a
connect that expires is a :class:`ServiceTimeout` and rotates to the
next endpoint, as a refusal does.

Resilience comes from :mod:`repro.service.policy`:

* **retries** -- transient failures (transport, timeout, overloaded)
  of *idempotent* verbs are retried under a
  :class:`~repro.service.policy.RetryPolicy`: exponential backoff with
  full jitter, a wall-clock retry budget, and the server's
  ``retry_after`` hint honoured as a floor.  Compile retries are
  idempotent-safe by construction -- the request is content-addressed,
  so a replay lands on the same digest (sent as the ``idem`` field) and
  is answered from cache or coalesced in-flight, never compiled into a
  different artifact.  ``shutdown`` is never retried.
* **circuit breaker** -- after ``failure_threshold`` consecutive
  transient failures the breaker opens and requests fast-fail with
  :class:`CircuitOpen` (no socket I/O) until the reset timer half-opens
  it for a probe.  Pass one :class:`CircuitBreaker` instance to several
  clients to pool their view of server health.
"""

from __future__ import annotations

import asyncio
import functools
import time
from typing import Any, Callable

from repro.core import perf
from repro.service import wire
from repro.service.errors import (
    CircuitOpen,
    Overloaded,
    ProtocolError,
    ServerError,
    ServiceError,
    ServiceTimeout,
    TransportError,
    reply_error,
)
from repro.service.policy import (
    MAX_LINE_BYTES,
    CircuitBreaker,
    RetryPolicy,
    request_digest,
)

__all__ = [
    "AsyncClientBase",
    "AsyncCompileClient",
    "CompileClient",
    "MAX_LINE_BYTES",
    "ServerError",
    "ServiceError",
    "request_digest",
]

#: Verbs safe to replay: read-only, or content-addressed (``compile``),
#: or convergent (``repair`` -- an anti-entropy sweep run twice settles
#: on the same replica set; ``digests`` is a read-only inventory).
#: ``amend`` is deliberately absent -- replaying an epoch update would
#: apply it twice; the server's epoch check turns a blind replay into a
#: typed :class:`~repro.service.errors.EpochConflict` instead.
IDEMPOTENT_OPS = frozenset(
    {"ping", "stats", "health", "ready", "compile", "shardmap",
     "digests", "repair"}
)


def _parse_reply(frame: bytes, req: dict[str, Any]) -> dict[str, Any]:
    """Decode one reply frame; every frame fault is a
    :class:`TransportError` (the caller drops the connection, so a
    leftover line is never read as the next reply)."""
    if not frame:
        raise TransportError("server closed the connection")
    if not frame.endswith(b"\n"):
        raise TransportError("connection cut mid-reply (truncated frame)")
    try:
        reply = wire.decode(frame)
    except wire.FrameError as exc:
        raise TransportError(f"reply frame integrity check failed: {exc}") from None
    if not isinstance(reply.get("ok"), bool):
        raise TransportError("reply frame integrity check failed: no 'ok' field")
    if not reply["ok"]:
        raise reply_error(reply)
    _verify_reply(req, reply)
    return reply


def _verify_reply(req: dict[str, Any], reply: dict[str, Any]) -> None:
    """End-to-end integrity past TCP's checksum (chaos-grade links).

    A reply that *parses* can still lie: the ``idem`` echo proves the
    server answered the request we sent (not a garbled variant of it).
    The frame decoder hashed the payload bytes against the header's
    ``payload_sha256`` before parsing them, so a reply that carries
    that field carried a verified payload; an ok ``compile``/``amend``
    (or found ``fetch``) reply must.  Failures raise
    :class:`TransportError` -- retryable, because a replay re-reads the
    same cached artifact.
    """
    if "idem" in req and reply.get("idem") not in (None, req["idem"]):
        raise TransportError(
            "request integrity mismatch: server answered a different "
            f"request ({reply.get('idem')!r} != {req['idem']!r})"
        )
    op = req.get("op", "compile")
    if "payload_sha256" not in reply and (
        op in ("compile", "amend") or (op == "fetch" and reply.get("found"))
    ):
        raise TransportError(
            f"reply payload integrity check failed: ok {op} reply "
            "carries no payload"
        )




def _rows(rows: list | None) -> list | None:
    return None if rows is None else [list(r) for r in rows]


class AsyncClientBase:
    """The service verbs, written once over :meth:`request`.

    :class:`AsyncCompileClient` and the farm's shard-map-carrying
    :class:`~repro.service.farm.AsyncFarmClient` inherit them; each
    supplies ``request``, ``connect`` and ``close``.
    """

    #: last request id the verbs numbered (per instance once used).
    _next_id = 0

    async def request(self, req: dict[str, Any]) -> dict[str, Any]:
        raise NotImplementedError

    async def __aenter__(self) -> Any:
        return await self.connect()

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    def _numbered(self, op: str, **fields: Any) -> dict[str, Any]:
        """A new ``op`` request carrying every field that is not ``None``."""
        self._next_id += 1
        req: dict[str, Any] = {"op": op, "id": self._next_id}
        req.update((k, v) for k, v in fields.items() if v is not None)
        return req

    async def ping(self) -> dict[str, Any]:
        return await self.request({"op": "ping"})

    async def stats(self) -> dict[str, Any]:
        return await self.request({"op": "stats"})

    async def health(self) -> dict[str, Any]:
        return await self.request({"op": "health"})

    async def ready(self) -> bool:
        return bool((await self.request({"op": "ready"}))["ready"])

    async def shutdown(self) -> dict[str, Any]:
        return await self.request({"op": "shutdown"})

    async def compile(
        self,
        topology: dict[str, Any],
        *,
        pattern: dict[str, Any] | None = None,
        pairs: list | None = None,
        scheduler: str | None = None,
        registers: bool = False,
        deadline: float | None = None,
    ) -> dict[str, Any]:
        return await self.request(self._numbered(
            "compile", topology=topology, pattern=pattern, pairs=_rows(pairs),
            scheduler=scheduler, registers=True if registers else None,
            deadline=deadline,
        ))

    async def amend(
        self,
        topology: dict[str, Any] | None = None,
        *,
        pattern: dict[str, Any] | None = None,
        pairs: list | None = None,
        scheduler: str | None = None,
        root: str | None = None,
        epoch: int | None = None,
        add: list | None = None,
        remove: list | None = None,
        deadline: float | None = None,
    ) -> dict[str, Any]:
        """Open an amend stream (``topology`` + pattern) or push one
        epoch update (``root`` + ``epoch`` + ``add``/``remove`` rows).

        Raises :class:`~repro.service.errors.EpochConflict` when the
        epoch is stale; never retried automatically (not idempotent).
        """
        return await self.request(self._numbered(
            "amend", topology=topology, pattern=pattern, pairs=_rows(pairs),
            scheduler=scheduler, root=root, epoch=epoch, add=_rows(add),
            remove=_rows(remove), deadline=deadline,
        ))


class AsyncCompileClient(AsyncClientBase):
    """One connection to a compile server, asyncio flavour.

    ``endpoints`` (a router HA list) wins over the single
    ``host``/``port`` pair.  ``timeout`` bounds each connect attempt
    and each request's round trip.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        socket_path: str | None = None,
        timeout: float | None = None,
        retry: RetryPolicy | None = RetryPolicy(),
        breaker: CircuitBreaker | None = None,
        endpoints: list[tuple[str, int]] | None = None,
    ) -> None:
        self.endpoints: list[tuple[str, int]] = [
            (str(h), int(p)) for h, p in (endpoints or [(host, port)])
        ]
        self._endpoint_index = 0
        self.host, self.port = self.endpoints[0]
        self.socket_path = socket_path
        self.timeout = timeout
        self.retry = retry
        self.breaker = breaker
        #: lifetime retries this client performed.
        self.retries = 0
        #: lifetime endpoint rotations (router HA failovers).
        self.failovers = 0
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> "AsyncCompileClient":
        """Connect, rotating past every endpoint that refuses or does
        not accept within ``timeout``."""
        last: ServiceError | None = None
        for _ in range(len(self.endpoints)):
            try:
                async with asyncio.timeout(self.timeout):
                    if self.socket_path is not None:
                        self._reader, self._writer = (
                            await asyncio.open_unix_connection(
                                self.socket_path, limit=MAX_LINE_BYTES
                            )
                        )
                    else:
                        self._reader, self._writer = (
                            await asyncio.open_connection(
                                self.host, self.port, limit=MAX_LINE_BYTES
                            )
                        )
                return self
            except TimeoutError as exc:
                last = ServiceTimeout(f"connect timed out after {self.timeout}s")
                last.__cause__ = exc
            except OSError as exc:
                last = TransportError(f"connect failed: {exc}")
                last.__cause__ = exc
            self._rotate_endpoint()
        assert last is not None
        raise last

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            self._reader = self._writer = None

    def _rotate_endpoint(self) -> None:
        """Aim the next connect at the next endpoint in the list.

        Called for each endpoint a connect fails on, and once for a
        transport/timeout failure on a made connection: an idempotent
        retry lands on the survivor immediately; a non-retryable op
        (amend) still surfaces its typed error, but the *next* request
        fails over instead of hammering the dead endpoint.
        """
        if len(self.endpoints) <= 1:
            return
        self._endpoint_index = (self._endpoint_index + 1) % len(self.endpoints)
        self.host, self.port = self.endpoints[self._endpoint_index]
        self.failovers += 1

    def _admit(self) -> None:
        """Breaker gate; counts fast-fails into the perf counters."""
        if self.breaker is None:
            return
        try:
            self.breaker.check()
        except CircuitOpen:
            perf.COUNTERS.client_breaker_rejections += 1
            raise

    def _record(self, exc: BaseException | None) -> None:
        """Feed one attempt's outcome to the breaker.

        Only *transient* failures (transport, timeout, overloaded)
        count against server health; a deterministic ``ok: false``
        answer proves the server is up and resets the streak.
        """
        if self.breaker is None:
            return
        if exc is None or not (isinstance(exc, ServiceError) and exc.retryable):
            self.breaker.record_success()
        else:
            trips = self.breaker.trips
            self.breaker.record_failure()
            perf.COUNTERS.client_breaker_trips += self.breaker.trips - trips

    async def _request_once(self, req: dict[str, Any]) -> dict[str, Any]:
        assert self._reader is not None and self._writer is not None
        try:
            # A deadline on the running task, not a wait_for task: a
            # frame costs no extra task or loop iteration.
            async with asyncio.timeout(self.timeout):
                self._writer.write(wire.encode(req))
                await self._writer.drain()
                frame = await wire.read_frame(self._reader)
        except TimeoutError as exc:
            raise ServiceTimeout(
                f"no reply within {self.timeout}s"
            ) from exc
        except (ConnectionResetError, BrokenPipeError, OSError) as exc:
            raise TransportError(f"connection failed mid-request: {exc}") from exc
        except asyncio.LimitOverrunError as exc:
            # The rest of the frame is still buffered: drop the stream.
            await self.close()
            raise ProtocolError(f"reply frame too large: {exc}") from None
        return _parse_reply(frame, req)

    async def request(self, req: dict[str, Any]) -> dict[str, Any]:
        """Send one request object; retry transient failures per policy."""
        idempotent = (
            self.retry is not None
            and req.get("op", "compile") in IDEMPOTENT_OPS
        )
        if idempotent:
            req.setdefault("idem", request_digest(req))
        attempt, slept = 0, 0.0
        while True:
            self._admit()
            connected = False
            try:
                if self._writer is not None and (
                    self._writer.is_closing() or self._reader.at_eof()
                ):
                    # The server closed this idle connection (it stopped
                    # or died): nothing was sent on it, so even an amend
                    # may reconnect.
                    await self.close()
                if self._reader is None or self._writer is None:
                    # connect() rotates past every endpoint it tries.
                    await self.connect()
                connected = True
                reply = await self._request_once(req)
            except ServiceError as exc:
                self._record(exc)
                if connected and isinstance(exc, (TransportError, ServiceTimeout)):
                    await self.close()
                    self._rotate_endpoint()
                pause = (
                    self.retry.plan(exc, attempt, slept) if idempotent else None
                )
                if pause is None:
                    raise
                await self.close()
                await asyncio.sleep(pause)
                attempt, slept = attempt + 1, slept + pause
                self.retries += 1
                perf.COUNTERS.client_retries += 1
                continue
            self._record(None)
            return reply


def _blocking(verb: Callable[..., Any]) -> Callable[..., Any]:
    """``verb`` of :class:`AsyncCompileClient` as a blocking method."""

    @functools.wraps(verb)
    def call(self: "CompileClient", *args: Any, **kwargs: Any) -> Any:
        return self._run(getattr(self._client, verb.__name__), *args, **kwargs)

    return call


class CompileClient:
    """Blocking driver of one :class:`AsyncCompileClient` (CLI / CI /
    scripts).

    Every call runs the async client's coroutine to completion on a
    private :class:`asyncio.Runner`, made on first use and closed with
    the connection, so connects, retries, endpoint rotation and typed
    errors are the async client's own.  ``options`` are the async
    client's (``socket_path``, ``retry``, ``breaker``, ``endpoints``).

    Call it from a thread with no running event loop: inside one it
    raises ``RuntimeError`` at once instead of blocking that loop (use
    :class:`AsyncCompileClient` there).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: float | None = 60.0,
        **options: Any,
    ) -> None:
        self._client = AsyncCompileClient(host, port, timeout=timeout, **options)
        self._runner: asyncio.Runner | None = None

    @property
    def retries(self) -> int:
        return self._client.retries

    @property
    def failovers(self) -> int:
        return self._client.failovers

    def _run(self, verb: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            pass
        else:
            raise RuntimeError(
                "CompileClient would block the running event loop; "
                "use AsyncCompileClient inside a loop"
            )
        if self._runner is None:
            self._runner = asyncio.Runner()
        return self._runner.run(verb(*args, **kwargs))

    def connect(self) -> "CompileClient":
        try:
            self._run(self._client.connect)
        except ServiceError:
            self.close()
            raise
        return self

    def close(self) -> None:
        """Close the connection and its event loop; safe to repeat."""
        if self._runner is not None:
            self._run(self._client.close)
            self._runner.close()
            self._runner = None

    def wait_until_ready(self, deadline: float = 10.0, interval: float = 0.05) -> "CompileClient":
        """Connect, retrying until the server is accepting or ``deadline``.

        Lets callers start a server process and a client back-to-back
        without racing the bind.
        """
        end = time.monotonic() + deadline
        while True:
            try:
                return self.connect()
            except ServiceError:
                if time.monotonic() >= end:
                    raise
                time.sleep(interval)

    def __enter__(self) -> "CompileClient":
        if self._runner is None:
            self.connect()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    request = _blocking(AsyncCompileClient.request)
    ping = _blocking(AsyncClientBase.ping)
    stats = _blocking(AsyncClientBase.stats)
    health = _blocking(AsyncClientBase.health)
    ready = _blocking(AsyncClientBase.ready)
    shutdown = _blocking(AsyncClientBase.shutdown)
    compile = _blocking(AsyncClientBase.compile)
    amend = _blocking(AsyncClientBase.amend)
