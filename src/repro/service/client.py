"""Clients for the compile server.

:class:`AsyncCompileClient` speaks the protocol (one frame per request
and reply, :mod:`repro.service.wire`) over an asyncio stream;
:class:`CompileClient` is a blocking wrapper over a plain socket for
scripts, the CLI and CI.  Both support TCP (``host``/``port``) and unix
sockets (``socket_path``) and can be used as context managers::

    with CompileClient(socket_path="/tmp/repro.sock") as c:
        reply = c.compile({"kind": "torus", "width": 8},
                          pattern={"pattern": "all-to-all", "nodes": 64})
        assert reply["ok"] and reply["cache"] in ("hit", "miss")

Failures are **typed** (:mod:`repro.service.errors`): an ``ok: false``
reply raises the exception its ``error_type`` names
(:class:`ServerError`, :class:`ProtocolError`, :class:`Overloaded`,
:class:`ServiceTimeout`), and transport faults -- resets, refusals,
socket timeouts -- are wrapped in :class:`TransportError` /
:class:`ServiceTimeout` instead of leaking raw ``OSError``.

Both clients share the resilience machinery of
:mod:`repro.service.policy`:

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
import socket
import time
from typing import Any

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


def _amend_request(
    topology: dict[str, Any] | None,
    *,
    pattern: dict[str, Any] | None,
    pairs: list | None,
    scheduler: str | None,
    root: str | None,
    epoch: int | None,
    add: list | None,
    remove: list | None,
    request_id: int,
    deadline: float | None = None,
) -> dict[str, Any]:
    req: dict[str, Any] = {"op": "amend", "id": request_id}
    if topology is not None:
        req["topology"] = topology
    if pattern is not None:
        req["pattern"] = pattern
    if pairs is not None:
        req["pairs"] = [list(p) for p in pairs]
    if scheduler is not None:
        req["scheduler"] = scheduler
    if root is not None:
        req["root"] = root
        req["epoch"] = epoch
    if add is not None:
        req["add"] = [list(r) for r in add]
    if remove is not None:
        req["remove"] = [list(r) for r in remove]
    if deadline is not None:
        req["deadline"] = deadline
    return req


def _compile_request(
    topology: dict[str, Any],
    *,
    pattern: dict[str, Any] | None,
    pairs: list | None,
    scheduler: str | None,
    registers: bool,
    request_id: int,
    deadline: float | None = None,
) -> dict[str, Any]:
    req: dict[str, Any] = {"op": "compile", "id": request_id, "topology": topology}
    if pattern is not None:
        req["pattern"] = pattern
    if pairs is not None:
        req["pairs"] = [list(p) for p in pairs]
    if scheduler is not None:
        req["scheduler"] = scheduler
    if registers:
        req["registers"] = True
    if deadline is not None:
        req["deadline"] = deadline
    return req


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


class _ResilientBase:
    """Retry/breaker bookkeeping shared by both client flavours."""

    def __init__(
        self,
        retry: RetryPolicy | None,
        breaker: CircuitBreaker | None,
    ) -> None:
        self.retry = retry
        self.breaker = breaker
        #: lifetime retries this client performed.
        self.retries = 0
        #: lifetime endpoint rotations (router HA failovers).
        self.failovers = 0

    def _init_endpoints(
        self,
        host: str,
        port: int,
        endpoints: list[tuple[str, int]] | None,
    ) -> None:
        """Fix the endpoint rotation: ``endpoints`` (a router HA list)
        wins over the single ``host``/``port`` pair."""
        self.endpoints: list[tuple[str, int]] = [
            (str(h), int(p)) for h, p in (endpoints or [(host, port)])
        ]
        self._endpoint_index = 0
        self.host, self.port = self.endpoints[0]

    def _rotate_endpoint(self) -> None:
        """Aim the next connect at the next endpoint in the list.

        Called on every transport/timeout failure: an idempotent retry
        lands on the survivor immediately; a non-retryable op (amend)
        still surfaces its typed error, but the *next* request fails
        over instead of hammering the dead endpoint.
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

    def _plan_retry(
        self, req: dict[str, Any], exc: ServiceError, attempt: int, slept: float
    ) -> float | None:
        """Backoff before retry number ``attempt``, or ``None`` = raise."""
        if self.retry is None or req.get("op", "compile") not in IDEMPOTENT_OPS:
            return None
        return self.retry.plan(exc, attempt, slept)


class AsyncCompileClient(_ResilientBase):
    """One connection to a compile server, asyncio flavour."""

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
        super().__init__(retry, breaker)
        self._init_endpoints(host, port, endpoints)
        self.socket_path = socket_path
        self.timeout = timeout
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._next_id = 0

    async def connect(self) -> "AsyncCompileClient":
        last: TransportError | None = None
        for _ in range(len(self.endpoints)):
            try:
                if self.socket_path is not None:
                    self._reader, self._writer = (
                        await asyncio.open_unix_connection(
                            self.socket_path, limit=MAX_LINE_BYTES
                        )
                    )
                else:
                    self._reader, self._writer = await asyncio.open_connection(
                        self.host, self.port, limit=MAX_LINE_BYTES
                    )
                return self
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

    async def __aenter__(self) -> "AsyncCompileClient":
        return await self.connect()

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    async def _request_once(self, req: dict[str, Any]) -> dict[str, Any]:
        if self._reader is None or self._writer is None:
            await self.connect()
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
        if self.retry is not None and req.get("op", "compile") in IDEMPOTENT_OPS:
            req.setdefault("idem", request_digest(req))
        attempt, slept = 0, 0.0
        while True:
            self._admit()
            try:
                reply = await self._request_once(req)
            except ServiceError as exc:
                self._record(exc)
                if isinstance(exc, (TransportError, ServiceTimeout)):
                    await self.close()
                    self._rotate_endpoint()
                pause = self._plan_retry(req, exc, attempt, slept)
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
        self._next_id += 1
        return await self.request(
            _compile_request(
                topology,
                pattern=pattern,
                pairs=pairs,
                scheduler=scheduler,
                registers=registers,
                request_id=self._next_id,
                deadline=deadline,
            )
        )

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
        self._next_id += 1
        return await self.request(
            _amend_request(
                topology,
                pattern=pattern, pairs=pairs, scheduler=scheduler,
                root=root, epoch=epoch, add=add, remove=remove,
                request_id=self._next_id, deadline=deadline,
            )
        )


class CompileClient(_ResilientBase):
    """Blocking client over a plain socket (CLI / CI / scripts)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        socket_path: str | None = None,
        timeout: float | None = 60.0,
        retry: RetryPolicy | None = RetryPolicy(),
        breaker: CircuitBreaker | None = None,
        endpoints: list[tuple[str, int]] | None = None,
    ) -> None:
        super().__init__(retry, breaker)
        self._init_endpoints(host, port, endpoints)
        self.socket_path = socket_path
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._file = None
        self._next_id = 0

    def connect(self) -> "CompileClient":
        last: ServiceError | None = None
        for _ in range(len(self.endpoints)):
            try:
                if self.socket_path is not None:
                    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    sock.settimeout(self.timeout)
                    sock.connect(self.socket_path)
                else:
                    sock = socket.create_connection(
                        (self.host, self.port), timeout=self.timeout
                    )
            except socket.timeout as exc:
                last = ServiceTimeout(f"connect timed out: {exc}")
                last.__cause__ = exc
                self._rotate_endpoint()
                continue
            except OSError as exc:
                last = TransportError(f"connect failed: {exc}")
                last.__cause__ = exc
                self._rotate_endpoint()
                continue
            self._sock = sock
            self._file = sock.makefile("rb")
            return self
        assert last is not None
        raise last

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

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "CompileClient":
        if self._sock is None:
            self.connect()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _request_once(self, req: dict[str, Any]) -> dict[str, Any]:
        if self._sock is None:
            self.connect()
        assert self._sock is not None and self._file is not None
        try:
            self._sock.sendall(wire.encode(req))
            frame = wire.read_frame_file(self._file, MAX_LINE_BYTES)
        except socket.timeout as exc:
            raise ServiceTimeout(
                f"no reply within {self.timeout}s"
            ) from exc
        except (ConnectionResetError, BrokenPipeError, OSError) as exc:
            raise TransportError(f"connection failed mid-request: {exc}") from exc
        except wire.FrameError as exc:
            self.close()  # the rest of the frame is still buffered
            raise ProtocolError(f"reply frame too large: {exc}") from None
        return _parse_reply(frame, req)

    def request(self, req: dict[str, Any]) -> dict[str, Any]:
        """Send one request object; retry transient failures per policy."""
        if self.retry is not None and req.get("op", "compile") in IDEMPOTENT_OPS:
            req.setdefault("idem", request_digest(req))
        attempt, slept = 0, 0.0
        while True:
            self._admit()
            try:
                reply = self._request_once(req)
            except ServiceError as exc:
                self._record(exc)
                if isinstance(exc, (TransportError, ServiceTimeout)):
                    self.close()
                    self._rotate_endpoint()
                pause = self._plan_retry(req, exc, attempt, slept)
                if pause is None:
                    raise
                self.close()
                time.sleep(pause)
                attempt, slept = attempt + 1, slept + pause
                self.retries += 1
                perf.COUNTERS.client_retries += 1
                continue
            self._record(None)
            return reply

    def ping(self) -> dict[str, Any]:
        return self.request({"op": "ping"})

    def stats(self) -> dict[str, Any]:
        return self.request({"op": "stats"})

    def health(self) -> dict[str, Any]:
        return self.request({"op": "health"})

    def ready(self) -> bool:
        return bool(self.request({"op": "ready"})["ready"])

    def shutdown(self) -> dict[str, Any]:
        return self.request({"op": "shutdown"})

    def compile(
        self,
        topology: dict[str, Any],
        *,
        pattern: dict[str, Any] | None = None,
        pairs: list | None = None,
        scheduler: str | None = None,
        registers: bool = False,
        deadline: float | None = None,
    ) -> dict[str, Any]:
        self._next_id += 1
        return self.request(
            _compile_request(
                topology,
                pattern=pattern,
                pairs=pairs,
                scheduler=scheduler,
                registers=registers,
                request_id=self._next_id,
                deadline=deadline,
            )
        )

    def amend(
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
        """Blocking twin of :meth:`AsyncCompileClient.amend`."""
        self._next_id += 1
        return self.request(
            _amend_request(
                topology,
                pattern=pattern, pairs=pairs, scheduler=scheduler,
                root=root, epoch=epoch, add=add, remove=remove,
                request_id=self._next_id, deadline=deadline,
            )
        )
