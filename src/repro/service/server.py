"""Asyncio compile server.

Protocol: one request frame in, one reply frame out
(:mod:`repro.service.wire`).  A frame is a JSON header line, followed
-- when the header announces one -- by a payload line of canonical
JSON carrying the bulk document.  Requests are one line; a compile or
amend reply carries its schedule (and register image) as the payload.

Verbs::

    {"op": "ping"}
    {"op": "compile", "id": 7, "topology": {"kind": "torus", "width": 8},
     "pattern": {"pattern": "all-to-all", "nodes": 64},
     "scheduler": "combined", "registers": false}
    {"op": "stats"}
    {"op": "health"}     # queue depth, breaker-relevant state, cache
    {"op": "ready"}      # {"ready": true|false} readiness probe
    {"op": "amend", "topology": {...}, "pairs": [[0, 1], ...]}  # open (epoch 0)
    {"op": "amend", "root": "...", "epoch": 0,
     "add": [[2, 3]], "remove": [[0, 1]]}                       # epoch 0 -> 1
    {"op": "shutdown"}

``pattern`` is a declarative spec (:mod:`repro.compiler.recognition`);
``pairs`` -- a list of ``[src, dst]``/``[src, dst, size]``/``[src, dst,
size, tag]`` rows -- is accepted instead.  Responses echo ``id`` and
carry ``ok``; a compile response adds ``digest``, ``cache``
(``hit``/``miss``/``inflight``), ``degree``, ``seconds`` and, as its
payload, the serialized ``schedule`` (plus ``registers`` when
requested) with its ``payload_sha256``.  Failures
reply ``ok: false`` with ``error`` and a typed ``error_type``
(:mod:`repro.service.errors`); shed requests additionally carry
``retry_after``.

Execution model
---------------
The event loop only parses requests, canonicalizes patterns and serves
cache hits; scheduler runs are fanned out to a worker pool.  A hit
encodes and hashes nothing it has done before: ``pairs`` parse as one
int64 array and canonicalize as arrays, named ``pattern`` specs are
memoized to their canonical pattern, and an identity hit writes the
payload bytes the cache encoded when the artifact was stored (a
translated hit permutes, then encodes and hashes once).  Identical
in-flight requests (same digest) are **deduplicated**: followers await
the leader's future and are answered from the same artifact with
``cache: "inflight"`` -- N concurrent identical requests trigger
exactly one scheduler run.  Distinct requests batch naturally across
the pool (``workers`` processes, reusing the perf-counter shipping of
:mod:`repro.analysis.parallel`); ``workers=0`` runs compiles on a
single worker thread instead, which tests use to keep everything
monkeypatchable in one process.

Robustness (:class:`repro.service.policy.ServerPolicy`):

* **admission control** -- at most ``max_pending`` compile requests in
  the house; past the high-water mark requests are shed immediately
  with ``{"error": "overloaded", "retry_after": ...}``;
* **deadlines** -- each compile gets a wall-clock budget
  (``request_deadline``, tightened by a per-request ``deadline``
  field).  A blown budget answers ``error_type: "timeout"``; a hung
  *leader* additionally has its pool workers killed and the pool
  restarted.  A compile that its pool broke or cancelled -- by such a
  restart, or by a worker's death -- is resubmitted once to a fresh
  pool within its remaining deadline, so one wedged scheduler pass or
  one dead worker costs no other request its reply;
* **frame limits** -- request lines past ``max_frame_bytes`` get a
  typed ``protocol`` error and the connection is closed (the stream
  cannot be resynchronized mid-frame); mid-frame disconnects and
  invalid bytes are absorbed per-connection, never crashing the
  accept loop.

Shutdown drains: the listener closes *before* the shutdown verb is
acked (no connection can be accepted-then-dropped), connections idle
between frames are closed, in-flight compiles finish and are answered
(each such connection closes after its reply), then the pool is torn
down.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any

import numpy as np

from repro.analysis.parallel import _run_isolated, resolve_workers
from repro.compiler.serialize import canonical_dumps
from repro.core import perf
from repro.service import wire
from repro.service.amend import AmendRegistry, parse_rows
from repro.service.cache import ArtifactCache, CachedArtifact
from repro.service.compile import artifact_verifier, compile_digest
from repro.service.canonical import (
    CanonicalPattern,
    canonicalize,
    permute_registers_dict,
    permute_schedule_dict,
)
from repro.service import compile as _compile_mod
from repro.service.errors import (
    Overloaded,
    ProtocolError,
    ServiceTimeout,
    error_fields,
)
from repro.service.policy import ServerPolicy, request_digest
from repro.service.specs import topology_from_spec
from repro.topology.base import Topology

#: Named ``pattern`` specs memoized to their canonical pattern, keyed by
#: topology signature and the spec's canonical JSON.  Every spec of
#: :mod:`repro.compiler.recognition` is deterministic, so a repeated spec
#: skips regenerating and re-canonicalizing its requests.
SPEC_MEMO_ENTRIES = 64
_spec_memo: OrderedDict[tuple[str, str], CanonicalPattern] = OrderedDict()

#: Built topologies one server keeps per spec (see
#: :meth:`CompileServer._topology`); each holds its own route cache.
TOPOLOGY_MEMO_ENTRIES = 8


def _worker_compile(task: dict[str, Any]) -> dict[str, Any]:
    """Top-level (picklable) worker: cold-compile a canonical pattern.

    Builds its own topology from the task's spec: with ``workers=0``
    this runs on a pool thread, and the server's memoised topologies
    (:meth:`CompileServer._topology`) belong to the event loop.
    """
    topology = topology_from_spec(task["topology_spec"])
    return _compile_mod.build_canonical_artifact(
        topology,
        [tuple(r) for r in task["requests"]],
        task["scheduler"],
        include_registers=task["include_registers"],
    )


def _parse_pattern(
    req: dict[str, Any],
) -> np.ndarray | list[tuple[int, int, int, int]]:
    """Request rows from either a ``pattern`` spec or a ``pairs`` list.

    Integer ``pairs`` of 2-4 columns parse with one ``np.asarray`` into
    ``(n, 4)`` int64 ``(src, dst, size, tag)`` rows; ragged or
    non-integer rows take the per-row path (``int()`` coercion, typed
    errors) and come back as tuples.
    """
    if "pattern" in req:
        from repro.compiler.recognition import recognize

        return [(r.src, r.dst, r.size, r.tag) for r in recognize(req["pattern"])]
    if "pairs" in req:
        rows = _pairs_array(req["pairs"])
        if rows is not None:
            return rows
        out = []
        for row in req["pairs"]:
            if not 2 <= len(row) <= 4:
                raise ProtocolError(f"bad pair row {row!r}")
            s, d, *rest = row
            size = int(rest[0]) if rest else 1
            tag = int(rest[1]) if len(rest) > 1 else 0
            out.append((int(s), int(d), size, tag))
        return out
    raise ProtocolError("compile request needs 'pattern' or 'pairs'")


def _pairs_array(pairs: Any) -> np.ndarray | None:
    """``pairs`` as ``(n, 4)`` int64 rows, or ``None`` off the fast path."""
    try:
        arr = np.asarray(pairs)
    except (ValueError, TypeError):  # ragged rows
        return None
    if arr.ndim != 2 or not 2 <= arr.shape[1] <= 4 or arr.dtype.kind != "i":
        return None
    rows = np.zeros((len(arr), 4), dtype=np.int64)
    rows[:, 2] = 1  # default size; tag defaults to 0
    rows[:, : arr.shape[1]] = arr
    return rows


def pattern_tuples(req: dict[str, Any]) -> list[tuple[int, int, int, int]]:
    """The request's rows as tuples, in the caller's order (amend streams)."""
    rows = _parse_pattern(req)
    if isinstance(rows, np.ndarray):
        return [tuple(r) for r in rows.tolist()]
    return rows


def canonical_pattern(topology: Any, req: dict[str, Any]) -> CanonicalPattern:
    """The canonical pattern a compile request names (specs memoized)."""
    if "pattern" not in req:
        return canonicalize(topology, _parse_pattern(req))
    key = (topology.signature, canonical_dumps(req["pattern"]))
    canonical = _spec_memo.pop(key, None)
    if canonical is None:
        canonical = canonicalize(topology, _parse_pattern(req))
    _spec_memo[key] = canonical  # most recently used last
    if len(_spec_memo) > SPEC_MEMO_ENTRIES:
        _spec_memo.popitem(last=False)
    return canonical


class CompileServer:
    """The batch compile server.

    Parameters
    ----------
    cache:
        Shared :class:`ArtifactCache` (or a directory path for its disk
        tier; ``None`` = memory-only).
    workers:
        Worker processes for cold compiles (int or ``"auto"``);
        ``0`` uses one worker *thread* (single-process mode for tests).
    host, port:
        TCP endpoint (``port=0`` binds an ephemeral port, read it back
        from :attr:`address`).  Mutually exclusive with ``socket_path``.
    socket_path:
        Unix-domain socket endpoint (preferred for local tooling/CI).
    policy:
        Admission/deadline knobs (:class:`ServerPolicy`).
    """

    def __init__(
        self,
        cache: ArtifactCache | str | None = None,
        *,
        workers: int | str | None = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: str | None = None,
        scheduler: str = "combined",
        policy: ServerPolicy | None = None,
        amend_streams: int | None = None,
    ) -> None:
        if isinstance(cache, ArtifactCache):
            self.cache = cache
        else:
            self.cache = ArtifactCache(cache)
        self.default_scheduler = scheduler
        #: served compiles per outcome: count and summed seconds.
        self.latency = {
            k: {"count": 0, "seconds": 0.0} for k in ("miss", "hit")
        }
        self.amends = AmendRegistry(self.cache, max_streams=amend_streams)
        self.workers = 0 if workers == 0 else (resolve_workers(workers) or 1)
        self.host, self.port, self.socket_path = host, port, socket_path
        self.policy = policy if policy is not None else ServerPolicy()
        self._server: asyncio.AbstractServer | None = None
        self._executor: ProcessPoolExecutor | ThreadPoolExecutor | None = None
        self._conns: set[asyncio.StreamWriter] = set()
        #: connections parked between frames, closed by shutdown().
        self._idle: set[asyncio.StreamWriter] = set()
        #: set by shutdown() and kill(): handlers answer the request in
        #: hand and read no further frame.
        self._closing = False
        self._inflight: dict[str, asyncio.Future] = {}
        self._pending: set[asyncio.Future] = set()
        self._shutdown = asyncio.Event()
        self._shutdown_task: asyncio.Task | None = None
        self._started_at: float | None = None
        self._topologies: OrderedDict[str, Topology] = OrderedDict()
        self._active = 0
        self.requests_served = 0
        self.inflight_coalesced = 0
        self.shed = 0
        self.deadline_cancels = 0
        self.worker_restarts = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int] | str:
        """Bound endpoint: ``(host, port)`` or the unix socket path."""
        if self.socket_path is not None:
            return self.socket_path
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[:2]

    def _make_executor(self) -> ProcessPoolExecutor | ThreadPoolExecutor:
        if self.workers == 0:
            return ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-compile"
            )
        return ProcessPoolExecutor(max_workers=self.workers)

    async def start(self) -> "CompileServer":
        """Bind the endpoint and start accepting connections."""
        self._executor = self._make_executor()
        limit = self.policy.max_frame_bytes
        if self.socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=self.socket_path, limit=limit
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_client, host=self.host, port=self.port,
                limit=limit,
            )
        self._started_at = time.monotonic()
        return self

    async def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` (or the ``shutdown`` verb).

        If the verb-triggered drain task failed, its exception is
        re-raised here instead of being swallowed.
        """
        assert self._server is not None, "call start() first"
        await self._shutdown.wait()
        if self._shutdown_task is not None:
            await self._shutdown_task

    async def shutdown(self) -> None:
        """Drain cleanly: stop accepting, finish in-flight work, stop.

        The shutdown event is set even when the drain fails part-way:
        :meth:`serve_forever` must wake up to *report* the failure, not
        hang on a latch nobody will ever set.
        """
        try:
            self._closing = True
            if self._server is not None:
                self._server.close()
                # An idle connection would otherwise stay served; from
                # Python 3.12.1 ``wait_closed`` also waits for it.
                for writer in list(self._idle):
                    writer.close()
                await self._server.wait_closed()
            if self._pending:
                await asyncio.gather(*self._pending, return_exceptions=True)
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None
        finally:
            self._shutdown.set()

    async def kill(self) -> None:
        """Crash, don't drain: stop listening, cut every connection.

        The chaos-harness faithful version of a process loss -- clients
        and peers see resets and half-finished frames, never a goodbye.
        In-flight work is abandoned, the worker pool is killed.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
        # Cut connections before waiting on the listener: from Python
        # 3.12.1 ``wait_closed`` waits for every connection.
        for writer in list(self._conns):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        self._shutdown.set()

    async def _restart_workers(self) -> None:
        """Replace a pool with a hung worker (deadline enforcement) or a
        broken one (a worker died).

        Process workers are killed outright; a hung worker *thread*
        cannot be killed, so its pool is abandoned (the thread finishes
        into the void) and a fresh one takes over either way.
        """
        old, self._executor = self._executor, self._make_executor()
        self.worker_restarts += 1
        if isinstance(old, ProcessPoolExecutor):
            for proc in list(getattr(old, "_processes", {}).values()):
                proc.kill()
        if old is not None:
            old.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _read_frame(self, reader: asyncio.StreamReader) -> bytes:
        """One request frame; ``b""`` = connection is done (EOF).

        A frame cut off by EOF comes back as it arrived and is answered
        like any other: a last request without its newline still
        decodes, a torn one gets a typed ``protocol`` error.  Raises
        :class:`ProtocolError` for frames past the size limit -- the
        stream cannot be resynchronized mid-frame, so the caller
        replies once and closes.
        """
        try:
            return await wire.read_frame(reader)
        except asyncio.LimitOverrunError:
            raise ProtocolError(
                f"frame exceeds {self.policy.max_frame_bytes} bytes"
            ) from None

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Track live connections so kill() can cut them abruptly -- a
        # crashed server does not drain.
        self._conns.add(writer)
        try:
            while not self._closing:
                self._idle.add(writer)
                try:
                    frame = await self._read_frame(reader)
                except ProtocolError as exc:
                    writer.write(wire.encode(
                        {"id": None, "ok": False, **error_fields(exc)}
                    ))
                    await writer.drain()
                    break
                self._idle.discard(writer)
                if not frame or writer.is_closing():
                    break  # EOF, or shutdown() closed us while idle
                response = await self._dispatch(frame)
                if response.get("op") == "shutdown":
                    # Refuse new connections *before* acking, so no
                    # client can connect into a closing server and be
                    # dropped without a reply.
                    if self._server is not None:
                        self._server.close()
                writer.write(wire.encode(response))
                await writer.drain()
                if response.get("op") == "shutdown":
                    # Drain in the background so the client is not held
                    # hostage to slow stragglers; serve_forever() keeps
                    # the task reference and re-raises its failures.
                    self._shutdown_task = asyncio.ensure_future(self.shutdown())
                    break
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        except asyncio.CancelledError:
            # Loop teardown while this connection idled: close and exit
            # cleanly (a cancelled handler task trips asyncio's stream
            # callback into callback-exception noise).
            pass
        finally:
            self._conns.discard(writer)
            self._idle.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                # wait_closed itself may be cancelled by loop teardown;
                # the transport is already closing, nothing to salvage.
                pass

    async def _dispatch(self, frame: bytes) -> dict[str, Any]:
        """One request frame to its reply message (encoded by the caller)."""
        req: Any = {}
        try:
            try:
                req = wire.decode(frame)
            except wire.FrameError as exc:
                raise ProtocolError(str(exc)) from None
            op = req.get("op", "compile")
            self.requests_served += 1
            return await self._handle_op(op, req)
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            req = req if isinstance(req, dict) else {}
            return {"id": req.get("id"), "ok": False, **error_fields(exc)}

    async def _handle_op(self, op: str, req: dict[str, Any]) -> dict[str, Any]:
        """Route one parsed request to its verb handler.

        Subclasses (the farm node) extend the verb set by overriding
        this and delegating unknown ops to ``super()``.
        """
        if op == "ping":
            return self._reply(req, op="ping")
        if op == "stats":
            return self._reply(req, op="stats", **self._stats())
        if op == "health":
            return self._reply(req, op="health", **self._health())
        if op == "ready":
            return self._reply(req, op="ready", ready=self._ready())
        if op == "shutdown":
            return self._reply(req, op="shutdown")
        if op == "compile":
            return await self._compile(req)
        if op == "amend":
            return await self._amend(req)
        raise ProtocolError(f"unknown op {op!r}")

    def _reply(self, req: dict[str, Any], **fields: Any) -> dict[str, Any]:
        out = {"id": req.get("id"), "ok": True, **fields}
        if "idem" in req:
            # Echo our *recomputation* over the received bytes, so a
            # client can detect a request garbled in flight (its own
            # digest won't match the echo).
            out["idem"] = request_digest(req)
        return out

    def _ready(self) -> bool:
        return (
            self._server is not None
            and self._server.is_serving()
            and not self._shutdown.is_set()
            and self._shutdown_task is None
            and self._active < self.policy.max_pending
        )

    def _health(self) -> dict[str, Any]:
        cache = self.cache.stats.as_dict()
        cache["entries"] = len(self.cache)
        return {
            "ready": self._ready(),
            "queue_depth": self._active,
            "inflight": len(self._inflight),
            "max_pending": self.policy.max_pending,
            "shed": self.shed,
            "deadline_cancels": self.deadline_cancels,
            "worker_restarts": self.worker_restarts,
            "workers": self.workers,
            "uptime_seconds": (
                time.monotonic() - self._started_at
                if self._started_at is not None else 0.0
            ),
            "cache": cache,
        }

    def _stats(self) -> dict[str, Any]:
        return {
            "cache": self.cache.stats.as_dict(),
            "latency": {
                k: {**b, "mean_seconds": b["seconds"] / (b["count"] or 1)}
                for k, b in self.latency.items()
            },
            # The perf counters are process-global: every server of one
            # process reports the same set, and ``pid`` lets the shard
            # router add each process's set once.
            "counters": perf.snapshot(),
            "pid": os.getpid(),
            "amend": self.amends.stats(),
            "inflight": len(self._inflight),
            "inflight_coalesced": self.inflight_coalesced,
            "requests": self.requests_served,
            "queue_depth": self._active,
            "shed": self.shed,
            "deadline_cancels": self.deadline_cancels,
            "worker_restarts": self.worker_restarts,
            "workers": self.workers,
        }

    # ------------------------------------------------------------------
    # the compile verb
    # ------------------------------------------------------------------
    def _request_deadline(self, req: dict[str, Any]) -> float | None:
        """Effective budget: the policy's, tightened by the request's."""
        budget = self.policy.request_deadline
        if "deadline" in req and req["deadline"] is not None:
            asked = float(req["deadline"])
            if asked <= 0:
                raise ProtocolError(f"bad deadline {req['deadline']!r}")
            budget = asked if budget is None else min(asked, budget)
        return budget

    async def _compile(self, req: dict[str, Any]) -> dict[str, Any]:
        if self._active >= self.policy.max_pending:
            self.shed += 1
            perf.COUNTERS.service_shed += 1
            raise Overloaded(
                "overloaded: admission queue full",
                retry_after=self.policy.retry_after,
            )
        self._active += 1
        try:
            return await self._compile_admitted(req)
        finally:
            self._active -= 1

    def _topology(self, spec: Any) -> Topology:
        """The topology ``spec`` names, built once per spec on this server.

        Routes are a fixed function of the topology, so keeping the
        built instance keeps its route cache warm: re-verifying a
        replica or an amend epoch re-routes on cache hits.  The memo is
        keyed by the spec's sorted JSON, holds the
        :data:`TOPOLOGY_MEMO_ENTRIES` most recently used, and belongs
        to the event-loop thread: ``Topology.route``'s LRU is not
        thread-safe, so a worker compile builds its own topology from
        the spec (:func:`_worker_compile`).  Nothing may mutate an
        entry -- no server path calls ``FaultyTopology.fail_link`` or
        ``restore_link``.  A malformed spec raises as
        :func:`~repro.service.specs.topology_from_spec` does and leaves
        no entry.
        """
        key = json.dumps(spec, sort_keys=True)
        topology = self._topologies.pop(key, None)
        if topology is None:
            topology = topology_from_spec(spec)
        self._topologies[key] = topology  # most recently used last
        if len(self._topologies) > TOPOLOGY_MEMO_ENTRIES:
            self._topologies.popitem(last=False)
        return topology

    def _compile_key(self, req: dict[str, Any]):
        """Parse + canonicalize one compile request to its cache key.

        Returns ``(topology, scheduler, canonical, digest)``.  A farm
        node overrides this to reuse the canonicalization it already
        performed for the ownership check, so sharded serving does not
        pay the (group-sized) canonical scan twice per request.
        """
        if "topology" not in req:
            raise ProtocolError("compile request needs 'topology'")
        topology = self._topology(req["topology"])
        scheduler = req.get("scheduler") or self.default_scheduler
        canonical = canonical_pattern(topology, req)
        digest = compile_digest(topology, canonical, scheduler)
        return topology, scheduler, canonical, digest

    async def _repair_miss(
        self, req: dict[str, Any], topology: Any, digest: str
    ) -> dict[str, Any] | None:
        """A second source for a local cache miss, tried before a cold
        compile.  None here; a farm node reads a peer's replica."""
        return None

    def _encoded(self, digest: str, doc: dict[str, Any]) -> CachedArtifact:
        """``doc`` with its canonical encoding: the one the cache made
        when it stored this very document, else a fresh one."""
        entry = self.cache.encoded(digest)
        return entry if entry is not None and entry.doc is doc else CachedArtifact(doc)

    async def _compile_admitted(self, req: dict[str, Any]) -> dict[str, Any]:
        t0 = perf.perf_timer()
        deadline = self._request_deadline(req)
        include_registers = bool(req.get("registers", False))
        topology, scheduler, canonical, digest = self._compile_key(req)

        outcome = "hit"
        doc = self.cache.get(digest, verifier=artifact_verifier(topology))
        if doc is not None and include_registers and "registers" not in doc:
            doc = None
        if doc is None:
            doc = await self._repair_miss(req, topology, digest)
        if doc is None:
            remaining = (
                None if deadline is None else deadline - (perf.perf_timer() - t0)
            )
            leader = self._inflight.get(digest)
            if leader is not None:
                # Identical request already compiling: await its result.
                self.inflight_coalesced += 1
                try:
                    doc = await asyncio.wait_for(
                        asyncio.shield(leader), timeout=remaining
                    )
                except (asyncio.TimeoutError, TimeoutError):
                    self.deadline_cancels += 1
                    perf.COUNTERS.service_deadline_cancels += 1
                    raise ServiceTimeout(
                        f"deadline of {deadline:.3f}s expired awaiting "
                        "an in-flight compile"
                    ) from None
                outcome = "inflight"
            else:
                outcome = "miss"
                doc = await self._lead_compile(
                    digest, req["topology"], canonical.requests, scheduler,
                    include_registers, remaining,
                )

        keys = ("registers", "schedule") if include_registers else ("schedule",)
        sub = {key: doc[key] for key in keys}
        if not canonical.is_identity:
            sub["schedule"] = permute_schedule_dict(
                sub["schedule"], canonical.sigma_inv
            )
            if include_registers:
                sub["registers"] = permute_registers_dict(
                    topology, sub["registers"], canonical.sigma_inv
                )
        seconds = perf.perf_timer() - t0
        bucket = self.latency["hit" if outcome != "miss" else "miss"]
        bucket["count"] += 1
        bucket["seconds"] += seconds
        # The payload carries its sha256 (chaos-grade links: the client
        # re-hashes what it received and rejects a garbled artifact).
        # An identity hit writes the bytes the cache encoded at put; a
        # translated hit is encoded and hashed once, here.
        if canonical.is_identity:
            payload = self._encoded(digest, doc).payload(*keys)
        else:
            payload = wire.Payload.of(sub)
        return self._reply(
            req,
            op="compile",
            digest=digest,
            cache=outcome,
            degree=int(sub["schedule"]["degree"]),
            seconds=seconds,
            payload=payload,
        )

    # ------------------------------------------------------------------
    # the amend verb (epoch-numbered incremental compilation)
    # ------------------------------------------------------------------
    async def _amend(self, req: dict[str, Any]) -> dict[str, Any]:
        if self._active >= self.policy.max_pending:
            self.shed += 1
            perf.COUNTERS.service_shed += 1
            raise Overloaded(
                "overloaded: admission queue full",
                retry_after=self.policy.retry_after,
            )
        self._active += 1
        try:
            return self._amend_admitted(req)
        finally:
            self._active -= 1

    def _amend_admitted(self, req: dict[str, Any]) -> dict[str, Any]:
        """Open an amend stream (epoch 0) or apply one epoch update.

        Amend updates are O(update size) bitmask work on the stream's
        live :class:`~repro.core.delta.DeltaScheduler` (plus O(pattern)
        serialization of the reply), so they run on the event loop --
        no worker-pool round trip, no in-flight dedup (``amend`` is
        deliberately *not* idempotent: replaying an update would apply
        it twice, which is exactly what the epoch check refuses).
        """
        t0 = perf.perf_timer()
        if "root" in req:
            stream = self.amends.get(str(req["root"]))
            if "topology" in req:
                topology = self._topology(req["topology"])
                if topology.signature != stream.topology.signature:
                    raise ProtocolError(
                        f"amend root was opened on {stream.topology.signature!r}, "
                        f"request names {topology.signature!r}"
                    )
            epoch = req.get("epoch")
            if isinstance(epoch, bool) or not isinstance(epoch, int):
                raise ProtocolError("amend request needs an integer 'epoch'")
            add = parse_rows(req.get("add", []), what="add")
            remove = parse_rows(req.get("remove", []), what="remove")
            if not add and not remove:
                raise ProtocolError("amend request needs 'add' or 'remove' rows")
            stream = self.amends.amend(
                str(req["root"]), epoch=epoch, add=add, remove=remove
            )
            cache = "amend"
        else:
            if "topology" not in req:
                raise ProtocolError("amend request needs 'topology'")
            topology = self._topology(req["topology"])
            tuples = pattern_tuples(req)
            scheduler = req.get("scheduler") or self.default_scheduler
            stream, created = self.amends.open(
                topology, tuples, scheduler=scheduler
            )
            cache = "open" if created else "resume"
        return self._reply(
            req,
            op="amend",
            cache=cache,
            seconds=perf.perf_timer() - t0,
            lineage=stream.doc["lineage"],
            payload=self._encoded(stream.digest, stream.doc).payload("schedule"),
            **stream.state(),
        )

    async def _run_on_pool(self, call: tuple, timeout: float | None) -> Any:
        """Run ``call`` on the worker pool within ``timeout`` seconds.

        A pool restart (another compile's deadline) breaks the calls
        running on the old pool and cancels the ones queued there, and a
        dead worker breaks the pool for every call after it.  Such a
        call runs once more on a fresh pool, within the time left; the
        pool is replaced (and counted in ``worker_restarts``) only if it
        is still the one that failed.  A second failure is the reply.
        """
        t0 = perf.perf_timer()
        pool = self._executor
        try:
            return await self._submit(pool, call, timeout)
        except BrokenExecutor:
            left = None if timeout is None else timeout - (perf.perf_timer() - t0)
            if self._closing or (left is not None and left <= 0):
                raise
        if self._executor is pool:
            await self._restart_workers()
        return await self._submit(self._executor, call, left)

    @staticmethod
    async def _submit(pool: Any, call: tuple, timeout: float | None) -> Any:
        """One run of ``call`` on ``pool``; a restart that cancels it
        while queued breaks it, like one that kills its worker."""
        loop = asyncio.get_running_loop()
        try:
            return await asyncio.wait_for(
                loop.run_in_executor(pool, *call), timeout=timeout
            )
        except asyncio.CancelledError:
            if asyncio.current_task().cancelling():
                raise  # the request itself was cancelled
            raise BrokenExecutor(
                "the worker pool was restarted with this compile queued"
            ) from None

    async def _lead_compile(
        self,
        digest: str,
        topology_spec: dict[str, Any],
        canonical_requests: list[tuple[int, int, int, int]],
        scheduler: str,
        include_registers: bool,
        timeout: float | None,
    ) -> dict[str, Any]:
        """Run one cold compile on the pool, publishing it for followers.

        A compile that outlives ``timeout`` is declared hung: the pool
        is restarted (killing process workers) and every waiter gets a
        :class:`ServiceTimeout`.  A compile its pool broke or cancelled
        runs once more (:meth:`_run_on_pool`).
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[digest] = future
        self._pending.add(future)
        task = {
            "topology_spec": topology_spec,
            "requests": [list(r) for r in canonical_requests],
            "scheduler": scheduler,
            "include_registers": include_registers,
        }
        # A process worker counts into fresh perf counters, merged here;
        # a pool thread counts into this process's own, so it must not
        # reset them.
        call = (_run_isolated, (_worker_compile, task)) if self.workers else (
            _worker_compile, task
        )
        try:
            result = await self._run_on_pool(call, timeout)
            if self.workers:
                doc, counters = result
                perf.COUNTERS.merge(counters)
            else:
                doc = result
            self.cache.put(digest, doc)
            future.set_result(doc)
            return doc
        except (asyncio.TimeoutError, TimeoutError):
            self.deadline_cancels += 1
            perf.COUNTERS.service_deadline_cancels += 1
            await self._restart_workers()
            exc = ServiceTimeout(
                f"compile exceeded its {timeout:.3f}s server deadline; "
                "worker pool restarted"
            )
            future.set_exception(exc)
            raise exc from None
        except BaseException as exc:
            future.set_exception(exc)
            raise
        finally:
            self._inflight.pop(digest, None)
            self._pending.discard(future)
            # A failed leader must not crash followers with "exception
            # was never retrieved" noise if none are waiting.
            if future.done() and future.exception() is not None:
                future.exception()
