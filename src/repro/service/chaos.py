"""Chaos harness: fault-injecting proxy + crash tests for the service.

Production circuit-switched systems treat partial failure as the
common case; this module makes the compile stack prove it.  Three
pieces:

* :class:`ChaosProxy` -- a frame-aware TCP proxy between client and
  server that **drops** frames (connection cut), **delays** them,
  **truncates** them mid-byte (torn frame, then cut), and **garbles**
  payload bytes, each with an independent seeded probability, in both
  directions;
* :func:`kill_mid_write` -- spawns a subprocess that SIGKILLs *itself*
  between the cache's temp-file write and the atomic rename, staging
  exactly the torn state the write-ahead journal exists for (plus a
  torn-shard variant written directly), then verifies the reopened
  cache's recovery scan quarantines everything suspect;
* :func:`run_chaos_campaign` -- the end-to-end invariant check: N
  requests through the proxy against a clean-run baseline, asserting
  **every request either completes byte-identical to the clean run or
  fails with a typed** :class:`~repro.service.errors.ServiceError`,
  and that a final :meth:`~repro.service.cache.ArtifactCache.verify_scan`
  finds zero quarantined-but-served entries.

Everything is deterministic under ``seed`` so a CI gate on the report's
``ok`` flag cannot flake.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Awaitable, Callable

from repro.compiler.serialize import canonical_dumps
from repro.service.amend import amend_epoch_digest, parse_rows
from repro.service.cache import ArtifactCache, JOURNAL_DIR
from repro.service import wire
from repro.service.client import AsyncCompileClient
from repro.service.errors import (
    EpochConflict,
    ServiceError,
    StaleEpoch,
    WrongShard,
)
from repro.service.farm import (
    SUSPECT_AFTER,
    AsyncFarmClient,
    Farm,
    ShardMap,
    route_digest,
)
from repro.service.policy import CircuitBreaker, RetryPolicy, ServerPolicy
from repro.service.server import CompileServer


@dataclass(frozen=True)
class ChaosConfig:
    """Per-frame fault probabilities of one :class:`ChaosProxy`."""

    #: swallow the frame and cut the connection (packet-loss analogue).
    drop_rate: float = 0.0
    #: hold the frame for up to ``delay_seconds`` before forwarding.
    delay_rate: float = 0.0
    delay_seconds: float = 0.05
    #: forward a strict prefix of the frame, then cut the connection.
    truncate_rate: float = 0.0
    #: flip payload bytes (frame still delivered, content lies).
    garble_rate: float = 0.0
    seed: int = 0

    @property
    def active(self) -> bool:
        return any(
            r > 0 for r in (self.drop_rate, self.delay_rate,
                            self.truncate_rate, self.garble_rate)
        )


@dataclass
class ChaosStats:
    """What the proxy actually did (for the campaign report)."""

    frames: int = 0
    dropped: int = 0
    delayed: int = 0
    truncated: int = 0
    garbled: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


class _Cut(Exception):
    """Internal: this connection was chosen to die."""


class ChaosProxy:
    """Frame-aware fault-injecting proxy in front of a compile server.

    Listens on its own ephemeral TCP endpoint; every accepted client
    gets a fresh upstream connection.  Faults are decided per *frame*
    (a header line plus the payload line it announces,
    :mod:`repro.service.wire`) independently in each direction, by a
    single seeded RNG, so a campaign is reproducible.
    """

    def __init__(
        self,
        upstream: tuple[str, int],
        config: ChaosConfig,
        *,
        host: str = "127.0.0.1",
        limit: int = 64 * 1024 * 1024,
    ) -> None:
        self.upstream = upstream
        self.config = config
        self.host = host
        self.limit = limit
        self.stats = ChaosStats()
        self._rng = random.Random(config.seed)
        self._server: asyncio.AbstractServer | None = None
        self._conns: set[asyncio.Task] = set()

    @property
    def address(self) -> tuple[str, int]:
        assert self._server is not None, "proxy not started"
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> "ChaosProxy":
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=0, limit=self.limit
        )
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for conn in list(self._conns):
            conn.cancel()
        if self._conns:
            await asyncio.gather(*self._conns, return_exceptions=True)
            self._conns.clear()

    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._conns.add(asyncio.current_task())
        try:
            await self._proxy_one(reader, writer)
        except asyncio.CancelledError:
            # Teardown: exit cleanly so the streams connection-task
            # callback never sees a cancelled handler.
            pass
        finally:
            self._conns.discard(asyncio.current_task())

    async def _proxy_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            up_reader, up_writer = await asyncio.open_connection(
                *self.upstream, limit=self.limit
            )
        except OSError:
            writer.close()
            return
        pumps = [
            asyncio.ensure_future(self._pump(reader, up_writer)),
            asyncio.ensure_future(self._pump(up_reader, writer)),
        ]
        try:
            # Either side dying (EOF or injected cut) tears down both,
            # so a dropped frame surfaces to the client as a dead
            # connection -- the same thing a cut fiber looks like.
            await asyncio.wait(pumps, return_when=asyncio.FIRST_COMPLETED)
        finally:
            for pump in pumps:
                pump.cancel()
            await asyncio.gather(*pumps, return_exceptions=True)
            for w in (writer, up_writer):
                w.close()
                try:
                    await w.wait_closed()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    pass

    async def _pump(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                # A frame torn at the source arrives torn: pass it on.
                frame = await wire.read_frame(reader)
                if not frame:
                    return
                try:
                    frame = await self._maul(frame, writer)
                except _Cut:
                    return
                writer.write(frame)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError,
                asyncio.LimitOverrunError):
            return

    async def _maul(self, frame: bytes, writer: asyncio.StreamWriter) -> bytes:
        """Apply at most one fault to ``frame`` (rates are per-frame)."""
        cfg, rng = self.config, self._rng
        self.stats.frames += 1
        roll = rng.random()
        if roll < cfg.drop_rate:
            self.stats.dropped += 1
            raise _Cut
        roll -= cfg.drop_rate
        if roll < cfg.truncate_rate and len(frame) > 2:
            self.stats.truncated += 1
            cut = rng.randrange(1, len(frame) - 1)
            writer.write(frame[:cut])
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            raise _Cut
        roll -= cfg.truncate_rate
        if roll < cfg.garble_rate and len(frame) > 2:
            self.stats.garbled += 1
            body = bytearray(frame)
            # Never touch a line terminator: a garbled frame is still a
            # frame, just a lying one.
            ends = {frame.find(b"\n"), len(frame) - 1}
            for _ in range(max(1, len(body) // 256)):
                at = rng.randrange(0, len(body) - 1)
                if at not in ends:
                    body[at] = rng.randrange(256)
            frame = bytes(body)
        roll -= cfg.garble_rate
        if roll < cfg.delay_rate:
            self.stats.delayed += 1
            await asyncio.sleep(rng.uniform(0.0, cfg.delay_seconds))
        return frame


# ----------------------------------------------------------------------
# kill-mid-write crash staging
# ----------------------------------------------------------------------

#: Runs in a subprocess: replaces the commit rename with SIGKILL, so the
#: cache dies with a journaled intent and a torn temp file on disk.
_CRASH_WRITER = """
import os, signal, sys
from repro.service.cache import ArtifactCache

root, digest = sys.argv[1], sys.argv[2]
cache = ArtifactCache(root)

def _die(src, dst):
    os.kill(os.getpid(), signal.SIGKILL)

os.replace = _die
cache.put(digest, {"schedule": {"version": 1, "scheduler": "crash-test",
                                "degree": 1, "slots": []}})
"""


def kill_mid_write(cache_dir: str | Path) -> dict[str, Any]:
    """Crash a real cache writer mid-commit; verify recovery cleans up.

    Stages two torn states under ``cache_dir``:

    1. a subprocess SIGKILLed between temp-file write and rename
       (leftover intent + ``.tmp-*`` file);
    2. a shard torn *in place* (truncated JSON at the final path, with
       its intent still journaled) -- what a non-atomic filesystem or a
       power cut can leave.

    Then reopens the cache (recovery scan runs) and returns the
    recovery + verify reports.  Raises ``AssertionError`` if the crash
    did not stage what it should have -- the harness must not silently
    test nothing.
    """
    cache_dir = Path(cache_dir)
    digest_kill = "ee" + "0" * 62
    digest_torn = "ef" + "1" * 62

    pkg_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(pkg_root), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _CRASH_WRITER, str(cache_dir), digest_kill],
        env=env, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != -signal.SIGKILL:
        raise AssertionError(
            f"crash writer exited {proc.returncode}, wanted SIGKILL: "
            f"{proc.stderr}"
        )
    intent = cache_dir / JOURNAL_DIR / f"{digest_kill}.intent"
    assert intent.is_file(), "kill-mid-write left no journaled intent"
    assert list(cache_dir.glob("??/.tmp-*")), "kill-mid-write left no temp file"

    # Torn-in-place shard: valid intent, garbage artifact bytes.
    shard = cache_dir / digest_torn[:2] / f"{digest_torn}.json"
    shard.parent.mkdir(parents=True, exist_ok=True)
    shard.write_text('{"artifact": {"schedule": {"version"')
    (cache_dir / JOURNAL_DIR / f"{digest_torn}.intent").write_text(
        json.dumps({"digest": digest_torn})
    )

    cache = ArtifactCache(cache_dir)  # recovery scan runs on open
    recovery = cache.recover()  # idempotent second pass must find nothing
    assert recovery["intents"] == 0, "recovery scan is not idempotent"
    verify = cache.verify_scan()
    return {
        "crash_exit": proc.returncode,
        "stats": {
            "recovered": cache.stats.recovered,
            "quarantined": cache.stats.quarantined,
        },
        "torn_digest_served": cache.get(digest_torn) is not None,
        "verify_scan": verify,
    }


# ----------------------------------------------------------------------
# the campaign
# ----------------------------------------------------------------------

#: Request mix: distinct (topology, pattern) compile problems.  Small
#: shapes keep a 200-request campaign in CI time; the mix still crosses
#: torus/ring/mesh routing, schedule-only vs register artifacts, and
#: spec vs explicit-pairs requests.
CAMPAIGN_REQUESTS: list[dict[str, Any]] = [
    {"topology": {"kind": "torus", "width": 4},
     "pattern": {"pattern": "transpose", "width": 4}},
    {"topology": {"kind": "torus", "width": 4},
     "pattern": {"pattern": "ring", "nodes": 16}, "registers": True},
    {"topology": {"kind": "torus", "width": 4},
     "pattern": {"pattern": "hypercube", "nodes": 16}},
    {"topology": {"kind": "ring", "nodes": 8},
     "pattern": {"pattern": "ring", "nodes": 8}},
    {"topology": {"kind": "mesh", "width": 4},
     "pairs": [[0, 5], [5, 10], [10, 15], [15, 0]]},
    {"topology": {"kind": "torus", "width": 4},
     "pairs": [[1, 2, 4], [3, 0, 2, 7], [12, 9]], "registers": True},
]


def _reply_bytes(reply: dict[str, Any]) -> str:
    """Canonical bytes of the *artifact content* of one reply."""
    doc = {"schedule": reply["schedule"]}
    if "registers" in reply:
        doc["registers"] = reply["registers"]
    return canonical_dumps(doc)


async def _baseline(
    combos: list[dict[str, Any]], server: CompileServer | None = None
) -> list[str]:
    """Clean-run reference bytes of every combo, straight at ``server``.

    With no ``server`` a fresh plain single-box server answers: compiles
    are deterministic, so every farm reply -- served by any replica,
    before or after any fault -- must be byte-identical to it.
    """
    own = server is None
    if own:
        server = CompileServer(workers=0)
        await server.start()
    try:
        async with AsyncCompileClient(*server.address, retry=None) as clean:
            return [
                _reply_bytes(await clean.request({"op": "compile", **combo}))
                for combo in combos
            ]
    finally:
        if own:
            await server.shutdown()


#: The topology every campaign amend stream runs on.
_AMEND_TORUS = {"kind": "torus", "width": 4}


class _Score:
    """A campaign's scorecard for the byte-identical-or-typed-error rule.

    Every scored request is ``attempted``; it is ``completed`` when it
    matches the clean-run baseline (or is the typed refusal the scenario
    demands), a typed failure when it raises a :class:`ServiceError`,
    and otherwise ``corrupted`` or ``untyped`` -- the two outcomes that
    fail a campaign.
    """

    def __init__(
        self,
        report: dict[str, Any],
        combos: list[dict[str, Any]],
        baseline: list[str],
    ) -> None:
        self.report = report
        self.combos = combos
        self.baseline = baseline
        report.update(attempted=0, completed=0, typed_failures={},
                      corrupted=[], untyped_failures=[])

    def typed(self, exc: ServiceError) -> None:
        failures = self.report["typed_failures"]
        failures[exc.code] = failures.get(exc.code, 0) + 1

    async def compile(
        self,
        client: Any,
        which: int,
        label: Any = None,
        errors: list[str] | None = None,
    ) -> dict[str, Any] | None:
        """Score compile ``which``: the reply when byte-identical.

        A typed failure's code is also appended to ``errors``.
        """
        self.report["attempted"] += 1
        try:
            reply = await client.request({"op": "compile", **self.combos[which]})
        except ServiceError as exc:
            self.typed(exc)
            if errors is not None:
                errors.append(exc.code)
            return None
        except Exception as exc:  # noqa: BLE001 - the invariant itself
            self.report["untyped_failures"].append(repr(exc))
            return None
        if _reply_bytes(reply) != self.baseline[which]:
            self.report["corrupted"].append({
                "request": which if label is None else label,
                "digest": reply.get("digest"),
            })
            return None
        self.report["completed"] += 1
        return reply

    async def refused(
        self, call: Awaitable[Any], refusal: type[ServiceError]
    ) -> ServiceError | None:
        """Score a request that must be refused with ``refusal``."""
        self.report["attempted"] += 1
        try:
            await call
        except refusal as exc:
            self.report["completed"] += 1  # the typed refusal is the contract
            return exc
        except ServiceError as exc:
            self.typed(exc)
        return None

    async def open_stream(
        self, client: Any, pairs: list[list[int]],
        row: Callable[[int], list[int]], label: str,
    ) -> "_AmendChain":
        """Open one amend stream on a 4x4 torus (scored, must succeed)."""
        self.report["attempted"] += 1
        reply = await client.amend(_AMEND_TORUS, pairs=pairs)
        self.report["completed"] += 1
        return _AmendChain(self, client, reply, pairs, row, label)


class _AmendChain:
    """A client-verified amend stream: each step must extend the digest
    chain the client computes itself (:func:`amend_epoch_digest`)."""

    def __init__(
        self, score: _Score, client: Any, opened: dict[str, Any],
        pairs: list[list[int]], row: Callable[[int], list[int]], label: str,
    ) -> None:
        self.score = score
        self.client = client
        self.pairs = pairs
        self.row = row
        self.label = label
        self.root = str(opened["root"])
        self.digest = str(opened["digest"])
        self.epoch = int(opened["epoch"])
        self.lineage_ok = self.digest == self.root  # epoch 0 *is* the root

    async def step(self, e: int) -> bool:
        """One epoch update; False when it raised a typed error."""
        add = [self.row(e)]
        report = self.score.report
        report["attempted"] += 1
        try:
            reply = await self.client.amend(
                root=self.root, epoch=self.epoch, add=add
            )
        except ServiceError as exc:
            self.score.typed(exc)
            return False
        expect = amend_epoch_digest(
            self.digest, parse_rows(add, what="add"), []
        )
        if str(reply["digest"]) != expect:
            self.lineage_ok = False
            report["corrupted"].append(
                {"request": f"{self.label}-{e}", "digest": reply.get("digest")}
            )
        else:
            report["completed"] += 1
        self.digest = str(reply["digest"])
        self.epoch = int(reply["epoch"])
        return True

    async def reopen(self, client: Any) -> bool:
        """Re-send the stream's open through ``client``; True when the
        reply resumes at the chain's head.  Scored: a reply that does
        not resume there is corrupt."""
        report = self.score.report
        report["attempted"] += 1
        try:
            reply = await client.amend(_AMEND_TORUS, pairs=self.pairs)
        except ServiceError as exc:
            self.score.typed(exc)
            return False
        if (reply.get("cache"), reply.get("epoch"), reply.get("digest")) != (
            "resume", self.epoch, self.digest
        ):
            report["corrupted"].append({
                "request": f"{self.label}-reopen",
                "digest": reply.get("digest"),
            })
            return False
        report["completed"] += 1
        return True


async def _run_campaign_async(
    requests: int,
    config: ChaosConfig,
    cache_dir: str | Path,
    *,
    kill_writer: bool,
    seed: int,
    deadline: float,
) -> dict[str, Any]:
    server = CompileServer(
        cache=ArtifactCache(cache_dir),
        workers=0,
        policy=ServerPolicy(request_deadline=deadline, max_pending=32,
                            retry_after=0.05),
    )
    await server.start()
    proxy = ChaosProxy(server.address, config)
    await proxy.start()
    report: dict[str, Any] = {"requests": requests}
    try:
        # Clean-run baseline, straight at the server (no proxy, no
        # faults): the byte-identity reference for every request kind.
        score = _Score(
            report, CAMPAIGN_REQUESTS,
            await _baseline(CAMPAIGN_REQUESTS, server),
        )

        if kill_writer:
            # Crash a writer against the same directory the server is
            # serving from, mid-campaign-setup: recovery must quarantine
            # the torn state without disturbing live entries.
            report["kill_mid_write"] = await asyncio.get_running_loop() \
                .run_in_executor(None, kill_mid_write, Path(cache_dir))

        rng = random.Random(seed)
        retry = RetryPolicy(attempts=6, base_delay=0.01, max_delay=0.2,
                            budget_seconds=10.0)
        breaker = CircuitBreaker(failure_threshold=50, reset_timeout=0.1)
        client = AsyncCompileClient(
            *proxy.address, timeout=max(1.0, 20 * config.delay_seconds),
            retry=retry, breaker=breaker,
        )
        for _ in range(requests):
            which = rng.randrange(len(CAMPAIGN_REQUESTS))
            if await score.compile(client, which) is None:
                await client.close()
        report["client_retries"] = client.retries
        report["breaker"] = breaker.as_dict()
        await client.close()
    finally:
        await proxy.stop()
        await server.shutdown()

    report["proxy"] = proxy.stats.as_dict()
    report["server"] = {
        "shed": server.shed,
        "deadline_cancels": server.deadline_cancels,
        "worker_restarts": server.worker_restarts,
        "requests": server.requests_served,
    }
    # Post-mortem integrity: the surviving cache must be fully servable.
    final = ArtifactCache(cache_dir)
    report["verify_scan"] = final.verify_scan()
    report["ok"] = (
        not report["corrupted"]
        and not report["untyped_failures"]
        and not report["verify_scan"]["quarantined"]
        and (not kill_writer
             or not report["kill_mid_write"]["torn_digest_served"])
    )
    return report


def run_chaos_campaign(
    requests: int = 200,
    *,
    config: ChaosConfig | None = None,
    cache_dir: str | Path,
    kill_writer: bool = True,
    seed: int = 0,
    deadline: float = 30.0,
) -> dict[str, Any]:
    """Drive the full stack through the fault proxy; report the invariant.

    The returned report's ``ok`` is True iff every one of ``requests``
    requests either completed byte-identical to the clean-run baseline
    or failed with a typed :class:`ServiceError`, the kill-mid-write
    crash (when enabled) was fully recovered with the torn entry never
    served, and the final cache verify scan is clean.
    """
    return asyncio.run(_run_campaign_async(
        requests,
        config if config is not None else ChaosConfig(),
        cache_dir,
        kill_writer=kill_writer,
        seed=seed,
        deadline=deadline,
    ))


# ----------------------------------------------------------------------
# the node-level campaign (farm chaos)
# ----------------------------------------------------------------------

def _farm_extra_combos(seed: int, count: int = 8) -> list[dict[str, Any]]:
    """Seeded unique pair patterns: cold traffic that keeps arriving
    after the kill, so failover is exercised on *compiles*, not just
    warm reads."""
    rng = random.Random(seed ^ 0x5AFE)
    combos = []
    for _ in range(count):
        pairs = []
        for _ in range(rng.randrange(3, 7)):
            src = rng.randrange(16)
            dst = rng.randrange(16)
            while dst == src:
                dst = rng.randrange(16)
            pairs.append([src, dst])
        combos.append({"topology": {"kind": "torus", "width": 4},
                       "pairs": pairs})
    return combos


async def _run_farm_campaign_async(
    requests: int,
    *,
    nodes: int,
    replication: int,
    kill_after: float,
    seed: int,
    cache_dir: str | Path | None,
) -> dict[str, Any]:
    combos = CAMPAIGN_REQUESTS + _farm_extra_combos(seed)
    report: dict[str, Any] = {
        "requests": requests,
        "nodes": nodes,
        "replication": replication,
    }
    score = _Score(report, combos, await _baseline(combos))

    farm = Farm(
        nodes, replication=replication, workers=0, cache_dir=cache_dir,
        policy=ServerPolicy(max_pending=64, retry_after=0.05),
    )
    await farm.start()
    client = farm.client()
    rng = random.Random(seed)
    kill_at = max(1, int(requests * kill_after))
    try:
        await client.connect()
        # The victim is the primary owner of combo 0: after the kill a
        # router-path probe of that combo *must* trigger a demote, so
        # rebalance verification cannot depend on random routing luck.
        probe_digest = route_digest(dict({"op": "compile", **combos[0]}))
        victim = farm.router.shard_map.owners(probe_digest)[0]

        for i in range(requests):
            if i == kill_at:
                await farm.kill_node(victim)
                report["killed_at"] = i
                async with AsyncCompileClient(*farm.router_address) as probe:
                    reply = await probe.request({"op": "compile", **combos[0]})
                    if _reply_bytes(reply) != score.baseline[0]:
                        report["corrupted"].append(
                            {"request": "post-kill-probe",
                             "digest": reply.get("digest")}
                        )
            await score.compile(client, rng.randrange(len(combos)))

        router = farm.router
        survivors_adopted = all(
            node.shard_map.version == router.shard_map.version
            for node in farm.nodes.values()
        )
        report["client"] = {
            "direct": client.direct,
            "via_router": client.via_router,
            "map_refreshes": client.map_refreshes,
        }
        report["rebalance"] = {
            "killed": victim,
            "failovers": router.failovers,
            "map_version": router.shard_map.version,
            "live_nodes": len(router.shard_map.nodes),
            "victim_removed": victim not in router.shard_map.nodes,
            "survivors_adopted": survivors_adopted,
        }
        report["farm"] = {
            "wrong_shard": sum(n.wrong_shard for n in farm.nodes.values()),
            "replicas_pushed": sum(
                n.replicas_pushed for n in farm.nodes.values()
            ),
            "read_repairs": sum(n.read_repairs for n in farm.nodes.values()),
        }
    finally:
        await client.close()
        await farm.shutdown()

    report["ok"] = (
        not report["corrupted"]
        and not report["untyped_failures"]
        and report["rebalance"]["victim_removed"]
        and report["rebalance"]["survivors_adopted"]
        and report["rebalance"]["failovers"] >= 1
    )
    return report


def run_farm_chaos_campaign(
    requests: int = 100,
    *,
    nodes: int = 3,
    replication: int = 2,
    kill_after: float = 0.5,
    seed: int = 0,
    cache_dir: str | Path | None = None,
) -> dict[str, Any]:
    """Node-level chaos: kill a shard mid-campaign, verify rebalance.

    Runs a mixed cold/warm compile campaign against an in-process farm
    and abruptly kills the primary owner of a known digest partway
    through.  The returned report's ``ok`` is True iff **every**
    request either completed byte-identical to an independent
    single-server baseline or failed with a typed
    :class:`ServiceError` (the farm extension of the byte-identical-
    or-typed-error invariant), the dead node was demoted from the
    shard map, and every survivor adopted the rebalanced map.
    """
    return asyncio.run(_run_farm_campaign_async(
        requests,
        nodes=nodes,
        replication=replication,
        kill_after=kill_after,
        seed=seed,
        cache_dir=cache_dir,
    ))


# ----------------------------------------------------------------------
# the high-availability campaign (self-healing farm)
# ----------------------------------------------------------------------

def _under_replicated(farm: Any, digests: Any) -> list[dict[str, Any]]:
    """Tracked digests currently below replication factor.

    Audits the *live* map: every node the current map assigns a digest
    to must actually hold it.  Dead nodes are expected misses and do
    not count -- the invariant is about the replicas the farm claims
    to have, not the ones it lost.
    """
    under = []
    for digest in sorted(set(digests)):
        owners = farm.router.shard_map.owners(digest)
        have = sum(
            1 for name in owners
            if name in farm.nodes
            and digest in farm.nodes[name].cache.digests()
        )
        if have < len(owners):
            under.append({"digest": digest, "have": have, "want": len(owners)})
    return under


async def _repair_all(farm: Any) -> None:
    """One farm-wide anti-entropy round via the ``repair`` verb."""
    for node in list(farm.nodes.values()):
        host, port = node.address
        async with AsyncCompileClient(host, port, retry=None) as repairer:
            await repairer.request({"op": "repair"})


async def _restore_replication(
    farm: Any, digests: Any, max_sweeps: int
) -> tuple[int, list[dict[str, Any]]]:
    """Sweep until the tracked set is fully replicated (or budget spent)."""
    sweeps = 0
    under = _under_replicated(farm, digests)
    while under and sweeps < max_sweeps:
        sweeps += 1
        await _repair_all(farm)
        under = _under_replicated(farm, digests)
    return sweeps, under


async def _run_router_ha_phases(
    score: _Score, gates: dict[str, bool], *,
    nodes: int, replication: int, seed: int,
) -> None:
    """Phases F and G: router HA pair promotion + graceful drain.

    Runs against a fresh two-router farm (lease-arbitrated leadership)
    so the earlier single-router phases keep their exact semantics.
    Phase F kills the *leader* router mid-campaign: the standby must
    promote within the lease timeout, bump the map epoch, and keep the
    endpoint-list clients serving byte-identical replies; the deposed
    leader's late (higher-version, lower-epoch) map push must be
    refused with a typed ``stale_epoch`` by both a node and the
    promoted standby.  Phase G drains the primary of a live amend
    stream that also uniquely owns artifacts: concurrent warm readers
    must see zero typed errors, the stream must continue on the new
    owner through proactive adoption (``amend_takeovers`` unchanged),
    and every uniquely-owned artifact must land on all successor
    owners.
    """
    report = score.report
    ha = Farm(
        nodes, replication=replication, workers=0,
        policy=ServerPolicy(max_pending=64, retry_after=0.05),
        routers=2, lease_ttl=0.6, chaos_seed=seed ^ 0x51AB,
    )
    await ha.start()
    endpoints = ha.router_addresses
    client = ha.client()
    tracked: dict[int, str] = {}

    async def drive(cl: AsyncFarmClient, which: int) -> bool:
        reply = await score.compile(cl, which, f"ha-{which}")
        if reply is not None:
            tracked[which] = str(reply["digest"])
        return reply is not None

    try:
        await client.connect()

        # -- phase F: kill the *leader* router mid-campaign ------------
        # Warm-up traffic with every replica push silently dropped, so
        # each artifact stays uniquely owned by the node that compiled
        # it -- the inventory phase G's drain re-replication must save.
        for node in ha.nodes.values():
            node.drop_replica_push_rate = 1.0
        for which in range(6):
            await drive(client, which)
        for node in ha.nodes.values():
            node.drop_replica_push_rate = 0.0

        leader = ha.leader
        assert leader is not None
        standby = next(r for r in ha.routers.values() if r is not leader)
        deposed_map = leader.shard_map
        t0 = time.monotonic()
        await ha.kill_router()  # SIGKILL-equivalent: no goodbye, no handoff
        deadline = t0 + 10 * ha.lease_ttl
        while not standby.is_leader and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        promote_seconds = time.monotonic() - t0
        promoted = (
            standby.is_leader
            and standby.shard_map.epoch == deposed_map.epoch + 1
        )

        # Mid-promotion traffic from a *fresh* client handed the full
        # endpoint list: its first connect hits the dead leader and
        # must rotate to the survivor transparently.
        served = True
        fresh = AsyncFarmClient(endpoints, default_scheduler=ha.scheduler)
        try:
            await fresh.connect()
            for which in range(6, 10):
                served = await drive(fresh, which) and served
        finally:
            await fresh.close()

        # The deposed leader's late map push: higher version, lower
        # epoch.  Both a node and the promoted standby must answer
        # with the typed stale_epoch -- version count buys it nothing.
        stale = ShardMap.from_dict({
            **deposed_map.as_dict(),
            "version": standby.shard_map.version + 10,
        })

        async def push_to_node() -> None:
            host, port = next(iter(ha.nodes.values())).address
            async with AsyncCompileClient(host, port, retry=None) as direct:
                await direct.request(
                    {"op": "reshard", "shard_map": stale.as_dict()}
                )

        by_node = await score.refused(push_to_node(), StaleEpoch)
        fenced_by_node = (
            by_node is not None
            and by_node.current_epoch == standby.shard_map.epoch
        )
        dead_leader = ha.dead_routers[leader.name]
        dead_leader.shard_map = stale
        fenced_by_standby = await score.refused(
            dead_leader.push_map_peer(*standby.address), StaleEpoch
        ) is not None
        report["phases"]["promote"] = {
            "killed_router": leader.name,
            "promoted_router": standby.name,
            "promote_seconds": round(promote_seconds, 3),
            "epoch": standby.shard_map.epoch,
            "promotions": standby.promotions,
            "node_stale_epoch_rejections": sum(
                n.stale_epoch_rejections for n in ha.nodes.values()
            ),
        }
        report["promote_seconds"] = round(promote_seconds, 3)
        gates["standby_promoted"] = promoted
        gates["promote_within_lease"] = promote_seconds <= 5 * ha.lease_ttl
        gates["deposed_push_fenced"] = fenced_by_node and fenced_by_standby
        gates["router_failover_served"] = served

        # -- phase G: graceful drain under load ------------------------
        chain = await score.open_stream(
            client, [[i, (i + 3) % 16] for i in range(8)],
            lambda e: [e % 16, (e + 7) % 16, 1, 2], "ha-amend",
        )
        for e in range(4):
            await chain.step(e)
        await ha.settle()  # the epoch artifacts must land

        assert ha.leader is not None
        target = ha.leader.shard_map.owners(chain.root)[0]
        target_node = ha.nodes[target]
        live_streams = len(target_node.amends.live_roots())

        def uniquely_owned() -> list[str]:
            return [
                d for d in set(tracked.values())
                if d in target_node.cache.digests()
                and not any(
                    d in other.cache.digests()
                    for name, other in ha.nodes.items() if name != target
                )
            ]

        # The drain target must uniquely own at least one artifact; if
        # the warm-up spread missed it, compile extra seeded patterns
        # directly against it (pushes still dropped = unique by
        # construction).  Setup traffic, not scored.
        unique = uniquely_owned()
        if not unique:
            target_node.drop_replica_push_rate = 1.0
            host, port = target_node.address
            async with AsyncCompileClient(host, port, retry=None) as direct:
                for combo in _farm_extra_combos(seed ^ 0xD0A1, count=10):
                    try:
                        reply = await direct.request(
                            {"op": "compile", **combo}
                        )
                    except WrongShard:
                        continue  # not this node's shard: try the next
                    tracked[len(score.combos) + len(tracked)] = str(
                        reply["digest"]
                    )
                    break
            target_node.drop_replica_push_rate = 0.0
            unique = uniquely_owned()
        target_held = sorted(
            set(tracked.values()) & set(target_node.cache.digests())
        )
        takeovers_before = sum(
            n.amend_takeovers for n in ha.nodes.values()
        )

        # Concurrent warm readers on their own connections: zero typed
        # errors allowed anywhere in the drain window.
        warm_whiches = sorted(tracked)[:4]
        warm_errors: list[str] = []
        warm_stop = asyncio.Event()

        async def warm_reader() -> None:
            warm = ha.client()
            try:
                await warm.connect()
                i = 0
                while not warm_stop.is_set():
                    which = warm_whiches[i % len(warm_whiches)]
                    i += 1
                    if which >= len(score.combos):
                        continue  # setup-only digest: no scored combo
                    await score.compile(warm, which, f"warm-{which}", warm_errors)
                    await asyncio.sleep(0)
            finally:
                await warm.close()

        reader = asyncio.create_task(warm_reader())
        await asyncio.sleep(0.02)
        drain_task = asyncio.create_task(ha.drain_node(target))
        await asyncio.sleep(0.01)
        # An amend racing the drain: it parks on the draining primary
        # until the handoff lands, then follows the typed redirect to
        # the *already adopted* stream -- no epoch lost, no takeover.
        racing_ok = await chain.step(4)
        await drain_task
        warm_stop.set()
        await reader

        post_drain_ok = await chain.step(5)  # first clean post-drain amend
        for e in range(6, 8):
            await chain.step(e)
        takeovers_after = sum(
            n.amend_takeovers for n in ha.nodes.values()
        )
        adoptions = sum(n.drain_adoptions for n in ha.nodes.values())
        smap = ha.leader.shard_map
        under_drain = [
            d for d in target_held
            if any(
                d not in ha.nodes[o].cache.digests()
                for o in smap.owners(d)
            )
        ]
        drained_node = ha.drained[target]
        report["phases"]["drain"] = {
            "node": target,
            "live_streams": live_streams,
            "unique_artifacts": len(unique),
            "streams_handed_off": drained_node.drain_handoffs,
            "adoptions": adoptions,
            "replicas_repushed": drained_node.drain_repushes,
            "repush_retries": ha.leader.drain_repush_retries,
            "warm_typed_errors": warm_errors,
            "under_replicated": under_drain,
        }
        gates["drain_scenario_armed"] = live_streams >= 1 and len(unique) >= 1
        gates["drain_zero_typed_errors"] = not warm_errors
        gates["drain_stream_adopted"] = (
            racing_ok and post_drain_ok and adoptions >= 1
            and takeovers_after == takeovers_before
        )
        gates["drain_replication_closed"] = not under_drain
        gates["drain_lineage_unbroken"] = chain.lineage_ok

        report["replication_stats"]["drain_handoffs"] = (
            drained_node.drain_handoffs
        )
        report["replication_stats"]["drain_adoptions"] = adoptions
        report["replication_stats"]["drain_repush_retries"] = (
            ha.leader.drain_repush_retries
        )
        report["replication_stats"]["refused"] += sum(
            n.replicas_refused for n in (*ha.nodes.values(), drained_node)
        )
    finally:
        await client.close()
        await ha.shutdown()


async def _run_farm_ha_campaign_async(
    requests: int,
    *,
    nodes: int,
    replication: int,
    seed: int,
    cache_dir: str | Path | None,
    drop_rate: float,
    max_restore_sweeps: int,
    amend_steps: int,
) -> dict[str, Any]:
    combos = CAMPAIGN_REQUESTS + _farm_extra_combos(seed)
    part_combos = _farm_extra_combos(seed ^ 0x9A11, count=6)
    all_combos = combos + part_combos

    report: dict[str, Any] = {
        "requests": requests,
        "nodes": nodes,
        "replication": replication,
    }
    score = _Score(report, all_combos, await _baseline(all_combos))
    report["phases"] = {}
    gates: dict[str, bool] = {}
    tracked: dict[int, str] = {}  # combo index -> compile digest

    farm = Farm(
        nodes, replication=replication, workers=0, cache_dir=cache_dir,
        policy=ServerPolicy(max_pending=64, retry_after=0.05),
        chaos_seed=seed,
    )
    await farm.start()
    client = farm.client()
    rng = random.Random(seed)

    async def drive(which: int) -> None:
        """One scored compile request through the farm client."""
        reply = await score.compile(client, which)
        if reply is not None:
            tracked[which] = str(reply["digest"])

    try:
        await client.connect()

        # -- phase A: silent replica loss ------------------------------
        # Every node drops a seeded fraction of its outbound replica
        # pushes; replies must stay byte-identical regardless, and the
        # anti-entropy sweeps must restore replication factor R within
        # the configured budget.
        for node in farm.nodes.values():
            node.drop_replica_push_rate = drop_rate
        for _ in range(requests):
            await drive(rng.randrange(len(combos)))
        for node in farm.nodes.values():
            node.drop_replica_push_rate = 0.0
        await farm.settle()
        sweeps_a, under_a = await _restore_replication(
            farm, tracked.values(), max_restore_sweeps
        )
        report["phases"]["drop"] = {
            "pushes_dropped": sum(
                n.replica_pushes_dropped for n in farm.nodes.values()
            ),
            "restore_sweeps": sweeps_a,
            "under_replicated": under_a,
        }
        gates["drops_restored"] = not under_a

        # -- phase B: one-way partition --------------------------------
        # Peer traffic src->dst is blocked; client traffic is not, so
        # availability must hold while replication silently degrades.
        # Healing plus sweeps must close the gap.
        names = sorted(farm.nodes)
        src, dst = names[0], names[1]
        farm.partition(src, dst)
        for j in range(len(part_combos)):
            await drive(len(combos) + j)
        farm.heal(src, dst)
        await farm.settle()
        sweeps_b, under_b = await _restore_replication(
            farm, tracked.values(), max_restore_sweeps
        )
        report["phases"]["partition"] = {
            "pair": [src, dst],
            "restore_sweeps": sweeps_b,
            "under_replicated": under_b,
        }
        gates["partition_restored"] = not under_b

        # -- phase C: kill the primary mid-amend-stream ----------------
        chain = await score.open_stream(
            client, [[i, (i + 1) % 16] for i in range(8)],
            lambda e: [e % 16, (e + 5) % 16, 1, 3], "amend-epoch",
        )
        for e in range(amend_steps):
            await chain.step(e)
        primary = farm.router.shard_map.owners(chain.root)[0]
        await farm.settle()  # the epoch artifacts must land
        await farm.kill_node(primary)
        # Deterministic demote: drive the heartbeat by hand (suspect ->
        # dead takes SUSPECT_AFTER consecutive missed beats).
        for _ in range(SUSPECT_AFTER):
            await farm.router.heartbeat()
        demoted = primary not in farm.router.shard_map.nodes
        stale_epoch = chain.epoch
        continued = await chain.step(amend_steps)  # lands on the new owner
        takeovers = sum(n.amend_takeovers for n in farm.nodes.values())
        # Stale racer: replays the epoch the winner just consumed.  It
        # must get a typed EpochConflict naming the winner's head --
        # proof the stream did not fork or silently reset.
        conflict = await score.refused(
            client.amend(root=chain.root, epoch=stale_epoch,
                         add=[chain.row(99)]),
            EpochConflict,
        )
        no_fork = conflict is not None and (
            conflict.current_epoch == chain.epoch
            and conflict.current_digest == chain.digest
        )
        for e in range(amend_steps + 1, amend_steps + 3):
            await chain.step(e)
        report["phases"]["amend_failover"] = {
            "root": chain.root,
            "killed": primary,
            "epoch": chain.epoch,
            "takeovers": takeovers,
        }
        gates["amend_primary_demoted"] = demoted
        gates["amend_takeover"] = continued and takeovers >= 1
        gates["amend_lineage_unbroken"] = chain.lineage_ok
        gates["stale_racer_typed"] = conflict is not None
        gates["no_fork"] = no_fork

        # -- phase D: the dead node comes back -------------------------
        # Fresh process on the original endpoint with an empty (or
        # recovered) cache and a stale map: one heartbeat must rejoin
        # it, and the targeted repair must leave it able to serve its
        # owned digests without a router hop.
        await farm.restart_node(primary)
        await farm.router.heartbeat()
        rejoined = (
            primary in farm.router.shard_map.nodes
            and farm.router.rejoins >= 1
        )
        owned = [
            (which, digest) for which, digest in sorted(tracked.items())
            if primary in farm.router.shard_map.owners(digest)
        ]
        sweeps_d = 0
        missing = [
            d for _, d in owned
            if d not in farm.nodes[primary].cache.digests()
        ]
        while missing and sweeps_d < max_restore_sweeps:
            sweeps_d += 1
            await _repair_all(farm)
            missing = [
                d for _, d in owned
                if d not in farm.nodes[primary].cache.digests()
            ]
        direct_ok = False
        host, port = farm.nodes[primary].address
        async with AsyncCompileClient(host, port, retry=None) as direct:
            if owned and not missing:
                which = owned[0][0]
                reply = await direct.request(
                    {"op": "compile", **all_combos[which]}
                )
                direct_ok = (
                    reply.get("cache") == "hit"
                    and _reply_bytes(reply) == score.baseline[which]
                )
            # Phase C's stream, re-opened on the rejoined primary, which
            # holds it only as the epoch artifacts a sweep pulled or its
            # disk tier kept: it must resume at the chain's head, never
            # reset to epoch 0.
            await _repair_all(farm)
            reopen_ok = await chain.reopen(direct)
        report["phases"]["rejoin"] = {
            "node": primary,
            "owned_digests": len(owned),
            "restore_sweeps": sweeps_d,
            "missing_after": len(missing),
            "reopen_resumed": reopen_ok,
            "reopen_epoch": chain.epoch,
        }
        gates["rejoined"] = rejoined
        gates["rejoin_direct_serve"] = direct_ok
        gates["amend_reopen_resumes"] = reopen_ok

        # -- phase E: the router itself dies ---------------------------
        # The router is stateless: a replacement on the same port,
        # seeded with the stale v1 map, must converge through the skew
        # machinery on the first request.  Snapshot the dying router's
        # counters first -- the replacement starts from zero.
        report["router"] = {
            "failovers": farm.router.failovers,
            "rejoins": farm.router.rejoins,
            "heartbeats": farm.router.heartbeats,
            "beat_demotions": farm.router.beat_demotions,
            "map_version": farm.router.shard_map.version,
        }
        await farm.kill_router()
        await farm.restart_router()
        fresh = AsyncCompileClient(*farm.router_address, retry=None)
        try:
            gates["router_restart"] = await score.compile(
                fresh, 0, "router-restart"
            ) is not None
        finally:
            await fresh.close()

        report["replication_stats"] = {
            "pushed": sum(n.replicas_pushed for n in farm.nodes.values()),
            "refused": sum(n.replicas_refused for n in farm.nodes.values()),
            "dropped": sum(
                n.replica_pushes_dropped for n in farm.nodes.values()
            ),
            "retries": sum(
                n.replica_push_retries for n in farm.nodes.values()
            ),
            "repaired": sum(
                n.replicas_repaired for n in farm.nodes.values()
            ),
            "anti_entropy_rounds": sum(
                n.anti_entropy_rounds for n in farm.nodes.values()
            ),
            "amend_takeovers": sum(
                n.amend_takeovers for n in farm.nodes.values()
            ),
        }
        report["router"]["restarted_map_version"] = (
            farm.router.shard_map.version
        )
    finally:
        await client.close()
        await farm.shutdown()

    # -- phases F + G: router HA pair + graceful drain -----------------
    # A fresh two-router farm (short lease so promotion is observable
    # in test time): leader kill -> standby promotion under epoch
    # fencing, then a graceful drain of a loaded primary.
    await _run_router_ha_phases(
        score, gates, nodes=nodes, replication=replication, seed=seed,
    )

    gates["no_corruption"] = not report["corrupted"]
    gates["no_untyped_failures"] = not report["untyped_failures"]
    report["availability"] = (
        report["completed"] / report["attempted"] if report["attempted"]
        else 0.0
    )
    report["restore_sweeps"] = max(sweeps_a, sweeps_b, sweeps_d)
    report["gates"] = gates
    report["ok"] = all(gates.values())
    return report


def run_farm_ha_campaign(
    requests: int = 60,
    *,
    nodes: int = 3,
    replication: int = 2,
    seed: int = 0,
    cache_dir: str | Path | None = None,
    drop_rate: float = 0.5,
    max_restore_sweeps: int = 3,
    amend_steps: int = 6,
) -> dict[str, Any]:
    """High-availability chaos: the farm must heal everything it loses.

    Seven scripted phases -- silent replica-push loss, a one-way peer
    partition, kill-the-primary mid-amend-stream, restart-and-rejoin
    of the dead node, and a router kill/restart against an in-process
    farm, then a leader-router kill and a graceful drain against a
    two-router HA farm -- each gated on the byte-identical-or-typed-
    error invariant plus its own recovery criterion: replication
    factor R restored within ``max_restore_sweeps`` anti-entropy
    sweeps, the amend stream continued on the new owner with an
    unbroken client-verified epoch digest chain (a stale racer gets a
    typed :class:`~repro.service.errors.EpochConflict` naming the
    winning head, never a fork), the rejoined node serving its owned
    digests without a router hop, the replacement router converging
    from a stale map, the standby promoting within the lease timeout
    with the deposed leader's late map push fenced by a typed
    :class:`~repro.service.errors.StaleEpoch`, and a loaded node
    draining with zero typed errors for warm readers, its amend
    streams proactively adopted, and its uniquely-owned artifacts
    re-replicated.  ``ok`` is the conjunction of every gate; the
    report's ``availability`` is the fraction of scored requests that
    completed (a typed refusal of a stale amend counts as correct
    service) and ``promote_seconds`` is the measured leader-failover
    time.
    """
    return asyncio.run(_run_farm_ha_campaign_async(
        requests,
        nodes=nodes,
        replication=replication,
        seed=seed,
        cache_dir=cache_dir,
        drop_rate=drop_rate,
        max_restore_sweeps=max_restore_sweeps,
        amend_steps=amend_steps,
    ))
