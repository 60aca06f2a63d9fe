"""Distributed compile farm: digest-sharded, replicated serving.

One compile server is a throughput ceiling; the farm is N of them
behind a shard router, partitioned by the *canonical pattern digest*
-- the same content address the cache already keys on -- so every
request has exactly one home set of nodes and the farm's aggregate
cache is the union of disjoint shards instead of N copies of one.

Pieces
------
:class:`HashRing`
    Consistent hashing with virtual nodes: each node projects
    ``vnodes`` sha256 points onto a 64-bit ring and a digest's owners
    are the next ``replication`` *distinct* nodes clockwise from its
    own point.  Adding or removing one node moves only the keys in its
    arcs (~1/N of the space), which is what makes failover a rebalance
    instead of a flush.

:class:`ShardMap`
    Versioned membership document: node endpoints + replication factor
    + the ring derived from them.  Higher version wins everywhere; the
    router is the membership authority and bumps the version when it
    demotes a dead node.

:class:`FarmNodeServer`
    A :class:`~repro.service.server.CompileServer` that knows its shard:
    ``compile``/``amend`` requests it does not own are refused with a
    typed :class:`~repro.service.errors.WrongShard` carrying the node's
    current map, cold compiles are pushed to the other owners
    (``store``), and a local miss is first repaired from a peer replica
    (``fetch`` + hash check + semantic re-verification) before falling
    back to a recompile.  New verbs: ``shardmap``, ``reshard``,
    ``fetch``, ``store``.

:class:`ShardRouter`
    Thin request router: computes the route digest, forwards the **raw
    request frame** to the owning node and relays the **raw reply
    frame** back, parsing only its header, so the client's end-to-end
    integrity checks (``idem`` echo, ``payload_sha256``) survive the
    extra hop byte-for-byte.  A node that dies mid-request is demoted
    -- removed from the map, version bumped, survivors reshard -- and
    the request retries on the new owner.  One heartbeat per router
    holds the leadership lease and tracks membership.  Its
    ``stats``/``health`` verbs aggregate every node (per-node breakdown
    plus numeric farm-wide totals).

:class:`AsyncFarmClient`
    Carries a shard map so warm requests go straight to an owning node,
    skipping the router hop; a ``WrongShard`` redirect refreshes the
    map in-line, and a dead node falls back to the router (which owns
    failover) followed by a map refresh.

:class:`Farm`
    In-process supervisor for tests, chaos campaigns and benchmarks:
    N nodes (each with its *own* cache tier and its own worker pool,
    so a 4-node farm really cold-compiles 4 patterns in parallel) plus
    one router or an HA pair, with abrupt ``kill_node`` for node-level
    chaos.

Failure semantics
-----------------
Compiles are deterministic functions of their digest, so *losing every
replica of an artifact is not a correctness event* -- the next request
recompiles byte-identical content; replication only buys locality and
latency.  Three mechanisms keep the farm at full replication and
membership without waiting for a request to trip over a failure:

* the router's **heartbeat** -- one round per beat, lease claims to
  members and health probes to departed nodes -- demotes a member that
  misses :data:`SUSPECT_AFTER` beats in a row and *rejoins* a departed
  node that answers alive-and-ready again (map bump + targeted
  ``repair``);
* a node's **anti-entropy sweep** (the ``repair`` verb) pulls peer
  digest inventories and adopts -- hash + semantically re-verified,
  exactly like read repair -- replicas of owned digests it is missing,
  so a lost fire-and-forget push only leaves R unmet until the next
  sweep;
* every **amend epoch is replicated with resume metadata** to the
  root's co-owners: when a stream's primary dies, the new owner
  rebuilds the live engine from the latest replicated epoch artifact
  (:meth:`~repro.service.amend.AmendStream.resume`) and continues the
  digest chain; a racing stale client gets a typed ``EpochConflict``
  carrying the current epoch *and digest*, never a fork.

Nothing is ever silently wrong: every farm failure mode is a typed
error or a byte-identical reply.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import logging
import random
import time
from pathlib import Path
from typing import Any, Callable, Collection

from repro.service import wire
from repro.service.amend import AmendStream, amend_root_digest
from repro.service.cache import ArtifactCache, CachedArtifact
from repro.service.client import (
    AsyncCompileClient,
    _amend_request,
    _compile_request,
)
from repro.service.compile import artifact_verifier, compile_digest
from repro.service.errors import (
    ProtocolError,
    ServerError,
    ServiceError,
    ServiceTimeout,
    StaleEpoch,
    TransportError,
    WrongShard,
    error_fields,
    reply_error,
)
from repro.service.policy import MAX_LINE_BYTES, ServerPolicy, request_digest
from repro.service.server import CompileServer, canonical_pattern, pattern_tuples
from repro.service.specs import (
    TopologySpecError,
    topology_from_spec,
    topology_to_spec,
)

__all__ = [
    "HashRing",
    "ShardMap",
    "FarmNodeServer",
    "ShardRouter",
    "AsyncFarmClient",
    "Farm",
    "route_digest",
    "sum_stats",
]

#: Virtual nodes per physical node on the ring.  64 keeps the largest
#: arc within a few percent of fair share at farm sizes that fit one
#: router, while a membership change still only re-hashes 64 points.
DEFAULT_VNODES = 64

#: Consecutive missed heartbeats after which a router declares a member
#: dead: one dropped beat is tolerated without churning the map.
SUSPECT_AFTER = 2

log = logging.getLogger(__name__)


# ----------------------------------------------------------------------
# placement
# ----------------------------------------------------------------------

class HashRing:
    """Consistent-hash ring over node names (sha256, 64-bit points)."""

    def __init__(self, nodes: Any, *, vnodes: int = DEFAULT_VNODES) -> None:
        self.vnodes = int(vnodes)
        self._nodes = sorted(set(nodes))
        points: list[tuple[int, str]] = []
        for node in self._nodes:
            for v in range(self.vnodes):
                h = hashlib.sha256(f"{node}#{v}".encode("utf-8")).digest()
                points.append((int.from_bytes(h[:8], "big"), node))
        points.sort()
        self._points = points
        self._keys = [p[0] for p in points]

    def __len__(self) -> int:
        return len(self._nodes)

    def owners(self, digest: str, count: int) -> list[str]:
        """The next ``count`` distinct nodes clockwise from ``digest``.

        ``owners()[0]`` is the *primary*; replicas follow in ring
        order, so every map agrees on the ordering, not just the set.
        """
        if not self._points:
            return []
        count = min(int(count), len(self._nodes))
        point = int.from_bytes(
            hashlib.sha256(digest.encode("utf-8")).digest()[:8], "big"
        )
        start = bisect.bisect_right(self._keys, point) % len(self._points)
        out: list[str] = []
        for k in range(len(self._points)):
            node = self._points[(start + k) % len(self._points)][1]
            if node not in out:
                out.append(node)
                if len(out) == count:
                    break
        return out


class ShardMap:
    """Versioned farm membership: endpoints, replication, the ring.

    Immutable in practice -- membership changes produce a *new* map
    with a higher version (:meth:`without`), and every component adopts
    whichever map it has seen with the dominant **fencing token**
    ``(epoch, version)``.  The epoch is the *leader incarnation*: it
    only moves when a standby router promotes itself, and it dominates
    the version lexicographically, so a deposed leader that keeps
    bumping versions under its old epoch can never win a map race
    against the promoted standby's successor maps.
    """

    def __init__(
        self,
        nodes: dict[str, dict[str, Any]],
        *,
        replication: int = 2,
        version: int = 1,
        epoch: int = 1,
        vnodes: int = DEFAULT_VNODES,
    ) -> None:
        self.nodes = {str(k): dict(v) for k, v in nodes.items()}
        self.replication = int(replication)
        self.version = int(version)
        self.epoch = int(epoch)
        self.vnodes = int(vnodes)
        self._ring = HashRing(self.nodes, vnodes=self.vnodes)

    @property
    def token(self) -> tuple[int, int]:
        """The fencing token: epoch dominates version."""
        return (self.epoch, self.version)

    def dominates(self, other: "ShardMap") -> bool:
        """True when this map wins the adoption race against ``other``."""
        return self.token > other.token

    def owners(self, digest: str) -> list[str]:
        return self._ring.owners(digest, self.replication)

    def endpoint(self, name: str) -> tuple[str, int]:
        ep = self.nodes[name]
        return str(ep["host"]), int(ep["port"])

    def successor(
        self,
        *,
        drop: Collection[str] = (),
        add: dict[str, dict[str, Any]] | None = None,
    ) -> "ShardMap":
        """A successor map (version + 1, same epoch): ``drop`` removed,
        ``add`` (name -> endpoint) admitted."""
        nodes = {k: dict(v) for k, v in self.nodes.items() if k not in drop}
        for name, endpoint in (add or {}).items():
            nodes[str(name)] = {
                "host": str(endpoint["host"]), "port": int(endpoint["port"]),
            }
        return ShardMap(
            nodes, replication=self.replication,
            version=self.version + 1, epoch=self.epoch, vnodes=self.vnodes,
        )

    def without(self, name: str) -> "ShardMap":
        return self.successor(drop=(name,))

    def with_node(self, name: str, endpoint: dict[str, Any]) -> "ShardMap":
        return self.successor(add={name: endpoint})

    def with_epoch(self, epoch: int) -> "ShardMap":
        """A successor map under a new leader incarnation.

        The version still bumps so the token strictly increases even
        against maps the old leader published after our last sync.
        """
        if int(epoch) <= self.epoch:
            raise ValueError(
                f"new epoch {epoch} must exceed current {self.epoch}"
            )
        return ShardMap(
            {k: dict(v) for k, v in self.nodes.items()},
            replication=self.replication,
            version=self.version + 1, epoch=int(epoch), vnodes=self.vnodes,
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "epoch": self.epoch,
            "replication": self.replication,
            "vnodes": self.vnodes,
            "nodes": {k: dict(v) for k, v in self.nodes.items()},
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ShardMap":
        if not isinstance(data, dict) or not isinstance(data.get("nodes"), dict):
            raise ProtocolError(f"malformed shard map: {data!r}")
        return cls(
            data["nodes"],
            replication=int(data.get("replication", 2)),
            version=int(data.get("version", 1)),
            # Pre-fencing maps carry no epoch: they belong to the first
            # leader incarnation by definition.
            epoch=int(data.get("epoch", 1)),
            vnodes=int(data.get("vnodes", DEFAULT_VNODES)),
        )


def route_digest(
    req: dict[str, Any], *, default_scheduler: str = "combined"
) -> str | None:
    """The digest a request shards on (``None`` = not shardable).

    Mirrors exactly what the serving node will key its cache / amend
    registry with -- a ``compile`` routes on its canonical compile
    digest, an amend *open* on its root digest, an amend *update* on
    the root it names -- so router, client and node always agree on
    ownership without trusting anything but the request bytes.
    """
    op = req.get("op", "compile")
    if op == "compile":
        if "topology" not in req:
            raise ProtocolError("compile request needs 'topology'")
        topology = topology_from_spec(req["topology"])
        canonical = canonical_pattern(topology, req)
        scheduler = req.get("scheduler") or default_scheduler
        return compile_digest(topology, canonical, scheduler)
    if op == "amend":
        if "root" in req:
            return str(req["root"])
        if "topology" not in req:
            raise ProtocolError("amend request needs 'topology'")
        topology = topology_from_spec(req["topology"])
        scheduler = req.get("scheduler") or default_scheduler
        return amend_root_digest(topology, pattern_tuples(req), scheduler)
    return None


def sum_stats(docs: list[dict[str, Any]]) -> dict[str, Any]:
    """Farm-wide totals: recursive sum of every numeric leaf.

    Strings, bools and ``None`` are identity/flag fields, not measures,
    and are skipped -- summing ``workers`` across nodes is meaningful,
    summing ``name`` is not.
    """
    out: dict[str, Any] = {}
    for doc in docs:
        _sum_into(out, doc)
    return out


def _sum_into(out: dict[str, Any], doc: dict[str, Any]) -> None:
    for key, value in doc.items():
        if isinstance(value, bool) or value is None or isinstance(value, str):
            continue
        if isinstance(value, dict):
            sub = out.setdefault(key, {})
            if isinstance(sub, dict):
                _sum_into(sub, value)
        elif isinstance(value, (int, float)):
            prev = out.get(key, 0)
            if isinstance(prev, (int, float)) and not isinstance(prev, bool):
                out[key] = prev + value


def _decode_reply(frame: bytes, who: str) -> dict[str, Any]:
    """A reply frame decoded, its payload hash-checked and merged.

    A frame fault is a :class:`TransportError`; an ``ok: false`` reply
    raises the typed error it encodes.
    """
    try:
        reply = wire.decode(frame)
    except wire.FrameError as exc:
        raise TransportError(f"{who} sent a bad reply frame: {exc}") from None
    if not reply.get("ok"):
        raise reply_error(reply)
    return reply


def _left(deadline: float) -> float:
    """Seconds until ``deadline`` (a ``time.monotonic()`` instant)."""
    return max(0.0, deadline - time.monotonic())


async def _call(
    host: str, port: int, data: bytes, *, timeout: float, who: str
) -> dict[str, Any]:
    """One request frame on a fresh connection; the decoded reply.

    ``timeout`` bounds the whole exchange, connect included.
    """
    deadline = time.monotonic() + timeout
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port, limit=MAX_LINE_BYTES), timeout
        )
    except (OSError, asyncio.TimeoutError, TimeoutError) as exc:
        raise TransportError(f"{who} unreachable: {exc!r}") from exc
    try:
        writer.write(data)
        await writer.drain()
        frame = await asyncio.wait_for(wire.read_frame(reader), _left(deadline))
    except (asyncio.TimeoutError, TimeoutError):
        raise ServiceTimeout(f"{who} gave no reply within {timeout}s") from None
    except (asyncio.LimitOverrunError, OSError) as exc:
        raise TransportError(f"{who} connection failed: {exc!r}") from exc
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
    if not frame.endswith(b"\n"):
        raise TransportError(f"{who} cut mid-reply")
    return _decode_reply(frame, who)


# ----------------------------------------------------------------------
# the farm node
# ----------------------------------------------------------------------

class FarmNodeServer(CompileServer):
    """A compile server that owns one shard of the digest space.

    Extends the verb set with ``shardmap`` (read the node's map),
    ``reshard`` (adopt a newer map), ``fetch`` (read one artifact for a
    peer), ``store`` (accept one replica, hash + semantically
    verified), ``digests`` (advertise the local inventory for
    anti-entropy) and ``repair`` (force one anti-entropy sweep).  The
    inherited ``compile``/``amend`` verbs gain an ownership gate: a
    request whose route digest this node does not own is refused with
    :class:`WrongShard` so a stale client or router can never populate
    the wrong shard.

    Self-healing: a ``repair`` sweep pulls peer inventories and adopts
    replicas of the digests *it* owns that it is missing -- closing the
    window a lost fire-and-forget push leaves open.  The leader router
    sends ``repair`` to every node that rejoins; the chaos campaigns
    call it directly.  The node runs no background task besides its
    replica pushes.  Every epoch of an amend stream is replicated to
    the root's other owners with resume metadata, so a new primary can
    take the stream over after its old primary died
    (:meth:`_maybe_takeover`).

    Chaos hooks (injected by the harness, inert by default):
    ``peer_filter(src, dst)`` false-returns simulate one-way network
    partitions on every peer request; ``drop_replica_push_rate``
    silently loses that fraction of replica pushes.
    """

    def __init__(
        self, *args: Any, name: str, shard_map: ShardMap,
        peer_timeout: float = 10.0,
        push_retry_delay: float = 0.05,
        peer_filter: Callable[[str, str], bool] | None = None,
        drop_replica_push_rate: float = 0.0,
        chaos_seed: int | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.name = str(name)
        self.shard_map = shard_map
        self.peer_timeout = float(peer_timeout)
        self.push_retry_delay = float(push_retry_delay)
        self.peer_filter = peer_filter
        self.drop_replica_push_rate = float(drop_replica_push_rate)
        self._rng = random.Random(chaos_seed)
        self._repl_tasks: set[asyncio.Task] = set()
        self._sweep_lock = asyncio.Lock()
        #: router lease this node granted: {"router", "epoch", "expires"}.
        self._lease: dict[str, Any] | None = None
        #: highest lease epoch ever granted -- the node-side fence: a
        #: claim below this floor is refused no matter what.
        self._lease_epoch_floor = 0
        #: graceful-drain state machine: ``draining`` refuses new amends
        #: (they wait on ``_drain_done`` so the redirect lands *after*
        #: the streams were handed off), ``_drain_map`` is the successor
        #: map the redirect carries.
        self.draining = False
        self._drain_map: ShardMap | None = None
        self._drain_done = asyncio.Event()
        self._amends_inflight = 0
        self.wrong_shard = 0
        self.stale_epoch_rejections = 0
        self.lease_grants = 0
        self.lease_refusals = 0
        self.drain_handoffs = 0
        self.drain_adoptions = 0
        self.drain_repushes = 0
        self.drain_repush_retries = 0
        self.replicas_pushed = 0
        self.replicas_received = 0
        self.replica_push_failures = 0
        self.replica_push_retries = 0
        self.replica_pushes_dropped = 0
        self.replicas_repaired = 0
        self.anti_entropy_rounds = 0
        self.amend_takeovers = 0
        self.read_repairs = 0
        self.read_repair_failures = 0
        #: digest -> topology spec it was compiled for.  Artifact
        #: documents carry only the topology *signature* (a string,
        #: not invertible), so semantic re-verification of a replica
        #: needs the spec carried out-of-band; this index feeds the
        #: ``digests`` inventory and the ``store`` push payloads.
        self._specs: dict[str, dict[str, Any]] = {}
        #: amend root -> latest replicated head metadata (digest,
        #: epoch, scheduler, topology_spec) -- what a takeover
        #: resumes from.
        self._amend_heads: dict[str, dict[str, Any]] = {}
        #: one-shot reuse of the ownership check's canonicalization by
        #: the inherited compile path (keyed by request identity).
        self._key_memo: dict[int, Any] = {}

    # -- lifecycle ------------------------------------------------------
    async def settle(self) -> None:
        """Wait for every in-flight replica push to land (or fail)."""
        if self._repl_tasks:
            await asyncio.gather(*self._repl_tasks, return_exceptions=True)

    async def kill(self) -> None:
        for task in list(self._repl_tasks):
            task.cancel()
        await self.settle()
        await super().kill()

    async def shutdown(self) -> None:
        await self.settle()
        await super().shutdown()

    # -- verbs ----------------------------------------------------------
    async def _handle_op(self, op: str, req: dict[str, Any]) -> dict[str, Any]:
        if op == "shardmap":
            return self._reply(
                req, op="shardmap", shard_map=self.shard_map.as_dict()
            )
        if op == "reshard":
            return self._reshard(req)
        if op == "fetch":
            return self._fetch(req)
        if op == "store":
            return self._store_replica(req)
        if op == "digests":
            return self._digests(req)
        if op == "repair":
            return self._reply(
                req, op="repair", **await self._anti_entropy_sweep()
            )
        if op == "lease":
            return self._lease_verb(req)
        if op == "drain":
            return await self._drain(req)
        if op in ("compile", "amend"):
            if op == "compile":
                key = super()._compile_key(req)
                digest = key[3]
            else:
                key = None
                digest = route_digest(
                    req, default_scheduler=self.service.default_scheduler
                )
            if op == "amend" and self.draining:
                # Park the caller until the proactive handoff has
                # landed, *then* redirect: the retry must hit a stream
                # the new primary has already adopted, not a gap the
                # pull-based takeover would have to fill.
                await self._drain_done.wait()
                drain_map = self._drain_map or self.shard_map
                raise WrongShard(
                    f"node {self.name!r} is draining; its amend streams "
                    "have been handed off",
                    shard_map=drain_map.as_dict(),
                    owners=drain_map.owners(digest),
                )
            owners = self.shard_map.owners(digest)
            if self.name not in owners:
                self.wrong_shard += 1
                raise WrongShard(
                    f"digest {digest[:12]}... is owned by {owners}, "
                    f"not {self.name!r}",
                    shard_map=self.shard_map.as_dict(), owners=owners,
                )
            if op == "compile":
                self._key_memo[id(req)] = key
                try:
                    reply = await super()._handle_op(op, req)
                finally:
                    self._key_memo.pop(id(req), None)
                if reply.get("ok"):
                    spec = req.get("topology")
                    if isinstance(spec, dict):
                        self._specs.setdefault(str(reply["digest"]), dict(spec))
                    if reply.get("cache") == "miss":
                        self._spawn_replication(str(reply["digest"]), owners)
                return reply
            # amend: this node is an owner.  If the stream's previous
            # primary died, reconstruct it from the replicated epoch
            # artifact *before* the registry is consulted.
            if "root" in req and self._maybe_takeover(str(req["root"])):
                self.amend_takeovers += 1
            self._amends_inflight += 1
            try:
                reply = await super()._handle_op(op, req)
            finally:
                self._amends_inflight -= 1
            if reply.get("ok"):
                self._replicate_amend_epoch(reply)
            return reply
        return await super()._handle_op(op, req)

    def _compile_key(self, req: dict[str, Any]):
        memo = self._key_memo.pop(id(req), None)
        if memo is not None:
            return memo
        return super()._compile_key(req)

    def _reshard(self, req: dict[str, Any]) -> dict[str, Any]:
        new = ShardMap.from_dict(req.get("shard_map"))
        if new.epoch < self.shard_map.epoch:
            # A deposed leader's late push: no matter how many version
            # bumps it accumulated, a lower epoch is fenced out with a
            # *typed* refusal so the sender learns it was deposed.
            self.stale_epoch_rejections += 1
            raise StaleEpoch(
                f"map epoch {new.epoch} < {self.shard_map.epoch}: "
                f"sender was deposed",
                current_epoch=self.shard_map.epoch,
                current_version=self.shard_map.version,
            )
        adopted = new.dominates(self.shard_map)
        if adopted:
            self.shard_map = new
        return self._reply(
            req, op="reshard", adopted=adopted,
            version=self.shard_map.version,
            epoch=self.shard_map.epoch,
        )

    # -- router leases (leadership arbitration) -------------------------
    def _lease_verb(self, req: dict[str, Any]) -> dict[str, Any]:
        """Grant/renew/refuse one router's leadership lease.

        The nodes *are* the quorum: a router that collects grants from
        a majority of live nodes is the leader.  Per-node rules:

        * a live lease is never preempted -- only its own holder can
          renew it (same epoch) or re-claim under a higher epoch;
        * a fresh claim (no lease, lapsed lease, or the holder itself)
          must beat the node's epoch floor -- the highest epoch this
          node has ever granted -- so a deposed leader can never win a
          grant back with its old epoch.
        """
        router = str(req.get("router") or "")
        epoch = int(req.get("epoch") or 0)
        ttl = float(req.get("ttl") or 0.0)
        if not router or epoch < 1 or ttl <= 0:
            raise ProtocolError(
                "lease request needs 'router', 'epoch' >= 1 and 'ttl' > 0"
            )
        now = time.monotonic()
        current = self._lease
        held = current is not None and current["expires"] > now
        granted = False
        if held and current["router"] == router and epoch == current["epoch"]:
            granted = True  # renewal
        elif epoch > self._lease_epoch_floor and (
            not held or current["router"] == router
        ):
            granted = True  # fresh claim (or self re-claim under a new epoch)
        if granted:
            self._lease = {"router": router, "epoch": epoch,
                           "expires": now + ttl}
            self._lease_epoch_floor = max(self._lease_epoch_floor, epoch)
            self.lease_grants += 1
        else:
            self.lease_refusals += 1
        holder = self._lease if self._lease is not None else {}
        return self._reply(
            req, op="lease", granted=granted,
            holder=holder.get("router"),
            holder_epoch=int(holder.get("epoch", 0)),
            epoch_floor=self._lease_epoch_floor,
            # The standby syncs its map off lease replies, so a
            # promotion starts from the freshest membership any node
            # has seen -- no leader->standby channel required.
            shard_map=self.shard_map.as_dict(),
        )

    # -- graceful drain -------------------------------------------------
    async def _drain(self, req: dict[str, Any]) -> dict[str, Any]:
        """Hand everything off, then step out of the map.

        Driven by the leader router with the successor map (this node
        removed) in hand.  Order matters:

        1. flip ``draining`` -- new amends park on ``_drain_done``;
        2. quiesce: wait for in-flight amends to settle, so every
           stream is frozen at its true head before it moves;
        3. **proactive amend handoff**: push each live stream's latest
           epoch artifact + resume head to the successor owners with
           ``adopt`` set, so the new primary installs the stream into
           its registry *now* (no pull-based takeover window);
        4. re-replicate: push every owned artifact the successor map
           re-homes to its new owners (bounded-retry pushes -- a dead
           peer cannot wedge the drain);
        5. adopt the successor map and release the parked amends into
           typed redirects that land on already-adopted streams.
        """
        successor = ShardMap.from_dict(req.get("shard_map"))
        if successor.epoch < self.shard_map.epoch:
            self.stale_epoch_rejections += 1
            raise StaleEpoch(
                f"drain map epoch {successor.epoch} < "
                f"{self.shard_map.epoch}: sender was deposed",
                current_epoch=self.shard_map.epoch,
                current_version=self.shard_map.version,
            )
        if self.name in successor.nodes:
            raise ProtocolError(
                f"drain successor map still contains {self.name!r}"
            )
        self.draining = True
        self._drain_map = successor
        self._drain_done.clear()
        while self._amends_inflight:
            await asyncio.sleep(0.005)
        retries_before = self.replica_push_retries
        handoffs = await self._drain_handoff_streams(successor)
        repushed = await self._drain_repush_artifacts(successor)
        self.drain_repush_retries += (
            self.replica_push_retries - retries_before
        )
        self.shard_map = successor
        self._drain_done.set()
        return self._reply(
            req, op="drain", draining=True,
            streams_handed_off=handoffs,
            replicas_repushed=repushed,
            repush_retries=self.drain_repush_retries,
            epoch=self.shard_map.epoch,
            version=self.shard_map.version,
        )

    async def _drain_handoff_streams(self, successor: ShardMap) -> int:
        """Push + adopt every live amend stream at its successor owners."""
        handoffs = 0
        for root in self.amends.live_roots():
            stream = self.amends.peek(root)
            if stream is None:
                continue
            try:
                spec = topology_to_spec(stream.topology)
            except TopologySpecError:
                continue  # unspeccable: the registry tombstone stands
            digest = str(stream.digest)
            entry = self.cache.encoded(digest)
            if entry is None:
                continue
            head = {
                "root": root, "epoch": int(stream.epoch), "digest": digest,
                "scheduler": stream.scheduler, "topology_spec": spec,
            }
            data = self._store_frame(
                digest, entry, spec, amend_head=head, adopt=True
            )
            pushed = False
            for peer in successor.owners(root):
                if peer == self.name:
                    continue
                await self._push_replica(peer, data)
                pushed = True
            if pushed:
                handoffs += 1
                self.drain_handoffs += 1
        return handoffs

    async def _drain_repush_artifacts(self, successor: ShardMap) -> int:
        """Re-replicate artifacts the successor map takes away from us.

        Every digest this node holds whose placement key it owned under
        the old map is pushed to *every* successor owner -- not just
        the newly assigned ones, because an old co-owner may have
        silently lost its push and this is the last chance to close
        that gap before the unique copy leaves with us.  Stores are
        idempotent, so over-pushing costs bandwidth, never correctness.
        Uses the same bounded-retry push as normal replication: a dead
        peer costs one retry, never an unbounded stall while draining.
        """
        repushed = 0
        for digest in sorted(self.cache.digests()):
            entry = self.cache.encoded(digest)
            if entry is None:
                continue
            lineage = entry.doc.get("lineage")
            key = (
                str(lineage.get("root", "")) or digest
                if isinstance(lineage, dict) else digest
            )
            old_owners = self.shard_map.owners(key)
            if self.name not in old_owners:
                continue
            targets = [
                peer for peer in successor.owners(key) if peer != self.name
            ]
            if not targets:
                continue
            data = self._store_frame(digest, entry)
            for peer in targets:
                await self._push_replica(peer, data)
                self.drain_repushes += 1
                repushed += 1
        return repushed

    def _fetch(self, req: dict[str, Any]) -> dict[str, Any]:
        digest = str(req.get("digest") or "")
        if not digest:
            raise ProtocolError("fetch request needs 'digest'")
        # A peer's read, not a served lookup: uncounted, like a peek.
        entry = self.cache.encoded(digest)
        out = self._reply(req, op="fetch", digest=digest, found=entry is not None)
        if entry is not None:
            out["payload"] = entry.whole()
        return out

    def _store_replica(self, req: dict[str, Any]) -> dict[str, Any]:
        digest = str(req.get("digest") or "")
        doc = req.get("artifact")
        # ``payload_sha256`` is only ever set by the frame codec, after
        # it hashed the payload bytes it read against it.
        if not digest or not isinstance(doc, dict) or "payload_sha256" not in req:
            raise ProtocolError(
                "store request needs 'digest' and an artifact payload"
            )
        spec = req.get("topology_spec")
        if isinstance(spec, dict):
            # Same bar as read repair: hash proves transport integrity,
            # the semantic check proves the artifact is a valid
            # conflict-free schedule *for the topology it claims*.  A
            # lying spec fails the signature cross-check inside
            # verify_artifact.
            try:
                artifact_verifier(topology_from_spec(spec))(doc)
            except Exception as exc:
                raise ProtocolError(
                    f"replica failed semantic verification: {exc}"
                ) from None
            self._specs[digest] = dict(spec)
        self.cache.put(digest, doc)
        self.replicas_received += 1
        head = req.get("amend_head")
        adopted = False
        if isinstance(head, dict):
            self._adopt_head(head)
            if req.get("adopt"):
                # Proactive drain handoff: install the stream into the
                # registry *now*, so the draining node's redirected
                # amend lands on a live stream -- not on the pull-based
                # takeover path (which only runs, and counts, when a
                # primary died without saying goodbye).
                adopted = self._maybe_takeover(str(head.get("root") or ""))
                if adopted:
                    self.drain_adoptions += 1
        return self._reply(
            req, op="store", digest=digest, stored=True, adopted=adopted
        )

    def _digests(self, req: dict[str, Any]) -> dict[str, Any]:
        """Local inventory for anti-entropy: digest, payload hash, and
        (when known) the topology spec a puller needs to re-verify."""
        inventory: list[dict[str, Any]] = []
        for digest in sorted(self.cache.digests()):
            entry = self.cache.encoded(digest)
            if entry is None:
                continue
            item: dict[str, Any] = {
                "digest": digest, "payload_sha256": entry.sha256,
            }
            spec = self._specs.get(digest)
            if spec is not None:
                item["topology_spec"] = spec
            lineage = entry.doc.get("lineage")
            if isinstance(lineage, dict):
                # Amend epochs place on their stream's *root*.
                item["root"] = str(lineage.get("root", ""))
            inventory.append(item)
        return self._reply(
            req, op="digests", inventory=inventory,
            amend_heads={r: dict(h) for r, h in self._amend_heads.items()},
        )

    # -- amend failover -------------------------------------------------
    def _adopt_head(self, head: dict[str, Any]) -> None:
        """Track the newest known epoch of a replicated amend stream."""
        try:
            root = str(head["root"])
            epoch = int(head["epoch"])
            digest = str(head["digest"])
        except (KeyError, TypeError, ValueError):
            return
        if not root or not digest:
            return
        current = self._amend_heads.get(root)
        if current is not None and int(current["epoch"]) >= epoch:
            return
        self._amend_heads[root] = {
            "root": root, "epoch": epoch, "digest": digest,
            "scheduler": str(
                head.get("scheduler") or self.service.default_scheduler
            ),
            "topology_spec": head.get("topology_spec"),
        }

    def _maybe_takeover(self, root: str) -> bool:
        """Resume a replicated amend stream this node now owns.

        Runs when an amend update names a root the local registry has
        never served (the old primary died) -- and, with a different
        counter, when a draining primary hands its streams off.  The
        replicated head metadata points at the latest epoch artifact;
        the stream is rebuilt through :meth:`AmendStream.resume` --
        which re-routes and re-validates the stored schedule -- and
        adopted into the registry, continuing the stored lineage.
        Epoch optimistic concurrency then works exactly as before the
        failover: a stale racer gets a typed ``EpochConflict``, never a
        fork.  Returns whether a stream was adopted; the caller owns
        the bookkeeping (``amend_takeovers`` vs ``drain_adoptions``).
        """
        if not root or self.amends.knows(root):
            return False  # live, or tombstoned for the registry's resume
        head = self._amend_heads.get(root)
        if head is None:
            return False
        spec = head.get("topology_spec")
        if not isinstance(spec, dict):
            return False
        doc = self.cache.peek(head["digest"])
        if doc is None or not isinstance(doc.get("lineage"), dict):
            return False
        try:
            stream = AmendStream.resume(
                topology_from_spec(spec), doc,
                scheduler=head["scheduler"], cache=self.cache,
            )
        except Exception:
            return False  # unresumable artifact: the registry's typed
            #              "unknown amend root" answer stands
        if stream.root != root or stream.digest != head["digest"]:
            return False  # head metadata disagrees with the lineage
        self.amends.adopt(stream)
        return True

    def _replicate_amend_epoch(self, reply: dict[str, Any]) -> None:
        """Push the new epoch artifact + resume metadata to co-owners.

        Called after every successful amend (open and update): the
        stream's current epoch artifact is replicated to the other
        owners of the *root* (streams place by root, not by epoch
        digest) so any of them can take the stream over if this
        primary dies.
        """
        root = str(reply.get("root") or "")
        stream = self.amends.peek(root)
        if stream is None:
            return
        try:
            spec = topology_to_spec(stream.topology)
        except TopologySpecError:
            return  # unspeccable topology: stream stays primary-only
        digest = str(stream.digest)
        self._specs[digest] = spec
        head = {
            "root": root, "epoch": int(stream.epoch), "digest": digest,
            "scheduler": stream.scheduler, "topology_spec": spec,
        }
        self._adopt_head(head)
        self._spawn_replication(
            digest, self.shard_map.owners(root), spec=spec, amend_head=head,
        )

    # -- replication / read-repair -------------------------------------
    def _spawn_replication(
        self,
        digest: str,
        owners: list[str],
        *,
        spec: dict[str, Any] | None = None,
        amend_head: dict[str, Any] | None = None,
    ) -> None:
        """Push a freshly compiled artifact to the other owners.

        Fire-and-forget: replication buys locality, not correctness
        (compiles are deterministic), so a failed push is a counter,
        never an error on the client's reply.  The payload carries the
        topology spec so receivers can verify semantically, and -- for
        amend epochs -- the resume metadata a takeover needs.
        """
        entry = self.cache.encoded(digest)
        if entry is None:
            return
        extra = {} if amend_head is None else {"amend_head": amend_head}
        data = self._store_frame(digest, entry, spec, **extra)
        for peer in owners:
            if peer == self.name or peer not in self.shard_map.nodes:
                continue
            task = asyncio.ensure_future(self._push_replica(peer, data))
            self._repl_tasks.add(task)
            task.add_done_callback(self._repl_tasks.discard)

    def _store_frame(
        self,
        digest: str,
        entry: CachedArtifact,
        spec: dict[str, Any] | None = None,
        **extra: Any,
    ) -> bytes:
        """One ``store`` push of a cached artifact: the cache's bytes and
        sha256, plus the topology spec a receiver verifies against."""
        msg: dict[str, Any] = {
            "op": "store", "digest": digest, **extra, "payload": entry.whole(),
        }
        if spec is None:
            spec = self._specs.get(digest)
        if spec is not None:
            msg["topology_spec"] = spec
        return wire.encode(msg)

    async def _push_replica(self, peer: str, data: bytes) -> None:
        """One replica push: a single bounded retry (with jitter) before
        giving up, so one transient peer hiccup does not leave R unmet
        until the next ``repair`` sweep."""
        if (
            self.drop_replica_push_rate
            and self._rng.random() < self.drop_replica_push_rate
        ):
            # Injected chaos: the push is lost in transit, silently --
            # exactly the failure mode anti-entropy exists to repair.
            self.replica_pushes_dropped += 1
            self.replica_push_failures += 1
            return
        for attempt in (0, 1):
            try:
                await self._peer_request(peer, data)
                self.replicas_pushed += 1
                return
            except ServiceError:
                if attempt:
                    self.replica_push_failures += 1
                    return
                self.replica_push_retries += 1
                await asyncio.sleep(
                    self.push_retry_delay * (0.5 + self._rng.random())
                )

    async def _repair_miss(
        self, req: dict[str, Any], topology: Any, digest: str
    ) -> dict[str, Any] | None:
        """Read repair: adopt a peer replica before paying for a recompile.

        Runs on the serve path of a local miss -- including the miss a
        *corrupt* local entry turns into once the verifier quarantines
        it -- after the request's one counted cache lookup.  A peer copy
        is accepted only after the frame codec hashed the bytes read
        against the peer's claim **and** it passes the same semantic
        verification a cache read gets; anything else counts as a
        failed repair and the cold-compile path takes over.
        """
        verifier = artifact_verifier(topology)
        want_registers = bool(req.get("registers", False))
        fetch = wire.encode({"op": "fetch", "digest": digest})
        for peer in self.shard_map.owners(digest):
            if peer == self.name or peer not in self.shard_map.nodes:
                continue
            try:
                reply = await self._peer_request(peer, fetch)
            except ServiceError:
                self.read_repair_failures += 1
                continue
            doc = reply.get("artifact")
            if not isinstance(doc, dict):
                continue  # clean peer miss: nothing to repair from
            if want_registers and "registers" not in doc:
                continue
            try:
                verifier(doc)  # raises on a semantically bad replica
            except Exception:
                self.read_repair_failures += 1
                continue
            self.cache.put(digest, doc)
            self._specs.setdefault(digest, dict(req["topology"]))
            self.read_repairs += 1
            return doc
        return None

    # -- anti-entropy ---------------------------------------------------
    async def _anti_entropy_sweep(self) -> dict[str, Any]:
        """One pull round: adopt owned-but-missing replicas from peers.

        For every peer inventory entry whose placement key (the lineage
        root for amend epochs, the digest itself otherwise) this node
        owns, a local miss -- or a payload-hash mismatch -- triggers a
        fetch that is hash + semantically re-verified exactly like read
        repair before adoption.  Entries without a known topology spec
        are never adopted blind.  Amend head metadata rides along so a
        future takeover has resume state even when the head push itself
        was lost.
        """
        async with self._sweep_lock:
            self.anti_entropy_rounds += 1
            repaired = failures = 0
            for peer in list(self.shard_map.nodes):
                if peer == self.name:
                    continue
                try:
                    reply = await self._peer_request(
                        peer, wire.encode({"op": "digests"})
                    )
                except ServiceError:
                    failures += 1
                    continue
                heads = reply.get("amend_heads")
                if isinstance(heads, dict):
                    for head in heads.values():
                        if isinstance(head, dict):
                            self._adopt_head(head)
                for entry in reply.get("inventory") or ():
                    if not isinstance(entry, dict):
                        continue
                    digest = str(entry.get("digest") or "")
                    remote_hash = entry.get("payload_sha256")
                    if not digest or not isinstance(remote_hash, str):
                        continue
                    owner_key = str(entry.get("root") or digest)
                    if self.name not in self.shard_map.owners(owner_key):
                        continue
                    local = self.cache.encoded(digest)
                    if local is not None and local.sha256 == remote_hash:
                        continue
                    spec = entry.get("topology_spec") or self._specs.get(digest)
                    if not isinstance(spec, dict):
                        continue
                    outcome = await self._repair_from(
                        peer, digest, spec, None if local is None else local.doc
                    )
                    if outcome is True:
                        repaired += 1
                    elif outcome is False:
                        failures += 1
            self.replicas_repaired += repaired
            return {
                "repaired": repaired,
                "failures": failures,
                "rounds": self.anti_entropy_rounds,
            }

    async def _repair_from(
        self,
        peer: str,
        digest: str,
        spec: dict[str, Any],
        local: dict[str, Any] | None,
    ) -> bool | None:
        """Fetch + verify + adopt one replica (True/False/None=skipped)."""
        try:
            reply = await self._peer_request(
                peer, wire.encode({"op": "fetch", "digest": digest})
            )
        except ServiceError:
            return False
        doc = reply.get("artifact")
        if not isinstance(doc, dict):
            return None  # the peer lost it between inventory and fetch
        try:
            artifact_verifier(topology_from_spec(spec))(doc)
        except Exception:
            return False
        if local is not None and not (
            "registers" in doc and "registers" not in local
        ):
            # Both copies verified but hashes differ: the one
            # legitimate cause is the in-place registers upgrade (same
            # digest, superset document).  Anything else keeps the
            # local copy -- adopting would just flap between replicas.
            return None
        self.cache.put(digest, doc)
        self._specs[digest] = dict(spec)
        return True

    async def _peer_request(self, peer: str, data: bytes) -> dict[str, Any]:
        """One request frame to a peer node (fresh connection) -> reply."""
        if self.peer_filter is not None and not self.peer_filter(self.name, peer):
            raise TransportError(
                f"peer {peer!r} unreachable from {self.name!r}: partitioned"
            )
        host, port = self.shard_map.endpoint(peer)
        return await _call(
            host, port, data, timeout=self.peer_timeout, who=f"peer {peer!r}"
        )

    # -- stats ----------------------------------------------------------
    def _ready(self) -> bool:
        # A draining node still answers (warm reads, parked amends)
        # but must never be re-admitted by a probing router.
        return not self.draining and super()._ready()

    def _stats(self) -> dict[str, Any]:
        out = super()._stats()
        lease = self._lease or {}
        out["farm"] = {
            "name": self.name,
            "map_version": self.shard_map.version,
            "map_epoch": self.shard_map.epoch,
            "draining": self.draining,
            "wrong_shard": self.wrong_shard,
            "stale_epoch_rejections": self.stale_epoch_rejections,
            "lease_grants": self.lease_grants,
            "lease_refusals": self.lease_refusals,
            "lease_holder": lease.get("router"),
            "lease_epoch": int(lease.get("epoch", 0)),
            "replicas_pushed": self.replicas_pushed,
            "replicas_received": self.replicas_received,
            "replica_push_failures": self.replica_push_failures,
            "replica_push_retries": self.replica_push_retries,
            "replica_pushes_dropped": self.replica_pushes_dropped,
            "replicas_repaired": self.replicas_repaired,
            "anti_entropy_rounds": self.anti_entropy_rounds,
            "amend_takeovers": self.amend_takeovers,
            "amend_heads": len(self._amend_heads),
            "drain_handoffs": self.drain_handoffs,
            "drain_adoptions": self.drain_adoptions,
            "drain_repushes": self.drain_repushes,
            "drain_repush_retries": self.drain_repush_retries,
            "read_repairs": self.read_repairs,
            "read_repair_failures": self.read_repair_failures,
        }
        return out

    def _health(self) -> dict[str, Any]:
        out = super()._health()
        out["farm"] = {
            "name": self.name,
            "map_version": self.shard_map.version,
            "map_epoch": self.shard_map.epoch,
            "draining": self.draining,
        }
        return out


# ----------------------------------------------------------------------
# the shard router
# ----------------------------------------------------------------------

class ShardRouter:
    """Routes requests to owning nodes; owns membership and failover.

    Forwarding is **byte-transparent**: the router parses the request
    only to compute its route digest, then writes the original frame to
    the node and relays the node's reply frame verbatim, parsing only
    its header -- the client's ``idem`` echo and ``payload_sha256``
    checks therefore cover the full client-router-node path with no
    re-serialization in between.

    A forward that dies on transport (or times out) demotes the node:
    it is removed from the map, the version is bumped, the new map is
    pushed to every member at once, and the request retries against
    the digest's new owner.  A ``wrong_shard`` reply from a node with
    an *older* map gets the router's map pushed and one retry -- the
    router is the authority, nodes converge to it.

    **The heartbeat.**  Every router -- a solo router is an HA pair of
    one -- runs :meth:`heartbeat` once per beat (``lease_ttl / 4``).
    One round asks every map member for a leadership lease under the
    router's incarnation ``epoch`` and, on the leader, probes every
    departed node, all at once and each call bounded by one beat.  Any
    reply proves its sender alive; a member that misses
    :data:`SUSPECT_AFTER` beats in a row is dead.  Grants from a
    majority of members make (or keep) the router leader, so the
    *nodes* arbitrate leadership with no external coordinator.  Only
    the leader mutates membership -- demote, rejoin, drain, map pushes:
    dead members leave and departed nodes that answer alive and ready
    rejoin in one map change, and each rejoiner is told to ``repair``
    (one targeted anti-entropy sweep pulling every artifact the new map
    assigns it).  A standby syncs its map off the lease replies.  When
    the leader's lease lapses (crash, partition), the standby's next
    claim -- under ``observed epoch + 1`` -- wins, it bumps the map
    epoch (:meth:`ShardMap.with_epoch`) and re-pushes the authoritative
    map farm-wide.  The deposed leader's later pushes are fenced: every
    node (and the standby, via its own ``reshard`` verb) answers a
    typed ``stale_epoch``.
    """

    def __init__(
        self,
        shard_map: ShardMap,
        *,
        name: str = "router0",
        role: str = "leader",
        host: str = "127.0.0.1",
        port: int = 0,
        default_scheduler: str = "combined",
        node_timeout: float = 120.0,
        max_attempts: int = 6,
        pool_idle: int = 8,
        peers: list[tuple[str, int]] | None = None,
        lease_ttl: float = 2.0,
    ) -> None:
        if role not in ("leader", "standby"):
            raise ValueError(f"router role must be leader/standby, got {role!r}")
        self.shard_map = shard_map
        self.name = str(name)
        self.role = role
        self.host, self.port = host, port
        self.default_scheduler = default_scheduler
        self.node_timeout = float(node_timeout)
        self.max_attempts = int(max_attempts)
        self.pool_idle = int(pool_idle)
        #: peer router endpoints (the other half of the HA pair) --
        #: best-effort reshard pushes keep their maps converged.
        self.peers: list[tuple[str, int]] = [
            (str(h), int(p)) for h, p in (peers or [])
        ]
        self.lease_ttl = float(lease_ttl)
        #: this router's leadership incarnation: a leader is born at the
        #: map epoch, a standby has none until it promotes.
        self.epoch = shard_map.epoch if role == "leader" else 0
        #: highest incarnation epoch observed anywhere (lease replies,
        #: adopted maps) -- a promotion claims one above this.
        self._observed_epoch = max(self.epoch, shard_map.epoch)
        self._lease_acquired: float | None = None
        self._server: asyncio.AbstractServer | None = None
        self._pools: dict[
            str, list[tuple[asyncio.StreamReader, asyncio.StreamWriter]]
        ] = {}
        #: live inbound client connections, aborted on stop() so a
        #: "killed" router is process-death faithful: connected clients
        #: see a reset, never a half-alive zombie that keeps routing.
        self._conns: set[asyncio.StreamWriter] = set()
        self._demote_lock = asyncio.Lock()
        self._heartbeat_task: asyncio.Task | None = None
        #: set by stop(); the heartbeat loop exits at its next check
        #: even if the cancel that stop() sends it is lost.
        self._stopping = False
        #: name -> consecutive missed beats (the suspect state).
        self._suspect: dict[str, int] = {}
        #: name -> last known endpoint of nodes no longer in the map --
        #: fed by every demotion and skew adoption, drained by rejoin.
        self._departed: dict[str, dict[str, Any]] = {}
        #: nodes gracefully drained out -- never offered rejoin even if
        #: their endpoint answers probes while shutting down.
        self._drained: set[str] = set()
        self.requests_served = 0
        self.forwarded = 0
        self.rerouted = 0
        self.failovers = 0
        self.heartbeats = 0
        self.beats_sent = 0
        self.beats_missed = 0
        self.beat_demotions = 0
        self.rejoins = 0
        self.promotions = 0
        self.stepdowns = 0
        self.drains = 0
        self.stale_epoch_rejections = 0
        self.drain_repush_retries = 0

    @property
    def is_leader(self) -> bool:
        return self.role == "leader"

    @property
    def beat(self) -> float:
        """Heartbeat period, and the bound on every heartbeat call."""
        return self.lease_ttl / 4

    @property
    def lease_age_seconds(self) -> float | None:
        if self._lease_acquired is None:
            return None
        return time.monotonic() - self._lease_acquired

    @property
    def address(self) -> tuple[str, int]:
        assert self._server is not None, "router not started"
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> "ShardRouter":
        self._server = await asyncio.start_server(
            self._handle_client, host=self.host, port=self.port,
            limit=MAX_LINE_BYTES,
        )
        self._heartbeat_task = asyncio.ensure_future(self._heartbeat_loop())
        return self

    async def stop(self) -> None:
        self._stopping = True
        task, self._heartbeat_task = self._heartbeat_task, None
        if task is not None:
            # A cancel racing a completed read inside asyncio.wait_for
            # can be swallowed (CPython gh-86296), so cancel again until
            # the loop has ended; the stop flag ends it at its next turn.
            while not task.done():
                task.cancel()
                await asyncio.wait({task}, timeout=0.1)
            await asyncio.gather(task, return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._conns):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        self._conns.clear()
        for conns in self._pools.values():
            for _, writer in conns:
                writer.close()
        self._pools.clear()

    # -- connection handling -------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._conns.add(writer)
        try:
            while True:
                try:
                    frame = await wire.read_frame(reader)
                except asyncio.LimitOverrunError:
                    err = ProtocolError(
                        f"frame exceeds {MAX_LINE_BYTES} bytes"
                    )
                    writer.write(wire.encode(
                        {"id": None, "ok": False, **error_fields(err)}
                    ))
                    await writer.drain()
                    break
                if not frame.strip():
                    break
                writer.write(await self._route(frame))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        except asyncio.CancelledError:
            pass
        finally:
            self._conns.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                pass

    async def _route(self, frame: bytes) -> bytes:
        """One raw request frame to one raw reply frame."""
        req: Any = {}
        try:
            try:
                req = wire.decode_header(frame)
            except wire.FrameError as exc:
                raise ProtocolError(str(exc)) from None
            self.requests_served += 1
            op = req.get("op", "compile")
            if op == "ping":
                return self._local_reply(req, op="ping")
            if op == "shardmap":
                return self._local_reply(
                    req, op="shardmap", shard_map=self.shard_map.as_dict()
                )
            if op in ("stats", "health"):
                return await self._aggregate(req, op)
            if op == "ready":
                return self._local_reply(
                    req, op="ready", ready=bool(self.shard_map.nodes)
                )
            if op == "shutdown":
                return await self._shutdown_farm(req)
            if op == "reshard":
                return self._local_reply(
                    req, op="reshard", **self._reshard_verb(req)
                )
            if op == "drain":
                return self._local_reply(
                    req, op="drain",
                    **await self.drain_node(str(req.get("node") or "")),
                )
            if op in ("compile", "amend"):
                return await self._forward(frame, req)
            raise ProtocolError(f"unknown op {op!r}")
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            req = req if isinstance(req, dict) else {}
            return wire.encode(
                {"id": req.get("id"), "ok": False, **error_fields(exc)}
            )

    def _local_reply(self, req: dict[str, Any], **fields: Any) -> bytes:
        out = {"id": req.get("id"), "ok": True, **fields}
        if "idem" in req:
            out["idem"] = request_digest(req)
        return wire.encode(out)

    # -- forwarding -----------------------------------------------------
    async def _forward(self, frame: bytes, req: dict[str, Any]) -> bytes:
        if not frame.endswith(b"\n"):
            frame += b"\n"  # a last request cut off by EOF
        last_error: ServiceError = ServerError("no live farm nodes")
        failed: set[str] = set()
        for attempt in range(self.max_attempts):
            digest = route_digest(
                req, default_scheduler=self.default_scheduler
            )
            owners = [
                o for o in self.shard_map.owners(digest) if o not in failed
            ]
            if not owners:
                raise last_error
            target = owners[0]
            try:
                reply_frame, reply = await self._node_request_raw(target, frame)
            except (TransportError, ServiceTimeout) as exc:
                last_error = exc
                if self.is_leader:
                    await self._demote(target)
                else:
                    # A standby must not mutate membership: route this
                    # request around the dead node and leave the demote
                    # to the leader (or to our own promotion).
                    failed.add(target)
                continue
            self.forwarded += 1
            if reply is None:
                # Undecodable node reply: relay as-is; the client's
                # frame/integrity checks own this failure mode.
                return reply_frame
            # Only the header was parsed: the payload goes out untouched.
            if not reply.get("ok") and reply.get("error_type") == WrongShard.code:
                # Map skew: the node is behind (or we are).  Adopt the
                # newer map, push ours if the node's is older, retry.
                self.rerouted += 1
                if not self._adopt_if_newer(reply.get("shard_map")):
                    await self._push_map(target)
                continue
            return reply_frame
        raise last_error

    # -- membership -----------------------------------------------------
    def _adopt_map(self, new: ShardMap) -> None:
        """Switch maps, retiring state of every removed node.

        Used by *every* membership change -- demote, rejoin, and skew
        adoption in :meth:`_forward` -- so a node leaving the map can
        never leave idle pooled connections open until process exit.
        Removed nodes keep their last known endpoint in ``_departed``
        so the heartbeat can offer them rejoin.
        """
        removed = set(self.shard_map.nodes) - set(new.nodes)
        for name in removed:
            self._departed.setdefault(name, dict(self.shard_map.nodes[name]))
            self._suspect.pop(name, None)
            for _, writer in self._pools.pop(name, []):
                writer.close()
        self.shard_map = new
        self._observed_epoch = max(self._observed_epoch, new.epoch)
        if new.epoch > self.epoch and self.is_leader:
            # The map we just adopted was published under a higher
            # leader incarnation: we were deposed and only now found
            # out.  Stop mutating membership immediately.
            self._step_down(f"saw map epoch {new.epoch}")

    def _adopt_if_newer(self, doc: Any) -> bool:
        """Adopt a node's map document if it dominates ours."""
        if not isinstance(doc, dict):
            return False
        try:
            new = ShardMap.from_dict(doc)
        except ProtocolError:
            return False
        if not new.dominates(self.shard_map):
            return False
        self._adopt_map(new)
        return True

    def _change_members(
        self,
        *,
        drop: Collection[str] = (),
        add: dict[str, dict[str, Any]] | None = None,
        cause: str,
    ) -> None:
        """One map change: ``drop`` leaves, ``add`` rejoins."""
        add = add or {}
        self._adopt_map(self.shard_map.successor(drop=drop, add=add))
        for name in add:
            self._departed.pop(name, None)
            self._suspect.pop(name, None)
        if drop:
            self.failovers += len(drop)
            self._log("demote", drop, cause)
        if add:
            self.rejoins += len(add)
            self._log("rejoin", add, cause)

    def _log(self, event: str, nodes: Collection[str], cause: str) -> None:
        """One INFO record per membership or leadership event."""
        names = sorted(nodes)
        log.info(
            "router %s: %s %s (%s), map token %s", self.name, event,
            ",".join(names) or "-", cause, self.shard_map.token,
            extra={"event": event, "router": self.name, "nodes": names,
                   "cause": cause, "token": self.shard_map.token},
        )

    async def _demote(self, name: str) -> None:
        """A forward died on ``name``: remove it and push the new map."""
        async with self._demote_lock:
            # Standbys never mutate membership, and a concurrent
            # request may already have demoted the node.
            if not self.is_leader or name not in self.shard_map.nodes:
                return
            self._change_members(drop=[name], cause="forward")
            await self._broadcast_map()

    # -- the heartbeat --------------------------------------------------
    async def _heartbeat_loop(self) -> None:
        try:
            while not self._stopping:
                await asyncio.sleep(self.beat)
                try:
                    await self.heartbeat()
                except Exception:  # noqa: BLE001 - the loop must survive
                    log.exception("router %s: heartbeat failed", self.name)
        except asyncio.CancelledError:
            pass

    async def heartbeat(self) -> dict[str, Any]:
        """One beat: renew or claim the lease, track liveness, heal.

        1. One gather sends a ``lease`` claim to every member -- the
           leader claims under its own epoch, a standby one above the
           highest epoch it has observed, so its claim beats every
           node's epoch floor the moment the old lease lapses -- and,
           on the leader, a ``health`` probe to every departed node.
        2. Any decoded reply (grant, refusal or typed error) proves the
           member alive; a transport failure or a timeout is a missed
           beat, and :data:`SUSPECT_AFTER` misses in a row mean dead.
        3. A majority of grants keeps (or wins) leadership: a leader
           that loses it steps down, a standby that wins it promotes.
           Lease replies carry each node's map, so a standby converges
           on membership with no leader-to-standby channel.
        4. On a router that led the whole round, dead members leave and
           departed nodes that answer alive **and ready** rejoin (a
           draining node is alive but not ready) in one map change,
           pushed once; each rejoiner is told to ``repair`` within the
           same beat.

        Every call is bounded by one beat and runs concurrently, and
        the round never waits on a drain holding ``_demote_lock``: that
        change, like one due in the round that promoted, is left to the
        next round.  So a round takes at most two beats whatever hangs,
        and a healthy member's lease is renewed at most three beats --
        3/4 of ``lease_ttl`` -- apart.
        """
        self.heartbeats += 1
        leading = self.is_leader
        for name in list(self._departed):
            if name in self.shard_map.nodes or name in self._drained:
                self._departed.pop(name, None)
        claim = self.epoch if leading else self._observed_epoch + 1
        lease = wire.encode({
            "op": "lease", "router": self.name,
            "epoch": claim, "ttl": self.lease_ttl,
        })
        members = list(self.shard_map.nodes)
        departed = dict(self._departed) if leading else {}
        replies = await asyncio.gather(
            *(self._claim(name, lease) for name in members),
            *(self._probe(endpoint) for endpoint in departed.values()),
        )
        self.beats_sent += len(replies)
        grants = 0
        for name, reply in zip(members, replies):
            if reply is None:
                self.beats_missed += 1
                if name in self.shard_map.nodes:
                    self._suspect[name] = self._suspect.get(name, 0) + 1
                continue
            self._suspect.pop(name, None)
            if not reply.get("ok"):
                continue  # a typed error: alive, but no grant
            self._observed_epoch = max(
                self._observed_epoch, int(reply.get("holder_epoch") or 0)
            )
            self._adopt_if_newer(reply.get("shard_map"))
            grants += bool(reply.get("granted"))
        majority = len(members) // 2 + 1
        held = grants >= majority
        if self.is_leader and not held:
            self._step_down(f"lost the lease: {grants}/{len(members)} grants")
        elif held and not self.is_leader:
            await self._promote(claim)
        elif held and self._lease_acquired is None:
            self._lease_acquired = time.monotonic()
        if leading and self.is_leader and not self._demote_lock.locked():
            dead = [
                name for name, misses in self._suspect.items()
                if misses >= SUSPECT_AFTER and name in self.shard_map.nodes
            ]
            back = {
                name: endpoint
                for (name, endpoint), ready in zip(
                    departed.items(), replies[len(members):]
                )
                if ready and name in self._departed
                and name not in self.shard_map.nodes
            }
            if dead or back:
                async with self._demote_lock:
                    self.beat_demotions += len(dead)
                    self._change_members(drop=dead, add=back, cause="heartbeat")
                    await self._broadcast_map(repair=back)
        return {
            "role": self.role, "epoch": self.epoch, "claimed": claim,
            "grants": grants, "members": len(members), "held": held,
            "suspect": dict(self._suspect),
            "departed": sorted(self._departed),
        }

    async def _claim(self, name: str, frame: bytes) -> dict[str, Any] | None:
        """One lease claim: the reply header, ``None`` for a missed beat."""
        try:
            _, reply = await self._node_request_raw(name, frame, self.beat)
        except (TransportError, ServiceTimeout):
            return None
        return reply

    async def _probe(self, endpoint: dict[str, Any]) -> bool:
        """One ``health`` probe of a departed node: alive and ready?"""
        host, port = str(endpoint["host"]), int(endpoint["port"])
        try:
            reply = await _call(
                host, port, wire.encode({"op": "health"}),
                timeout=self.beat, who=f"node at {host}:{port}",
            )
        except ServiceError:
            return False
        return bool(reply.get("ready"))

    # -- leadership -----------------------------------------------------
    def _step_down(self, cause: str) -> None:
        if self.role != "leader":
            return
        self.role = "standby"
        self.stepdowns += 1
        self._lease_acquired = None
        self._log("stepdown", (), cause)

    async def _promote(self, epoch: int) -> None:
        """Won a majority as standby: take over under a fresh epoch.

        Leadership is published only after the push round, so whoever
        sees this router lead also sees every reachable node on its map.
        """
        self.epoch = int(epoch)
        self._observed_epoch = max(self._observed_epoch, self.epoch)
        if self.epoch > self.shard_map.epoch:
            # Publish membership under the new incarnation: every map
            # the deposed leader pushes from here on compares lower.
            self.shard_map = self.shard_map.with_epoch(self.epoch)
        await self._broadcast_map()
        if self._observed_epoch > self.epoch:
            return  # a higher incarnation surfaced during the push round
        self.role = "leader"
        self.promotions += 1
        self._lease_acquired = time.monotonic()
        self._log("promote", (), f"heartbeat, epoch {self.epoch}")

    async def _broadcast_map(self, repair: Collection[str] = ()) -> None:
        """Push the map to every member and peer router at once.

        Best effort, and every push is bounded by one beat, so a hung
        target costs one beat, never the sum of all pushes.  Each node
        in ``repair`` is then sent ``repair`` inside the same beat; it
        finishes the sweep whether or not the reply arrives in time.
        """
        await asyncio.gather(
            *(self._push_map(name, repair=name in repair)
              for name in list(self.shard_map.nodes)),
            *(self._push_peer(host, port) for host, port in self.peers),
        )

    async def _push_map(self, name: str, *, repair: bool = False) -> None:
        """Best-effort ``reshard`` push (then ``repair``) within one beat."""
        deadline = time.monotonic() + self.beat
        try:
            await self._node_call(name, self._reshard_msg(), self.beat)
            if repair:
                await self._node_call(name, {"op": "repair"}, _left(deadline))
        except ServiceError:
            pass

    def _reshard_msg(self) -> dict[str, Any]:
        return {"op": "reshard", "shard_map": self.shard_map.as_dict()}

    async def _push_peer(self, host: str, port: int) -> None:
        try:
            await _call(
                host, port, wire.encode(self._reshard_msg()),
                timeout=self.beat, who=f"peer router {host}:{port}",
            )
        except (ServiceError, OSError):
            pass

    async def push_map_peer(self, host: str, port: int) -> dict[str, Any]:
        """Push this router's map to a peer router.

        Unlike the best-effort broadcast this *raises* the typed reply
        error -- a deposed leader pushing to the promoted peer gets the
        :class:`StaleEpoch` it needs to learn its fate.
        """
        return await _call(
            host, port, wire.encode(self._reshard_msg()),
            timeout=self.node_timeout, who=f"peer router {host}:{port}",
        )

    def _reshard_verb(self, req: dict[str, Any]) -> dict[str, Any]:
        """A peer router pushed its map at us: adopt or fence."""
        new = ShardMap.from_dict(req.get("shard_map"))
        if new.epoch < self.shard_map.epoch:
            self.stale_epoch_rejections += 1
            raise StaleEpoch(
                f"map epoch {new.epoch} < {self.shard_map.epoch}: "
                f"sender was deposed",
                current_epoch=self.shard_map.epoch,
                current_version=self.shard_map.version,
            )
        adopted = new.dominates(self.shard_map)
        if adopted:
            self._adopt_map(new)
        return {
            "adopted": adopted,
            "epoch": self.shard_map.epoch,
            "version": self.shard_map.version,
        }

    # -- graceful drain -------------------------------------------------
    async def drain_node(self, name: str) -> dict[str, Any]:
        """Gracefully remove one node: handoff first, map change after.

        Leader-only.  The node is sent the ``drain`` verb with the
        successor map (itself removed) and does the heavy lifting --
        quiesce, proactive amend-stream handoff, re-replication -- see
        :meth:`FarmNodeServer._drain`.  Only once the node confirms is
        the successor map adopted and broadcast, so warm traffic keeps
        being served by the (still owning, still caching) node for the
        whole handoff window: zero typed-error blips.
        """
        if not self.is_leader:
            raise ServerError(
                f"router {self.name!r} is standby; drain via the leader"
            )
        async with self._demote_lock:
            if name not in self.shard_map.nodes:
                raise ProtocolError(f"unknown farm node {name!r}")
            successor = self.shard_map.without(name)
            reply = await self._node_call(
                name, {"op": "drain", "shard_map": successor.as_dict()}
            )
            self._drained.add(name)
            self._adopt_map(successor)
            self._departed.pop(name, None)
            self.drains += 1
            self.drain_repush_retries += int(reply.get("repush_retries") or 0)
            self._log("drain", [name], "drain verb")
        await self._broadcast_map()
        return {
            "node": name,
            "streams_handed_off": int(reply.get("streams_handed_off") or 0),
            "replicas_repushed": int(reply.get("replicas_repushed") or 0),
            "repush_retries": int(reply.get("repush_retries") or 0),
            "epoch": self.shard_map.epoch,
            "version": self.shard_map.version,
        }

    # -- node connections (pooled, one in-flight request each) ---------
    async def _node_request_raw(
        self, name: str, frame: bytes, timeout: float | None = None
    ) -> tuple[bytes, dict[str, Any] | None]:
        """One raw request frame to a node -> its raw reply frame and
        parsed header (``None`` when the frame does not decode; that
        connection is then dropped, never pooled, so no leftover line
        can pass for the next reply).  ``timeout`` bounds the whole
        exchange, connect included (default ``node_timeout``)."""
        if timeout is None:
            timeout = self.node_timeout
        deadline = time.monotonic() + timeout
        conn = await self._acquire(name, timeout)
        reader, writer = conn
        try:
            writer.write(frame)
            await writer.drain()
            # Header and payload in one await: one task per frame.
            reply = await asyncio.wait_for(
                wire.read_frame(reader), _left(deadline)
            )
        except (asyncio.TimeoutError, TimeoutError):
            writer.close()
            raise ServiceTimeout(
                f"node {name!r} gave no reply within {timeout}s"
            ) from None
        except (asyncio.LimitOverrunError, OSError) as exc:
            writer.close()
            raise TransportError(f"node {name!r} died mid-request: {exc}") from exc
        except asyncio.CancelledError:
            writer.close()
            raise
        if not reply.endswith(b"\n"):
            writer.close()
            raise TransportError(f"node {name!r} cut mid-reply")
        try:
            header = wire.decode_header(reply)
        except wire.FrameError:
            writer.close()
            return reply, None
        self._release(name, conn)
        return reply, header

    async def _node_call(
        self, name: str, msg: dict[str, Any], timeout: float | None = None
    ) -> dict[str, Any]:
        """One router-originated request to a node -> its reply header."""
        _, reply = await self._node_request_raw(name, wire.encode(msg), timeout)
        if reply is None:
            raise TransportError(f"node {name!r} sent a bad reply frame")
        if not reply.get("ok"):
            raise reply_error(reply)
        return reply

    async def _acquire(
        self, name: str, timeout: float | None = None
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        pool = self._pools.setdefault(name, [])
        while pool:
            reader, writer = pool.pop()
            if not writer.is_closing():
                return reader, writer
            writer.close()
        try:
            host, port = self.shard_map.endpoint(name)
        except KeyError:
            raise TransportError(f"node {name!r} is not in the shard map") from None
        try:
            return await asyncio.wait_for(
                asyncio.open_connection(host, port, limit=MAX_LINE_BYTES),
                timeout,
            )
        except (OSError, asyncio.TimeoutError, TimeoutError) as exc:
            raise TransportError(f"node {name!r} unreachable: {exc!r}") from exc

    def _release(
        self,
        name: str,
        conn: tuple[asyncio.StreamReader, asyncio.StreamWriter],
    ) -> None:
        pool = self._pools.setdefault(name, [])
        if name in self.shard_map.nodes and len(pool) < self.pool_idle:
            pool.append(conn)
        else:
            conn[1].close()

    # -- aggregation (stats / health across the farm) -------------------
    async def _aggregate(self, req: dict[str, Any], op: str) -> bytes:
        """Per-node breakdown plus farm-wide numeric totals."""
        per_node: dict[str, dict[str, Any]] = {}
        down: list[str] = []
        for name in list(self.shard_map.nodes):
            try:
                reply = await self._node_call(name, {"op": op})
            except ServiceError:
                down.append(name)
                continue
            per_node[name] = {
                k: v for k, v in reply.items()
                if k not in ("id", "ok", "op", "idem")
            }
        farm_docs = [
            doc["farm"] for doc in per_node.values()
            if isinstance(doc.get("farm"), dict)
        ]

        def _total(field: str) -> int:
            return sum(int(d.get(field, 0) or 0) for d in farm_docs)

        out = {
            "nodes": per_node,
            "farm": sum_stats(list(per_node.values())),
            "down": down,
            "router": {
                "name": self.name,
                "role": self.role,
                "epoch": self.epoch,
                "requests": self.requests_served,
                "forwarded": self.forwarded,
                "rerouted": self.rerouted,
                "failovers": self.failovers,
                "map_version": self.shard_map.version,
                "map_epoch": self.shard_map.epoch,
                "live_nodes": len(self.shard_map.nodes),
                "heartbeats": self.heartbeats,
                "beats_sent": self.beats_sent,
                "beats_missed": self.beats_missed,
                "beat_demotions": self.beat_demotions,
                "rejoins": self.rejoins,
                "lease_age_seconds": self.lease_age_seconds,
                "promotions": self.promotions,
                "stepdowns": self.stepdowns,
                "drains": self.drains,
                "drained": sorted(self._drained),
                "stale_epoch_rejections": self.stale_epoch_rejections,
                "suspect": dict(self._suspect),
                "departed": sorted(self._departed),
            },
            # Farm-wide replication posture in one block, so
            # under-replication (push failures nobody retried) is
            # visible without digging through per-node breakdowns.
            "replication": {
                "pushed": _total("replicas_pushed"),
                "received": _total("replicas_received"),
                "push_failures": _total("replica_push_failures"),
                "push_retries": _total("replica_push_retries"),
                "pushes_dropped": _total("replica_pushes_dropped"),
                "repaired": _total("replicas_repaired"),
                "anti_entropy_rounds": _total("anti_entropy_rounds"),
                "read_repairs": _total("read_repairs"),
                "amend_takeovers": _total("amend_takeovers"),
                "drain_handoffs": _total("drain_handoffs"),
                "drain_adoptions": _total("drain_adoptions"),
                # Drained nodes leave the map (and the per-node
                # breakdown) the moment they finish, so the router
                # accumulates their retry spend from the drain replies.
                "drain_repush_retries": (
                    self.drain_repush_retries + _total("drain_repush_retries")
                ),
            },
            "shard_map": self.shard_map.as_dict(),
        }
        if op == "health":
            out["ready"] = any(
                bool(doc.get("ready")) for doc in per_node.values()
            )
        return self._local_reply(req, op=op, **out)

    async def _shutdown_farm(self, req: dict[str, Any]) -> bytes:
        """Forward ``shutdown`` to every node, then stop routing."""
        if self._server is not None:
            self._server.close()
        for name in list(self.shard_map.nodes):
            try:
                await self._node_call(name, {"op": "shutdown"})
            except ServiceError:
                pass
        return self._local_reply(req, op="shutdown")


# ----------------------------------------------------------------------
# the shard-map-carrying client
# ----------------------------------------------------------------------

class AsyncFarmClient:
    """Farm client: direct-to-shard on warm state, router on trouble.

    Holds one :class:`AsyncCompileClient` per node plus one for the
    router.  Shardable requests are sent straight to an owner computed
    from the carried map (read load spread across replicas by digest;
    amends pinned to the primary).  A :class:`WrongShard` reply hands
    us the node's newer map and the request is re-aimed in-line; a
    node that cannot be reached at all falls back to the router --
    which performs failover -- and the map is re-fetched afterwards.

    ``router_address`` may be a single ``(host, port)`` pair or a
    *list* of them (the router HA pair): the embedded router client
    rotates to the next endpoint on every transport/timeout failure,
    so idempotent verbs transparently retry on the surviving router
    while ``amend`` surfaces its typed error (never auto-retried).
    """

    #: bounded in-line redirects before deferring to the router.
    MAX_REDIRECTS = 4

    def __init__(
        self,
        router_address: tuple[str, int] | list[tuple[str, int]],
        *,
        shard_map: ShardMap | None = None,
        timeout: float | None = None,
        default_scheduler: str = "combined",
    ) -> None:
        if (
            isinstance(router_address, tuple)
            and len(router_address) == 2
            and not isinstance(router_address[0], (tuple, list))
        ):
            addresses = [router_address]
        else:
            addresses = list(router_address)
        self.router_addresses = [(str(h), int(p)) for h, p in addresses]
        self.router_address = self.router_addresses[0]
        self.shard_map = shard_map
        self.timeout = timeout
        self.default_scheduler = default_scheduler
        self._router = AsyncCompileClient(
            timeout=timeout, endpoints=self.router_addresses
        )
        self._nodes: dict[str, AsyncCompileClient] = {}
        self._next_id = 0
        self.direct = 0
        self.via_router = 0
        self.map_refreshes = 0

    async def connect(self) -> "AsyncFarmClient":
        await self._router.connect()
        if self.shard_map is None:
            await self.refresh_map()
        return self

    async def close(self) -> None:
        for client in self._nodes.values():
            await client.close()
        self._nodes.clear()
        await self._router.close()

    async def __aenter__(self) -> "AsyncFarmClient":
        return await self.connect()

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    async def refresh_map(self) -> ShardMap:
        reply = await self._router.request({"op": "shardmap"})
        self._adopt(ShardMap.from_dict(reply["shard_map"]))
        assert self.shard_map is not None
        return self.shard_map

    def _adopt(self, new: ShardMap) -> None:
        if self.shard_map is not None and not new.dominates(self.shard_map):
            return
        self.shard_map = new
        self.map_refreshes += 1
        for name in list(self._nodes):
            if name not in new.nodes:
                # Close lazily: the transport teardown needs no await
                # to stop the client being *used*.
                stale = self._nodes.pop(name)
                asyncio.ensure_future(stale.close())

    def _node_client(self, name: str) -> AsyncCompileClient:
        client = self._nodes.get(name)
        if client is None:
            assert self.shard_map is not None
            host, port = self.shard_map.endpoint(name)
            # No client-side retries against a single node: the farm
            # fallback (router failover) *is* the retry.
            client = AsyncCompileClient(host, port, timeout=self.timeout,
                                        retry=None)
            self._nodes[name] = client
        return client

    def _pick_owner(self, op: str, digest: str, owners: list[str]) -> str:
        if op == "amend":
            return owners[0]  # streams are primary-resident state
        # Spread reads/compiles across the replica set, deterministically
        # by digest so one artifact's requests still coalesce per node.
        return owners[int(digest[:8], 16) % len(owners)]

    async def request(self, req: dict[str, Any]) -> dict[str, Any]:
        op = req.get("op", "compile")
        if op not in ("compile", "amend") or self.shard_map is None:
            return await self._router.request(req)
        try:
            digest = route_digest(
                req, default_scheduler=self.default_scheduler
            )
        except ProtocolError:
            # Malformed request: let the router answer it with the
            # same typed error a node would.
            return await self._router.request(req)
        for _ in range(self.MAX_REDIRECTS):
            owners = self.shard_map.owners(digest)
            if not owners:
                break
            target = self._pick_owner(op, digest, owners)
            client = self._node_client(target)
            try:
                reply = await client.request(req)
            except WrongShard as exc:
                if isinstance(exc.shard_map, dict):
                    try:
                        newer = ShardMap.from_dict(exc.shard_map)
                    except ProtocolError:
                        break
                    if (
                        self.shard_map is None
                        or newer.dominates(self.shard_map)
                    ):
                        self._adopt(newer)
                        continue
                break  # the *node* is stale; the router will sort it out
            except (TransportError, ServiceTimeout):
                break  # node unreachable: the router owns failover
            self.direct += 1
            return reply
        self.via_router += 1
        reply = await self._router.request(req)
        try:
            await self.refresh_map()
        except ServiceError:
            pass
        return reply

    # -- convenience verbs (mirror AsyncCompileClient) ------------------
    async def ping(self) -> dict[str, Any]:
        return await self.request({"op": "ping"})

    async def stats(self) -> dict[str, Any]:
        return await self.request({"op": "stats"})

    async def health(self) -> dict[str, Any]:
        return await self.request({"op": "health"})

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
                topology, pattern=pattern, pairs=pairs, scheduler=scheduler,
                registers=registers, request_id=self._next_id,
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
        self._next_id += 1
        return await self.request(
            _amend_request(
                topology, pattern=pattern, pairs=pairs, scheduler=scheduler,
                root=root, epoch=epoch, add=add, remove=remove,
                request_id=self._next_id, deadline=deadline,
            )
        )


# ----------------------------------------------------------------------
# the in-process farm supervisor
# ----------------------------------------------------------------------

class Farm:
    """N farm nodes + their routers in this process, for tests and benches.

    ``workers`` is *per node*: the default of 1 worker process per node
    means an N-node farm runs N cold compiles truly in parallel (each
    node owns a single-process pool).  ``workers=0`` keeps each node
    single-process (one worker thread), the fully deterministic mode
    chaos tests use.
    ``routers`` routers share the map; ``router0`` starts as leader,
    the rest as standbys.  Every router heartbeats once per
    ``lease_ttl / 4``.
    """

    def __init__(
        self,
        nodes: int = 3,
        *,
        replication: int = 2,
        workers: int = 1,
        cache_dir: str | Path | None = None,
        scheduler: str = "combined",
        policy: ServerPolicy | None = None,
        amend_streams: int | None = None,
        host: str = "127.0.0.1",
        node_timeout: float = 120.0,
        routers: int = 1,
        lease_ttl: float = 2.0,
        chaos_seed: int | None = None,
    ) -> None:
        if nodes < 1:
            raise ValueError(f"a farm needs at least one node, got {nodes}")
        if routers < 1:
            raise ValueError(f"a farm needs at least one router, got {routers}")
        self.num_nodes = int(nodes)
        self.replication = max(1, min(int(replication), self.num_nodes))
        self.workers = workers
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.scheduler = scheduler
        self.policy = policy
        self.amend_streams = amend_streams
        self.host = host
        self.node_timeout = float(node_timeout)
        self.num_routers = int(routers)
        self.lease_ttl = float(lease_ttl)
        self.chaos_seed = chaos_seed
        self.nodes: dict[str, FarmNodeServer] = {}
        self.dead: dict[str, FarmNodeServer] = {}
        self.drained: dict[str, FarmNodeServer] = {}
        self.router: ShardRouter | None = None
        #: every live router (the HA pair), keyed by name; ``router``
        #: stays the primary handle tests and benches talk to.
        self.routers: dict[str, ShardRouter] = {}
        self.dead_routers: dict[str, ShardRouter] = {}
        #: original endpoint of every node ever started, so a killed
        #: node can be restarted on the same address (rejoin scenario).
        self.endpoints: dict[str, tuple[str, int]] = {}
        #: one-way blocked (src, dst) node pairs (chaos partitions);
        #: every node's ``peer_filter`` consults this shared table.
        self.partitions: set[tuple[str, str]] = set()
        self._router_endpoint: tuple[str, int] | None = None

    # -- chaos: partitions ----------------------------------------------
    def _peer_allowed(self, src: str, dst: str) -> bool:
        return (src, dst) not in self.partitions

    def partition(self, src: str, dst: str, *, both_ways: bool = False) -> None:
        """Block peer traffic ``src -> dst`` (one-way by default)."""
        self.partitions.add((src, dst))
        if both_ways:
            self.partitions.add((dst, src))

    def heal(self, src: str | None = None, dst: str | None = None) -> None:
        """Heal partitions: all, all touching ``src``, or one pair."""
        if src is None:
            self.partitions.clear()
        elif dst is None:
            self.partitions = {
                p for p in self.partitions if src not in p
            }
        else:
            self.partitions.discard((src, dst))

    def _make_node(
        self, name: str, index: int, shard_map: ShardMap, port: int
    ) -> FarmNodeServer:
        cache = ArtifactCache(
            self.cache_dir / name if self.cache_dir is not None else None
        )
        return FarmNodeServer(
            name=name,
            shard_map=shard_map,
            cache=cache,
            workers=self.workers,
            host=self.host,
            port=port,
            scheduler=self.scheduler,
            policy=self.policy,
            amend_streams=self.amend_streams,
            peer_filter=self._peer_allowed,
            chaos_seed=(
                None if self.chaos_seed is None else self.chaos_seed + index
            ),
        )

    async def _make_router(
        self, name: str, shard_map: ShardMap, *, role: str, port: int = 0
    ) -> ShardRouter:
        """Start one router and point every router at its peers."""
        router = ShardRouter(
            shard_map,
            name=name,
            role=role,
            host=self.host,
            port=port,
            default_scheduler=self.scheduler,
            node_timeout=self.node_timeout,
            lease_ttl=self.lease_ttl,
        )
        await router.start()
        self.routers[name] = router
        for peer in self.routers.values():
            peer.peers = [
                tuple(other.address) for other in self.routers.values()
                if other is not peer
            ]
        return router

    async def start(self) -> "Farm":
        # Two-phase: bind every node on an ephemeral port first, then
        # build the v1 map from the real endpoints and hand it out.
        placeholder = ShardMap({}, replication=self.replication)
        for i in range(self.num_nodes):
            name = f"node{i}"
            node = self._make_node(name, i, placeholder, port=0)
            await node.start()
            self.nodes[name] = node
        endpoints = {
            name: {"host": node.address[0], "port": node.address[1]}
            for name, node in self.nodes.items()
        }
        self.endpoints = {
            name: (ep["host"], ep["port"]) for name, ep in endpoints.items()
        }
        shard_map = ShardMap(endpoints, replication=self.replication)
        for node in self.nodes.values():
            node.shard_map = shard_map
        for i in range(self.num_routers):
            await self._make_router(
                f"router{i}", shard_map, role="leader" if i == 0 else "standby"
            )
        self.router = self.routers["router0"]
        self._router_endpoint = tuple(self.router.address)
        # Establish the initial lease so the leader's authority is held,
        # not just assumed -- a standby can only promote once this lease
        # actually lapses.
        await self.router.heartbeat()
        return self

    @property
    def leader(self) -> ShardRouter | None:
        """The live router currently holding leadership (if any)."""
        for router in self.routers.values():
            if router.is_leader:
                return router
        return None

    @property
    def router_address(self) -> tuple[str, int]:
        assert self.router is not None, "farm not started"
        return self.router.address

    @property
    def router_addresses(self) -> list[tuple[str, int]]:
        """Every live router endpoint -- the client's failover list."""
        return [tuple(r.address) for r in self.routers.values()]

    def client(self, **kwargs: Any) -> AsyncFarmClient:
        addresses = self.router_addresses
        return AsyncFarmClient(
            addresses if len(addresses) > 1 else self.router_address,
            default_scheduler=self.scheduler,
            **kwargs,
        )

    async def settle(self) -> None:
        """Wait for every node's in-flight replica pushes to land."""
        for node in list(self.nodes.values()):
            await node.settle()

    async def kill_node(self, name: str) -> FarmNodeServer:
        """Abruptly crash one node (chaos): no drain, no goodbye."""
        node = self.nodes.pop(name)
        self.dead[name] = node
        await node.kill()
        return node

    async def restart_node(self, name: str) -> FarmNodeServer:
        """Restart a killed node on its original endpoint.

        The restart is process-death faithful: a disk-backed cache is
        reopened (crash recovery runs), a memory-only cache comes back
        *empty*, and the node carries the stale map it died with.
        Nothing tells the router -- re-admission happens through the
        heartbeat's rejoin path, which is exactly what this method
        exists to exercise.
        """
        old = self.dead.pop(name)
        index = int(name.removeprefix("node")) if name.startswith("node") else 0
        host, port = self.endpoints[name]
        node = self._make_node(name, index, old.shard_map, port=port)
        await node.start()
        self.nodes[name] = node
        return node

    async def drain_node(self, name: str) -> FarmNodeServer:
        """Gracefully drain one node out of the farm, then stop it.

        The leader router drives the handoff (see
        :meth:`ShardRouter.drain_node`); only after it confirms --
        streams adopted by the new owners, under-replicated artifacts
        re-pushed, successor map broadcast -- is the node's process
        actually shut down.
        """
        leader = self.leader or self.router
        assert leader is not None, "farm not started"
        await leader.drain_node(name)
        node = self.nodes.pop(name)
        self.drained[name] = node
        await node.shutdown()
        return node

    async def kill_router(self) -> None:
        """Abruptly stop the serving router (chaos): in-flight dies.

        With an HA pair this kills the router ``self.router`` points at
        (the original leader unless re-pointed) and re-aims the handle
        at a survivor -- whose promotion still has to be *earned*
        through :meth:`ShardRouter.heartbeat` once the dead leader's
        lease lapses.
        """
        assert self.router is not None, "farm not started"
        router = self.router
        self.routers.pop(router.name, None)
        self.dead_routers[router.name] = router
        self.router = next(iter(self.routers.values()), None)
        await router.stop()

    async def restart_router(self, shard_map: ShardMap | None = None) -> ShardRouter:
        """Bring a fresh router up on the original port.

        The router is stateless by design: the replacement starts from
        the given map (default: the v1 map over every *original* node)
        and converges through the usual skew machinery -- nodes with a
        newer map hand it over on the first ``wrong_shard``, dead nodes
        are re-demoted on first use or heartbeat.  Next to a live peer
        it comes back as a standby: leadership has to be re-won through
        the lease.
        """
        assert self._router_endpoint is not None, "farm not started"
        if shard_map is None:
            shard_map = ShardMap(
                {
                    name: {"host": host, "port": port}
                    for name, (host, port) in self.endpoints.items()
                },
                replication=self.replication,
            )
        self.dead_routers.pop("router0", None)
        self.router = await self._make_router(
            "router0", shard_map,
            role="standby" if self.routers else "leader",
            port=self._router_endpoint[1],
        )
        return self.router

    async def shutdown(self) -> None:
        for router in list(self.routers.values()):
            await router.stop()
        self.routers.clear()
        self.router = None
        for node in self.nodes.values():
            await node.shutdown()
        self.nodes.clear()
        self.dead.clear()
        self.drained.clear()
        self.dead_routers.clear()
