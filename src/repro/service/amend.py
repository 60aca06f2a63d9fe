"""Epoch-numbered incremental compilation -- the service face of delta
scheduling.

A long-running network does not recompile a pattern on every change: it
opens an **amend stream** and pushes add/remove updates against it.
The stream is a chain of epochs:

* **epoch 0** compiles the initial pattern (no canonicalization -- an
  amend stream lives in the caller's node ids, because its identity is
  the *mutable* pattern instance, not the translation equivalence
  class) and stores the artifact under the stream's **root digest**;
* each **amend** applies one update through the stateful
  :class:`repro.core.delta.DeltaScheduler`, bumps the epoch, and stores
  the new artifact as a first-class cache entry whose document carries
  a ``lineage`` block (root, parent digest, epoch, the update rows and
  the cost-model action), so any epoch's schedule can be audited back
  to its root;
* amends are **optimistically concurrent**: a client sends the epoch it
  believes is current, and a stale epoch is refused with
  :class:`repro.service.errors.EpochConflict` carrying the current one
  -- two writers can never silently fork a stream.

Wire shape (see :class:`repro.service.server.CompileServer`)::

    {"op": "amend", "topology": {...}, "pairs": [[s, d], ...]}
        -> {"root": R, "epoch": 0, "digest": D0, "schedule": {...}, ...}
    {"op": "amend", "topology": {...}, "root": R, "epoch": 0,
     "add": [[s, d], ...], "remove": [[s, d], ...]}
        -> {"root": R, "epoch": 1, "digest": D1, "action": "amend", ...}

Removal rows name connections by ``(src, dst, tag)``; with duplicate
pairs in the pattern the lowest-indexed (oldest) match is removed.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Sequence

from repro.compiler.serialize import (
    FORMAT_VERSION,
    canonical_dumps,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.core import perf
from repro.core.delta import DEFAULT_POLICY, AmendPolicy, DeltaScheduler
from repro.core.paths import Connection
from repro.core.registry import get_scheduler
from repro.core.requests import Request, RequestSet
from repro.core.paths import route_requests
from repro.service.cache import ArtifactCache
from repro.service.errors import EpochConflict, ProtocolError
from repro.topology.base import Topology

#: Version of the amend lineage block (independent of FORMAT_VERSION so
#: epoch chains can evolve without retiring plain compile artifacts).
AMEND_VERSION = 1


def parse_rows(rows: Sequence[Any], *, what: str) -> list[tuple[int, int, int, int]]:
    """``[src, dst]``/``[src, dst, size]``/``[src, dst, size, tag]`` rows
    as full 4-tuples (``ProtocolError`` on a malformed row)."""
    out = []
    for row in rows:
        if not isinstance(row, (list, tuple)) or not 2 <= len(row) <= 4:
            raise ProtocolError(f"bad {what} row {row!r}")
        s, d, *rest = row
        size = int(rest[0]) if rest else 1
        tag = int(rest[1]) if len(rest) > 1 else 0
        out.append((int(s), int(d), size, tag))
    return out


def amend_root_digest(
    topology: Topology,
    tuples: Sequence[tuple[int, int, int, int]],
    scheduler: str,
) -> str:
    """Stable identity of an amend stream.

    Keyed like :func:`repro.service.compile.compile_digest` but over
    the *caller-order, untranslated* pattern and a distinct header, so
    an amend root can never collide with a plain compile artifact.
    """
    h = hashlib.sha256()
    # ``bitmask`` is the retired placement-kernel field, kept constant
    # so existing stream roots stay valid.
    h.update(
        f"repro-amend/v{AMEND_VERSION}\0{topology.signature}\0"
        f"{scheduler}\0bitmask\0".encode("ascii")
    )
    h.update(canonical_dumps([list(t) for t in tuples]).encode("ascii"))
    return h.hexdigest()


def amend_epoch_digest(
    parent: str,
    add: Sequence[tuple[int, int, int, int]],
    remove: Sequence[tuple[int, int, int, int]],
) -> str:
    """Content address of one epoch: parent digest + the update rows.

    The digest chain is the lineage: epoch N's digest commits to every
    update since the root, so two streams agree on a digest iff they
    agree on the entire history.
    """
    h = hashlib.sha256()
    h.update(f"repro-amend-epoch/v{AMEND_VERSION}\0{parent}\0".encode("ascii"))
    h.update(canonical_dumps(
        {"add": [list(t) for t in add], "remove": [list(t) for t in remove]}
    ).encode("ascii"))
    return h.hexdigest()


class AmendStream:
    """Server-side state of one epoch chain.

    Owns the :class:`DeltaScheduler` engine plus a ``(src, dst, tag) ->
    indices`` map so removal rows resolve in O(1), keeping the amend
    hot path O(update size).  Every epoch's artifact (including epoch
    0) is stored in the cache under its lineage digest.
    """

    def __init__(
        self,
        topology: Topology,
        tuples: Sequence[tuple[int, int, int, int]],
        *,
        scheduler: str = "greedy",
        cache: ArtifactCache | None = None,
        policy: AmendPolicy = DEFAULT_POLICY,
    ) -> None:
        self.topology = topology
        self.scheduler = scheduler
        self.cache = cache
        requests = RequestSet(
            (Request(s, d, size=size, tag=tag) for s, d, size, tag in tuples),
            allow_duplicates=True,
        )
        connections = route_requests(topology, requests)
        schedule = get_scheduler(scheduler)(connections, topology)
        schedule.validate(connections)
        self.engine = DeltaScheduler(
            schedule, num_links=topology.num_links, policy=policy
        )
        self._next_index = len(connections)
        self._by_key: dict[tuple[int, int, int], list[int]] = {}
        for c in connections:
            self._key_add(c)
        self.root = amend_root_digest(topology, tuples, scheduler)
        self.epoch = 0
        self.digest = self.root
        self.action = "compile"
        self.delta_k = 0
        self._store(add=(), remove=(), parent=None)

    @classmethod
    def resume(
        cls,
        topology: Topology,
        doc: dict[str, Any],
        *,
        scheduler: str,
        cache: ArtifactCache | None = None,
        policy: AmendPolicy = DEFAULT_POLICY,
    ) -> "AmendStream":
        """Rebuild a stream from a cached epoch artifact.

        The stream continues the *stored* lineage: the schedule is
        reloaded (and re-validated) from ``doc``, the epoch counter and
        digest chain pick up where the stream left off -- evicted here,
        or advanced by the farm peer that replicated ``doc`` -- and the
        next amend chains onto the stored epoch's digest exactly as if
        the stream had never left memory.
        """
        lineage = doc.get("lineage")
        if not isinstance(lineage, dict):
            raise ProtocolError("artifact has no amend lineage to resume from")
        stream = cls.__new__(cls)
        stream.topology = topology
        stream.scheduler = scheduler
        stream.cache = cache
        # schedule_from_dict re-routes and re-validates: a tampered or
        # stale artifact cannot resume into a conflicting live schedule.
        schedule, connections = schedule_from_dict(topology, doc["schedule"])
        stream.engine = DeltaScheduler(
            schedule, num_links=topology.num_links, policy=policy
        )
        stream._next_index = len(connections)
        stream._by_key = {}
        for c in connections:
            stream._key_add(c)
        stream.root = str(lineage["root"])
        stream.epoch = int(lineage["epoch"])
        if stream.epoch == 0:
            stream.digest = stream.root
        else:
            # The lineage commits to its own digest: parent + rows.
            stream.digest = amend_epoch_digest(
                str(lineage["parent"]),
                [tuple(t) for t in lineage.get("add", [])],
                [tuple(t) for t in lineage.get("remove", [])],
            )
        stream.action = str(lineage.get("action", "compile"))
        stream.delta_k = 0
        stream._doc = doc
        return stream

    # -- removal-key bookkeeping ---------------------------------------
    def _key_add(self, c: Connection) -> None:
        key = (c.request.src, c.request.dst, c.request.tag)
        self._by_key.setdefault(key, []).append(c.index)

    def _key_pop(self, row: tuple[int, int, int, int]) -> int:
        s, d, _size, tag = row
        indices = self._by_key.get((s, d, tag))
        if not indices:
            raise ProtocolError(
                f"remove row ({s}, {d}, tag={tag}) matches no scheduled connection"
            )
        # Oldest match first: deterministic under duplicate pairs.
        idx = min(indices)
        indices.remove(idx)
        if not indices:
            del self._by_key[(s, d, tag)]
        return idx

    # -- artifact storage ----------------------------------------------
    def _store(
        self,
        *,
        add: Sequence[tuple[int, int, int, int]],
        remove: Sequence[tuple[int, int, int, int]],
        parent: str | None,
    ) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "version": FORMAT_VERSION,
            "topology": self.topology.signature,
            "scheduler": self.scheduler,
            "schedule": schedule_to_dict(self.engine.schedule),
            "lineage": {
                "version": AMEND_VERSION,
                "root": self.root,
                "parent": parent,
                "epoch": self.epoch,
                "action": self.action,
                "add": [list(t) for t in add],
                "remove": [list(t) for t in remove],
            },
        }
        if self.cache is not None:
            self.cache.put(self.digest, doc)
        self._doc = doc
        return doc

    # -- the amend entry point -----------------------------------------
    def amend(
        self,
        *,
        epoch: int,
        add: Sequence[tuple[int, int, int, int]] = (),
        remove: Sequence[tuple[int, int, int, int]] = (),
    ) -> dict[str, Any]:
        """Apply one update against ``epoch``; returns the new state doc.

        Raises :class:`EpochConflict` on a stale epoch (state is
        untouched) and :class:`ProtocolError` on a removal row that
        matches nothing (state is untouched -- rows are resolved before
        anything is applied).
        """
        if epoch != self.epoch:
            raise EpochConflict(
                f"amend against epoch {epoch}, current epoch is {self.epoch}",
                current_epoch=self.epoch,
                current_digest=self.digest,
            )
        # Resolve every removal row before touching the engine, so a
        # bad row cannot half-apply an update.  Resolution mutates the
        # key map; roll it back on failure.
        resolved: list[tuple[tuple[int, int, int, int], int]] = []
        try:
            for row in remove:
                resolved.append((row, self._key_pop(row)))
        except ProtocolError:
            for row, idx in resolved:
                self._by_key.setdefault((row[0], row[1], row[3]), []).append(idx)
            raise
        connections = []
        for s, d, size, tag in add:
            connections.append(Connection(
                self._next_index, Request(s, d, size=size, tag=tag),
                self.topology.route(s, d),
            ))
            self._next_index += 1
        result = self.engine.amend(
            add=connections, remove=[idx for _, idx in resolved]
        )
        for c in connections:
            self._key_add(c)
        parent = self.digest
        self.epoch += 1
        self.digest = amend_epoch_digest(parent, add, remove)
        self.action = result.action
        self.delta_k = result.delta_k
        return self._store(add=add, remove=remove, parent=parent)

    # -- views -----------------------------------------------------------
    @property
    def degree(self) -> int:
        return self.engine.degree

    @property
    def doc(self) -> dict[str, Any]:
        """The current epoch's artifact document."""
        return self._doc

    def head(self) -> dict[str, Any]:
        """Where this stream resumes from (:meth:`AmendRegistry.note`)."""
        return {
            "root": self.root, "epoch": self.epoch, "digest": self.digest,
            "scheduler": self.scheduler, "topology": self.topology,
        }

    def state(self) -> dict[str, Any]:
        """Reply payload describing the current epoch."""
        return {
            "root": self.root,
            "epoch": self.epoch,
            "digest": self.digest,
            "degree": self.degree,
            "action": self.action,
            "delta_k": self.delta_k,
            "connections": self.engine.num_connections,
            "fragmentation": self.engine.fragmentation(),
        }


#: Default live-stream cap of one :class:`AmendRegistry`.
DEFAULT_MAX_STREAMS = 256


class AmendRegistry:
    """Root-keyed registry of amend streams (one per server).

    Opening a stream is idempotent: re-sending the creation request for
    an existing root returns the stream's *current* epoch instead of
    resetting it, so a client that lost the reply can resume safely.

    Every stream this server knows is either a live engine or a
    **head** -- root, epoch, digest, scheduler and topology -- in one
    head table.  A head is written when the LRU policy evicts a live
    engine past ``max_streams``, or when a farm peer replicates an
    epoch here (:meth:`note`; the newest epoch wins).  Because every
    epoch is a first-class cache entry, touching a root that has only
    a head -- an ``open``, a follow-up ``amend``, or a farm takeover
    (:meth:`take_over`) -- *resumes* the stream from the head's epoch
    artifact (same root, same epoch counter, same digest chain) instead
    of silently resetting lineage.  Only when that artifact is gone
    does an ``open`` fall back to a fresh epoch-0 compile (counted in
    ``resets``); an ``amend`` in that state gets a typed
    :class:`ProtocolError`.  Such heads are pruned once the table
    outgrows its bound (:meth:`_hold`), after which their roots read
    as unknown.
    """

    def __init__(
        self,
        cache: ArtifactCache | None = None,
        *,
        max_streams: int | None = None,
    ) -> None:
        self.cache = cache
        self.max_streams = (
            DEFAULT_MAX_STREAMS if max_streams is None else int(max_streams)
        )
        if self.max_streams < 1:
            raise ValueError(f"max_streams must be >= 1, got {max_streams!r}")
        self._streams: "OrderedDict[str, AmendStream]" = OrderedDict()
        #: root -> head of a stream with no live engine here, marked
        #: ``replicated`` (by a peer) or not (an own eviction).
        #: Written only through :meth:`_hold`, which prunes it.
        self._heads: dict[str, dict[str, Any]] = {}
        #: held heads after the last prune (those on cached artifacts).
        self._heads_kept = 0
        self.opened = 0
        self.amends = 0
        self.conflicts = 0
        self.evictions = 0
        self.resumes = 0
        self.resets = 0
        self.takeovers = 0

    def __len__(self) -> int:
        return len(self._streams)

    def _admit(self, stream: AmendStream) -> None:
        """Install a stream, evicting the LRU one past the cap."""
        self._heads.pop(stream.root, None)
        self._streams[stream.root] = stream
        self._streams.move_to_end(stream.root)
        while len(self._streams) > self.max_streams:
            _, victim = self._streams.popitem(last=False)
            self._hold({**victim.head(), "replicated": False})
            self.evictions += 1

    def _hold(self, head: dict[str, Any]) -> None:
        """Hold the head of a stream with no live engine here.

        A head whose epoch artifact neither cache tier holds can never
        resume, so once the table outgrows twice the larger of
        ``max_streams`` and its size after the last prune, it keeps
        only the heads whose artifacts the cache still holds.
        """
        heads = self._heads
        heads[head["root"]] = head
        if len(heads) > 2 * max(self.max_streams, self._heads_kept):
            held = set() if self.cache is None else self.cache.digests()
            for root in [r for r, h in heads.items() if h["digest"] not in held]:
                del heads[root]
            self._heads_kept = len(heads)

    def _resume(self, root: str) -> AmendStream | None:
        """Rebuild a stream from its head's cached epoch artifact, which
        must load on the head's topology and carry the head's lineage."""
        head = self._heads.get(root)
        if head is None or self.cache is None:
            return None
        doc = self.cache.peek(head["digest"])
        if doc is None or not isinstance(doc.get("lineage"), dict):
            return None
        try:
            stream = AmendStream.resume(
                head["topology"], doc,
                scheduler=head["scheduler"], cache=self.cache,
            )
        except Exception:
            return None
        if stream.root != root or stream.digest != head["digest"]:
            return None
        self._admit(stream)
        if head["replicated"]:
            self.takeovers += 1
        else:
            self.resumes += 1
        return stream

    def _find(self, root: str) -> AmendStream | None:
        """The live stream for ``root`` (LRU touch), resumed if need be."""
        stream = self._streams.get(root)
        if stream is None:
            return self._resume(root)
        self._streams.move_to_end(root)
        return stream

    def note(self, head: dict[str, Any]) -> None:
        """Record a head a peer replicated; the newest epoch wins.

        ``head`` is :meth:`AmendStream.head`'s shape.  A head no newer
        than the live engine, or than the head already held, is
        ignored.  A newer one retires the live engine: another server
        has moved the stream past it.
        """
        root, epoch = head["root"], head["epoch"]
        live = self._streams.get(root)
        held = self._heads.get(root)
        if (live is not None and epoch <= live.epoch) or (
            held is not None and epoch <= held["epoch"]
        ):
            return
        self._streams.pop(root, None)
        self._hold({**head, "replicated": True})

    def take_over(self, root: str) -> bool:
        """Resume ``root`` now if a peer replicated its head here (its
        primary died or drained); True when a stream was resumed."""
        head = self._heads.get(root)
        return (
            head is not None and head["replicated"]
            and self._resume(root) is not None
        )

    def heads(self) -> list[dict[str, Any]]:
        """Every stream's head: the live engines', then the held ones."""
        return [
            *(stream.head() for stream in self._streams.values()),
            *self._heads.values(),
        ]

    def peek(self, root: str) -> AmendStream | None:
        """The live stream for ``root``, if any (no LRU touch, no resume)."""
        return self._streams.get(root)

    def live_roots(self) -> list[str]:
        """Roots with a *live* stream, LRU-oldest first (no touch).

        What a graceful drain iterates: every stream that would be
        lost with the node, in a stable order, without perturbing the
        LRU state mid-handoff.
        """
        return list(self._streams)

    def open(
        self,
        topology: Topology,
        tuples: Sequence[tuple[int, int, int, int]],
        *,
        scheduler: str = "greedy",
        policy: AmendPolicy = DEFAULT_POLICY,
    ) -> tuple[AmendStream, bool]:
        """Get-or-create the stream for this pattern; True = created."""
        root = amend_root_digest(topology, tuples, scheduler)
        stream = self._find(root)
        if stream is not None:
            return stream, False
        if self._heads.pop(root, None) is not None:
            # The head's artifact is gone: the only remaining honest
            # answer to an *open* is a fresh epoch-0 lineage.
            self.resets += 1
        t0 = perf.perf_timer()
        stream = AmendStream(
            topology, tuples, scheduler=scheduler, cache=self.cache,
            policy=policy,
        )
        self._admit(stream)
        self.opened += 1
        perf.COUNTERS.amend_seconds += perf.perf_timer() - t0
        return stream, True

    def get(self, root: str) -> AmendStream:
        stream = self._find(root)
        if stream is not None:
            return stream
        if root in self._heads:
            raise ProtocolError(
                f"amend root {root!r} was evicted or replicated here and "
                "its epoch artifact is no longer cached; re-open the stream"
            )
        raise ProtocolError(f"unknown amend root {root!r}")

    def amend(
        self,
        root: str,
        *,
        epoch: int,
        add: Sequence[tuple[int, int, int, int]] = (),
        remove: Sequence[tuple[int, int, int, int]] = (),
    ) -> AmendStream:
        stream = self.get(root)
        try:
            stream.amend(epoch=epoch, add=add, remove=remove)
        except EpochConflict:
            self.conflicts += 1
            raise
        self.amends += 1
        return stream

    def stats(self) -> dict[str, Any]:
        return {
            "streams": len(self._streams),
            "max_streams": self.max_streams,
            "opened": self.opened,
            "amends": self.amends,
            "conflicts": self.conflicts,
            "evictions": self.evictions,
            "resumes": self.resumes,
            "resets": self.resets,
            "takeovers": self.takeovers,
        }
