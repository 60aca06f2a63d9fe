"""Tests for the distributed compile farm (sharding, replication,
failover, and the shard-map-carrying client)."""

import asyncio
import collections
import copy
import random
import sys
import threading
import time

import pytest

from repro.compiler.serialize import artifact_digest
from repro.core import perf
from repro.patterns.classic import ring_pattern
from repro.service.cache import ArtifactCache
from repro.service.canonical import canonicalize
from repro.service.client import AsyncCompileClient
from repro.service.compile import build_canonical_artifact, compile_digest
from repro.service import compile as compile_mod
from repro.service import server, wire
from repro.service.errors import (
    EpochConflict,
    ProtocolError,
    ServiceError,
    ServiceTimeout,
    TransportError,
    WrongShard,
)
from repro.service.farm import (
    AsyncFarmClient,
    ConnectionPool,
    Farm,
    FarmNodeServer,
    HashRing,
    ShardMap,
    ShardRouter,
    route_digest,
    sum_stats,
)
from repro.service.specs import topology_from_spec
from tests.service.farm_helpers import (
    cold_requests,
    hung_endpoint,
    record_opens,
    run,
    with_farm,
    with_members,
)

TORUS4 = {"kind": "torus", "width": 4}
RING16 = {"pattern": "ring", "nodes": 16}


# ----------------------------------------------------------------------
# placement units
# ----------------------------------------------------------------------

class TestHashRing:
    NODES = ["node0", "node1", "node2", "node3"]

    def test_owners_deterministic_and_distinct(self):
        ring = HashRing(self.NODES)
        owners = ring.owners("a" * 64, 2)
        assert owners == ring.owners("a" * 64, 2)
        assert len(owners) == 2 and len(set(owners)) == 2
        assert all(o in self.NODES for o in owners)

    def test_count_clamped_to_ring_size(self):
        ring = HashRing(["only"])
        assert ring.owners("b" * 64, 3) == ["only"]
        assert HashRing([]).owners("c" * 64, 2) == []

    def test_all_nodes_receive_keys(self):
        ring = HashRing(self.NODES)
        primaries = {ring.owners(f"{i:064x}", 1)[0] for i in range(512)}
        assert primaries == set(self.NODES)

    def test_node_loss_moves_only_its_keys(self):
        """Consistent hashing: removing a node must not reshuffle keys
        whose owner survives."""
        full = HashRing(self.NODES)
        smaller = HashRing([n for n in self.NODES if n != "node0"])
        for i in range(256):
            digest = f"{i:064x}"
            before = full.owners(digest, 1)[0]
            after = smaller.owners(digest, 1)[0]
            if before != "node0":
                assert after == before

    def test_order_insensitive(self):
        a = HashRing(["x", "y", "z"])
        b = HashRing(["z", "x", "y"])
        assert a.owners("d" * 64, 2) == b.owners("d" * 64, 2)


class TestShardMap:
    def make(self):
        return ShardMap(
            {"node0": {"host": "127.0.0.1", "port": 1},
             "node1": {"host": "127.0.0.1", "port": 2}},
            replication=2, version=3,
        )

    def test_roundtrip(self):
        m = self.make()
        again = ShardMap.from_dict(m.as_dict())
        assert again.version == 3 and again.replication == 2
        assert again.nodes == m.nodes
        assert again.owners("e" * 64) == m.owners("e" * 64)

    def test_without_bumps_version(self):
        m = self.make()
        smaller = m.without("node0")
        assert smaller.version == 4
        assert set(smaller.nodes) == {"node1"}
        assert m.version == 3  # the old map is untouched

    def test_malformed_rejected(self):
        with pytest.raises(ProtocolError):
            ShardMap.from_dict({"version": 1})


class TestRouteDigest:
    def test_compile_matches_server_digest(self):
        """The route digest must be the digest the node caches under --
        otherwise ownership and storage disagree."""
        async def go(farm):
            async with farm.client() as c:
                reply = await c.compile(TORUS4, pattern=RING16)
            req = {"op": "compile", "topology": TORUS4, "pattern": RING16}
            assert route_digest(req) == reply["digest"]
        run(with_farm(go, nodes=2))

    def test_legacy_kernel_field_routes_with_the_node(self):
        """A request carrying the retired ``kernel`` field shards on the
        digest the owning node caches under: the router forwards it
        straight to an owner (no ``wrong_shard`` redirect) and a request
        without the field hits the entry it stored."""
        async def go(farm):
            req = {"op": "compile", "topology": TORUS4, "pattern": RING16}
            async with AsyncCompileClient(*farm.router_address) as c:
                legacy = await c.request({**req, "kernel": "set"})
                plain = await c.request(dict(req))
            assert route_digest({**req, "kernel": "set"}) == legacy["digest"]
            assert legacy["cache"] == "miss" and plain["cache"] == "hit"
            assert plain["digest"] == legacy["digest"]
            assert plain["schedule"] == legacy["schedule"]
            assert sum(node.wrong_shard for node in farm.nodes.values()) == 0
        run(with_farm(go, nodes=3, replication=2))

    def test_amend_routes_on_root(self):
        assert route_digest({"op": "amend", "root": "r" * 64}) == "r" * 64

    def test_non_shardable_ops(self):
        assert route_digest({"op": "ping"}) is None
        with pytest.raises(ProtocolError):
            route_digest({"op": "compile"})  # no topology


class TestSumStats:
    def test_numeric_leaves_summed_flags_skipped(self):
        total = sum_stats([
            {"requests": 2, "cache": {"hits": 1}, "name": "a", "ready": True},
            {"requests": 3, "cache": {"hits": 4, "misses": 1}, "name": "b"},
        ])
        assert total == {"requests": 5, "cache": {"hits": 5, "misses": 1}}


# ----------------------------------------------------------------------
# sharded serving
# ----------------------------------------------------------------------

class TestSharding:
    def test_non_owner_refuses_with_wrong_shard(self):
        async def go(farm):
            req = {"op": "compile", "topology": TORUS4, "pattern": RING16}
            digest = route_digest(req)
            owners = farm.router.shard_map.owners(digest)
            outsider = next(
                n for n in farm.nodes if n not in owners
            )
            host, port = farm.nodes[outsider].address
            async with AsyncCompileClient(host, port, retry=None) as c:
                with pytest.raises(WrongShard) as excinfo:
                    await c.request(dict(req))
            assert excinfo.value.owners == owners
            assert excinfo.value.shard_map["version"] == 1
            assert farm.nodes[outsider].wrong_shard == 1
        run(with_farm(go, nodes=3, replication=2))

    def test_cold_compile_replicates_to_all_owners(self):
        async def go(farm):
            async with farm.client() as c:
                reply = await c.compile(TORUS4, pattern=RING16)
            digest = reply["digest"]
            owners = farm.router.shard_map.owners(digest)
            assert len(owners) == 2
            # replication is fire-and-forget: wait for the push tasks.
            await farm.settle()
            for name in owners:
                assert digest in farm.nodes[name].cache
            pushed = sum(n.replicas_pushed for n in farm.nodes.values())
            received = sum(n.replicas_received for n in farm.nodes.values())
            assert pushed == 1 and received == 1
        run(with_farm(go, nodes=3, replication=2))

    def test_read_repair_adopts_peer_replica(self):
        async def go(farm):
            req = {"op": "compile", "topology": TORUS4, "pattern": RING16}
            digest = route_digest(req)
            first, second = farm.router.shard_map.owners(digest)
            # Seed via the *second* owner (ownership allows any owner
            # to serve/compile), let replication settle, then wipe the
            # first owner's copy to stage the lost-replica state.
            h2, p2 = farm.nodes[second].address
            async with AsyncCompileClient(h2, p2, retry=None) as c:
                seeded = await c.request(dict(req))
            assert seeded["cache"] == "miss"
            await farm.settle()
            farm.nodes[first].cache._memory.clear()
            # The first owner misses locally and must repair from its
            # peer instead of recompiling.
            h1, p1 = farm.nodes[first].address
            async with AsyncCompileClient(h1, p1, retry=None) as c:
                repaired = await c.request(dict(req))
            assert repaired["cache"] == "hit"
            assert repaired["schedule"] == seeded["schedule"]
            assert farm.nodes[first].read_repairs == 1
            assert digest in farm.nodes[first].cache
        run(with_farm(go, nodes=3, replication=2))


    def test_one_counted_cache_lookup_per_served_request(self):
        """A miss and a warm read are one miss and one hit, summed over
        the farm: read repair, replication and peer fetches read the
        cache without counting."""
        async def go(farm):
            async with farm.client() as c:
                assert (await c.compile(TORUS4, pattern=RING16))["cache"] == "miss"
                await farm.settle()
                assert (await c.compile(TORUS4, pattern=RING16))["cache"] == "hit"
            stats = [n.cache.stats for n in farm.nodes.values()]
            assert sum(s.hits for s in stats) == 1
            assert sum(s.misses for s in stats) == 1
            assert sum(s.stores for s in stats) == 2  # compile + one replica
        run(with_farm(go, nodes=3, replication=2))


# ----------------------------------------------------------------------
# failover
# ----------------------------------------------------------------------

class TestFailover:
    def test_router_demotes_dead_node_and_retries(self):
        async def go(farm):
            req = {"op": "compile", "topology": TORUS4, "pattern": RING16}
            digest = route_digest(req)
            primary = farm.router.shard_map.owners(digest)[0]
            await farm.kill_node(primary)
            # Router-only client: the router must detect the dead
            # primary, demote it, and answer from a surviving owner.
            async with AsyncCompileClient(*farm.router_address) as c:
                reply = await c.request(dict(req))
            assert reply["ok"] and reply["digest"] == digest
            assert farm.router.failovers == 1
            assert primary not in farm.router.shard_map.nodes
            assert farm.router.shard_map.version == 2
            # Survivors adopted the new map via the reshard push.
            for node in farm.nodes.values():
                assert node.shard_map.version == 2
        run(with_farm(go, nodes=3, replication=2))

    def test_failover_is_not_held_up_by_a_hung_member(self):
        """The demote's map push reaches every member at once, each push
        bounded by one beat: a member that never answers delays the
        failover by one beat, not by ``node_timeout``."""
        async def go(farm):
            router = farm.router
            async with hung_endpoint() as hung:
                smap = router.shard_map = with_members(
                    router.shard_map, last={"hung0": hung}
                )
                # A request owned by real nodes before and after its
                # primary's demotion: only the push can meet the hang.
                for i in range(16):
                    req = {"op": "compile", "topology": TORUS4,
                           "pairs": [[i, (i + 5) % 16]]}
                    primary = smap.owners(route_digest(req))[0]
                    after = smap.without(primary).owners(route_digest(req))
                    if "hung0" not in (primary, after[0]):
                        break
                assert "hung0" not in (primary, after[0])
                await farm.kill_node(primary)
                t0 = asyncio.get_running_loop().time()
                async with AsyncCompileClient(*farm.router_address) as c:
                    reply = await asyncio.wait_for(c.request(req), 2.0)
                assert reply["ok"]
                assert asyncio.get_running_loop().time() - t0 < 2.0
        run(with_farm(go, nodes=3, replication=2))

    def test_farm_client_falls_back_and_refreshes_map(self):
        async def go(farm):
            async with farm.client() as c:
                assert c.shard_map is not None and c.shard_map.version == 1
                victim = sorted(farm.nodes)[0]
                await farm.kill_node(victim)
                # Drive requests until one would have hit the dead node;
                # each must still succeed (direct or via router).
                for i in range(6):
                    reply = await c.compile(
                        TORUS4, pairs=[[i, (i + 5) % 16], [(i + 1) % 16, i]]
                    )
                    assert reply["ok"]
                if farm.router.failovers:
                    assert c.shard_map.version >= 2
        run(with_farm(go, nodes=3, replication=2))

    def test_stale_client_map_redirected_by_wrong_shard(self):
        async def go(farm):
            # A client whose map disagrees on placement (vnodes=1 ring,
            # version 0) aims at wrong nodes; WrongShard replies must
            # teach it the real map in-line.
            bad_map = ShardMap(
                farm.router.shard_map.nodes, replication=1, version=0,
                vnodes=1,
            )
            client = AsyncFarmClient([farm.router_address], shard_map=bad_map)
            try:
                for i in range(8):
                    reply = await client.compile(
                        TORUS4, pairs=[[i, (i + 3) % 16]]
                    )
                    assert reply["ok"]
                assert client.shard_map.version == 1
            finally:
                await client.close()
        run(with_farm(go, nodes=3, replication=2))


# ----------------------------------------------------------------------
# throughput scaling
# ----------------------------------------------------------------------

class TestThroughputScaling:
    def test_four_nodes_at_least_1_8x_faster_than_one(self, monkeypatch):
        """Digest sharding spreads cold compiles over the nodes' worker
        pools.  A test fake adds a fixed 0.2 s to every cold compile in
        the worker, so the elapsed time measures the farm's request-level
        parallelism, not this host's core count."""
        real = server._worker_compile
        lock = threading.Lock()
        inflight = {"now": 0, "peak": 0}

        def costly_compile(task):
            with lock:
                inflight["now"] += 1
                inflight["peak"] = max(inflight["peak"], inflight["now"])
            try:
                time.sleep(0.2)
                return real(task)
            finally:
                with lock:
                    inflight["now"] -= 1

        monkeypatch.setattr(server, "_worker_compile", costly_compile)
        # 8 distinct seeded 8-pair patterns on the 4x4 torus: all cold
        rng = random.Random(0)
        patterns = []
        for _ in range(8):
            rows = []
            for _ in range(8):
                src, dst = rng.randrange(16), rng.randrange(15)
                rows.append([src, dst + (dst >= src)])
            patterns.append(rows)

        async def go(farm):
            clients = [farm.client() for _ in patterns]
            for client in clients:
                await client.connect()
            try:
                t0 = time.perf_counter()
                replies = await asyncio.gather(
                    *(c.compile(TORUS4, pairs=p)
                      for c, p in zip(clients, patterns)),
                    return_exceptions=True,
                )
                elapsed = time.perf_counter() - t0
            finally:
                for client in clients:
                    await client.close()
            return elapsed, replies

        elapsed = {}
        for nodes in (1, 4):
            inflight["peak"] = 0
            elapsed[nodes], replies = run(
                with_farm(go, nodes=nodes, replication=2)
            )
            failures = [r for r in replies if isinstance(r, BaseException)]
            assert not failures
            assert [r["cache"] for r in replies] == ["miss"] * len(patterns)
        assert inflight["peak"] >= 2  # the 4-node farm overlapped compiles
        assert elapsed[4] <= elapsed[1] / 1.8, elapsed


# ----------------------------------------------------------------------
# aggregated stats (the router's stats verb)
# ----------------------------------------------------------------------

class TestAggregatedStats:
    def test_per_node_breakdown_plus_totals(self):
        async def go(farm):
            async with farm.client() as c:
                await c.compile(TORUS4, pattern=RING16)
                await c.compile(TORUS4, pattern=RING16)  # warm hit
                stats = await c.stats()
            assert set(stats["nodes"]) == set(farm.nodes)
            for doc in stats["nodes"].values():
                assert "counters" in doc and "farm" in doc
            totals = stats["farm"]
            assert totals["requests"] == sum(
                doc["requests"] for doc in stats["nodes"].values()
            )
            assert totals["cache"]["hits"] >= 1
            router = stats["router"]
            assert router["live_nodes"] == 3
            assert stats["down"] == []
        run(with_farm(go, nodes=3, replication=2))

    def test_process_counters_counted_once(self):
        """Every node of an in-process farm reports the same process
        counters: the farm totals must add them once, not per node."""
        async def go(farm):
            before = perf.snapshot()
            requests = cold_requests(5)
            async with farm.client() as c:
                for _ in range(2):  # five misses, then five hits
                    for req in requests:
                        await c.request(dict(req))
                stats = await c.stats()
            cache = [doc["cache"] for doc in stats["nodes"].values()]
            assert sum(doc["hits"] for doc in cache) == 5
            assert sum(doc["misses"] for doc in cache) == 5
            counters = stats["farm"]["counters"]
            assert "pid" not in stats["farm"]
            for field in ("hits", "misses"):
                key = f"artifact_cache_{field}"
                assert counters[key] - before[key] == sum(
                    doc[field] for doc in cache
                )
        run(with_farm(go, nodes=3, replication=2))

    def test_dead_node_reported_down(self):
        async def go(farm):
            await farm.kill_node("node1")
            async with AsyncCompileClient(*farm.router_address) as c:
                stats = await c.request({"op": "stats"})
            assert stats["down"] == ["node1"]
            assert "node1" not in stats["nodes"]
        run(with_farm(go, nodes=3))


# ----------------------------------------------------------------------
# amends through the farm (satellite: concurrency safety)
# ----------------------------------------------------------------------

class TestFarmAmend:
    PAIRS = [[i, (i + 1) % 16] for i in range(16)]

    def test_amend_pinned_to_primary(self):
        async def go(farm):
            async with farm.client() as c:
                opened = await c.amend(TORUS4, pairs=self.PAIRS)
                root = opened["root"]
                primary = farm.router.shard_map.owners(root)[0]
                assert len(farm.nodes[primary].amends) == 1
                bumped = await c.amend(root=root, epoch=0, add=[[0, 5]])
                assert bumped["epoch"] == 1
        run(with_farm(go, nodes=3, replication=2))

    def test_concurrent_amends_surface_epoch_conflict(self):
        """Two writers racing on one epoch: exactly one wins, the loser
        gets a typed EpochConflict, and the stream stays consistent --
        regardless of which node owns the stream."""
        async def go(farm):
            async with farm.client() as opener:
                opened = await opener.amend(TORUS4, pairs=self.PAIRS)
                root = opened["root"]

            async def racer(i):
                async with farm.client() as c:
                    return await c.amend(
                        root=root, epoch=0, add=[[i, (i + 7) % 16]]
                    )

            results = await asyncio.gather(
                *(racer(i) for i in range(4)), return_exceptions=True
            )
            wins = [r for r in results if isinstance(r, dict)]
            losses = [r for r in results if isinstance(r, EpochConflict)]
            assert len(wins) == 1 and wins[0]["epoch"] == 1
            assert len(losses) == 3
            assert all(exc.current_epoch == 1 for exc in losses)
            # No corruption: the stream advances cleanly from epoch 1.
            async with farm.client() as c:
                after = await c.amend(root=root, epoch=1, add=[[3, 9]])
                assert after["epoch"] == 2
        run(with_farm(go, nodes=3, replication=2))

    def test_amend_epoch_conflicts_never_retried(self):
        async def go(farm):
            async with farm.client() as c:
                opened = await c.amend(TORUS4, pairs=self.PAIRS)
                await c.amend(root=opened["root"], epoch=0, add=[[0, 5]])
                with pytest.raises(EpochConflict):
                    await c.amend(root=opened["root"], epoch=0, add=[[1, 6]])
                primary = farm.router.shard_map.owners(opened["root"])[0]
                assert farm.nodes[primary].amends.conflicts == 1
        run(with_farm(go, nodes=3, replication=2))


# ----------------------------------------------------------------------
# byte-transparency of the router hop
# ----------------------------------------------------------------------

TORUS4_POSITIVE = {"kind": "torus", "width": 4, "tie_break": "positive"}


def _ring_artifact(spec=TORUS4):
    """A valid canonical ring-16 artifact for ``spec`` and its digest."""
    topology = topology_from_spec(spec)
    canonical = canonicalize(topology, ring_pattern(16))
    doc = build_canonical_artifact(topology, canonical.requests)
    return doc, compile_digest(topology, canonical, "combined")


def _store(doc, digest=None, spec=TORUS4):
    """A hash-clean ``store`` push (``spec=None`` sends none)."""
    msg = {
        "op": "store", "digest": digest or artifact_digest(doc),
        "artifact": doc, "payload_sha256": artifact_digest(doc),
    }
    if spec is not None:
        msg["topology_spec"] = spec
    return msg


class TestStoreVerification:
    def test_store_without_a_spec_is_refused(self):
        doc, digest = _ring_artifact()

        async def go(farm):
            node = next(iter(farm.nodes.values()))
            async with AsyncCompileClient(*node.address, retry=None) as c:
                with pytest.raises(ProtocolError, match="topology_spec"):
                    await c.request(_store(doc, digest, spec=None))
            assert node.cache.peek(digest) is None
            assert node.replicas_refused == 1 and node.replicas_received == 0
        run(with_farm(go, nodes=1))

    def test_warm_memo_still_refuses_lying_stores(self):
        """An honest store warms the node's topologies and routes; a
        conflicting, degree-lying or foreign-signature artifact is
        still refused and never cached."""
        doc, digest = _ring_artifact()
        positive, positive_digest = _ring_artifact(TORUS4_POSITIVE)
        reuses_links = copy.deepcopy(doc)
        slot = reuses_links["schedule"]["slots"][0]
        slot.append(dict(slot[0]))  # a second circuit on every link of slot[0]
        lies_degree = copy.deepcopy(doc)
        lies_degree["schedule"]["degree"] += 1
        bad = [
            (reuses_links, TORUS4, "not conflict-free"),
            (lies_degree, TORUS4, "declared degree"),
            (doc, TORUS4_POSITIVE, "artifact built for"),
        ]

        async def go(farm):
            node = next(iter(farm.nodes.values()))
            async with AsyncCompileClient(*node.address, retry=None) as c:
                await c.request(_store(doc, digest))
                await c.request(
                    _store(positive, positive_digest, spec=TORUS4_POSITIVE)
                )
                assert len(node._topologies) == 2
                for artifact, spec, why in bad:
                    with pytest.raises(ProtocolError, match=why):
                        await c.request(_store(artifact, spec=spec))
                    assert node.cache.peek(artifact_digest(artifact)) is None
            assert node.replicas_refused == len(bad)
            assert node.replicas_received == 2
        run(with_farm(go, nodes=1))

    def test_every_store_verified_once_on_warm_routes(self, monkeypatch):
        verified = []
        real = compile_mod.verify_artifact

        def spy(topology, doc):
            verified.append(topology)
            return real(topology, doc)

        monkeypatch.setattr(compile_mod, "verify_artifact", spy)
        doc, digest = _ring_artifact()

        async def go(farm):
            node = next(iter(farm.nodes.values()))
            async with AsyncCompileClient(*node.address, retry=None) as c:
                await c.request(_store(doc, digest))
                misses = perf.COUNTERS.route_cache_misses
                hits = perf.COUNTERS.route_cache_hits
                await c.request(_store(doc, digest))
                assert perf.COUNTERS.route_cache_misses == misses
                assert perf.COUNTERS.route_cache_hits > hits
            assert node.replicas_received == 2
            (memoised,) = node._topologies.values()
            return memoised

        memoised = run(with_farm(go, nodes=1))
        assert len(verified) == 2
        assert verified[0] is verified[1] is memoised

    def test_refused_store_counted_in_router_stats(self):
        doc, digest = _ring_artifact()

        async def go(farm):
            name, node = next(iter(farm.nodes.items()))
            async with AsyncCompileClient(*node.address, retry=None) as c:
                with pytest.raises(ProtocolError):
                    await c.request(_store(doc, digest, spec=TORUS4_POSITIVE))
            async with AsyncCompileClient(*farm.router_address) as c:
                stats = await c.request({"op": "stats"})
            assert stats["replication"]["refused"] == 1
            assert stats["nodes"][name]["farm"]["replicas_refused"] == 1
        run(with_farm(go, nodes=3, replication=2))

    def test_store_refuses_a_register_image_of_another_schedule(self):
        topology = topology_from_spec(TORUS4)
        canonical = canonicalize(topology, ring_pattern(16))
        doc = build_canonical_artifact(topology, canonical.requests)
        words = doc["registers"]["words"]
        words["0"], words["1"] = words["1"], words["0"]  # well formed, wrong
        digest = compile_digest(topology, canonical, "combined")

        async def go(farm):
            node = next(iter(farm.nodes.values()))
            async with AsyncCompileClient(*node.address, retry=None) as c:
                with pytest.raises(ProtocolError, match="semantic"):
                    await c.request({
                        "op": "store", "digest": digest, "artifact": doc,
                        "payload_sha256": artifact_digest(doc),
                        "topology_spec": TORUS4,
                    })
            assert node.cache.peek(digest) is None
        run(with_farm(go, nodes=1))


async def _cold_compiles(node, count, seed=7):
    """``count`` distinct random 4x4 patterns compiled on ``node``."""
    rng = random.Random(seed)
    pairs = [(s, d) for s in range(16) for d in range(16) if s != d]
    digests = []
    async with AsyncCompileClient(*node.address, retry=None) as c:
        for _ in range(count):
            reply = await c.compile(TORUS4, pairs=rng.sample(pairs, 6))
            assert reply["cache"] == "miss"
            digests.append(reply["digest"])
    assert len(set(digests)) == count
    return digests


class TestSpecIndex:
    """``FarmNodeServer._specs`` tracks the cache, not the node's uptime."""

    def test_memory_only_index_stays_bounded(self):
        async def go(farm):
            node = next(iter(farm.nodes.values()))
            node.cache.memory_entries = 8
            await _cold_compiles(node, 40)
            assert len(node._specs) <= 16
            held = node.cache.digests()
            assert len(held) == 8
            assert all(node._specs[d] == TORUS4 for d in held)
        run(with_farm(go, nodes=1))

    def test_disk_resident_digest_keeps_its_spec(self, tmp_path):
        async def go(farm):
            node = next(iter(farm.nodes.values()))
            node.cache.memory_entries = 2
            digests = await _cold_compiles(node, 12)
            assert digests[0] not in node.cache._memory
            assert node.cache.digests() == set(digests)
            assert all(node._specs[d] == TORUS4 for d in digests)
        run(with_farm(go, nodes=1, cache_dir=tmp_path))


class TestRouterTransparency:
    def test_idem_and_payload_hash_survive_the_hop(self):
        """The client's end-to-end integrity checks must hold across
        client -> router -> node, which only works if the router relays
        raw bytes (AsyncCompileClient verifies both fields itself and
        raises TransportError on any mismatch)."""
        async def go(farm):
            async with AsyncCompileClient(*farm.router_address) as c:
                reply = await c.compile(
                    TORUS4, pattern=RING16, registers=True
                )
            assert reply["ok"] and "payload_sha256" in reply
            assert "idem" in reply  # echoed by the node, relayed verbatim
        run(with_farm(go, nodes=3, replication=2))

    def test_router_answers_shardmap_and_ping(self):
        async def go(farm):
            async with AsyncCompileClient(*farm.router_address) as c:
                assert (await c.ping())["ok"]
                reply = await c.request({"op": "shardmap"})
                m = ShardMap.from_dict(reply["shard_map"])
                assert set(m.nodes) == set(farm.nodes)
        run(with_farm(go, nodes=2))


# ----------------------------------------------------------------------
# connections: one pool for every farm hop
# ----------------------------------------------------------------------

DIGESTS = wire.encode({"op": "digests"})


def idle_count(pool):
    return sum(len(conns) for conns in pool.idle.values())


class TestConnectionPool:
    def test_cold_compiles_reuse_peer_connections(self, monkeypatch):
        """Sequential cold compiles send one fetch and one push per
        compile, yet each ordered node pair opens at most two
        connections (a push can still be in flight when the next
        compile's fetch goes out).  Every open is attributed to the
        farm node or router whose call is on the stack."""
        async def go(farm):
            port_of = {port: name for name, (_, port) in farm.endpoints.items()}
            opens = collections.Counter()
            real = asyncio.open_connection

            async def counting(host, port, **kwargs):
                frame, opener = sys._getframe(1), "client"
                while frame is not None:
                    owner = frame.f_locals.get("self")
                    if isinstance(owner, (FarmNodeServer, ShardRouter)):
                        opener = owner.name
                        break
                    frame = frame.f_back
                opens[opener, port_of.get(port, port)] += 1
                return await real(host, port, **kwargs)

            monkeypatch.setattr(asyncio, "open_connection", counting)
            router = farm.router
            router_before = router.node_connects  # the start-up lease round
            assert all(n.peer_connects == 0 for n in farm.nodes.values())
            misses = 0
            async with farm.client() as c:
                for req in cold_requests(50):
                    misses += (await c.request(req))["cache"] == "miss"
            await farm.settle()
            assert misses >= 45
            nodes = sorted(farm.nodes)
            peer_opens = {
                (a, b): opens[a, b] for a in nodes for b in nodes if a != b
            }
            assert max(peer_opens.values()) <= 2, peer_opens
            for name, node in farm.nodes.items():
                assert node.peer_connects == sum(
                    opens[name, b] for b in nodes
                )
            async with AsyncCompileClient(*farm.router_address) as c:
                stats = await c.stats()
            assert stats["replication"]["peer_connects"] == sum(
                peer_opens.values()
            )
            assert stats["router"]["node_connects"] == router.node_connects
            assert router.node_connects - router_before == sum(
                n for (opener, _), n in opens.items() if opener == router.name
            )
        run(with_farm(go, nodes=3, replication=2))

    def test_concurrent_pushes_use_one_connection_each(self):
        async def go(farm):
            req = {"op": "compile", "topology": TORUS4, "pattern": RING16}
            digest = route_digest(req)
            first, second = farm.router.shard_map.owners(digest)
            node = farm.nodes[first]
            async with AsyncCompileClient(*node.address, retry=None) as c:
                await c.request(dict(req))
            await farm.settle()
            node.pool.close()
            node.pool = ConnectionPool()
            entry = node.cache.encoded(digest)
            store = node._store_frame(digest, entry, node._specs[digest])
            stored = await asyncio.gather(
                node._peer_request(second, store),
                node._peer_request(second, store),
            )
            assert [r["stored"] for r in stored] == [True, True]
            assert node.pool.connects == 2
            # Both connections went back whole: two concurrent fetches
            # reuse them, and each payload decodes against its hash.
            fetch = wire.encode({"op": "fetch", "digest": digest})
            fetched = await asyncio.gather(
                node._peer_request(second, fetch),
                node._peer_request(second, fetch),
            )
            assert [r["artifact"] for r in fetched] == [entry.doc, entry.doc]
            assert node.pool.connects == 2
            assert len(node.pool.idle[farm.endpoints[second]]) == 2
        run(with_farm(go, nodes=3, replication=2))

    def test_hung_peer_connection_is_closed_and_replaced(self, monkeypatch):
        async def go(farm):
            node = farm.nodes["node0"]
            node.peer_timeout = 0.2
            async with hung_endpoint() as hung:
                node.shard_map = with_members(
                    node.shard_map, last={"hung0": hung}
                )
                opened = record_opens(monkeypatch)
                for attempt in (1, 2):
                    with pytest.raises(ServiceTimeout):
                        await node._peer_request("hung0", DIGESTS)
                    assert len(opened) == attempt
                    assert opened[-1][1].is_closing()
                    assert not node.pool.idle.get((hung["host"], hung["port"]))
        run(with_farm(go, nodes=3, replication=2, lease_ttl=60.0))

    def test_partitioned_peer_is_refused_before_the_pool(self):
        async def go(farm):
            node = farm.nodes["node0"]
            await node._peer_request("node1", DIGESTS)
            idle = list(node.pool.idle[farm.endpoints["node1"]])
            connects = node.pool.connects
            farm.partition("node0", "node1")
            with pytest.raises(TransportError, match="partitioned"):
                await node._peer_request("node1", DIGESTS)
            assert node.pool.idle[farm.endpoints["node1"]] == idle
            assert node.pool.connects == connects
            assert not idle[0][1].is_closing()
        run(with_farm(go, nodes=3, replication=2, lease_ttl=60.0))

    def test_peer_leaving_the_map_leaves_no_idle_connection(self):
        async def go(farm):
            node = farm.nodes["node0"]
            await node._peer_request("node1", DIGESTS)
            endpoint = farm.endpoints["node1"]
            writer = node.pool.idle[endpoint][0][1]
            await farm.router._demote("node1")  # pushes the new map
            assert "node1" not in node.shard_map.nodes
            assert endpoint not in node.pool.idle
            assert writer.is_closing()
        run(with_farm(go, nodes=3, replication=2, lease_ttl=60.0))

    def test_farm_shutdown_leaves_no_idle_connection(self):
        async def scenario():
            farm = Farm(3, replication=2, workers=0, routers=2)
            await farm.start()
            owners = [*farm.nodes.values(), *farm.routers.values()]
            try:
                async with farm.client() as c:
                    for req in cold_requests(4):
                        await c.request(req)
                await farm.settle()
                assert sum(idle_count(o.pool) for o in owners) > 0
            finally:
                await farm.shutdown()
            for owner in owners:
                assert owner.pool.closed
                assert idle_count(owner.pool) == 0
        run(scenario())

    def test_kill_and_shutdown_return_with_idle_connections_open(self):
        """An idle client connection and an idle pooled peer connection
        hold up neither a kill nor a shutdown (Python 3.12.1's
        ``Server.wait_closed`` waits for every open connection)."""
        async def go(farm):
            peer = farm.nodes["node2"]
            for victim in ("node0", "node1"):
                node = farm.nodes[victim]
                client = AsyncCompileClient(*node.address, retry=None)
                await client.ping()
                await peer._peer_request(victim, DIGESTS)
                assert peer.pool.idle[farm.endpoints[victim]]
                if victim == "node0":
                    await asyncio.wait_for(farm.kill_node(victim), 1.0)
                else:
                    farm.drained[victim] = farm.nodes.pop(victim)
                    await asyncio.wait_for(node.shutdown(), 1.0)
                with pytest.raises(TransportError):
                    await client.ping()
                await client.close()
        run(with_farm(go, nodes=3, replication=2, lease_ttl=60.0))

    def test_reused_connection_cut_by_its_peer_is_retried_once(self):
        """A pooled connection whose peer went away fails with no reply:
        an idempotent call retries it once on a fresh connection, any
        other call surfaces the failure."""
        async def go():
            conns = []

            async def answer(reader, writer):
                conns.append(writer)
                while await wire.read_frame(reader):
                    writer.write(wire.encode({"ok": True}))
                    await writer.drain()

            listener = await asyncio.start_server(answer, "127.0.0.1", 0)
            endpoint = listener.sockets[0].getsockname()[:2]
            pool = ConnectionPool()
            ping = wire.encode({"op": "ping"})
            try:
                await pool.request(endpoint, ping, timeout=2.0, who="peer")
                # The peer drops the pooled connection; this side has not
                # seen the close yet when the next call takes it.
                conns[0].transport.abort()
                reply = await pool.request(
                    endpoint, ping, timeout=2.0, who="peer", retry=True
                )
                assert reply["ok"] and pool.connects == 2
                conns[1].transport.abort()
                with pytest.raises(TransportError):
                    await pool.request(endpoint, ping, timeout=2.0, who="peer")
                assert pool.connects == 2
            finally:
                pool.close()
                listener.close()
                for writer in conns:
                    writer.close()
                await listener.wait_closed()
        run(go())


class TestReadTimeouts:
    """Each reply reader bounds its read with ``asyncio.timeout``: a read
    that times out raises ``ServiceTimeout`` and drops its connection."""

    def test_async_client(self):
        async def go():
            async with hung_endpoint() as hung:
                client = AsyncCompileClient(
                    hung["host"], hung["port"], timeout=0.2, retry=None
                )
                await client.connect()
                writer = client._writer
                with pytest.raises(ServiceTimeout):
                    await client.ping()
                assert client._writer is None and writer.is_closing()
        run(go())

    def test_router(self, monkeypatch):
        async def go(farm):
            router = farm.router
            async with hung_endpoint() as hung:
                router.shard_map = with_members(
                    router.shard_map, last={"hung0": hung}
                )
                opened = record_opens(monkeypatch)
                with pytest.raises(ServiceTimeout):
                    await router._node_request_raw(
                        "hung0", wire.encode({"op": "ping"}), 0.2
                    )
                assert [port for port, _ in opened] == [hung["port"]]
                assert opened[0][1].is_closing()
                assert not router.pool.idle.get((hung["host"], hung["port"]))
        run(with_farm(go, nodes=3, replication=2, lease_ttl=60.0))

    def test_peer_call(self, monkeypatch):
        async def go(farm):
            node = farm.nodes["node1"]
            node.peer_timeout = 0.2
            async with hung_endpoint() as hung:
                node.shard_map = with_members(
                    node.shard_map, last={"hung0": hung}
                )
                opened = record_opens(monkeypatch)
                with pytest.raises(ServiceTimeout):
                    await node._peer_request(
                        "hung0", wire.encode({"op": "fetch", "digest": "0" * 64})
                    )
                assert opened[0][1].is_closing()
                assert not node.pool.idle.get((hung["host"], hung["port"]))
        run(with_farm(go, nodes=3, replication=2, lease_ttl=60.0))
