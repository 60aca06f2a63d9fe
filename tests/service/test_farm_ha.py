"""Tests for the farm's self-healing layer: heartbeat membership,
anti-entropy repair, amend-stream failover, and chaos partitions."""

import asyncio
import logging

import pytest

from repro.service.amend import amend_epoch_digest, parse_rows
from repro.service.client import AsyncCompileClient
from repro.service.errors import EpochConflict, WrongShard
from repro.service.farm import Farm, ShardMap, route_digest
from tests.service.farm_helpers import cold_requests, run, with_farm

TORUS4 = {"kind": "torus", "width": 4}
RING16 = {"pattern": "ring", "nodes": 16}


# ----------------------------------------------------------------------
# membership: with_node, reshard races
# ----------------------------------------------------------------------

class TestShardMapWithNode:
    def test_with_node_bumps_version_and_readmits(self):
        base = ShardMap(
            {"node0": {"host": "127.0.0.1", "port": 1},
             "node1": {"host": "127.0.0.1", "port": 2}},
            replication=2, version=4,
        )
        smaller = base.without("node1")
        back = smaller.with_node("node1", {"host": "127.0.0.1", "port": 2})
        assert back.version == 6
        assert set(back.nodes) == {"node0", "node1"}
        # Same membership => same placement as the original ring.
        assert back.owners("a" * 64) == base.owners("a" * 64)


class TestReshardRace:
    """Adopt-if-newer must converge on v+1 whichever order v and v+1
    arrive, including when they arrive concurrently."""

    def maps(self, farm):
        base = farm.router.shard_map  # version 1
        v2 = base.without("node2")
        v3 = v2.with_node(
            "node2",
            {"host": farm.endpoints["node2"][0],
             "port": farm.endpoints["node2"][1]},
        )
        assert v2.version == 2 and v3.version == 3
        return v2, v3

    def test_newer_then_stale(self):
        async def go(farm):
            v2, v3 = self.maps(farm)
            node = farm.nodes["node0"]
            async with AsyncCompileClient(*node.address, retry=None) as c:
                first = await c.request(
                    {"op": "reshard", "shard_map": v3.as_dict()}
                )
                second = await c.request(
                    {"op": "reshard", "shard_map": v2.as_dict()}
                )
            assert first["adopted"] is True and first["version"] == 3
            assert second["adopted"] is False and second["version"] == 3
            assert node.shard_map.version == 3
        run(with_farm(go, nodes=3, replication=2))

    def test_stale_then_newer(self):
        async def go(farm):
            v2, v3 = self.maps(farm)
            node = farm.nodes["node0"]
            async with AsyncCompileClient(*node.address, retry=None) as c:
                first = await c.request(
                    {"op": "reshard", "shard_map": v2.as_dict()}
                )
                second = await c.request(
                    {"op": "reshard", "shard_map": v3.as_dict()}
                )
            assert first["adopted"] is True and first["version"] == 2
            assert second["adopted"] is True and second["version"] == 3
            assert node.shard_map.version == 3
        run(with_farm(go, nodes=3, replication=2))

    def test_concurrent_pushes_converge(self):
        async def go(farm):
            v2, v3 = self.maps(farm)
            node = farm.nodes["node0"]

            async def push(m):
                async with AsyncCompileClient(*node.address, retry=None) as c:
                    return await c.request(
                        {"op": "reshard", "shard_map": m.as_dict()}
                    )

            await asyncio.gather(push(v2), push(v3))
            assert node.shard_map.version == 3
        run(with_farm(go, nodes=3, replication=2))


# ----------------------------------------------------------------------
# replica push retry + failure surfacing (satellite)
# ----------------------------------------------------------------------

class TestPushRetry:
    def test_partitioned_push_retries_then_fails_and_is_surfaced(self):
        async def go(farm):
            req = {"op": "compile", "topology": TORUS4, "pattern": RING16}
            digest = route_digest(req)
            first, second = farm.router.shard_map.owners(digest)
            for node in farm.nodes.values():
                node.push_retry_delay = 0.01
            farm.partition(first, second)
            async with AsyncCompileClient(
                *farm.nodes[first].address, retry=None
            ) as c:
                reply = await c.request(dict(req))
            assert reply["cache"] == "miss"
            await farm.settle()
            node = farm.nodes[first]
            assert node.replica_push_retries == 1
            assert node.replica_push_failures == 1
            assert digest not in farm.nodes[second].cache
            # Surfaced in the router's aggregated stats.
            async with AsyncCompileClient(*farm.router_address) as c:
                stats = await c.request({"op": "stats"})
            repl = stats["replication"]
            assert repl["push_retries"] == 1
            assert repl["push_failures"] == 1
            # Heal + one repair sweep on the starved owner closes R.
            farm.heal()
            async with AsyncCompileClient(
                *farm.nodes[second].address, retry=None
            ) as c:
                swept = await c.request({"op": "repair"})
            assert swept["repaired"] >= 1
            assert digest in farm.nodes[second].cache
        run(with_farm(go, nodes=3, replication=2))


# ----------------------------------------------------------------------
# router connection hygiene on membership change (satellite)
# ----------------------------------------------------------------------

class TestDemotePoolCleanup:
    def test_adopt_map_closes_removed_nodes_pool(self):
        async def go(farm):
            router = farm.router
            endpoint = router.shard_map.endpoint("node1")
            await router._node_call("node1", {"op": "ping"})
            assert router.pool.idle.get(endpoint)
            writer = router.pool.idle[endpoint][0][1]
            await router._demote("node1")
            assert endpoint not in router.pool.idle
            assert writer.is_closing()
            # The departed node's endpoint is remembered for rejoin.
            assert "node1" in router._departed
        run(with_farm(go, nodes=3, replication=2))

    def test_skew_adoption_also_retires_pools(self):
        async def go(farm):
            router = farm.router
            endpoint = router.shard_map.endpoint("node2")
            await router._node_call("node2", {"op": "ping"})
            writer = router.pool.idle[endpoint][0][1]
            newer = router.shard_map.without("node2")
            router._adopt_map(newer)
            assert endpoint not in router.pool.idle
            assert writer.is_closing()
        run(with_farm(go, nodes=3, replication=2))


class TestPeerRestart:
    def test_restarted_peer_is_reached_on_a_fresh_connection(self):
        """A peer killed and restarted on its address leaves this node's
        pooled connections to it dead: the first fetch and the first
        push after the restart succeed on one fresh connection, with no
        push retry, push failure or read-repair failure."""
        async def go(farm):
            first, second = "node0", "node1"
            reqs = cold_requests(
                2, shard_map=farm.router.shard_map, owners=(first, second)
            )
            node = farm.nodes[first]
            endpoint = farm.endpoints[second]
            async with AsyncCompileClient(*node.address, retry=None) as c:
                assert (await c.request(reqs[0]))["cache"] == "miss"
                await farm.settle()
                stale = list(node.pool.idle[endpoint])
                assert stale and node.replicas_pushed == 1
                counters = (node.replica_push_retries,
                            node.replica_push_failures,
                            node.read_repair_failures)
                connects = node.peer_connects
                await farm.kill_node(second)
                await farm.restart_node(second)
                # A miss: the fetch finds nothing, the push lands.
                assert (await c.request(reqs[1]))["cache"] == "miss"
                await farm.settle()
            assert (node.replica_push_retries, node.replica_push_failures,
                    node.read_repair_failures) == counters
            assert node.replicas_pushed == 2
            assert node.peer_connects == connects + 1
            assert all(writer.is_closing() for _, writer in stale)
            assert route_digest(reqs[1]) in farm.nodes[second].cache
        run(with_farm(go, nodes=3, replication=2, lease_ttl=60.0))

    def test_router_skips_connections_the_restart_closed(self):
        """The router never retries, so its first call to a restarted
        node must not take a pooled connection the old process closed."""
        async def go(farm):
            router = farm.router
            await router._node_call("node1", {"op": "ping"})
            stale = list(router.pool.idle[farm.endpoints["node1"]])
            assert stale
            await farm.kill_node("node1")
            await farm.restart_node("node1")
            await asyncio.sleep(0.05)  # the old process's close arrives
            assert (await router._node_call("node1", {"op": "ping"}))["ok"]
            assert all(writer.is_closing() for _, writer in stale)
        run(with_farm(go, nodes=3, replication=2, lease_ttl=60.0))


# ----------------------------------------------------------------------
# the heartbeat: suspect -> dead -> rejoin
# ----------------------------------------------------------------------

class TestProbeMembership:
    def test_probe_demotes_after_suspect_threshold(self):
        async def go(farm):
            await farm.kill_node("node1")
            state = await farm.router.heartbeat()
            # One missed beat: suspect, not yet dead.
            assert state["suspect"].get("node1") == 1
            assert "node1" in farm.router.shard_map.nodes
            await farm.router.heartbeat()
            assert "node1" not in farm.router.shard_map.nodes
            assert farm.router.beat_demotions == 1
            assert farm.router.shard_map.version == 2
            # Survivors were pushed the demoted map.
            for node in farm.nodes.values():
                assert node.shard_map.version == 2
        run(with_farm(go, nodes=3, replication=2, lease_ttl=60.0))

    def test_alive_node_recovers_from_suspicion(self):
        async def go(farm):
            router = farm.router
            router._suspect["node0"] = 1  # one historic dropped probe
            await router.heartbeat()
            assert router._suspect == {}
            assert "node0" in router.shard_map.nodes
        run(with_farm(go, nodes=3, replication=2, lease_ttl=60.0))

    def test_restarted_node_rejoins_and_repairs(self):
        async def go(farm):
            # Seed an artifact and let replication land.
            async with farm.client() as c:
                reply = await c.compile(TORUS4, pattern=RING16)
            digest = reply["digest"]
            await farm.settle()
            victim = farm.router.shard_map.owners(digest)[0]
            await farm.kill_node(victim)
            for _ in range(2):
                await farm.router.heartbeat()
            assert victim not in farm.router.shard_map.nodes

            # Fresh process, empty cache, stale map: one heartbeat
            # must rejoin it and its targeted repair must restore the
            # artifact it owns, without any client traffic.
            await farm.restart_node(victim)
            assert digest not in farm.nodes[victim].cache
            await farm.router.heartbeat()
            assert victim in farm.router.shard_map.nodes
            assert farm.router.rejoins == 1
            assert farm.router.shard_map.version == 3
            # All three nodes (rejoiner included) adopted the map.
            for node in farm.nodes.values():
                assert node.shard_map.version == 3
            assert digest in farm.nodes[victim].cache
            assert farm.nodes[victim].replicas_repaired >= 1

            # And it serves its owned digest directly: no router hop.
            req = {"op": "compile", "topology": TORUS4, "pattern": RING16}
            async with AsyncCompileClient(
                *farm.nodes[victim].address, retry=None
            ) as c:
                served = await c.request(dict(req))
            assert served["cache"] == "hit"
            assert served["digest"] == digest
        run(with_farm(go, nodes=3, replication=2, lease_ttl=60.0))

    def test_membership_events_are_logged(self, caplog):
        async def go(farm):
            await farm.kill_node("node1")
            for _ in range(2):
                await farm.router.heartbeat()
            await farm.restart_node("node1")
            await farm.router.heartbeat()

        caplog.set_level(logging.INFO, logger="repro.service.farm")
        run(with_farm(go, nodes=3, replication=2, lease_ttl=60.0))
        events = [
            (r.event, r.router, r.cause, r.token) for r in caplog.records
            if r.name == "repro.service.farm" and "node1" in r.nodes
        ]
        assert events == [
            ("demote", "router0", "heartbeat", (1, 2)),
            ("rejoin", "router0", "heartbeat", (1, 3)),
        ]

    def test_draining_node_is_not_rejoined(self):
        async def go(farm):
            router = farm.router
            node = farm.nodes["node2"]
            # Manufacture the departed state without killing the node,
            # then make it unready: alive-but-draining must stay out.
            await router._demote("node2")
            node._shutdown.set()
            await router.heartbeat()
            assert "node2" not in router.shard_map.nodes
            assert router.rejoins == 0
            assert "node2" in router._departed
        run(with_farm(go, nodes=3, replication=2, lease_ttl=60.0))


# ----------------------------------------------------------------------
# anti-entropy: digests inventory + repair sweeps
# ----------------------------------------------------------------------

class TestAntiEntropy:
    def test_digests_inventory_carries_spec_and_hash(self):
        async def go(farm):
            async with farm.client() as c:
                reply = await c.compile(TORUS4, pattern=RING16)
            digest = reply["digest"]
            holder = next(
                node for node in farm.nodes.values()
                if digest in node.cache
            )
            async with AsyncCompileClient(*holder.address, retry=None) as c:
                inv = await c.request({"op": "digests"})
            entries = {e["digest"]: e for e in inv["inventory"]}
            assert digest in entries
            entry = entries[digest]
            assert entry["payload_sha256"]
            assert entry["topology_spec"] == TORUS4
        run(with_farm(go, nodes=3, replication=2))

    def test_repair_sweep_restores_dropped_replica(self):
        async def go(farm):
            for node in farm.nodes.values():
                node.drop_replica_push_rate = 1.0  # every push lost
            async with farm.client() as c:
                reply = await c.compile(TORUS4, pattern=RING16)
            digest = reply["digest"]
            await farm.settle()
            for node in farm.nodes.values():
                node.drop_replica_push_rate = 0.0
            owners = farm.router.shard_map.owners(digest)
            starved = [
                name for name in owners
                if digest not in farm.nodes[name].cache
            ]
            assert len(starved) == 1  # the serving owner kept its copy
            node = farm.nodes[starved[0]]
            async with AsyncCompileClient(*node.address, retry=None) as c:
                swept = await c.request({"op": "repair"})
            assert swept["ok"] and swept["repaired"] == 1
            assert digest in node.cache
            assert node.replicas_repaired == 1
            assert node.anti_entropy_rounds == 1
            # Idempotent: a second sweep finds nothing missing.
            async with AsyncCompileClient(*node.address, retry=None) as c:
                again = await c.request({"op": "repair"})
            assert again["repaired"] == 0
        run(with_farm(go, nodes=3, replication=2, chaos_seed=7))

    def test_sweep_never_adopts_unverifiable_artifact(self):
        async def go(farm):
            # A peer advertising a digest with no topology spec (e.g. a
            # replica it adopted before specs existed) must be skipped,
            # not adopted blind.
            req = {"op": "compile", "topology": TORUS4, "pattern": RING16}
            digest = route_digest(req)
            first, second = farm.router.shard_map.owners(digest)
            async with AsyncCompileClient(
                *farm.nodes[first].address, retry=None
            ) as c:
                await c.request(dict(req))
            await farm.settle()
            farm.nodes[second].cache._memory.pop(digest, None)
            farm.nodes[first]._specs.pop(digest, None)
            farm.nodes[second]._specs.pop(digest, None)
            async with AsyncCompileClient(
                *farm.nodes[second].address, retry=None
            ) as c:
                swept = await c.request({"op": "repair"})
            assert swept["repaired"] == 0
            assert digest not in farm.nodes[second].cache
        run(with_farm(go, nodes=3, replication=2))


# ----------------------------------------------------------------------
# amend-stream failover
# ----------------------------------------------------------------------

class TestAmendFailover:
    PAIRS = [[i, (i + 1) % 16] for i in range(8)]

    def test_takeover_continues_unbroken_chain(self):
        async def go(farm):
            client = farm.client()
            await client.connect()
            try:
                opened = await client.amend(TORUS4, pairs=self.PAIRS)
                root, chain = opened["root"], opened["digest"]
                assert chain == root  # epoch 0 digest is the root
                epoch = opened["epoch"]
                for e in range(3):
                    add = [[e, (e + 5) % 16, 1, 3]]
                    reply = await client.amend(root=root, epoch=epoch, add=add)
                    expect = amend_epoch_digest(
                        chain, parse_rows(add, what="add"), []
                    )
                    assert reply["digest"] == expect
                    chain, epoch = reply["digest"], reply["epoch"]

                primary = farm.router.shard_map.owners(root)[0]
                await farm.settle()  # heads must reach the replicas
                await farm.kill_node(primary)
                for _ in range(2):
                    await farm.router.heartbeat()
                assert primary not in farm.router.shard_map.nodes

                # The next amend lands on the new owner, which resumes
                # the stream from the replicated head: same chain.
                add = [[9, 2, 1, 3]]
                reply = await client.amend(root=root, epoch=epoch, add=add)
                expect = amend_epoch_digest(
                    chain, parse_rows(add, what="add"), []
                )
                assert reply["digest"] == expect
                stale_epoch, chain, epoch = (
                    epoch, reply["digest"], reply["epoch"]
                )
                new_owner = farm.router.shard_map.owners(root)[0]
                assert farm.nodes[new_owner].amend_takeovers == 1
                assert farm.nodes[new_owner].amends.takeovers == 1

                # A racer replaying the consumed epoch gets the typed
                # conflict naming the winning head: no fork, no reset.
                with pytest.raises(EpochConflict) as excinfo:
                    await client.amend(
                        root=root, epoch=stale_epoch, add=[[4, 11, 1, 3]]
                    )
                assert excinfo.value.current_epoch == epoch
                assert excinfo.value.current_digest == chain

                # And the stream keeps going on the survivor.
                reply = await client.amend(
                    root=root, epoch=epoch, add=[[5, 12, 1, 3]]
                )
                assert reply["epoch"] == epoch + 1
            finally:
                await client.close()
        run(with_farm(go, nodes=3, replication=2, lease_ttl=60.0))

    async def _chain(self, client, root, chain, epoch, rows):
        """Apply one update per row; each must extend the digest chain
        the client computes itself.  Returns the new (chain, epoch)."""
        for add in rows:
            reply = await client.amend(root=root, epoch=epoch, add=[add])
            expect = amend_epoch_digest(
                chain, parse_rows([add], what="add"), []
            )
            assert reply["digest"] == expect
            assert reply["epoch"] == epoch + 1
            chain, epoch = reply["digest"], reply["epoch"]
        return chain, epoch

    async def _kill_and_demote(self, farm, name):
        await farm.kill_node(name)
        for _ in range(2):
            await farm.router.heartbeat()
        assert name not in farm.router.shard_map.nodes

    def test_reopen_after_failover_resumes(self):
        """Re-sending the open to the new primary resumes the stream at
        its current epoch, as on one server, instead of resetting it."""
        async def go(farm):
            client = farm.client()
            await client.connect()
            try:
                opened = await client.amend(TORUS4, pairs=self.PAIRS)
                root = opened["root"]
                chain, epoch = await self._chain(
                    client, root, opened["digest"], 0,
                    [[e, (e + 5) % 16, 1, 3] for e in range(3)],
                )
                primary = farm.router.shard_map.owners(root)[0]
                await farm.settle()  # heads must reach the replicas
                await self._kill_and_demote(farm, primary)

                again = await client.amend(TORUS4, pairs=self.PAIRS)
                assert again["cache"] == "resume"
                assert (again["root"], again["epoch"], again["digest"]) == (
                    root, epoch, chain
                )
                new_owner = farm.router.shard_map.owners(root)[0]
                assert farm.nodes[new_owner].amend_takeovers == 1
                # The next update extends the same chain.
                await self._chain(client, root, chain, epoch, [[9, 2, 1, 3]])
            finally:
                await client.close()
        run(with_farm(go, nodes=3, replication=2, lease_ttl=60.0))

    def test_newer_head_beats_stale_live_engine(self):
        """A node whose live engine fell behind a head replicated to it
        later resumes from that head when it becomes primary again."""
        async def go(farm):
            client = farm.client()
            await client.connect()
            try:
                opened = await client.amend(TORUS4, pairs=self.PAIRS)
                root = opened["root"]
                first, second = farm.router.shard_map.owners(root)
                chain, epoch = await self._chain(
                    client, root, opened["digest"], 0,
                    [[e, (e + 5) % 16, 1, 3] for e in range(3)],
                )
                await farm.settle()
                # The second owner takes over: its live engine reaches 5.
                await self._kill_and_demote(farm, first)
                chain, epoch = await self._chain(
                    client, root, chain, epoch, [[9, 2, 1, 3], [10, 3, 1, 3]]
                )
                assert farm.nodes[second].amends.peek(root).epoch == 5

                # The first owner rejoins, pulls the head and takes the
                # stream back to epoch 7, replicating to the second.
                await farm.restart_node(first)
                await farm.router.heartbeat()
                assert first in farm.router.shard_map.nodes
                for node in list(farm.nodes.values()):
                    async with AsyncCompileClient(
                        *node.address, retry=None
                    ) as c:
                        await c.request({"op": "repair"})
                await client.refresh_map()
                chain, epoch = await self._chain(
                    client, root, chain, epoch, [[11, 4, 1, 3], [12, 5, 1, 3]]
                )
                assert farm.nodes[first].amend_takeovers == 1
                await farm.settle()

                # The second owner is primary again: the newer head, not
                # its stale engine, is where the stream continues.
                await self._kill_and_demote(farm, first)
                assert epoch == 7
                await self._chain(client, root, chain, epoch, [[13, 6, 1, 3]])
                assert farm.nodes[second].amend_takeovers == 2
            finally:
                await client.close()
        run(with_farm(go, nodes=3, replication=2, lease_ttl=60.0))

    def test_only_the_primary_serves_amends(self):
        """A co-owner whose live engine outlived its turn as primary
        refuses amends once the primary is back, so a client still
        aiming at it cannot fork the stream while its pushes are lost."""
        async def go(farm):
            client = farm.client()
            await client.connect()
            try:
                opened = await client.amend(TORUS4, pairs=self.PAIRS)
                root = opened["root"]
                first, second = farm.router.shard_map.owners(root)
                chain, epoch = await self._chain(
                    client, root, opened["digest"], 0,
                    [[e, (e + 5) % 16, 1, 3] for e in range(3)],
                )
                await farm.settle()
                await self._kill_and_demote(farm, first)
                chain, epoch = await self._chain(
                    client, root, chain, epoch, [[9, 2, 1, 3], [10, 3, 1, 3]]
                )
                await farm.restart_node(first)
                await farm.router.heartbeat()
                assert first in farm.router.shard_map.nodes
                for node in list(farm.nodes.values()):
                    async with AsyncCompileClient(
                        *node.address, retry=None
                    ) as c:
                        await c.request({"op": "repair"})
                farm.partition(second, first)

                async with AsyncCompileClient(
                    *farm.nodes[second].address, retry=None
                ) as c:
                    with pytest.raises(WrongShard) as excinfo:
                        await c.amend(root=root, epoch=5, add=[[11, 4, 1, 3]])
                assert excinfo.value.owners[0] == first
                await client.refresh_map()
                chain, epoch = await self._chain(
                    client, root, chain, epoch, [[12, 5, 1, 3]]
                )
                assert epoch == 6
                assert farm.nodes[first].amends.peek(root).digest == chain
            finally:
                await client.close()
        run(with_farm(go, nodes=3, replication=2, lease_ttl=60.0))

    def test_drain_pushes_each_artifact_once_and_one_owner_adopts(self):
        """A drain sends every held epoch artifact once to each
        successor owner; only the successor primary adopts the stream."""
        async def go(farm):
            client = farm.client()
            await client.connect()
            try:
                opened = await client.amend(TORUS4, pairs=self.PAIRS)
                root = opened["root"]
                chain, epoch = opened["digest"], 0
                digests = [chain]
                for e in range(4):
                    chain, epoch = await self._chain(
                        client, root, chain, epoch, [[e, (e + 5) % 16, 1, 3]]
                    )
                    digests.append(chain)
                await farm.settle()
                primary = farm.router.shard_map.owners(root)[0]
                stores = []
                for node in farm.nodes.values():
                    if node.name != primary:
                        node._store_replica = self._spy(node, stores)

                await farm.drain_node(primary)
                successors = farm.router.shard_map.owners(root)
                sent = [(name, digest) for name, digest, _ in stores]
                assert sorted(sent) == sorted(
                    (name, d) for name in successors for d in digests
                )
                assert [
                    (name, digest) for name, digest, adopt in stores if adopt
                ] == [(successors[0], chain)]
                assert {
                    name: node.drain_adoptions
                    for name, node in farm.nodes.items()
                } == {name: int(name == successors[0]) for name in farm.nodes}
                assert farm.drained[primary].drain_handoffs == 1
                assert farm.nodes[successors[0]].amends.peek(root).epoch == 4
                await self._chain(client, root, chain, epoch, [[9, 2, 1, 3]])
                assert sum(
                    n.amend_takeovers for n in farm.nodes.values()
                ) == 0
            finally:
                await client.close()
        run(with_farm(go, nodes=3, replication=2, lease_ttl=60.0))

    @staticmethod
    def _spy(node, stores):
        """``node``'s ``store`` handler, recording (node, digest, adopt)."""
        real = node._store_replica

        def store(req):
            stores.append((node.name, req.get("digest"), bool(req.get("adopt"))))
            return real(req)
        return store

    def test_repair_keeps_heads_of_owned_roots_only(self):
        """After one repair round each node holds a head for exactly the
        streams it owns, each on an epoch artifact it holds."""
        async def go(farm):
            client = farm.client()
            await client.connect()
            try:
                roots = set()
                for k in range(30):
                    pairs = [
                        [i, (i + 1 + k % 15) % 16] for i in range(8 + k // 15)
                    ]
                    opened = await client.amend(TORUS4, pairs=pairs)
                    roots.add(opened["root"])
                assert len(roots) == 30
                await farm.settle()
                for node in list(farm.nodes.values()):
                    async with AsyncCompileClient(
                        *node.address, retry=None
                    ) as c:
                        await c.request({"op": "repair"})
                for node in farm.nodes.values():
                    heads = node.amends.heads()
                    owned = {
                        r for r in roots
                        if node.name in node.shard_map.owners(r)
                    }
                    assert sorted(h["root"] for h in heads) == sorted(owned)
                    for head in heads:
                        assert head["digest"] in node.cache
            finally:
                await client.close()
        run(with_farm(go, nodes=3, replication=2, lease_ttl=60.0))

    def test_restarted_owner_takes_over_from_its_disk_tier(self, tmp_path):
        """A co-owner restarted on a disk tier that still holds the
        stream's current epoch takes the stream over after one sweep."""
        async def go(farm):
            client = farm.client()
            await client.connect()
            try:
                opened = await client.amend(TORUS4, pairs=self.PAIRS)
                root = opened["root"]
                primary, second = farm.router.shard_map.owners(root)
                chain, epoch = await self._chain(
                    client, root, opened["digest"], 0,
                    [[e, (e + 5) % 16, 1, 3] for e in range(3)],
                )
                await farm.settle()
                await farm.kill_node(second)
                restarted = await farm.restart_node(second)
                assert restarted.amends.heads() == []
                assert chain in restarted.cache
                async with AsyncCompileClient(
                    *restarted.address, retry=None
                ) as c:
                    swept = await c.request({"op": "repair"})
                assert swept["repaired"] == 0  # the disk tier held it all

                await self._kill_and_demote(farm, primary)
                await self._chain(client, root, chain, epoch, [[9, 2, 1, 3]])
                assert restarted.amend_takeovers == 1
            finally:
                await client.close()
        run(with_farm(
            go, nodes=3, replication=2, lease_ttl=60.0, cache_dir=tmp_path
        ))


# ----------------------------------------------------------------------
# chaos partitions (Farm-level injection)
# ----------------------------------------------------------------------

class TestPartitions:
    def test_one_way_partition_blocks_only_peer_traffic(self):
        async def go(farm):
            req = {"op": "compile", "topology": TORUS4, "pattern": RING16}
            digest = route_digest(req)
            first, second = farm.router.shard_map.owners(digest)
            farm.partition(first, second)
            assert not farm._peer_allowed(first, second)
            assert farm._peer_allowed(second, first)  # one-way
            # Client traffic (router -> node) is unaffected.
            async with AsyncCompileClient(*farm.router_address) as c:
                reply = await c.request(dict(req))
            assert reply["ok"] and reply["digest"] == digest
            farm.heal(first, second)
            assert farm._peer_allowed(first, second)
        run(with_farm(go, nodes=3, replication=2))

    def test_heal_variants(self):
        farm = Farm(3)
        farm.partition("node0", "node1", both_ways=True)
        farm.partition("node0", "node2")
        farm.heal("node0", "node1")
        assert farm.partitions == {("node1", "node0"), ("node0", "node2")}
        farm.heal("node2")
        assert farm.partitions == {("node1", "node0")}
        farm.heal()
        assert farm.partitions == set()


# ----------------------------------------------------------------------
# the scripted HA campaign (small, deterministic)
# ----------------------------------------------------------------------

class TestHaCampaign:
    def test_all_gates_hold(self):
        from repro.service.chaos import run_farm_ha_campaign

        report = run_farm_ha_campaign(
            16, nodes=3, replication=2, seed=11, amend_steps=3,
        )
        assert report["ok"], report["gates"]
        assert report["corrupted"] == []
        assert report["untyped_failures"] == []
        assert report["availability"] == 1.0
        assert report["restore_sweeps"] <= 3
        assert report["replication_stats"]["amend_takeovers"] >= 1
        assert report["router"]["rejoins"] >= 1
