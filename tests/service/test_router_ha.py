"""Tests for router high availability: the ``(epoch, version)`` fencing
token, the node-arbitrated leadership lease, standby promotion, client
endpoint-list failover, and graceful drain with proactive handoff."""

import asyncio
import json
import socket

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.compiler.recognition import recognize
from repro.compiler.serialize import load_artifact
from repro.service.amend import amend_epoch_digest, parse_rows
from repro.service.client import AsyncCompileClient, CompileClient
from repro.service.errors import (
    EX_TEMPFAIL,
    EX_UNAVAILABLE,
    ProtocolError,
    StaleEpoch,
    TransportError,
    error_fields,
    reply_error,
)
from repro.service.farm import ShardMap, ShardRouter
from repro.service.policy import RetryPolicy
from repro.service.server import CompileServer
from repro.topology.torus import Torus2D
from tests.service.farm_helpers import (
    hung_endpoint,
    run,
    with_farm,
    with_ha_farm,
    with_members,
)

TORUS4 = {"kind": "torus", "width": 4}
RING16 = {"pattern": "ring", "nodes": 16}


def dead_endpoint():
    """A loopback (host, port) that refuses connections."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return ("127.0.0.1", port)


def two_node_map(version=1, epoch=1):
    return ShardMap(
        {"node0": {"host": "127.0.0.1", "port": 1},
         "node1": {"host": "127.0.0.1", "port": 2}},
        replication=2, version=version, epoch=epoch,
    )


# ----------------------------------------------------------------------
# the fencing token
# ----------------------------------------------------------------------

class TestFencingToken:
    def test_epoch_dominates_version(self):
        # The deposed leader's map: epoch 1 but a huge version.  The
        # promoted standby's map: epoch 2, tiny version.  Epoch wins.
        deposed = two_node_map(version=99, epoch=1)
        promoted = two_node_map(version=2, epoch=2)
        assert promoted.dominates(deposed)
        assert not deposed.dominates(promoted)
        assert promoted.token == (2, 2)

    def test_same_epoch_falls_back_to_version(self):
        older = two_node_map(version=3)
        newer = older.without("node1")
        assert newer.dominates(older)
        assert not older.dominates(older)  # equal tokens: no winner

    def test_with_epoch_bumps_both_fields(self):
        base = two_node_map(version=5, epoch=1)
        promoted = base.with_epoch(2)
        assert promoted.token == (2, 6)
        assert promoted.nodes == base.nodes

    def test_with_epoch_refuses_non_increasing(self):
        base = two_node_map(epoch=3)
        with pytest.raises(ValueError):
            base.with_epoch(3)
        with pytest.raises(ValueError):
            base.with_epoch(2)

    def test_membership_changes_keep_the_epoch(self):
        base = two_node_map(epoch=4)
        assert base.without("node1").epoch == 4
        assert base.with_node(
            "node2", {"host": "127.0.0.1", "port": 3}
        ).epoch == 4

    def test_dict_round_trip_and_pre_fencing_default(self):
        base = two_node_map(version=7, epoch=3)
        again = ShardMap.from_dict(base.as_dict())
        assert again.token == (3, 7)
        # A pre-fencing map document carries no epoch field: it belongs
        # to the first leader incarnation by definition.
        legacy = base.as_dict()
        del legacy["epoch"]
        assert ShardMap.from_dict(legacy).epoch == 1


class TestStaleEpochWire:
    def test_error_fields_round_trip(self):
        exc = StaleEpoch(current_epoch=3, current_version=7)
        fields = error_fields(exc)
        assert fields["error_type"] == "stale_epoch"
        back = reply_error({"ok": False, **fields})
        assert isinstance(back, StaleEpoch)
        assert back.current_epoch == 3
        assert back.current_version == 7
        assert back.exit_code == EX_TEMPFAIL
        assert not back.retryable


# ----------------------------------------------------------------------
# node-side fencing: reshard compares (epoch, version), not version
# ----------------------------------------------------------------------

class TestNodeReshardFencing:
    def test_higher_version_lower_epoch_is_rejected(self):
        async def scenario(farm):
            node = next(iter(farm.nodes.values()))
            promoted = node.shard_map.with_epoch(2)
            host, port = node.address
            async with AsyncCompileClient(host, port, retry=None) as client:
                reply = await client.request(
                    {"op": "reshard", "shard_map": promoted.as_dict()}
                )
                assert reply["epoch"] == 2
                # The deposed leader's late push: same membership, a
                # *far* higher version, but the old epoch.  A bare
                # version compare would adopt it; the token must not.
                stale = ShardMap.from_dict({
                    **node.shard_map.as_dict(),
                    "version": promoted.version + 50,
                    "epoch": 1,
                })
                with pytest.raises(StaleEpoch) as exc:
                    await client.request(
                        {"op": "reshard", "shard_map": stale.as_dict()}
                    )
            assert exc.value.current_epoch == 2
            assert node.shard_map.epoch == 2
            assert node.stale_epoch_rejections == 1

        run(with_farm(scenario, nodes=2))

    def test_router_reshard_verb_is_fenced_too(self):
        async def scenario(farm):
            router = farm.router
            promoted = router.shard_map.with_epoch(3)
            adopted = router._reshard_verb(
                {"op": "reshard", "shard_map": promoted.as_dict()}
            )
            assert adopted["adopted"] is True
            stale = ShardMap.from_dict({
                **promoted.as_dict(), "version": promoted.version + 50,
                "epoch": 1,
            })
            with pytest.raises(StaleEpoch):
                router._reshard_verb(
                    {"op": "reshard", "shard_map": stale.as_dict()}
                )
            assert router.shard_map.epoch == 3
            assert router.stale_epoch_rejections == 1

        run(with_farm(scenario, nodes=2))


# ----------------------------------------------------------------------
# the lease verb: nodes are the quorum
# ----------------------------------------------------------------------

class TestLeaseVerb:
    def test_grant_renew_refuse_and_floor(self):
        async def scenario(farm):
            node = next(iter(farm.nodes.values()))
            # Farm start already took router0's first grant.
            grants, refusals = node.lease_grants, node.lease_refusals

            def lease(router, epoch, ttl=5.0):
                return node._lease_verb(
                    {"op": "lease", "router": router,
                     "epoch": epoch, "ttl": ttl}
                )

            # Fresh claim, then renewal by the same holder.
            assert lease("router0", 1)["granted"] is True
            assert lease("router0", 1)["granted"] is True
            # A live lease is never preempted -- not even by a higher
            # epoch from a different router.
            refused = lease("router1", 2)
            assert refused["granted"] is False
            assert refused["holder"] == "router0"
            # The holder itself may re-claim under a higher epoch.
            assert lease("router0", 3)["granted"] is True
            assert node.lease_grants - grants == 3
            assert node.lease_refusals - refusals == 1
            assert node._lease_epoch_floor == 3

        run(with_farm(scenario, nodes=1))

    def test_expired_lease_yields_but_only_above_the_floor(self):
        async def scenario(farm):
            node = next(iter(farm.nodes.values()))
            granted = node._lease_verb(
                {"op": "lease", "router": "router0",
                 "epoch": 2, "ttl": 0.05}
            )
            assert granted["granted"] is True
            await asyncio.sleep(0.08)  # let the lease lapse
            # The deposed leader's old epoch is below the floor: even
            # against a lapsed lease it can never win a grant back.
            assert node._lease_verb(
                {"op": "lease", "router": "router9",
                 "epoch": 2, "ttl": 5.0}
            )["granted"] is False
            promoted = node._lease_verb(
                {"op": "lease", "router": "router1",
                 "epoch": 3, "ttl": 5.0}
            )
            assert promoted["granted"] is True
            assert promoted["holder"] == "router1"

        run(with_farm(scenario, nodes=1))

    def test_malformed_lease_requests_are_typed(self):
        async def scenario(farm):
            node = next(iter(farm.nodes.values()))
            for bad in (
                {"op": "lease"},
                {"op": "lease", "router": "r", "epoch": 0, "ttl": 1.0},
                {"op": "lease", "router": "r", "epoch": 1, "ttl": 0},
            ):
                with pytest.raises(ProtocolError):
                    node._lease_verb(bad)

        run(with_farm(scenario, nodes=1))


# ----------------------------------------------------------------------
# promotion: leader dies, standby takes over under a new epoch
# ----------------------------------------------------------------------

class TestPromotion:
    def test_standby_promotes_and_fences_the_deposed_leader(self):
        async def scenario(farm):
            leader = farm.leader
            standby = next(
                r for r in farm.routers.values() if r is not leader
            )
            assert leader.role == "leader" and standby.role == "standby"
            old_epoch = leader.shard_map.epoch
            deposed_map = leader.shard_map

            await farm.kill_router()
            deadline = asyncio.get_event_loop().time() + 10.0
            while (not standby.is_leader
                   and asyncio.get_event_loop().time() < deadline):
                await asyncio.sleep(0.02)
            assert standby.is_leader
            assert standby.promotions == 1
            assert standby.shard_map.epoch == old_epoch + 1

            # Every node adopted the promoted map...
            for node in farm.nodes.values():
                assert node.shard_map.epoch == old_epoch + 1
            # ...so the deposed leader's late push (stale epoch, however
            # high the version) is refused farm-wide with the typed error.
            dead = next(iter(farm.dead_routers.values()))
            dead.shard_map = ShardMap.from_dict({
                **deposed_map.as_dict(),
                "version": standby.shard_map.version + 50,
            })
            with pytest.raises(StaleEpoch):
                await dead.push_map_peer(*standby.address)
            node = next(iter(farm.nodes.values()))
            host, port = node.address
            async with AsyncCompileClient(host, port, retry=None) as direct:
                with pytest.raises(StaleEpoch):
                    await direct.request({
                        "op": "reshard",
                        "shard_map": dead.shard_map.as_dict(),
                    })

            # The promoted router still serves traffic.
            client = farm.client()
            async with client:
                reply = await client.compile(TORUS4, pattern=RING16)
            assert reply["ok"] is True

        run(with_ha_farm(scenario, nodes=3))

    def test_leadership_published_after_the_push_round(self):
        """Whoever sees the promoted router lead must also see every
        node on its new map: the role flips only after the push."""
        async def scenario():
            router = ShardRouter(two_node_map(), role="standby")
            seen = []

            async def broadcast():
                seen.append((router.role, router.shard_map.epoch))

            router._broadcast_map = broadcast
            await router._promote(2)
            assert seen == [("standby", 2)]
            assert router.is_leader and router.promotions == 1
            assert router.lease_age_seconds is not None

        run(scenario())

    def test_promotion_abandoned_if_deposed_during_the_push_round(self):
        """A higher incarnation adopted mid-push (say from a node's
        wrong-shard reply) must not be overruled by the promotion."""
        async def scenario():
            router = ShardRouter(two_node_map(), role="standby")

            async def broadcast():
                router._adopt_map(two_node_map(version=9, epoch=3))

            router._broadcast_map = broadcast
            await router._promote(2)
            assert not router.is_leader and router.promotions == 0

        run(scenario())

    def test_stats_report_role_lease_and_token(self):
        async def scenario(farm):
            await asyncio.sleep(0.25)  # a few heartbeats
            async with farm.client() as client:
                stats = await client.stats()
            router = stats["router"]
            assert router["role"] == "leader"
            assert router["epoch"] == 1
            assert router["map_epoch"] == 1
            assert router["heartbeats"] >= 1
            assert router["lease_age_seconds"] is not None
            assert router["lease_age_seconds"] < 10.0
            async with farm.client() as client:
                health = await client.health()
            assert health["router"]["role"] == "leader"
            # Nodes expose the granted lease and the map token too.
            farm_block = stats["nodes"]["node0"]["farm"]
            assert farm_block["map_epoch"] == 1
            assert farm_block["lease_holder"] == "router0"
            assert farm_block["draining"] is False

        run(with_ha_farm(scenario, nodes=2))


class TestHungEndpoints:
    def test_hung_members_cannot_depose_a_healthy_leader(self):
        """Endpoints that accept connections and never answer cost the
        leader one beat per round, never its lease: the healthy
        majority keeps being renewed while the hung members are
        demoted and the hung departed node is never rejoined."""
        async def scenario(farm):
            leader = farm.leader
            standby = next(
                r for r in farm.routers.values() if r is not leader
            )
            async with hung_endpoint() as h0, hung_endpoint() as h1, \
                    hung_endpoint() as h2:
                leader.shard_map = with_members(
                    leader.shard_map, first={"hung0": h0, "hung1": h1}
                )
                leader._departed["hung2"] = h2
                await asyncio.sleep(2.0)  # background beats only
                assert leader.is_leader
                assert standby.promotions == 0
                assert "hung0" not in leader.shard_map.nodes
                assert "hung1" not in leader.shard_map.nodes
                assert "hung2" not in leader.shard_map.nodes

        run(with_ha_farm(scenario, nodes=3))


class TestStop:
    def test_stop_ends_a_loop_that_swallowed_its_cancel(self):
        """A cancel racing a completed read inside ``asyncio.wait_for``
        can be lost; stop() must still end the heartbeat loop."""
        async def scenario():
            router = ShardRouter(two_node_map(), lease_ttl=0.04)
            entered = asyncio.Event()
            swallowed = []

            async def heartbeat():
                entered.set()
                try:
                    await asyncio.sleep(0.05)
                except asyncio.CancelledError:
                    if swallowed:
                        raise
                    swallowed.append(True)  # the lost cancel
                return {}

            router.heartbeat = heartbeat
            await router.start()
            await entered.wait()
            await asyncio.wait_for(router.stop(), timeout=5.0)
            assert swallowed
            assert router._heartbeat_task is None

        run(scenario())


# ----------------------------------------------------------------------
# client endpoint lists: transparent router failover
# ----------------------------------------------------------------------

class TestClientEndpointFailover:
    def test_async_connect_rotates_past_a_dead_router(self):
        async def scenario(farm):
            endpoints = [dead_endpoint()] + farm.router_addresses
            client = AsyncCompileClient(endpoints=endpoints)
            async with client:
                reply = await client.compile(TORUS4, pattern=RING16)
            assert reply["ok"] is True
            assert client.failovers >= 1

        run(with_farm(scenario, nodes=2))

    def test_sync_connect_rotates_past_a_dead_router(self):
        async def scenario(farm):
            return [dead_endpoint()] + farm.router_addresses, farm

        # The sync client cannot run inside the farm's event loop; run
        # the farm in a thread-backed loop instead.
        async def scenario2(farm):
            endpoints = [dead_endpoint()] + farm.router_addresses

            def blocking():
                with CompileClient(endpoints=endpoints) as client:
                    reply = client.compile(TORUS4, pattern=RING16)
                    return reply, client.failovers

            reply, failovers = await asyncio.to_thread(blocking)
            assert reply["ok"] is True
            assert failovers >= 1

        run(with_farm(scenario2, nodes=2))

    def test_cli_compile_rotates_past_a_dead_router(self, tmp_path, capsys):
        output = tmp_path / "remote.json"

        # ``compile --routers`` drives the blocking client, so the CLI
        # runs in a thread next to the farm's event loop.
        async def scenario(farm):
            routers = ",".join(
                f"{h}:{p}" for h, p in [dead_endpoint(), farm.router_address]
            )
            return await asyncio.to_thread(main, [
                "compile", "--routers", routers, "--width", "4",
                "--height", "4", "--spec", json.dumps(RING16),
                "--output", str(output),
            ])

        assert run(with_farm(scenario, nodes=2)) == 0
        assert "1 router failover(s)" in capsys.readouterr().out
        schedule, _ = load_artifact(output, Torus2D(4))
        scheduled = [c for config in schedule for c in config]
        schedule.validate(scheduled)
        assert len(scheduled) == len(recognize(RING16))

    def test_cli_compile_with_every_router_dead_is_transport(self, capsys):
        routers = ",".join(f"{h}:{p}" for h, p in [dead_endpoint()] * 2)
        assert main([
            "compile", "--routers", routers, "--spec", json.dumps(RING16),
        ]) == EX_UNAVAILABLE
        assert "repro-tdm: transport:" in capsys.readouterr().err

    def test_request_fails_over_mid_session(self):
        async def scenario(farm):
            client = farm.client()
            async with client:
                assert (await client.compile(TORUS4, pattern=RING16))["ok"]
                await farm.kill_router()  # the connected router dies
                # Idempotent verb: retried transparently on the survivor.
                reply = await client.stats()
                assert reply["router"]["name"] in farm.routers

        run(with_ha_farm(scenario, nodes=2))

    def test_amend_reconnects_past_a_connection_its_server_closed(self):
        """An idle connection whose server died carried no request, so
        an amend -- never retried -- connects afresh and fails over to
        the next endpoint instead of failing on the dead connection."""
        async def scenario():
            dying, survivor = CompileServer(), CompileServer()
            await dying.start()
            await survivor.start()
            client = AsyncCompileClient(
                endpoints=[dying.address, survivor.address], retry=None
            )
            try:
                await client.ping()
                await dying.kill()
                async with asyncio.timeout(5):
                    while not (
                        client._writer.is_closing() or client._reader.at_eof()
                    ):
                        await asyncio.sleep(0.01)
                reply = await client.amend(TORUS4, pairs=[[0, 1], [2, 3]])
                assert reply["cache"] == "open"
                assert client.failovers == 1
                assert survivor.amends.stats()["opened"] == 1
            finally:
                await client.close()
                await survivor.shutdown()

        run(scenario())

    def test_failed_connect_rotates_once_per_endpoint(self):
        """A connect that fails on every endpoint counts one failover
        each and leaves the next attempt aimed at the first again; the
        request loop adds no rotation of its own."""
        first = dead_endpoint()
        second = dead_endpoint()
        while second == first:
            second = dead_endpoint()

        async def failovers(retry):
            client = AsyncCompileClient(endpoints=[first, second], retry=retry)
            with pytest.raises(TransportError):
                await client.ping()
            assert (client.host, client.port) == first
            return client.failovers, client.retries

        assert run(failovers(None)) == (2, 0)
        three = RetryPolicy(attempts=3, base_delay=0.001, max_delay=0.001)
        assert run(failovers(three)) == (6, 2)

    def test_exhausted_endpoint_list_raises_transport(self):
        async def scenario():
            client = AsyncCompileClient(
                endpoints=[dead_endpoint(), dead_endpoint()]
            )
            with pytest.raises(TransportError):
                await client.connect()
            assert client.failovers >= 1

        run(scenario())


# ----------------------------------------------------------------------
# graceful drain
# ----------------------------------------------------------------------

async def open_stream(client, pairs=None):
    reply = await client.amend(
        TORUS4, pairs=pairs or [[i, (i + 3) % 16] for i in range(6)]
    )
    return str(reply["root"]), str(reply["digest"]), int(reply["epoch"])


class TestGracefulDrain:
    def test_drain_hands_off_streams_and_replicas(self):
        async def scenario(farm):
            client = farm.client()
            async with client:
                # A live amend stream on its primary...
                root, chain, epoch = await open_stream(client)
                for e in range(3):
                    add = [[e % 16, (e + 7) % 16, 1, 2]]
                    reply = await client.amend(root=root, epoch=epoch, add=add)
                    chain = amend_epoch_digest(
                        chain, parse_rows(add, what="add"), []
                    )
                    assert reply["digest"] == chain
                    epoch = int(reply["epoch"])
                await farm.settle()
                target = farm.router.shard_map.owners(root)[0]
                target_node = farm.nodes[target]
                assert root in target_node.amends.live_roots()
                held = set(target_node.cache.digests())
                takeovers_before = sum(
                    n.amend_takeovers for n in farm.nodes.values()
                )

                drained = await farm.drain_node(target)
                assert target not in farm.router.shard_map.nodes
                assert target in farm.drained
                assert drained.drain_handoffs >= 1
                assert farm.router.drains == 1

                # The first post-drain amend lands on the *already
                # adopted* stream: the chain continues, no takeover.
                add = [[3, 10, 1, 2]]
                reply = await client.amend(root=root, epoch=epoch, add=add)
                chain = amend_epoch_digest(
                    chain, parse_rows(add, what="add"), []
                )
                assert reply["digest"] == chain
                takeovers_after = sum(
                    n.amend_takeovers for n in farm.nodes.values()
                )
                assert takeovers_after == takeovers_before
                assert sum(
                    n.drain_adoptions for n in farm.nodes.values()
                ) >= 1

                # Nothing the drained node held is under-replicated
                # under the successor map.
                smap = farm.router.shard_map
                for digest in held:
                    for owner in smap.owners(digest):
                        assert digest in farm.nodes[owner].cache.digests()

        run(with_farm(scenario, nodes=3, replication=2))

    def test_drain_recloses_uniquely_owned_artifacts(self):
        async def scenario(farm):
            # Drop every replica push, so each artifact exists only on
            # the node that compiled it -- exactly what a drain must
            # proactively re-replicate before the node leaves.
            for node in farm.nodes.values():
                node.drop_replica_push_rate = 1.0
            client = farm.client()
            async with client:
                digests = []
                for width in (4, 8):
                    reply = await client.compile(
                        {"kind": "torus", "width": width}, pattern=RING16
                        if width == 4 else {"pattern": "ring", "nodes": 64},
                    )
                    digests.append(str(reply["digest"]))
            for node in farm.nodes.values():
                node.drop_replica_push_rate = 0.0
            await farm.settle()
            target = next(
                name for name, node in farm.nodes.items()
                if set(digests) & node.cache.digests()
            )
            unique = [
                d for d in digests
                if d in farm.nodes[target].cache.digests()
                and not any(
                    d in other.cache.digests()
                    for name, other in farm.nodes.items() if name != target
                )
            ]
            assert unique  # dropped pushes => unique by construction
            drained = await farm.drain_node(target)
            assert drained.drain_repushes >= 1
            smap = farm.router.shard_map
            for digest in unique:
                for owner in smap.owners(digest):
                    assert digest in farm.nodes[owner].cache.digests()

        run(with_farm(scenario, nodes=3, replication=2))

    def test_drain_repush_respects_bounded_retry(self):
        async def scenario(farm):
            for node in farm.nodes.values():
                node.drop_replica_push_rate = 1.0
            client = farm.client()
            async with client:
                reply = await client.compile(TORUS4, pattern=RING16)
                digest = str(reply["digest"])
            for node in farm.nodes.values():
                node.drop_replica_push_rate = 0.0
            target = next(
                name for name, node in farm.nodes.items()
                if digest in node.cache.digests()
            )
            # Every push out of the draining node fails (one-way
            # partitions to every peer): the bounded retry budget must
            # give up rather than wedge the drain forever.
            for other in farm.nodes:
                if other != target:
                    farm.partition(target, other)
            drained = await farm.drain_node(target)
            assert drained.drain_repush_retries > 0
            # The drain completed regardless; the retry count shows up
            # in the router's aggregated replication stats.
            stats = farm.router  # drain_node accumulated the counter
            assert stats.drain_repush_retries > 0

        run(with_farm(scenario, nodes=3, replication=2))

    def test_draining_node_redirects_parked_amends(self):
        async def scenario(farm):
            client = farm.client()
            async with client:
                root, chain, epoch = await open_stream(client)
                await farm.settle()
                target = farm.router.shard_map.owners(root)[0]

                drain_task = asyncio.create_task(farm.drain_node(target))
                await asyncio.sleep(0.01)
                # An amend racing the drain: it parks on the draining
                # primary, then follows the typed redirect to the
                # already-adopted stream on the successor.
                add = [[1, 6, 1, 2]]
                reply = await client.amend(root=root, epoch=epoch, add=add)
                await drain_task
                chain = amend_epoch_digest(
                    chain, parse_rows(add, what="add"), []
                )
                assert reply["digest"] == chain

        run(with_farm(scenario, nodes=3, replication=2))


# ----------------------------------------------------------------------
# property: amends + drain interleave without forking or stranding
# ----------------------------------------------------------------------

class TestDrainChurnProperty:
    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        before=st.integers(min_value=0, max_value=3),
        concurrent=st.booleans(),
        after=st.integers(min_value=1, max_value=3),
        row_seed=st.integers(min_value=0, max_value=7),
    )
    def test_any_interleaving_keeps_the_stream_available(
        self, before, concurrent, after, row_seed
    ):
        """No amend/drain interleaving forks the epoch chain or strands
        the stream: the first post-drain amend lands on the adopted
        stream directly (``amend_takeovers`` unchanged throughout)."""

        async def scenario(farm):
            client = farm.client()
            async with client:
                root, chain, epoch = await open_stream(client)

                async def step(e):
                    nonlocal chain, epoch
                    add = [[(e + row_seed) % 16, (e + row_seed + 5) % 16,
                            1, 2]]
                    reply = await client.amend(
                        root=root, epoch=epoch, add=add
                    )
                    chain = amend_epoch_digest(
                        chain, parse_rows(add, what="add"), []
                    )
                    assert reply["digest"] == chain  # never forks
                    epoch = int(reply["epoch"])

                for e in range(before):
                    await step(e)
                await farm.settle()
                target = farm.router.shard_map.owners(root)[0]
                takeovers_before = sum(
                    n.amend_takeovers for n in farm.nodes.values()
                )
                drain_task = asyncio.create_task(farm.drain_node(target))
                if concurrent:
                    await asyncio.sleep(0.005)
                    await step(100)  # races the drain window
                await drain_task
                for e in range(after):
                    await step(200 + e)  # lands on the adopted stream
                assert sum(
                    n.amend_takeovers for n in farm.nodes.values()
                ) == takeovers_before

        run(with_farm(scenario, nodes=3, replication=2))
