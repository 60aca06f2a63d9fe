"""How a router's forward handles a node's ``wrong_shard`` refusal.

Three cases, told apart by the refusing node's map token against the
router's: a node behind the router is pushed the router's map, a router
behind the node adopts the node's map, and a node on the router's own
map is final -- no push or retry can change its answer.
"""

import pytest

from repro.service.client import AsyncCompileClient
from repro.service.errors import TransportError
from repro.service.farm import route_digest
from tests.service.farm_helpers import cold_requests, run, with_farm

TORUS4 = {"kind": "torus", "width": 4}
PAIRS = [[i, (i + 1) % 16] for i in range(8)]


def request_refused(node_map, router_map):
    """A compile request whose primary on ``router_map`` is no owner of
    it on ``node_map``; returns the request and that node's name."""
    for req in cold_requests(200, seed=3):
        digest = route_digest(req)
        primary = router_map.owners(digest)[0]
        if primary not in node_map.owners(digest):
            return req, primary
    raise AssertionError("no request with the wanted placement")


async def send(address, req):
    async with AsyncCompileClient(*address, retry=None) as client:
        return await client.request(req)


async def reshard(node, shard_map):
    reply = await send(
        node.address, {"op": "reshard", "shard_map": shard_map.as_dict()}
    )
    assert reply["adopted"] is True


def test_node_behind_the_router_is_pushed_its_map():
    """node2 left every map and came back on the router's alone: a
    request it is primary for is refused on its old map, which the
    router replaces before the retry lands."""
    async def go(farm):
        router = farm.router
        first = router.shard_map
        without = first.without("node2")
        for node in farm.nodes.values():
            await reshard(node, without)
        router._adopt_map(without.with_node("node2", first.nodes["node2"]))
        req, target = request_refused(without, router.shard_map)
        assert target == "node2"
        rerouted = router.rerouted
        reply = await send(router.address, req)
        assert reply["ok"]
        assert router.rerouted == rerouted + 1
        assert farm.nodes[target].shard_map.token == router.shard_map.token
    run(with_farm(go, nodes=3, replication=2, lease_ttl=60.0))


def test_router_behind_a_node_adopts_the_node_map():
    """Every node moved on to a map without node2 while the router kept
    the first one: node2 refuses on the newer map, the router adopts it
    from the refusal and the retry lands on the new primary."""
    async def go(farm):
        router = farm.router
        first = router.shard_map
        without = first.without("node2")
        for node in farm.nodes.values():
            await reshard(node, without)
        req, target = request_refused(without, first)
        assert target == "node2"
        rerouted = router.rerouted
        reply = await send(router.address, req)
        assert reply["ok"]
        assert router.rerouted == rerouted + 1
        assert router.shard_map.token == without.token
    run(with_farm(go, nodes=3, replication=2, lease_ttl=60.0))


def test_refusal_on_the_routers_own_map_is_final():
    """A standby routing around a dead primary reaches a co-owner that
    refuses the amend on the same map: the client gets the transport
    error at once, after one refusal and no map pushes."""
    async def go(farm):
        client = farm.client()
        await client.connect()
        try:
            opened = await client.amend(TORUS4, pairs=PAIRS)
        finally:
            await client.close()
        root = opened["root"]
        primary, second = farm.router.shard_map.owners(root)
        await farm.settle()
        await farm.kill_node(primary)  # no heartbeat: nobody demotes it
        standby = farm.routers["router1"]
        assert standby.shard_map.token == farm.nodes[second].shard_map.token
        refused = farm.nodes[second].wrong_shard
        rerouted, forwarded = standby.rerouted, standby.forwarded
        with pytest.raises(TransportError):
            await send(standby.address, {
                "op": "amend", "root": root, "epoch": opened["epoch"],
                "add": [[9, 2, 1, 3]],
            })
        assert farm.nodes[second].wrong_shard == refused + 1
        assert standby.rerouted == rerouted + 1
        assert standby.forwarded == forwarded + 1
    run(with_farm(go, nodes=3, replication=2, routers=2, lease_ttl=60.0))
