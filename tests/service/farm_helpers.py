"""Scaffolding shared by the farm test modules: run a scenario against
a started in-process farm (one router or an HA pair) and shut it down."""

import asyncio
import contextlib
import random

from repro.service.farm import Farm, ShardMap, route_digest


def run(coro):
    return asyncio.run(coro)


async def with_farm(fn, **farm_kwargs):
    farm_kwargs.setdefault("workers", 0)
    farm = Farm(**farm_kwargs)
    await farm.start()
    try:
        return await fn(farm)
    finally:
        await farm.shutdown()


async def with_ha_farm(fn, **farm_kwargs):
    """A two-router farm with a short lease, so promotion is fast."""
    farm_kwargs.setdefault("routers", 2)
    farm_kwargs.setdefault("lease_ttl", 0.5)
    return await with_farm(fn, **farm_kwargs)


@contextlib.asynccontextmanager
async def hung_endpoint():
    """A loopback endpoint that accepts connections and never answers."""
    conns = []

    async def swallow(reader, writer):
        conns.append(writer)
        await reader.read()  # hold the request until the caller hangs up

    server = await asyncio.start_server(swallow, "127.0.0.1", 0)
    try:
        host, port = server.sockets[0].getsockname()[:2]
        yield {"host": host, "port": port}
    finally:
        server.close()
        for writer in conns:
            writer.close()
        await server.wait_closed()


def with_members(shard_map, first=None, last=None):
    """``shard_map`` bumped one version with extra members placed first
    and/or last in map order (name -> endpoint dicts)."""
    return ShardMap(
        {**(first or {}), **shard_map.nodes, **(last or {})},
        replication=shard_map.replication,
        version=shard_map.version + 1, epoch=shard_map.epoch,
    )


def cold_requests(count, *, shard_map=None, owners=None, seed=0):
    """``count`` compile requests for distinct random 4x4-torus patterns;
    with ``owners``, only requests whose owner set is exactly those."""
    rng = random.Random(seed)
    out, seen = [], set()
    while len(out) < count:
        pairs = sorted({tuple(rng.sample(range(16), 2)) for _ in range(6)})
        req = {"op": "compile", "topology": {"kind": "torus", "width": 4},
               "pairs": [list(p) for p in pairs]}
        digest = route_digest(req)
        if digest in seen:
            continue
        if owners is not None and set(shard_map.owners(digest)) != set(owners):
            continue
        seen.add(digest)
        out.append(req)
    return out


def record_opens(monkeypatch):
    """Record every ``asyncio.open_connection`` from here on: the list
    of ``(port, writer)`` it returns fills in the order they open."""
    opened = []
    real = asyncio.open_connection

    async def recording(host, port, **kwargs):
        reader, writer = await real(host, port, **kwargs)
        opened.append((port, writer))
        return reader, writer

    monkeypatch.setattr(asyncio, "open_connection", recording)
    return opened
