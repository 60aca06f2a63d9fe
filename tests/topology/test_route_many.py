"""``Topology.route_many`` must behave like a loop of ``Topology.route``.

Every case runs the same request list through ``route_many`` on one
topology and through a per-pair ``route`` loop on a fresh twin, after
warming both caches identically: the paths, the hit/miss counters and
the cached keys must agree, cached tuples must come back as the same
objects, and a bad request must raise the loop's error.  Request sets
sit below and above the bulk threshold, repeat pairs, and hit partly
warm caches.
"""

import random

import numpy as np
import pytest

from repro.core import perf
from repro.core.routetable import RouteTable
from repro.topology.base import RoutingError
from repro.topology.faults import FaultyTopology
from repro.topology.kary_ncube import BULK_ROUTE_MIN_MISSES, KAryNCube, TieBreak
from repro.topology.linear import LinearArray
from repro.topology.mesh import Mesh2D
from repro.topology.omega import OmegaNetwork
from repro.topology.ring import Ring
from repro.topology.torus import Torus2D


def _cut_torus():
    topo = FaultyTopology(Torus2D(4))
    topo.fail_link(Torus2D(4).route(0, 1)[1])
    return topo


FACTORIES = {
    "torus-8-balanced": lambda: Torus2D(8),
    "torus-8-positive": lambda: Torus2D(8, tie_break=TieBreak.POSITIVE),
    "torus-5x3": lambda: Torus2D(5, 3),
    "torus-6x4-positive": lambda: Torus2D(6, 4, TieBreak.POSITIVE),
    "kary-1x8": lambda: KAryNCube((1, 8)),
    "kary-2x3x2": lambda: KAryNCube((2, 3, 2)),
    "ring-12": lambda: Ring(12),
    "mesh-4": lambda: Mesh2D(4),
    "linear-8": lambda: LinearArray(8),
    "omega-16": lambda: OmegaNetwork(16),
    "faulty-torus-4": _cut_torus,
}


def _pairs(topo):
    n = topo.num_nodes
    return [(s, d) for s in range(n) for d in range(n) if s != d]


def _scenario(topo, warm_count, new_count, seed):
    """(warm pairs, requests): the requests mix warm pairs, ``new_count``
    distinct new pairs and repeats of both."""
    rng = random.Random(seed)
    pairs = _pairs(topo)
    chosen = rng.sample(pairs, warm_count + new_count)
    warm, new = chosen[:warm_count], chosen[warm_count:]
    requests = warm[: warm_count // 2] + new + new[:3] + warm[:2]
    rng.shuffle(requests)
    return warm, requests


def _loop(topo, requests):
    perf.reset()
    paths = [topo.route(s, d) for s, d in requests]
    return paths, (perf.COUNTERS.route_cache_hits, perf.COUNTERS.route_cache_misses)


def _bulk(topo, requests):
    perf.reset()
    paths = topo.route_many(requests)
    return paths, (perf.COUNTERS.route_cache_hits, perf.COUNTERS.route_cache_misses)


@pytest.mark.parametrize("name", FACTORIES)
@pytest.mark.parametrize("new_count", [
    BULK_ROUTE_MIN_MISSES - 1, BULK_ROUTE_MIN_MISSES, 40,
])
def test_matches_the_per_pair_loop(name, new_count, monkeypatch):
    make = FACTORIES[name]
    bulk_topo, loop_topo = make(), make()
    warm, requests = _scenario(bulk_topo, 10, new_count, seed=new_count)
    for s, d in warm:
        bulk_topo.route(s, d)
        loop_topo.route(s, d)
    cached = {key: bulk_topo._route_cache[key] for key in warm}

    vectorized = []
    if isinstance(bulk_topo, KAryNCube):
        real = KAryNCube.route_arrays
        monkeypatch.setattr(
            KAryNCube, "route_arrays",
            lambda self, src, dst: vectorized.append(len(src)) or real(self, src, dst),
        )
    got, got_counts = _bulk(bulk_topo, requests)
    monkeypatch.undo()
    want, want_counts = _loop(loop_topo, requests)

    assert got == want
    assert got_counts == want_counts
    assert got_counts[1] == new_count
    assert set(bulk_topo._route_cache) == set(loop_topo._route_cache)
    for key, path in zip(requests, got):
        if key in cached:
            assert path is cached[key]
    if isinstance(bulk_topo, KAryNCube) and new_count >= BULK_ROUTE_MIN_MISSES:
        assert vectorized == [new_count]
    else:
        assert vectorized == []


def test_all_hits_are_one_lookup_each():
    topo = Torus2D(8)
    pairs = _pairs(topo)[:200]
    first = topo.route_many(pairs)
    perf.reset()
    again = topo.route_many(pairs + pairs[:5])
    assert all(a is b for a, b in zip(again, first + first[:5]))
    assert (perf.COUNTERS.route_cache_hits, perf.COUNTERS.route_cache_misses) == (205, 0)


def test_hit_refreshes_recency():
    topo = Ring(8)
    topo.route_cache_size = 3
    topo.route_many([(0, 1), (0, 2), (0, 3)])
    topo.route_many([(0, 1)])          # (0, 2) is now the oldest
    topo.route_many([(0, 4)])          # ... and is evicted
    assert set(topo._route_cache) == {(0, 3), (0, 1), (0, 4)}


@pytest.mark.parametrize("name", ["torus-8-balanced", "mesh-4"])
def test_cache_bound_holds(name):
    topo = FACTORIES[name]()
    topo.route_cache_size = 5
    requests = _pairs(topo)[:3 * BULK_ROUTE_MIN_MISSES]
    got = topo.route_many(requests)
    assert got == [FACTORIES[name]().route(s, d) for s, d in requests]
    assert len(topo._route_cache) == 5


@pytest.mark.parametrize("name", ["torus-8-balanced", "ring-12", "mesh-4"])
@pytest.mark.parametrize("bad", [(3, 3), (2, 99), (-1, 4), (99, 99), (2, 2**70)])
@pytest.mark.parametrize("valid", [2, 3 * BULK_ROUTE_MIN_MISSES])
def test_first_offending_request_raises_the_loop_error(name, bad, valid):
    make = FACTORIES[name]
    good = _pairs(make())[:valid]
    requests = good[: valid // 2] + [bad, (5, 5), (0, 100)] + good[valid // 2:]
    with pytest.raises(RoutingError) as loop_error:
        _loop(make(), requests)
    with pytest.raises(RoutingError) as bulk_error:
        make().route_many(requests)
    assert str(bulk_error.value) == str(loop_error.value)


def test_out_of_range_ids_are_refused_by_every_bulk_entry():
    topo = Torus2D(8)
    with pytest.raises(RoutingError, match="node 64 out of range"):
        RouteTable.for_pairs(topo, [64, -1], [1, 5])
    with pytest.raises(RoutingError, match="node -1 out of range"):
        RouteTable.for_pairs(topo, [-1, 64], [5, 1])
    with pytest.raises(RoutingError, match="node 64 out of range"):
        topo.route_arrays(np.array([0, 1]), np.array([5, 64]))
    pairs = _pairs(topo)[:2 * BULK_ROUTE_MIN_MISSES] + [(64, 1)]
    with pytest.raises(RoutingError, match="node 64 out of range"):
        topo.route_many(pairs)
