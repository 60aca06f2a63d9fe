"""RouteTable must reproduce ``Topology.route`` byte for byte.

The vectorized k-ary builder (``KAryNCube.route_arrays``) re-derives
dimension-order routing from the topology's own ``signed_offset``
tables; these tests pin the equivalence across radices (odd/even
half-ring tie-breaks), both tie-break policies, higher-dimensional
cubes, and the topologies that only route pair by pair.
"""

import numpy as np
import pytest

from repro.core.requests import Request
from repro.core.routetable import RouteTable
from repro.topology.faults import FaultyTopology
from repro.topology.kary_ncube import KAryNCube, TieBreak
from repro.topology.mesh import Mesh2D
from repro.topology.omega import OmegaNetwork
from repro.topology.ring import Ring
from repro.topology.torus import Torus2D

VECTORIZED = [
    Torus2D(4),
    Torus2D(5, 3),                        # odd radix: no tie to break
    Torus2D(6, 4, TieBreak.POSITIVE),     # policy must flow through
    Torus2D(6, 4, TieBreak.BALANCED),
    KAryNCube((3, 4, 2)),                 # three dimensions
    KAryNCube((8,)),                      # one dimension
    Ring(12),                             # a KAryNCube too
]
# Not k-ary n-cubes: routed pair by pair through Topology.route_many.
FALLBACK = [
    Mesh2D(4),
    OmegaNetwork(8),
    FaultyTopology(Torus2D(4), [Torus2D(4).route(0, 1)[1]]),
]

@pytest.mark.parametrize(
    "topo", VECTORIZED + FALLBACK, ids=lambda t: t.signature
)
def test_all_pairs_matches_topology_route(topo):
    table = RouteTable.all_pairs(topo)
    n = topo.num_nodes
    assert len(table) == n * (n - 1)
    i = 0
    for s in range(n):
        for d in range(n):
            if s == d:
                continue
            assert table.src[i] == s and table.dst[i] == d
            assert table.path(i) == topo.route(s, d), (s, d)
            i += 1


def test_for_pairs_subset_and_total_links():
    topo = Torus2D(4)
    src, dst = [0, 5, 15], [9, 2, 0]
    table = RouteTable.for_pairs(topo, src, dst)
    paths = [topo.route(s, d) for s, d in zip(src, dst)]
    assert [table.path(i) for i in range(3)] == paths
    assert table.total_links() == sum(len(p) for p in paths)


def test_for_pairs_rejects_bad_input():
    topo = Torus2D(4)
    with pytest.raises(ValueError, match="self-pairs"):
        RouteTable.for_pairs(topo, [0, 3], [1, 3])
    with pytest.raises(ValueError, match="equal-length"):
        RouteTable.for_pairs(topo, [0, 1], [2])
    with pytest.raises(ValueError, match="equal-length"):
        RouteTable.for_pairs(topo, np.zeros((2, 2), dtype=int),
                             np.ones((2, 2), dtype=int))


def test_connections_match_route_requests():
    from repro.aapc.bounds import all_pairs_requests
    from repro.core.paths import route_requests

    topo = Torus2D(4, 3)
    requests = all_pairs_requests(topo)
    expected = route_requests(topo, requests)
    got = RouteTable.all_pairs(topo).connections(requests)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.pair == b.pair and a.links == b.links


def test_connections_default_requests_and_length_check():
    topo = Torus2D(4)
    table = RouteTable.for_pairs(topo, [1, 2], [3, 7])
    conns = table.connections()
    assert [c.pair for c in conns] == [(1, 3), (2, 7)]
    with pytest.raises(ValueError, match="requests for a table"):
        table.connections([Request(1, 3)])


def test_empty_pair_list():
    table = RouteTable.for_pairs(Torus2D(4), [], [])
    assert len(table) == 0 and table.total_links() == 0
    assert table.connections() == []
