"""Tests for fault-tolerant routing and rescheduling."""

import pytest

from repro.core.combined import combined_schedule
from repro.core.paths import route_requests
from repro.patterns.classic import nearest_neighbour_2d
from repro.topology.base import RoutingError
from repro.topology.faults import FaultyTopology
from repro.topology.linear import LinearArray
from repro.topology.torus import Torus2D


@pytest.fixture()
def faulty8():
    return FaultyTopology(Torus2D(8))


class TestFailureManagement:
    def test_no_failures_routes_identically(self, faulty8, torus8):
        for s, d in ((0, 9), (5, 60), (63, 0)):
            assert faulty8.route(s, d) == torus8.route(s, d)

    def test_pe_fibers_cannot_fail(self, faulty8, torus8):
        with pytest.raises(ValueError, match="transit"):
            faulty8.fail_link(torus8.inject_link(0))
        with pytest.raises(ValueError, match="transit"):
            faulty8.fail_link(torus8.eject_link(0))

    def test_restore(self, faulty8, torus8):
        link = torus8.route(0, 1)[1]
        faulty8.fail_link(link)
        rerouted = faulty8.route(0, 1)
        faulty8.restore_link(link)
        assert faulty8.route(0, 1) == torus8.route(0, 1)
        assert rerouted != torus8.route(0, 1)

    def test_signature_reflects_failures(self, faulty8, torus8):
        before = faulty8.signature
        faulty8.fail_link(torus8.route(0, 1)[1])
        assert faulty8.signature != before


class TestRerouting:
    def test_avoids_failed_link(self, faulty8, torus8):
        link = torus8.route(0, 2)[1]  # first +x fiber of the path
        faulty8.fail_link(link)
        path = faulty8.route(0, 2)
        assert link not in path
        assert faulty8.link_info(path[0]).src == 0
        assert faulty8.link_info(path[-1]).dst == 2

    def test_reroute_is_a_chain(self, faulty8, torus8):
        for transit in torus8.route(0, 9)[1:-1]:
            faulty8.fail_link(transit)
        path = faulty8.route(0, 9)
        infos = [faulty8.link_info(l) for l in path]
        for a, b in zip(infos, infos[1:]):
            assert a.dst == b.src

    def test_yx_fallback_stays_minimal(self, faulty8, torus8):
        """Failing one XY link should reroute at equal length via YX."""
        base_len = len(torus8.route(0, 9))
        faulty8.fail_link(torus8.route(0, 9)[1])
        assert len(faulty8.route(0, 9)) == base_len

    def test_bfs_fallback_on_heavy_damage(self, torus8):
        # Fail every +x and -x fiber in row 0 except the 7<->0 pair:
        # traffic must detour through other rows.
        faulty = FaultyTopology(Torus2D(8))
        for x in range(6):
            faulty.fail_link(torus8.transit_link(torus8.node(x, 0), 0, True))
            faulty.fail_link(torus8.transit_link(torus8.node(x + 1, 0), 0, False))
        path = faulty.route(torus8.node(0, 0), torus8.node(3, 0))
        assert faulty._failed.isdisjoint(path)

    def test_disconnection_raises(self):
        # A 2-node linear array dies with its two fibers cut.
        lin = LinearArray(2)
        faulty = FaultyTopology(lin, failed=[lin.forward_link(0)])
        faulty.fail_link(lin.backward_link(0))
        with pytest.raises(RoutingError, match="disconnected"):
            faulty.route(0, 1)

    def test_linear_array_base_supported(self):
        lin = LinearArray(5)
        faulty = FaultyTopology(lin)
        assert faulty.route(0, 3) == lin.route(0, 3)


class TestReschedulingUnderFaults:
    def test_schedule_valid_after_failures(self, torus8):
        faulty = FaultyTopology(Torus2D(8))
        victims = [torus8.transit_link(n, 0, True) for n in (0, 9, 18)]
        for v in victims:
            faulty.fail_link(v)
        requests = nearest_neighbour_2d(8, 8)
        connections = route_requests(faulty, requests)
        for c in connections:
            assert faulty.failed_links.isdisjoint(c.link_set)
        schedule = combined_schedule(connections, faulty)
        schedule.validate(connections)

    def test_failures_inflate_degree_boundedly(self, torus8):
        """Cut 0, 2, 4 then 6 +x fibers: every schedule validates and
        the stencil degree grows monotonically, by at most 4."""
        healthy = Torus2D(8)
        requests = nearest_neighbour_2d(8, 8)
        base = combined_schedule(route_requests(healthy, requests), healthy).degree
        faulty = FaultyTopology(Torus2D(8))
        victims = [torus8.transit_link(n, 0, True) for n in (0, 9, 18, 27, 36, 45)]
        degrees = []
        for cut in range(0, len(victims) + 1, 2):
            for link in victims[max(cut - 2, 0):cut]:
                faulty.fail_link(link)
            connections = route_requests(faulty, requests)
            schedule = combined_schedule(connections, faulty)
            schedule.validate(connections)
            degrees.append(schedule.degree)
        assert degrees[0] == base == 4
        assert degrees == sorted(degrees)
        assert degrees[-1] <= base + 4
