"""Property-based tests for the extension subsystems."""

from hypothesis import given, settings, strategies as st

from repro.core.combined import combined_schedule
from repro.core.greedy import greedy_schedule
from repro.core.paths import route_requests
from repro.core.requests import Request, RequestSet
from repro.core.weighted import WeightedSchedule, simulate_weighted, weighted_schedule
from repro.topology.faults import FaultyTopology
from repro.topology.omega import OmegaNetwork
from repro.topology.torus import Torus2D

TORUS = Torus2D(4)


@st.composite
def sized_request_sets(draw, max_requests: int = 15):
    n = TORUS.num_nodes
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ),
            min_size=1,
            max_size=max_requests,
            unique=True,
        )
    )
    sizes = draw(st.lists(st.integers(1, 100), min_size=len(pairs), max_size=len(pairs)))
    return RequestSet([Request(s, d, size=z) for (s, d), z in zip(pairs, sizes)])


class TestWeightedProperties:
    @given(sized_request_sets())
    @settings(max_examples=60, deadline=None)
    def test_weighted_never_slower_than_flat(self, rs):
        conns = route_requests(TORUS, rs)
        base = greedy_schedule(conns)
        flat = simulate_weighted(
            WeightedSchedule(base=base, frame=list(range(base.degree)))
        )
        weighted = simulate_weighted(weighted_schedule(base))
        assert weighted <= flat

    @given(sized_request_sets())
    @settings(max_examples=60, deadline=None)
    def test_weighted_valid_and_complete(self, rs):
        conns = route_requests(TORUS, rs)
        base = greedy_schedule(conns)
        weighted = weighted_schedule(base)
        weighted.validate(conns)
        assert weighted.frame_length <= 4 * base.degree


class TestFaultProperties:
    @given(
        st.integers(0, Torus2D(4).num_transit_links - 1),
        st.integers(0, 15),
        st.integers(0, 15),
    )
    @settings(max_examples=150, deadline=None)
    def test_single_failure_never_disconnects(self, offset, s, d):
        """One fiber cut on a 4x4 torus leaves every pair routable with
        a path avoiding the cut."""
        if s == d:
            return
        faulty = FaultyTopology(Torus2D(4))
        link = faulty.transit_link_base + offset
        faulty.fail_link(link)
        path = faulty.route(s, d)
        assert link not in path
        infos = [faulty.link_info(l) for l in path]
        assert infos[0].src == s and infos[-1].dst == d
        for a, b in zip(infos, infos[1:]):
            assert a.dst == b.src

    @given(st.sets(st.integers(0, Torus2D(4).num_transit_links - 1),
                   min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_schedules_avoid_failed_fibers(self, offsets):
        from hypothesis import assume

        from repro.topology.base import RoutingError

        faulty = FaultyTopology(Torus2D(4))
        for off in offsets:
            faulty.fail_link(faulty.transit_link_base + off)
        rs = RequestSet.from_pairs([(i, (i + 5) % 16) for i in range(16)])
        try:
            conns = route_requests(faulty, rs)
        except RoutingError:
            # Cutting all fibers out of one switch legitimately
            # disconnects it; that case is covered by its own test.
            assume(False)
        schedule = combined_schedule(conns, faulty)
        schedule.validate(conns)
        for c in conns:
            assert faulty.failed_links.isdisjoint(c.link_set)


class TestOmegaProperties:
    @given(st.sampled_from([4, 8, 16, 32]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_route_chain_and_length(self, n, data):
        om = OmegaNetwork(n)
        s = data.draw(st.integers(0, n - 1))
        d = data.draw(st.integers(0, n - 1).filter(lambda x: x != s))
        path = om.route(s, d)
        assert len(path) == om.bits + 2
        assert len(set(path)) == len(path)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_permutation_loads_are_balanced(self, data):
        """Any permutation loads each stage wire at most ... n times is
        trivial; the sharper invariant: total wire hops = n * stages."""
        n = 16
        om = OmegaNetwork(n)
        perm = data.draw(st.permutations(range(n)))
        pairs = [(i, p) for i, p in enumerate(perm) if i != p]
        if not pairs:
            return
        conns = route_requests(om, RequestSet.from_pairs(pairs))
        from repro.core.conflicts import link_load

        transit_hops = sum(
            load for link, load in link_load(conns).items()
            if link >= om.transit_link_base
        )
        assert transit_hops == len(pairs) * om.bits


class TestSerializationProperties:
    @given(sized_request_sets())
    @settings(max_examples=40, deadline=None)
    def test_schedule_roundtrip_identity(self, rs):
        from repro.compiler.serialize import schedule_from_dict, schedule_to_dict

        conns = route_requests(TORUS, rs)
        schedule = greedy_schedule(conns)
        loaded, _ = schedule_from_dict(TORUS, schedule_to_dict(schedule))
        assert loaded.degree == schedule.degree
        assert [
            sorted(c.pair for c in cfg) for cfg in loaded
        ] == [
            sorted(c.pair for c in cfg) for cfg in schedule
        ]

    @given(sized_request_sets())
    @settings(max_examples=30, deadline=None)
    def test_codegen_trace_identity(self, rs):
        from repro.compiler.codegen import decode_registers, generate_registers

        conns = route_requests(TORUS, rs)
        schedule = greedy_schedule(conns)
        traced = decode_registers(generate_registers(TORUS, schedule))
        assert traced == [{c.pair for c in cfg} for cfg in schedule]


class TestDynamicNetworkInvariants:
    @given(sized_request_sets(), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_network_clean_after_drain(self, rs, degree):
        """After every message delivers and releases, no channel may
        remain owned or locked -- leaks would starve later traffic."""
        from repro.simulator.dynamic.control import _DynamicSimulator
        from repro.simulator.params import SimParams

        sim = _DynamicSimulator(TORUS, rs, degree, SimParams())
        sim.run()
        assert sim.net.occupied_channels() == 0
        for state in sim.net._links.values():
            assert all(l == -1 for l in state.lock)
