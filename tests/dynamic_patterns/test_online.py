"""Tests for the dynamic-pattern mechanisms (standing AAPC, multihop)."""

import pytest

from repro.dynamic_patterns import (
    MultihopEmulation,
    OnlineRequest,
    StandingAllToAll,
    random_online_workload,
)
from repro.simulator.params import SimParams


class TestWorkload:
    def test_deterministic(self):
        a = random_online_workload(64, 50, seed=1)
        b = random_online_workload(64, 50, seed=1)
        assert a == b

    def test_no_self_messages(self):
        for r in random_online_workload(64, 200, seed=2):
            assert r.src != r.dst
            assert 0 <= r.src < 64
            assert 0 <= r.dst < 64

    def test_arrivals_nondecreasing(self):
        wl = random_online_workload(64, 100, seed=3)
        arrivals = [r.arrival for r in wl]
        assert arrivals == sorted(arrivals)

    def test_mean_gap_scales_span(self):
        fast = random_online_workload(64, 200, mean_gap=1.0, seed=4)
        slow = random_online_workload(64, 200, mean_gap=8.0, seed=4)
        assert slow[-1].arrival > fast[-1].arrival

    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineRequest(src=1, dst=1, size=4, arrival=0)
        with pytest.raises(ValueError):
            OnlineRequest(src=0, dst=1, size=0, arrival=0)
        with pytest.raises(ValueError):
            random_online_workload(64, 0)


class TestStandingAllToAll:
    @pytest.fixture(scope="class")
    def service(self, request):
        from repro.topology.torus import Torus2D

        return StandingAllToAll(Torus2D(8))

    def test_frame_is_aapc(self, service):
        assert service.frame_length == 64

    def test_single_message_latency(self, service):
        """One 4-element message = one phase visit: latency < frame."""
        wl = [OnlineRequest(src=0, dst=1, size=4, arrival=0)]
        out = service.simulate(wl)
        m = out.messages[0]
        assert m.delivered is not None
        assert m.delivered - m.first_attempt <= service.frame_length

    def test_multichunk_message_spans_frames(self, service):
        wl = [OnlineRequest(src=0, dst=1, size=12, arrival=0)]
        out = service.simulate(wl)
        latency = out.messages[0].delivered - out.messages[0].first_attempt
        assert latency > 2 * service.frame_length  # 3 chunks, one per frame

    def test_same_pair_messages_queue(self, service):
        wl = [
            OnlineRequest(src=0, dst=1, size=4, arrival=0),
            OnlineRequest(src=0, dst=1, size=4, arrival=0),
        ]
        out = service.simulate(wl)
        d = sorted(m.delivered for m in out.messages)
        assert d[1] - d[0] >= service.frame_length  # second waits a frame

    def test_different_pairs_independent(self, service):
        wl = [
            OnlineRequest(src=0, dst=1, size=4, arrival=0),
            OnlineRequest(src=2, dst=3, size=4, arrival=0),
        ]
        out = service.simulate(wl)
        for m in out.messages:
            assert m.delivered - m.first_attempt <= service.frame_length

    def test_random_workload_completes(self, service):
        wl = random_online_workload(64, 150, seed=5)
        out = service.simulate(wl)
        assert all(m.delivered is not None for m in out.messages)


class TestMultihopEmulation:
    @pytest.fixture(scope="class")
    def emu(self):
        from repro.topology.torus import Torus2D

        return MultihopEmulation(Torus2D(8))

    def test_short_frame(self, emu):
        assert emu.frame_length < 16  # hypercube needs ~8 slots, not 64

    def test_ecube_next_hop(self, emu):
        assert emu.next_hop(0b000000, 0b000101) == 0b000001
        assert emu.next_hop(0b000001, 0b000101) == 0b000101

    def test_hops_is_hamming(self, emu):
        assert emu.hops(0, 63) == 6
        assert emu.hops(5, 4) == 1

    def test_neighbour_message_single_hop(self, emu):
        wl = [OnlineRequest(src=0, dst=1, size=4, arrival=0)]
        out = emu.simulate(wl)
        assert out.messages[0].delivered <= emu.frame_length

    def test_far_message_multihop(self, emu):
        wl = [OnlineRequest(src=0, dst=63, size=4, arrival=0)]
        out = emu.simulate(wl)
        # 6 logical hops, each waits for its channel's slot.
        latency = out.messages[0].delivered
        assert latency > 2 * emu.frame_length
        assert latency <= 7 * emu.frame_length

    def test_random_workload_completes(self, emu):
        wl = random_online_workload(64, 150, seed=6)
        out = emu.simulate(wl)
        assert all(m.delivered is not None for m in out.messages)

    def test_requires_power_of_two(self):
        from repro.topology.kary_ncube import KAryNCube

        with pytest.raises(ValueError):
            MultihopEmulation(KAryNCube((3, 3)))


class TestMechanismComparison:
    def test_multihop_beats_standing_for_neighbours(self):
        """Short logical distances amortise the shorter frame."""
        from repro.topology.torus import Torus2D

        topo = Torus2D(8)
        standing = StandingAllToAll(topo)
        multihop = MultihopEmulation(topo)
        wl = [OnlineRequest(src=i, dst=i ^ 1, size=4, arrival=0) for i in range(64)]
        t_standing = standing.simulate(wl).completion_time
        t_multihop = multihop.simulate(wl).completion_time
        assert t_multihop < t_standing

    def test_latency_under_rising_load(self):
        """200 messages at mean gaps of 8, 4, 2 and 1 slots: mean latency
        does not fall as the load rises, and at light load the
        multihop emulation's short frame beats the standing AAPC."""
        from repro.simulator.metrics import summarize
        from repro.topology.torus import Torus2D

        topo = Torus2D(8)
        standing = StandingAllToAll(topo)
        multihop = MultihopEmulation(topo)
        params = SimParams()
        standing_lat, multihop_lat = [], []
        for gap in (8.0, 4.0, 2.0, 1.0):
            wl = random_online_workload(64, 200, mean_gap=gap, size=4, seed=17)
            standing_lat.append(
                summarize(standing.simulate(wl, params).messages)["latency_mean"]
            )
            multihop_lat.append(
                summarize(multihop.simulate(wl, params).messages)["latency_mean"]
            )
        assert standing_lat[-1] >= 0.8 * standing_lat[0]
        assert multihop_lat[-1] >= 0.8 * multihop_lat[0]
        assert multihop_lat[0] < standing_lat[0]

    def test_dynamic_reservation_accepts_arrivals(self, torus8):
        from repro.core.requests import RequestSet
        from repro.simulator.dynamic import simulate_dynamic

        rs = RequestSet.from_pairs([(0, 1), (2, 3)], size=4)
        out = simulate_dynamic(torus8, rs, 2, SimParams(), arrivals=[0, 100])
        late = out.messages[1]
        assert late.first_attempt == 100
        assert late.delivered > 100

    def test_arrival_length_mismatch(self, torus8):
        from repro.core.requests import RequestSet
        from repro.simulator.dynamic import simulate_dynamic

        rs = RequestSet.from_pairs([(0, 1)], size=4)
        with pytest.raises(ValueError):
            simulate_dynamic(torus8, rs, 1, SimParams(), arrivals=[0, 1])
