"""Tests for the dynamic path-reservation simulator."""

import pytest

from repro.core.requests import RequestSet
from repro.patterns.applications import gs_pattern
from repro.patterns.classic import ring_pattern
from repro.patterns.random_patterns import random_pattern
from repro.simulator.compiled import compiled_completion_time
from repro.simulator.dynamic import simulate_dynamic
from repro.simulator.dynamic.control import _DynamicSimulator
from repro.simulator.params import SimParams


class TestSingleMessage:
    def test_timing_breakdown(self, torus8, params):
        """One message, no contention: latency = RES + ACK round trip
        plus the transfer."""
        requests = RequestSet.from_pairs([(0, 1)], size=4)
        result = simulate_dynamic(torus8, requests, 1, params)
        m = result.messages[0]
        hops = len(torus8.route(0, 1))  # 3 links
        round_trip = 2 * hops * params.control_hop_latency
        assert m.established == round_trip
        assert m.delivered == round_trip + 1  # one chunk, degree 1
        assert m.retries == 0

    def test_longer_path_costs_more_control(self, torus8, params):
        near = simulate_dynamic(torus8, RequestSet.from_pairs([(0, 1)]), 1, params)
        far = simulate_dynamic(
            torus8, RequestSet.from_pairs([(0, torus8.node(4, 4))]), 1, params
        )
        assert far.completion_time > near.completion_time

    def test_transfer_slowdown_with_degree(self, torus8, params):
        requests = RequestSet.from_pairs([(0, 1)], size=64)
        t1 = simulate_dynamic(torus8, requests, 1, params).completion_time
        t10 = simulate_dynamic(torus8, requests, 10, params).completion_time
        assert t10 > t1  # 1/K of the bandwidth once established


class TestContention:
    def test_same_source_serializes_at_degree_one(self, torus8, params):
        requests = RequestSet.from_pairs([(0, 1), (0, 2)], size=40)
        result = simulate_dynamic(torus8, requests, 1, params)
        a, b = result.messages
        # The injection fiber has one channel: transfers cannot overlap.
        first_done = min(a.delivered, b.delivered)
        second_established = max(a.established, b.established)
        assert second_established >= first_done - 2 * params.control_hop_latency
        assert result.total_retries > 0

    def test_degree_two_overlaps_same_source(self, torus8, params):
        requests = RequestSet.from_pairs([(0, 1), (0, 2)], size=40)
        t1 = simulate_dynamic(torus8, requests, 1, params).completion_time
        t2 = simulate_dynamic(torus8, requests, 2, params).completion_time
        assert t2 < t1

    def test_all_messages_delivered_dense(self, torus8, params):
        requests = random_pattern(64, 800, seed=6, size=4)
        for degree in (1, 5):
            result = simulate_dynamic(torus8, requests, degree, params)
            assert all(m.delivered is not None for m in result.messages)

    def test_retry_counting(self, torus8, params):
        requests = RequestSet.from_pairs([(0, 1), (0, 2), (0, 3)], size=80)
        result = simulate_dynamic(torus8, requests, 1, params)
        assert result.total_retries == sum(m.retries for m in result.messages)


class TestDeterminism:
    def test_same_seed_same_result(self, torus8):
        requests = random_pattern(64, 300, seed=8, size=8)
        a = simulate_dynamic(torus8, requests, 2, SimParams(seed=3))
        b = simulate_dynamic(torus8, requests, 2, SimParams(seed=3))
        assert a.completion_time == b.completion_time
        assert [m.delivered for m in a.messages] == [m.delivered for m in b.messages]

    def test_different_seed_may_differ(self, torus8):
        requests = random_pattern(64, 300, seed=8, size=8)
        times = {
            simulate_dynamic(torus8, requests, 1, SimParams(seed=s)).completion_time
            for s in range(4)
        }
        assert len(times) > 1  # backoff randomisation matters under contention


class TestPaperShape:
    def test_compiled_beats_dynamic_everywhere(self, torus8, params):
        """The paper's headline: compiled < dynamic for every pattern
        and every multiplexing degree."""
        for requests in (gs_pattern(64).requests, ring_pattern(64, size=16)):
            compiled = compiled_completion_time(torus8, requests, params).completion_time
            for degree in (1, 2, 5, 10):
                dynamic = simulate_dynamic(torus8, requests, degree, params).completion_time
                assert compiled < dynamic

    def test_gs_dynamic_matches_paper_within_tolerance(self, torus8, params):
        """Calibration anchor: dynamic GS 64x64 lands near the paper's
        105/118/171/251 column."""
        requests = gs_pattern(64).requests
        paper = {1: 105, 2: 118, 5: 171, 10: 251}
        for degree, expected in paper.items():
            got = simulate_dynamic(torus8, requests, degree, params).completion_time
            assert abs(got - expected) / expected < 0.35

    def test_max_slots_guard(self, torus8):
        requests = random_pattern(64, 100, seed=0, size=1000)
        with pytest.raises(RuntimeError, match="max_slots"):
            simulate_dynamic(torus8, requests, 1, SimParams(max_slots=50))


class TestCalendar:
    """Events due in one slot run in posting order; the past is closed."""

    def _sim(self, torus8):
        requests = RequestSet.from_pairs([(0, 1)], size=4)
        return _DynamicSimulator(torus8, requests, 1, SimParams())

    def test_same_slot_events_run_in_posting_order(self, torus8):
        sim = self._sim(torus8)
        seen = []

        def record(t, name, _):
            seen.append((t, name))
            if name == "a":  # posted into the running slot: runs after "b"
                sim._post(t, record, "c")

        sim._post(5, record, "a")
        sim._post(5, record, "b")
        sim._post(3, record, "z")
        sim.run()
        assert seen == [(3, "z"), (5, "a"), (5, "b"), (5, "c")]

    def test_post_into_a_past_slot_raises(self, torus8):
        sim = self._sim(torus8)
        sim._post(5, lambda t, *_: sim._post(t - 1, print, None), None)
        with pytest.raises(RuntimeError, match="slot 4 while slot 5 runs"):
            sim.run()
