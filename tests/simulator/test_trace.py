"""Tests for dynamic-protocol event tracing."""

import time

import pytest

from repro.core.requests import RequestSet
from repro.patterns.applications import p3m_pattern
from repro.simulator.dynamic import simulate_dynamic
from repro.simulator.dynamic.trace import ProtocolTrace, TraceEvent
from repro.simulator.params import SimParams


@pytest.fixture()
def traced_run(torus8):
    trace = ProtocolTrace()
    requests = RequestSet.from_pairs([(0, 1), (0, 2), (5, 6)], size=8)
    result = simulate_dynamic(torus8, requests, 1, SimParams(), trace=trace)
    return trace, result


class TestTraceContent:
    def test_attached_to_result(self, traced_run):
        trace, result = traced_run
        assert result.trace is trace

    def test_one_arrival_per_message(self, traced_run):
        trace, result = traced_run
        assert trace.count("arrive") == len(result.messages)

    def test_every_message_established_and_delivered(self, traced_run):
        trace, result = traced_run
        assert trace.count("established") == len(result.messages)
        assert trace.count("delivered") == len(result.messages)
        assert trace.count("released") == len(result.messages)

    def test_failures_match_retry_count(self, traced_run):
        trace, result = traced_run
        assert trace.count("res-fail") == result.total_retries

    def test_wellformed(self, traced_run):
        trace, _ = traced_run
        trace.check_wellformed()

    def test_per_message_ordering(self, traced_run):
        trace, _ = traced_run
        for mid in range(3):
            kinds = [e.kind for e in trace.of_message(mid)]
            assert kinds[0] == "arrive"
            assert kinds.index("established") < kinds.index("delivered")
            assert kinds.index("delivered") < kinds.index("released")

    def test_chronological(self, traced_run):
        trace, _ = traced_run
        times = [e.time for e in trace.events]
        assert times == sorted(times)


class TestTraceOptions:
    def test_hop_recording_optional(self, torus8):
        quiet = ProtocolTrace(record_hops=False)
        requests = RequestSet.from_pairs([(0, 9)], size=4)
        simulate_dynamic(torus8, requests, 1, SimParams(), trace=quiet)
        assert quiet.count("res-hop") == 0
        assert quiet.count("established") == 1

    def test_render_limits(self, traced_run):
        trace, _ = traced_run
        out = trace.render(limit=5)
        assert "more events" in out
        assert len(out.splitlines()) == 6

    def test_no_trace_by_default(self, torus8):
        requests = RequestSet.from_pairs([(0, 1)])
        result = simulate_dynamic(torus8, requests, 1, SimParams())
        assert result.trace is None


class TestWellformedChecks:
    def test_detects_double_arrival(self):
        trace = ProtocolTrace()
        trace.events = [TraceEvent(0, "arrive", 0), TraceEvent(1, "arrive", 0)]
        with pytest.raises(AssertionError, match="arrivals"):
            trace.check_wellformed()

    def test_detects_delivery_before_establishment(self):
        trace = ProtocolTrace()
        trace.events = [
            TraceEvent(0, "arrive", 0),
            TraceEvent(5, "delivered", 0),
            TraceEvent(9, "established", 0),
        ]
        with pytest.raises(AssertionError, match="before"):
            trace.check_wellformed()

    def test_dense_trace_checks_faster_than_it_simulates(self, torus8):
        # 2,016 messages and ~38k events: a per-message rescan of the
        # whole trace costs several times the simulation itself.
        trace = ProtocolTrace()
        requests = p3m_pattern(2, 32).requests
        t0 = time.perf_counter()
        simulate_dynamic(torus8, requests, 2, SimParams(), trace=trace)
        simulate_s = time.perf_counter() - t0
        assert len(requests) == 2016
        assert len(trace.events) > 30_000
        t0 = time.perf_counter()
        trace.check_wellformed()
        assert time.perf_counter() - t0 < simulate_s
