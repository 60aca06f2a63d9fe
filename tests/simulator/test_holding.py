"""Tests for the holding variant of the reservation protocol."""

import pytest

from repro.core.requests import RequestSet
from repro.patterns.applications import p3m_pattern, tscf_pattern
from repro.patterns.classic import nearest_neighbour_2d
from repro.simulator.dynamic import simulate_dynamic
from repro.simulator.dynamic.trace import ProtocolTrace
from repro.simulator.params import SimParams


class TestHoldingBasics:
    def test_uncontended_identical_to_dropping(self, torus8, params):
        requests = RequestSet.from_pairs([(0, 9)], size=8)
        drop = simulate_dynamic(torus8, requests, 1, params)
        hold = simulate_dynamic(torus8, requests, 1, params, protocol="holding")
        assert drop.completion_time == hold.completion_time
        assert hold.total_retries == 0

    def test_invalid_protocol_rejected(self, torus8, params):
        with pytest.raises(ValueError, match="protocol"):
            simulate_dynamic(
                torus8, RequestSet.from_pairs([(0, 1)]), 1, params,
                protocol="quantum",
            )

    def test_everything_delivered_under_contention(self, torus8, params):
        requests = nearest_neighbour_2d(8, 8, size=16)
        result = simulate_dynamic(torus8, requests, 1, params, protocol="holding")
        assert all(m.delivered is not None for m in result.messages)

    def test_deterministic(self, torus8):
        requests = tscf_pattern().requests
        a = simulate_dynamic(torus8, requests, 2, SimParams(seed=1), protocol="holding")
        b = simulate_dynamic(torus8, requests, 2, SimParams(seed=1), protocol="holding")
        assert a.completion_time == b.completion_time


class TestHoldingVsDropping:
    def test_fewer_retries_under_contention(self, torus8, params):
        """Parking replaces most failed round trips."""
        requests = tscf_pattern().requests
        drop = simulate_dynamic(torus8, requests, 2, params)
        hold = simulate_dynamic(torus8, requests, 2, params, protocol="holding")
        assert hold.total_retries < drop.total_retries
        # ... and stays competitive on TSCF and P3M 5 at K = 1 and 5
        for requests in (tscf_pattern().requests, p3m_pattern(5, 32).requests):
            for k in (1, 5):
                drop = simulate_dynamic(torus8, requests, k, params)
                hold = simulate_dynamic(
                    torus8, requests, k, params, protocol="holding"
                )
                assert hold.total_retries <= drop.total_retries
                assert hold.completion_time <= 1.2 * drop.completion_time

    def test_faster_on_contended_fine_grained_traffic(self, torus8, params):
        requests = tscf_pattern().requests
        drop = simulate_dynamic(torus8, requests, 5, params).completion_time
        hold = simulate_dynamic(
            torus8, requests, 5, params, protocol="holding"
        ).completion_time
        assert hold < drop

    def test_parked_blocking_resolves(self, torus8, params):
        """Same-source messages at degree 1: the second RES parks on the
        injection fiber until the first circuit releases, instead of
        burning retries."""
        requests = RequestSet.from_pairs([(0, 1), (0, 2)], size=40)
        trace = ProtocolTrace(record_hops=False)
        result = simulate_dynamic(
            torus8, requests, 1, params, protocol="holding", trace=trace
        )
        assert trace.count("res-park") >= 1
        assert result.total_retries == 0
        assert all(m.delivered is not None for m in result.messages)

    def test_timeout_breaks_deadlock(self, torus8):
        """Two opposing reservations can hold-and-wait on each other's
        locks; the park timeout must break the cycle and both messages
        must still deliver."""
        # Heavy cross traffic through the same fibers at degree 1.
        requests = RequestSet.from_pairs(
            [(0, 2), (2, 0), (1, 3), (3, 1)], size=200
        )
        params = SimParams(hold_timeout=8)
        result = simulate_dynamic(torus8, requests, 1, params, protocol="holding")
        assert all(m.delivered is not None for m in result.messages)

    def test_compiled_still_wins(self, torus8, params):
        """Even the friendlier protocol does not threaten the paper's
        conclusion."""
        from repro.simulator.compiled import compiled_completion_time

        requests = tscf_pattern().requests
        compiled = compiled_completion_time(torus8, requests, params).completion_time
        for degree in (1, 2, 5, 10):
            hold = simulate_dynamic(
                torus8, requests, degree, params, protocol="holding"
            ).completion_time
            assert compiled < hold
