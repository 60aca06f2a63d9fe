"""Tests for the WDM extension models."""

import pytest

from repro.core.requests import RequestSet
from repro.patterns.classic import (
    all_to_all_pattern,
    nearest_neighbour_2d,
    ring_pattern,
)
from repro.simulator.compiled import compiled_completion_time
from repro.simulator.params import SimParams
from repro.simulator.wdm import (
    simulate_dynamic_wdm,
    wdm_compiled_completion_time,
)


class TestCompiledWDM:
    def test_per_wavelength_time_independent_of_degree(self, torus8, params):
        """Full-bandwidth wavelengths: makespan = startup + largest
        transfer, no matter how many wavelengths the pattern needs."""
        sparse = ring_pattern(64, size=64)          # degree 2
        dense = nearest_neighbour_2d(8, 8, size=64)  # degree 4
        a = wdm_compiled_completion_time(torus8, sparse, params)
        b = wdm_compiled_completion_time(torus8, dense, params)
        assert a.num_wavelengths < b.num_wavelengths
        assert a.completion_time == b.completion_time == params.compiled_startup + 16

    def test_wdm_beats_tdm_with_parallel_transmitters(self, torus8, params):
        requests = nearest_neighbour_2d(8, 8, size=64)
        tdm = compiled_completion_time(torus8, requests, params)
        wdm = wdm_compiled_completion_time(torus8, requests, params)
        assert wdm.completion_time < tdm.completion_time
        # all-to-all: parallel transmitters never lose to TDM, and one
        # transmitter per node never beats them
        requests = all_to_all_pattern(64, size=16)
        tdm = compiled_completion_time(torus8, requests, params)
        wdm = wdm_compiled_completion_time(torus8, requests, params)
        single = wdm_compiled_completion_time(
            torus8, requests, params, transmitters="single"
        )
        assert wdm.completion_time <= tdm.completion_time
        assert single.completion_time >= wdm.completion_time

    def test_single_transmitter_serialises_per_source(self, torus8, params):
        requests = nearest_neighbour_2d(8, 8, size=64)  # 4 sends per node
        wdm = wdm_compiled_completion_time(
            torus8, requests, params, transmitters="single"
        )
        # 4 sends x 16 chunks each, back to back.
        assert wdm.completion_time == params.compiled_startup + 4 * 16

    def test_single_transmitter_equals_tdm_for_uniform_stencil(self, torus8, params):
        """With one transmitter, WDM's serialisation mirrors TDM's
        degree-4 frame on the uniform stencil: same makespan."""
        requests = nearest_neighbour_2d(8, 8, size=64)
        tdm = compiled_completion_time(torus8, requests, params)
        wdm = wdm_compiled_completion_time(
            torus8, requests, params, transmitters="single"
        )
        assert abs(wdm.completion_time - tdm.completion_time) <= tdm.degree

    def test_bad_transmitter_model(self, torus8, params):
        with pytest.raises(ValueError):
            wdm_compiled_completion_time(
                torus8, ring_pattern(64), params, transmitters="quantum"
            )

    def test_all_messages_timestamped(self, torus8, params):
        for model in ("per-wavelength", "single"):
            result = wdm_compiled_completion_time(
                torus8, ring_pattern(64, size=8), params, transmitters=model
            )
            assert all(m.delivered is not None for m in result.messages)
            assert all(m.slot is not None for m in result.messages)


class TestDynamicWDM:
    def test_transfer_faster_than_tdm(self, torus8, params):
        """Same protocol, continuous transfer: a single large message
        finishes chunks*(K-1) slots earlier than on TDM at degree K."""
        from repro.simulator.dynamic import simulate_dynamic

        requests = RequestSet.from_pairs([(0, 1)], size=400)
        tdm = simulate_dynamic(torus8, requests, 5, params)
        wdm = simulate_dynamic_wdm(torus8, requests, 5, params)
        assert wdm.messages[0].established == tdm.messages[0].established
        assert wdm.completion_time < tdm.completion_time

    def test_contention_still_present(self, torus8, params):
        requests = RequestSet.from_pairs([(0, 1), (0, 2), (0, 3)], size=80)
        result = simulate_dynamic_wdm(torus8, requests, 1, params)
        assert result.total_retries > 0
        assert all(m.delivered is not None for m in result.messages)

    def test_compiled_wdm_beats_dynamic_wdm(self, torus8, params):
        requests = nearest_neighbour_2d(8, 8, size=16)
        compiled = wdm_compiled_completion_time(torus8, requests, params)
        dynamic = simulate_dynamic_wdm(torus8, requests, 4, params)
        assert compiled.completion_time < dynamic.completion_time
