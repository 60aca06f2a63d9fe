"""Tests for the compiled-communication model."""

import pytest

from repro.core.requests import RequestSet
from repro.patterns.applications import gs_pattern, tscf_pattern
from repro.patterns.random_patterns import random_pattern
from repro.simulator.compiled import (
    compiled_completion_time,
    transfer_chunks,
    transfer_finish,
)
from repro.simulator.params import SimParams
from tests.compiled_reference import simulate_compiled


class TestTransferModel:
    def test_chunks(self):
        assert transfer_chunks(1, 4) == 1
        assert transfer_chunks(4, 4) == 1
        assert transfer_chunks(5, 4) == 2
        assert transfer_chunks(64, 4) == 16

    def test_chunks_rejects_empty(self):
        with pytest.raises(ValueError):
            transfer_chunks(0, 4)

    def test_finish_aligned_start(self):
        # start 0, slot 0, degree 2, 3 chunks: slots 0, 2, 4 -> ends at 5.
        assert transfer_finish(0, 0, 2, 3) == 5

    def test_finish_waits_for_slot(self):
        # start 3, slot 1, degree 4: first use at t=5.
        assert transfer_finish(3, 1, 4, 1) == 6

    def test_degree_one(self):
        assert transfer_finish(10, 0, 1, 7) == 17


class TestPaperGSColumn:
    """The calibration anchor: GS compiled times must equal the paper."""

    @pytest.mark.parametrize("grid,expected", [(64, 35), (128, 67), (256, 131)])
    def test_gs(self, torus8, params, grid, expected):
        result = compiled_completion_time(torus8, gs_pattern(grid).requests, params)
        assert result.completion_time == expected
        assert result.degree == 2

    def test_tscf(self, torus8, params):
        result = compiled_completion_time(torus8, tscf_pattern().requests, params)
        assert result.completion_time == 19  # paper Table 5


class TestAnalyticVsCycle:
    @pytest.mark.parametrize("n,seed", [(30, 0), (120, 1), (300, 2)])
    def test_agree_on_random_patterns(self, torus8, params, n, seed):
        requests = random_pattern(64, n, seed=seed, size=13)
        fast = compiled_completion_time(torus8, requests, params)
        slow = simulate_compiled(torus8, requests, params)
        assert fast.completion_time == slow.completion_time
        assert [m.delivered for m in fast.messages] == [
            m.delivered for m in slow.messages
        ]

    def test_agree_on_gs(self, torus8, params):
        requests = gs_pattern(128).requests
        assert (
            compiled_completion_time(torus8, requests, params).completion_time
            == simulate_compiled(torus8, requests, params).completion_time
        )


class TestResultShape:
    def test_every_message_delivered(self, torus8, params):
        result = compiled_completion_time(
            torus8, random_pattern(64, 50, seed=3, size=10), params
        )
        assert all(m.delivered is not None for m in result.messages)
        assert result.completion_time == max(m.delivered for m in result.messages)

    def test_messages_get_slots_within_degree(self, torus8, params):
        result = compiled_completion_time(
            torus8, random_pattern(64, 50, seed=4), params
        )
        assert all(0 <= m.slot < result.degree for m in result.messages)

    def test_scheduler_choice_respected(self, torus8, params):
        requests = random_pattern(64, 200, seed=5)
        greedy = compiled_completion_time(torus8, requests, params, scheduler="greedy")
        combined = compiled_completion_time(torus8, requests, params, scheduler="combined")
        assert combined.degree <= greedy.degree
        assert combined.completion_time <= greedy.completion_time

    def test_startup_charged(self, torus8):
        requests = RequestSet.from_pairs([(0, 1)])
        with_startup = compiled_completion_time(torus8, requests, SimParams(compiled_startup=10))
        without = compiled_completion_time(torus8, requests, SimParams(compiled_startup=0))
        assert with_startup.completion_time == without.completion_time + 10

    def test_makespan_alias(self, torus8, params):
        result = compiled_completion_time(torus8, RequestSet.from_pairs([(0, 1)]), params)
        assert result.makespan == result.completion_time
