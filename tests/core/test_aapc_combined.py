"""Tests for the ordered-AAPC and combined schedulers (Fig. 5, sec 3.4)."""

import pytest

from repro.aapc.phases import aapc_decomposition
from repro.core import combined as combined_mod
from repro.core.aapc_ordered import aapc_rank_order, ordered_aapc_schedule
from repro.core.bounds import max_link_load_bound
from repro.core.coloring import coloring_schedule
from repro.core.combined import combined_schedule
from repro.core.conflicts import link_load
from repro.core.paths import route_requests
from repro.core.requests import RequestSet
from repro.patterns.classic import all_to_all_pattern, nearest_neighbour_2d, ring_pattern
from repro.patterns.random_patterns import random_pattern


class TestOrderedAAPC:
    def test_requires_topology_or_map(self, torus8):
        conns = route_requests(torus8, RequestSet.from_pairs([(0, 1)]))
        with pytest.raises(ValueError):
            ordered_aapc_schedule(conns)

    def test_valid_schedule(self, torus8):
        conns = route_requests(torus8, random_pattern(64, 300, seed=5))
        schedule = ordered_aapc_schedule(conns, torus8)
        schedule.validate(conns)

    def test_bounded_by_aapc_phase_count(self, torus8):
        """The defining guarantee: never more configurations than the
        AAPC decomposition has phases, for any pattern."""
        phases = aapc_decomposition(torus8).num_phases
        for seed in range(3):
            conns = route_requests(torus8, random_pattern(64, 3800, seed=seed))
            assert ordered_aapc_schedule(conns, torus8).degree <= phases

    def test_all_to_all_exactly_phase_count(self, torus8):
        conns = route_requests(torus8, all_to_all_pattern(64))
        schedule = ordered_aapc_schedule(conns, torus8)
        schedule.validate(conns)
        assert schedule.degree == aapc_decomposition(torus8).num_phases == 64

    def test_sparse_patterns_merge_phases(self, torus8):
        """With few requests, greedy merges partially filled phases and
        lands well below the 64-phase bound."""
        conns = route_requests(torus8, random_pattern(64, 100, seed=2))
        assert ordered_aapc_schedule(conns, torus8).degree < 20

    def test_rank_order_groups_phases(self, torus8):
        conns = route_requests(torus8, random_pattern(64, 200, seed=4))
        phase_of = aapc_decomposition(torus8).phase_of
        order = aapc_rank_order(conns, phase_of)
        assert sorted(order) == list(range(len(conns)))
        # Connections of the same phase must be contiguous in the order.
        seen_phases = []
        for pos in order:
            p = phase_of[conns[pos].pair]
            if not seen_phases or seen_phases[-1] != p:
                seen_phases.append(p)
        assert len(seen_phases) == len(set(seen_phases))

    def test_explicit_phase_map_used(self, torus8):
        conns = route_requests(torus8, RequestSet.from_pairs([(0, 1), (1, 2)]))
        phase_of = {(0, 1): 0, (1, 2): 0}
        schedule = ordered_aapc_schedule(conns, phase_of=phase_of)
        schedule.validate(conns)
        assert schedule.degree == 1


class TestCombined:
    def test_picks_the_better(self, torus8):
        conns = route_requests(torus8, all_to_all_pattern(64))
        combined = combined_schedule(conns, torus8)
        coloring = coloring_schedule(conns)
        aapc = ordered_aapc_schedule(conns, torus8)
        assert combined.degree == min(coloring.degree, aapc.degree)

    def test_label_names_winner(self, torus8):
        conns = route_requests(torus8, all_to_all_pattern(64))
        combined = combined_schedule(conns, torus8)
        assert combined.scheduler == "combined(aapc)"

    @pytest.mark.parametrize("n", [100, 800, 2400])
    def test_never_worse_than_either(self, torus8, n):
        conns = route_requests(torus8, random_pattern(64, n, seed=n))
        combined = combined_schedule(conns, torus8)
        combined.validate(conns)
        assert combined.degree <= coloring_schedule(conns).degree
        assert combined.degree <= ordered_aapc_schedule(conns, torus8).degree


class TestCombinedStopsAtTheLinkLoadBound:
    """Ordered AAPC runs only when coloring's K exceeds L."""

    @pytest.fixture()
    def aapc_calls(self, monkeypatch):
        calls = []
        real = combined_mod.ordered_aapc_schedule

        def spy(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(combined_mod, "ordered_aapc_schedule", spy)
        return calls

    @pytest.mark.parametrize("pattern,degree", [
        (lambda: ring_pattern(64), 2),
        (lambda: nearest_neighbour_2d(8, 8), 4),
    ], ids=["ring", "nearest-neighbour"])
    def test_coloring_at_the_bound_skips_aapc(self, torus8, aapc_calls, pattern, degree):
        conns = route_requests(torus8, pattern())
        assert max_link_load_bound(conns) == degree
        schedule = combined_schedule(conns, torus8)
        schedule.validate(conns)
        assert schedule.degree == degree
        assert schedule.scheduler == "combined(coloring)"
        assert aapc_calls == []

    def test_coloring_above_the_bound_runs_aapc(self, torus8, aapc_calls):
        conns = route_requests(torus8, all_to_all_pattern(64))
        assert coloring_schedule(conns).degree == 82
        assert max_link_load_bound(conns) == 64
        assert combined_schedule(conns, torus8).degree == 64
        assert len(aapc_calls) == 1

    @pytest.mark.parametrize("n", [100, 800, 2400])
    def test_same_schedule_as_running_both(self, torus8, n):
        conns = route_requests(torus8, random_pattern(64, n, seed=n))
        by_color = coloring_schedule(conns)
        by_aapc = ordered_aapc_schedule(conns, torus8)
        winner = by_aapc if by_aapc.degree < by_color.degree else by_color
        got = combined_schedule(conns, torus8)
        assert got.scheduler == f"combined({winner.scheduler})"
        assert [[c.index for c in cfg] for cfg in got] == [
            [c.index for c in cfg] for cfg in winner
        ]

    def test_missing_topology_raises_before_scheduling(self, torus8, monkeypatch):
        colored = []
        monkeypatch.setattr(
            combined_mod, "coloring_schedule", lambda conns: colored.append(conns)
        )
        conns = route_requests(torus8, ring_pattern(64))
        with pytest.raises(ValueError, match="topology or a phase map"):
            combined_schedule(conns)
        assert colored == []


class TestLinkLoadBound:
    @pytest.mark.parametrize("make", [
        lambda: ring_pattern(64),
        lambda: nearest_neighbour_2d(8, 8),
        lambda: all_to_all_pattern(64),
        lambda: random_pattern(64, 300, seed=1),
        lambda: RequestSet.from_pairs(
            [(0, 9), (0, 9), (0, 9), (1, 2), (9, 0)], allow_duplicates=True
        ),
    ], ids=["ring", "nn", "all-to-all", "random", "duplicates"])
    def test_equals_the_per_link_count(self, torus8, make):
        conns = route_requests(torus8, make())
        assert max_link_load_bound(conns) == max(link_load(conns).values())

    def test_empty(self):
        assert max_link_load_bound([]) == 0
