"""Tests for the scheduler registry and the ablation schedulers."""

import pytest

from repro.core.extra_schedulers import (
    coloring_repack_schedule,
    combined_repack_schedule,
    dsatur_schedule,
    largest_first_schedule,
    longest_first_schedule,
    random_restart_schedule,
    shortest_first_schedule,
)
from repro.core.paths import route_requests
from repro.core.registry import get_scheduler, scheduler_names
from repro.patterns.random_patterns import random_pattern


@pytest.fixture(scope="module")
def conns(request):
    from repro.topology.torus import Torus2D

    topo = Torus2D(8)
    return topo, route_requests(topo, random_pattern(64, 300, seed=11))


class TestRegistry:
    def test_paper_schedulers_first(self):
        assert scheduler_names()[:4] == ["greedy", "coloring", "aapc", "combined"]

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown scheduler"):
            get_scheduler("does-not-exist")

    @pytest.mark.parametrize("name", [
        "greedy", "coloring", "coloring-ratio", "aapc", "combined", "dsatur",
        "largest-first", "random-restart", "longest-first", "shortest-first",
        "coloring+repack", "combined+repack",
    ])
    def test_every_scheduler_produces_valid_schedule(self, conns, name):
        topo, connections = conns
        schedule = get_scheduler(name)(connections, topo)
        schedule.validate(connections)
        assert schedule.degree >= 1


class TestExtraSchedulers:
    def test_dsatur_competitive(self, conns):
        topo, connections = conns
        from repro.core.coloring import coloring_schedule

        dsatur = dsatur_schedule(connections).degree
        paper = coloring_schedule(connections).degree
        assert dsatur <= paper + 3

    def test_largest_first_valid(self, conns):
        _, connections = conns
        largest_first_schedule(connections).validate(connections)

    def test_random_restart_at_least_as_good_as_single(self, conns):
        _, connections = conns
        from repro.core.packing import first_fit
        import numpy as np

        best = random_restart_schedule(connections, restarts=10, seed=0).degree
        rng = np.random.default_rng(0)
        singles = [
            first_fit(connections, rng.permutation(len(connections)).tolist()).degree
            for _ in range(10)
        ]
        assert best <= min(singles) + 1  # same distribution, near-min

    def test_random_restart_deterministic(self, conns):
        _, connections = conns
        a = random_restart_schedule(connections, restarts=5, seed=3).degree
        b = random_restart_schedule(connections, restarts=5, seed=3).degree
        assert a == b

    def test_longest_vs_shortest_order(self, conns):
        """Longest-first should not lose to shortest-first by much; both
        must be valid (the zoo comparison is in ``TestAblation``)."""
        _, connections = conns
        lf = longest_first_schedule(connections)
        sf = shortest_first_schedule(connections)
        lf.validate(connections)
        sf.validate(connections)

    def test_repack_variants_never_worse(self, conns):
        topo, connections = conns
        from repro.core.coloring import coloring_schedule
        from repro.core.combined import combined_schedule

        assert (
            coloring_repack_schedule(connections).degree
            <= coloring_schedule(connections).degree
        )
        assert (
            combined_repack_schedule(connections, topo).degree
            <= combined_schedule(connections, topo).degree
        )

    def test_empty_random_restart(self):
        assert random_restart_schedule([], restarts=3).degree == 0
