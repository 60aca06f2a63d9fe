"""Tests for the process-parallel sweep driver."""

import pytest

from repro.analysis import experiments as exp
from repro.analysis.parallel import default_workers, map_tasks, resolve_workers
from repro.core import perf


def _square(x):
    return x * x


def _schedule_small(seed):
    """A top-level task fn touching the schedulers and the route cache."""
    from repro.core.coloring import coloring_schedule
    from repro.core.paths import route_requests
    from repro.patterns.random_patterns import random_pattern
    from repro.topology.torus import Torus2D

    topo = Torus2D(4)
    conns = route_requests(topo, random_pattern(16, 30, seed=seed))
    return coloring_schedule(conns).degree


class TestResolveWorkers:
    def test_passthrough(self):
        assert resolve_workers(None) is None
        assert resolve_workers(3) == 3
        assert resolve_workers("2") == 2

    def test_auto(self):
        n = resolve_workers("auto")
        assert n == default_workers()
        assert n >= 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_workers(0)
        with pytest.raises(ValueError):
            resolve_workers(-2)


class TestMapTasks:
    def test_serial_equals_parallel(self):
        tasks = list(range(8))
        assert map_tasks(_square, tasks) == map_tasks(_square, tasks, workers=2)

    def test_results_in_task_order(self):
        assert map_tasks(_square, [3, 1, 2], workers=2) == [9, 1, 4]

    def test_scheduling_tasks_identical_and_counters_merged(self):
        seeds = [11, 12, 13, 14]
        serial = map_tasks(_schedule_small, seeds)
        perf.reset()
        parallel = map_tasks(_schedule_small, seeds, workers=2)
        assert parallel == serial
        # Worker snapshots were merged back: one adjacency build per
        # task, and every task routed its pattern.
        assert perf.COUNTERS.adjacency_builds == len(seeds)
        assert perf.COUNTERS.route_cache_misses > 0


class TestDriverParity:
    """The table drivers give workers-independent numbers."""

    def test_table1(self, torus8):
        kwargs = dict(connection_counts=(400,), patterns_per_row=2, seed=5)
        assert exp.table1(workers=2, **kwargs) == exp.table1(**kwargs)

    def test_table2(self, torus8):
        kwargs = dict(samples=4, seed=5)
        assert exp.table2(workers=2, **kwargs) == exp.table2(**kwargs)


class TestCacheBenchmark:
    def test_cold_warm_report(self):
        from repro.analysis.benchsuite import run_cache_case
        from repro.core import perf

        perf.reset()
        report = run_cache_case({"torus": 4, "repeats": 1})
        assert report["cold_seconds"] > 0
        assert report["warm_seconds"] > 0
        # The headline property (gated at >=10x on the 8x8 instance by
        # the smoke suite; kept loose here for tiny instances).
        assert report["speedup"] > 1.0
        # one cold miss; the warm and the translated compile both hit
        assert perf.COUNTERS.artifact_cache_misses == 1
        assert perf.COUNTERS.artifact_cache_hits == 2
