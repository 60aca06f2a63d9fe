"""Tests for the scheduling perf counters."""

from repro.core import perf
from repro.core.perf import PerfCounters


class TestPerfCounters:
    def test_reset_zeroes_in_place(self):
        c = perf.COUNTERS
        c.fit_tests += 7
        saved = perf.COUNTERS
        perf.reset()
        assert perf.COUNTERS is saved  # in-place: cached references stay valid
        assert c.fit_tests == 0

    def test_snapshot_has_derived_rates(self):
        c = PerfCounters(fit_tests=100, kernel_seconds=0.5,
                         route_cache_hits=3, route_cache_misses=1)
        snap = c.snapshot()
        assert snap["fit_tests"] == 100
        assert snap["route_cache_hit_rate"] == 0.75
        assert snap["fit_tests_per_second"] == 200.0

    def test_snapshot_rates_safe_when_idle(self):
        snap = PerfCounters().snapshot()
        assert snap["route_cache_hit_rate"] == 0.0
        assert snap["fit_tests_per_second"] == 0.0

    def test_merge_from_counters_and_dict(self):
        c = PerfCounters(fit_tests=1, kernel_calls=2)
        c.merge(PerfCounters(fit_tests=10))
        c.merge({"kernel_calls": 3, "route_cache_hit_rate": 0.9})  # extras ignored
        assert c.fit_tests == 11
        assert c.kernel_calls == 5

    def test_schedulers_count(self):
        from repro.core.greedy import greedy_schedule
        from repro.core.paths import route_requests
        from repro.patterns.random_patterns import random_pattern
        from repro.topology.torus import Torus2D

        topo = Torus2D(4)
        conns = route_requests(topo, random_pattern(16, 30, seed=0))
        perf.reset()
        greedy_schedule(conns)
        assert perf.COUNTERS.kernel_calls == 1
        assert perf.COUNTERS.kernel_seconds > 0
