"""Tests for the per-topology LRU route cache."""

from repro.core import perf
from repro.topology.faults import FaultyTopology
from repro.topology.ring import Ring
from repro.topology.torus import Torus2D


class TestRouteCache:
    def test_hit_returns_same_path_and_counts(self):
        topo = Torus2D(4)
        perf.reset()
        first = topo.route(0, 5)
        assert perf.COUNTERS.route_cache_misses == 1
        assert perf.COUNTERS.route_cache_hits == 0
        second = topo.route(0, 5)
        assert second == first
        assert second is first  # cached object, not a recomputation
        assert perf.COUNTERS.route_cache_hits == 1

    def test_cached_routes_share_their_link_id_objects(self):
        # Link ids past 256 would be a fresh int object per route; the
        # topology's shared ones make a cached route cost only its tuple.
        topo = Torus2D(16)
        walked = [topo.route(s, 255) for s in (0, 17)]
        bulk = topo.route_many([(s, 255) for s in range(32, 48)])  # one bulk pass
        seen = {}
        for path in walked + bulk:
            for link in path:
                assert seen.setdefault(link, link) is link
        assert seen[topo.eject_link(255)] is walked[0][-1]

    def test_distinct_pairs_are_distinct_entries(self):
        topo = Torus2D(4)
        assert topo.route(1, 2) != topo.route(2, 1)

    def test_lru_eviction(self):
        topo = Ring(8)
        topo.route_cache_size = 2
        perf.reset()
        topo.route(0, 1)
        topo.route(0, 2)
        topo.route(0, 3)  # evicts (0, 1), the least recently used
        misses = perf.COUNTERS.route_cache_misses
        topo.route(0, 1)
        assert perf.COUNTERS.route_cache_misses == misses + 1
        # (0, 3) is still resident.
        topo.route(0, 3)
        assert perf.COUNTERS.route_cache_misses == misses + 1

    def test_lru_touch_on_hit(self):
        topo = Ring(8)
        topo.route_cache_size = 2
        topo.route(0, 1)
        topo.route(0, 2)
        topo.route(0, 1)  # refresh (0, 1)
        topo.route(0, 3)  # evicts (0, 2), now the oldest
        perf.reset()
        topo.route(0, 1)
        assert perf.COUNTERS.route_cache_hits == 1
        topo.route(0, 2)
        assert perf.COUNTERS.route_cache_misses == 1

    def test_invalidate_route_cache(self):
        topo = Torus2D(4)
        topo.route(0, 5)
        topo.invalidate_route_cache()
        perf.reset()
        topo.route(0, 5)
        assert perf.COUNTERS.route_cache_misses == 1

    def test_fault_injection_invalidates(self):
        base = Torus2D(4)
        topo = FaultyTopology(base)
        healthy = topo.route(0, 1)
        on_path = healthy[1]  # first transit fiber of the path
        topo.fail_link(on_path)
        rerouted = topo.route(0, 1)
        assert on_path not in rerouted
        topo.restore_link(on_path)
        assert topo.route(0, 1) == healthy


class TestRestoreInvalidation:
    """Regression: ``restore_link`` must also invalidate cached routes.

    A cached detour is still *valid* after the repair, but keeping it
    would silently pin traffic to the longer path -- and, worse, a
    cached detour through a fiber that is cut *later* would be served
    stale.  The audit confirmed ``FaultyTopology.restore_link`` calls
    ``invalidate_route_cache``; these tests pin that behaviour.
    """

    def test_restore_recomputes_not_serves_cached_detour(self):
        topo = FaultyTopology(Torus2D(4))
        healthy = topo.route(0, 1)
        cut = healthy[1]
        topo.fail_link(cut)
        detour = topo.route(0, 1)
        assert detour != healthy
        topo.restore_link(cut)
        perf.reset()
        after = topo.route(0, 1)
        # Recomputed (cache was invalidated), and back on the short path.
        assert perf.COUNTERS.route_cache_misses == 1
        assert after == healthy

    def test_restore_one_while_other_still_cut(self):
        # Restoring A must not resurrect any route through still-cut B.
        topo = FaultyTopology(Torus2D(4))
        healthy = topo.route(0, 1)
        a = healthy[1]
        topo.fail_link(a)
        detour = topo.route(0, 1)
        b = detour[1]  # first fiber of the detour
        topo.fail_link(b)
        topo.route(0, 1)  # caches a second detour avoiding both
        topo.restore_link(a)
        after = topo.route(0, 1)
        assert b not in after
        assert after == healthy  # a is usable again

    def test_restore_of_unused_link_still_invalidates(self):
        # The invalidation is global (cheap and simple); pin that a
        # restore that touches no cached route still flushes.
        topo = FaultyTopology(Torus2D(4))
        spare = topo.route(5, 6)[1]
        topo.fail_link(spare)
        topo.route(0, 1)
        topo.restore_link(spare)
        perf.reset()
        topo.route(0, 1)
        assert perf.COUNTERS.route_cache_misses == 1
