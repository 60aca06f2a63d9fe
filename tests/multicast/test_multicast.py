"""Tests for multicast trees, scheduling and fanout codegen."""

import pytest

from repro.core.coloring import coloring_schedule
from repro.core.greedy import greedy_schedule
from repro.multicast import (
    MulticastRequest,
    MulticastSet,
    all_broadcast_pattern,
    broadcast_pattern,
    decode_multicast_registers,
    generate_multicast_registers,
    route_multicasts,
    row_multicast_pattern,
)


class TestRequests:
    def test_dsts_sorted_deduped(self):
        r = MulticastRequest(0, (5, 3, 5, 1))
        assert r.dsts == (1, 3, 5)
        assert r.fanout == 3

    def test_source_not_destination(self):
        with pytest.raises(ValueError, match="cannot be a destination"):
            MulticastRequest(2, (1, 2))

    def test_needs_destinations(self):
        with pytest.raises(ValueError):
            MulticastRequest(0, ())

    def test_set_total_fanout(self):
        ms = all_broadcast_pattern(8)
        assert len(ms) == 8
        assert ms.total_fanout() == 8 * 7


class TestRouting:
    def test_tree_shares_prefixes(self, torus8):
        """Two destinations down the same row reuse the common x-links:
        the tree is smaller than the two unicast paths."""
        req = MulticastRequest(0, (2, 3))
        (conn,) = route_multicasts(torus8, MulticastSet([req]))
        path_a = torus8.route(0, 2)
        path_b = torus8.route(0, 3)
        assert conn.num_links < len(path_a) + len(path_b)
        assert conn.link_set == set(path_a) | set(path_b)

    def test_branches_recorded(self, torus8):
        req = MulticastRequest(0, (1, 8))
        (conn,) = route_multicasts(torus8, MulticastSet([req]))
        assert set(conn.branches) == {1, 8}
        assert conn.branches[1] == torus8.route(0, 1)

    def test_broadcast_tree_spans_torus(self, torus8):
        (conn,) = route_multicasts(torus8, broadcast_pattern(64))
        # One injection fiber, 63 ejection fibers, plus transit links.
        kinds = [torus8.link_info(l).kind.value for l in conn.links]
        assert kinds.count("inject") == 1
        assert kinds.count("eject") == 63

    def test_dimension_order_union_is_tree(self, torus8):
        """Verified for every source: no switch is entered twice."""
        for src in (0, 27, 63):
            dsts = tuple(d for d in range(64) if d != src)
            route_multicasts(
                torus8, MulticastSet([MulticastRequest(src, dsts)])
            )  # raises MulticastTreeError on a remerge


class TestScheduling:
    def test_core_schedulers_accept_multicasts(self, torus8):
        conns = route_multicasts(torus8, row_multicast_pattern(8, 8))
        for scheduler in (greedy_schedule, coloring_schedule):
            schedule = scheduler(conns)
            schedule.validate(conns)

    def test_row_multicasts_are_parallel(self, torus8):
        """Eight disjoint row trees fit one slot."""
        conns = route_multicasts(torus8, row_multicast_pattern(8, 8))
        assert greedy_schedule(conns).degree == 1

    def test_all_broadcast_needs_many_slots(self, torus8):
        """64 spanning trees heavily share fibers; the degree must be at
        least the max fiber load."""
        from repro.core.bounds import max_link_load_bound

        conns = route_multicasts(torus8, all_broadcast_pattern(64))
        schedule = coloring_schedule(conns)
        schedule.validate(conns)
        assert schedule.degree >= max_link_load_bound(conns) >= 8

    def test_multicast_beats_unicast_fanout(self, torus8):
        """One broadcast tree = 1 slot; 63 unicasts from one source = 63
        slots.  The whole point of optical multicast -- and row
        multicasts and allgather trees never need more slots than their
        unicast emulations either."""
        from repro.core.paths import route_requests
        from repro.core.requests import RequestSet
        from repro.patterns.classic import all_to_all_pattern

        tree = route_multicasts(torus8, broadcast_pattern(64))
        assert greedy_schedule(tree).degree == 1
        unicasts = route_requests(
            torus8, RequestSet.from_pairs([(0, d) for d in range(1, 64)])
        )
        assert greedy_schedule(unicasts).degree == 63
        # row multicasts: 8 disjoint trees vs their 56 unicasts
        rows = greedy_schedule(route_multicasts(torus8, row_multicast_pattern(8, 8)))
        row_unicasts = route_requests(torus8, RequestSet.from_pairs(
            [(8 * y, x + 8 * y) for y in range(8) for x in range(1, 8)]
        ))
        assert rows.degree <= coloring_schedule(row_unicasts).degree
        # allgather: 64 spanning trees vs the 4032-pair all-to-all
        trees = coloring_schedule(route_multicasts(torus8, all_broadcast_pattern(64)))
        everyone = route_requests(torus8, all_to_all_pattern(64))
        assert trees.degree <= coloring_schedule(everyone).degree


class TestCodegen:
    def test_roundtrip_row_multicast(self, torus8):
        conns = route_multicasts(torus8, row_multicast_pattern(8, 8))
        schedule = greedy_schedule(conns)
        regs = generate_multicast_registers(torus8, schedule)
        traced = decode_multicast_registers(regs)
        assert traced == [
            {(c.request.src, frozenset(c.request.dsts)) for c in cfg}
            for cfg in schedule
        ]

    def test_roundtrip_broadcast(self, torus8):
        conns = route_multicasts(torus8, broadcast_pattern(64, root=9))
        schedule = greedy_schedule(conns)
        regs = generate_multicast_registers(torus8, schedule)
        traced = decode_multicast_registers(regs)
        assert traced[0] == {(9, frozenset(d for d in range(64) if d != 9))}

    def test_fanout_words(self, torus8):
        """Some switch input must drive more than one output."""
        conns = route_multicasts(torus8, broadcast_pattern(64))
        regs = generate_multicast_registers(torus8, greedy_schedule(conns))
        max_fanout = max(
            len(locals_)
            for words in regs.words.values()
            for word in words
            for locals_ in word
        )
        assert max_fanout >= 2

    def test_output_contention_rejected(self, torus8):
        from repro.multicast.codegen import FanoutState
        from repro.topology.switch import SwitchConfigError

        st = FanoutState(0)
        st.connect(10, 20)
        st.connect(10, 21)  # fanout: fine
        with pytest.raises(SwitchConfigError):
            st.connect(11, 20)  # two inputs on one output: never
