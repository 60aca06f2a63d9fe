"""Regression tests for dynamic-protocol correctness fixes.

Each test pins a bug that shipped in an earlier revision:

* ``max_slots`` used to fire on the REL teardown tail that trails the
  final delivery, failing runs that had actually completed.
* The holding protocol used to refresh a reservation's hold-timeout
  deadline every time it re-parked, so churn on a contended link could
  postpone the deadlock-breaking timeout indefinitely (starvation).
* A freed channel used to wake *every* reservation parked on the link
  (thundering herd), violating the documented FIFO fairness.
"""

from __future__ import annotations

import pytest

from repro.core.requests import RequestSet
from repro.simulator.dynamic.control import _DynamicSimulator, _Reservation
from repro.simulator.dynamic import simulate_dynamic
from repro.simulator.params import SimParams
from repro.topology.linear import LinearArray


class TestMaxSlotsBoundary:
    """``max_slots`` guards undelivered traffic, not the REL tail."""

    def test_tail_release_does_not_trip_max_slots(self, torus8):
        # One (0, 1) message at degree 1: established at 12, delivered
        # at 13, but the REL chain keeps tearing the circuit down until
        # slot 19.  A limit at the delivery time must pass -- the run
        # is complete; only bookkeeping events remain.
        requests = RequestSet.from_pairs([(0, 1)], size=4)
        result = simulate_dynamic(
            torus8, requests, 1, SimParams(max_slots=13)
        )
        assert result.completion_time == 13
        assert result.messages[0].delivered == 13

    def test_undelivered_traffic_still_raises(self, torus8):
        requests = RequestSet.from_pairs([(0, 1)], size=4)
        with pytest.raises(RuntimeError, match="max_slots"):
            simulate_dynamic(torus8, requests, 1, SimParams(max_slots=12))


def _holding_sim(num_messages: int = 1) -> _DynamicSimulator:
    topo = LinearArray(3)
    pairs = [(0, 2), (1, 2)][:num_messages]
    requests = RequestSet.from_pairs(pairs, size=4)
    return _DynamicSimulator(
        topo, requests, 1, SimParams(), protocol="holding"
    )


def _reservation(
    sim: _DynamicSimulator, rid: int, mid: int, link_id: int
) -> _Reservation:
    """A one-hop reservation on ``link_id`` carrying slot 0."""
    res = _Reservation(
        rid=rid, message=sim.messages[mid], path=(link_id,),
        links=[sim.net.link(link_id)], carried=0b1,
    )
    sim.reservations[rid] = res
    return res


def _due(sim: _DynamicSimulator, handler) -> list[int]:
    """The slot of every event on the calendar for ``handler``."""
    return [
        slot
        for slot, bucket in sim.calendar.items()
        for event in bucket
        if event[0] == handler
    ]


class TestHoldTimeoutDeadline:
    """Re-parking must not postpone the deadlock-breaking deadline."""

    def test_repark_preserves_original_deadline(self):
        sim = _holding_sim()
        link_id = sim.topology.route(0, 2)[0]
        res = _reservation(sim, 100, 0, link_id)

        # Channel busy (foreign lock): the RES parks and fixes its
        # deadline relative to the *first* park time.
        sim.net.link(link_id).lock_slots([0], 999)
        sim._on_res(10, res, 0)
        deadline = res.park_deadline
        assert deadline == 10 + sim.params.hold_timeout
        assert any(
            slot == deadline for slot in _due(sim, sim._on_park_timeout)
        )

        # A channel frees; the reservation is woken...
        freed = sim.net.link(link_id).release_locks(999)
        sim._wake_parked(20, link_id, freed)
        assert res.parked_hop == -1

        # ...but loses the race to another reservation and re-parks.
        # The deadline must survive the wake/re-park churn unchanged.
        sim.net.link(link_id).lock_slots([0], 998)
        sim._on_res(20, res, 0)
        assert res.parked_hop == 0
        assert res.park_deadline == deadline
        timeouts = _due(sim, sim._on_park_timeout)
        assert all(t == deadline for t in timeouts)

    def test_hop_progress_resets_deadline(self):
        sim = _holding_sim()
        link_id = sim.topology.route(0, 2)[0]
        res = _reservation(sim, 100, 0, link_id)
        sim.net.link(link_id).lock_slots([0], 999)
        sim._on_res(10, res, 0)
        assert res.park_deadline == 10 + sim.params.hold_timeout

        # The channel frees and this time the RES wins it: locking the
        # hop is progress, so the deadlock clock starts over.
        sim.net.link(link_id).release_locks(999)
        sim._wake_parked(20, link_id, 1)
        sim._on_res(20, res, 0)
        assert res.park_deadline == -1


class TestWakeParkedFairness:
    """One freed channel wakes exactly one parked reservation."""

    def test_no_thundering_herd(self):
        sim = _holding_sim(num_messages=2)
        link_id = sim.topology.route(1, 2)[0]  # shared transit fiber
        res_a = _reservation(sim, 100, 0, link_id)
        res_b = _reservation(sim, 101, 1, link_id)
        sim.net.link(link_id).lock_slots([0], 999)
        sim._on_res(10, res_a, 0)
        sim._on_res(11, res_b, 0)
        assert list(sim.parked[link_id]) == [res_a, res_b]

        freed = sim.net.link(link_id).release_locks(999)
        assert freed == 1
        sim._wake_parked(20, link_id, freed)

        # FIFO: the first parker wakes, the second stays parked.
        assert res_a.parked_hop == -1
        assert res_b.parked_hop == 0
        assert list(sim.parked[link_id]) == [res_b]
        woken = [slot for slot in _due(sim, sim._on_res) if slot == 20]
        assert len(woken) == 1

    def test_zero_freed_wakes_nobody(self):
        sim = _holding_sim(num_messages=2)
        link_id = sim.topology.route(1, 2)[0]
        res_a = _reservation(sim, 100, 0, link_id)
        sim.net.link(link_id).lock_slots([0], 999)
        sim._on_res(10, res_a, 0)
        sim._wake_parked(20, link_id, 0)
        assert res_a.parked_hop == 0
        assert list(sim.parked[link_id]) == [res_a]
