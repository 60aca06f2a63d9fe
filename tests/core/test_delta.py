"""Tests for delta scheduling: the incremental engine and its cost model."""

import random

import pytest

from repro.compiler.serialize import canonical_dumps, schedule_to_dict
from repro.core import perf
from repro.core.bounds import max_link_load_bound
from repro.core.configuration import Configuration, ConfigurationSet
from repro.core.delta import (
    AMEND_ACTIONS,
    AmendPolicy,
    DeltaScheduler,
    amend_schedule,
    fragmentation,
)
from repro.core.greedy import greedy_schedule
from repro.core.packing import first_fit
from repro.core.paths import Connection, route_requests
from repro.core.requests import Request, RequestSet
from repro.topology.torus import Torus2D

TORUS = Torus2D(4)
N = TORUS.num_nodes
RING = [(i, (i + 1) % N) for i in range(N)]


def ring_conns():
    return route_requests(TORUS, RequestSet.from_pairs(RING))


def routed(index, src, dst, size=1, tag=0):
    return Connection(
        index, Request(src, dst, size=size, tag=tag), TORUS.route(src, dst)
    )


def ring_engine(**kwargs):
    conns = ring_conns()
    schedule = first_fit(conns)
    schedule.validate(conns)
    return DeltaScheduler(schedule, num_links=TORUS.num_links, **kwargs)


class TestAmendPolicy:
    def test_defaults_valid(self):
        AmendPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_delta_k": -1},
            {"recompile_slack": -1},
            {"repack_threshold": -0.1},
            {"repack_threshold": 1.5},
            {"recompile_fraction": 0.0},
            {"recompile_fraction": 1.5},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AmendPolicy(**kwargs)


class TestFragmentation:
    def test_empty_schedule(self):
        assert fragmentation([]) == 0.0

    def test_uniform_is_zero(self):
        conns = ring_conns()
        cfgs = [Configuration([c]) for c in conns[:4]]
        assert fragmentation(cfgs) == 0.0

    def test_skew_is_positive(self):
        conns = ring_conns()
        cfgs = [Configuration(conns[:3]), Configuration([conns[4]])]
        assert 0.0 < fragmentation(cfgs) < 1.0

    def test_all_empty_slots(self):
        assert fragmentation([Configuration(), Configuration()]) == 1.0


class TestAmendBasics:
    def test_remove_keeps_schedule_valid(self):
        engine = ring_engine()
        res = engine.amend(remove=[0, 5])
        assert res.action in AMEND_ACTIONS
        assert res.removed == 2 and res.added == 0
        assert engine.num_connections == len(RING) - 2
        engine.schedule.validate(engine.connections())

    def test_add_into_slack_reuses_freed_slot(self):
        engine = ring_engine()
        before = engine.degree
        engine.amend(remove=[3])
        res = engine.amend(add=[routed(100, 3, 4)])
        assert res.degree <= before + engine.policy.max_delta_k
        engine.schedule.validate(engine.connections())

    def test_delta_k_accounting(self):
        engine = ring_engine()
        before = engine.degree
        res = engine.amend(add=[routed(100, 0, 5)])
        assert res.delta_k == res.degree - before
        assert res.degree == engine.degree

    def test_result_schedule_tracks_live_state(self):
        engine = ring_engine()
        res = engine.amend(remove=[1])
        assert res.schedule.degree == engine.degree
        assert {c.index for c in res.schedule.all_connections()} == set(
            c.index for c in engine.connections()
        )

    def test_empty_update_is_a_noop_amend(self):
        engine = ring_engine()
        before = engine.degree
        res = engine.amend()
        assert res.action == "amend"
        assert res.degree == before and res.added == res.removed == 0


class TestAmendErrors:
    def test_unknown_remove_raises_and_leaves_state(self):
        engine = ring_engine()
        before = engine.degree
        with pytest.raises(KeyError):
            engine.amend(remove=[999])
        assert engine.degree == before
        assert engine.num_connections == len(RING)
        engine.schedule.validate(engine.connections())

    def test_double_remove_in_one_update_raises(self):
        engine = ring_engine()
        with pytest.raises(KeyError):
            engine.amend(remove=[0, 0])
        assert engine.num_connections == len(RING)

    def test_colliding_add_index_raises(self):
        engine = ring_engine()
        with pytest.raises(ValueError):
            engine.amend(add=[routed(0, 0, 5)])
        engine.schedule.validate(engine.connections())

    def test_colliding_add_within_update_raises(self):
        engine = ring_engine()
        with pytest.raises(ValueError):
            engine.amend(add=[routed(100, 0, 5), routed(100, 1, 6)])
        assert engine.num_connections == len(RING)

    def test_bad_update_is_atomic(self):
        """A removal colliding with a bad add leaves nothing half-applied."""
        engine = ring_engine()
        with pytest.raises(ValueError):
            engine.amend(add=[routed(0, 0, 5)], remove=[1])
        assert engine.num_connections == len(RING)
        engine.schedule.validate(engine.connections())


class TestCostModel:
    def test_large_update_goes_straight_to_recompile(self):
        engine = ring_engine()
        res = engine.amend(remove=list(range(len(RING) // 2)))
        assert res.action == "recompile"
        engine.schedule.validate(engine.connections())

    def test_exhausted_delta_k_budget_recompiles(self):
        policy = AmendPolicy(max_delta_k=0)
        engine = ring_engine(policy=policy)
        # The ring packs into one full configuration; a duplicate pair
        # conflicts with every slot, so it must open a slot -- which the
        # zero budget forbids.
        res = engine.amend(add=[routed(100, 0, 1)])
        assert res.action == "recompile"
        engine.schedule.validate(engine.connections())

    def test_hole_accumulation_triggers_repack(self):
        # A deliberately padded schedule: one singleton per connection
        # (K = n, link-load bound = 1).  With threshold 0 the first
        # removal trips the hole counter and the amend repacks.
        conns = ring_conns()
        padded = ConfigurationSet(
            [Configuration([c]) for c in conns], scheduler="padded"
        )
        engine = DeltaScheduler(
            padded,
            num_links=TORUS.num_links,
            policy=AmendPolicy(repack_threshold=0.0, recompile_fraction=1.0),
        )
        assert engine.degree == len(conns)
        res = engine.amend(remove=[0])
        assert res.action == "amend+repack"
        assert res.degree < len(conns)
        engine.schedule.validate(engine.connections())

    def test_repack_skipped_at_link_load_bound(self):
        # K already equals the link-load lower bound: repacking cannot
        # help, so even a tripped hole counter stays a plain amend.
        engine = ring_engine(
            policy=AmendPolicy(repack_threshold=0.0, recompile_fraction=1.0)
        )
        assert engine.degree == engine.link_load_bound()
        res = engine.amend(remove=[0])
        assert res.action == "amend"

    def test_certified_gap_matches_bounds_module(self):
        engine = ring_engine()
        expected = max(
            0, engine.degree - max_link_load_bound(engine.connections())
        )
        assert engine.certified_gap == expected

    def test_link_load_bound_tracks_incrementally(self):
        engine = ring_engine()
        engine.amend(remove=[0, 1], add=[routed(100, 0, 10), routed(101, 2, 8)])
        engine.amend(remove=[100])
        assert engine.link_load_bound() == max_link_load_bound(
            engine.connections()
        )


class TestCopyOnWrite:
    def test_amend_schedule_never_mutates_input(self):
        conns = ring_conns()
        schedule = first_fit(conns)
        snapshot = canonical_dumps(schedule_to_dict(schedule))
        res = amend_schedule(
            schedule, add=[routed(100, 0, 5)], remove=[0, 1]
        )
        assert res.schedule is not schedule
        assert canonical_dumps(schedule_to_dict(schedule)) == snapshot
        schedule.validate(conns)

    def test_engine_clones_on_init(self):
        conns = ring_conns()
        schedule = first_fit(conns)
        slots_before = schedule.slot_map()
        engine = DeltaScheduler(schedule, num_links=TORUS.num_links)
        engine.amend(remove=list(range(4)))
        assert schedule.slot_map() == slots_before
        schedule.validate(conns)


class TestPerfCounters:
    def test_amend_counters_increment(self):
        engine = ring_engine()
        base = perf.COUNTERS.amend_updates
        engine.amend(remove=[0])
        engine.amend(remove=list(range(1, len(RING) // 2 + 1)))  # recompile
        assert perf.COUNTERS.amend_updates >= base + 2
        assert perf.COUNTERS.amend_recompiles >= 1


class TestIncrementalFragmentation:
    def test_matches_a_full_pass_after_every_update(self):
        topo = Torus2D(16)
        rng = random.Random(2029)
        nodes = topo.num_nodes
        pairs = set()
        while len(pairs) < 256:
            s, d = rng.randrange(nodes), rng.randrange(nodes)
            if s != d:
                pairs.add((s, d))
        conns = route_requests(topo, RequestSet.from_pairs(sorted(pairs)))
        engine = DeltaScheduler(greedy_schedule(conns), num_links=topo.num_links)
        live = {c.index: c.pair for c in conns}
        next_index = len(conns)
        actions = set()
        for step in range(2000):
            # Mostly one-for-one churn; every 500th update is large
            # enough to force a full recompile.
            count = 70 if step % 500 == 499 else rng.randint(1, 3)
            gone = rng.sample(sorted(live), count)
            for idx in gone:
                del live[idx]
            add = []
            while len(add) < count:
                s, d = rng.randrange(nodes), rng.randrange(nodes)
                if s != d and (s, d) not in live.values():
                    add.append(Connection(next_index, Request(s, d), topo.route(s, d)))
                    live[next_index] = (s, d)
                    next_index += 1
            result = engine.amend(add=add, remove=gone)
            actions.add(result.action)
            expected = fragmentation(engine.schedule)
            assert engine.fragmentation() == expected
            assert result.fragmentation == expected
        assert actions == {"amend", "amend+repack", "recompile"}
