"""Structural all-to-all scheduling and its scheduler dispatcher."""

import numpy as np
import pytest

from repro.core.allpairs import (
    MATERIALIZE_CEILING,
    all_to_all_fast_schedule,
    all_to_all_lower_bound,
    all_to_all_schedule,
)
from repro.aapc.ring_latin import ring_link_load
from repro.topology.torus import Torus2D


def test_lower_bound_closed_form():
    # 8x8: max(63, 8 * ring_link_load(8)) = 64, the known optimum
    assert all_to_all_lower_bound(Torus2D(8)) == 64
    topo = Torus2D(4, 3)
    expected = max(
        topo.num_nodes - 1,
        (topo.num_nodes // 4) * ring_link_load(4),
        (topo.num_nodes // 3) * ring_link_load(3),
    )
    assert all_to_all_lower_bound(topo) == expected


def test_fastpath_8x8_is_provably_optimal():
    fast = all_to_all_fast_schedule(Torus2D(8))
    assert fast.degree == 64
    assert fast.lower_bound == 64
    assert fast.optimality_ratio == 1.0
    assert fast.scheduler == "fastpath[latin-product]"
    assert fast.num_connections == 64 * 63
    assert int(fast.slot_sizes.sum()) == 64 * 63


def test_fastpath_materializes_into_a_valid_schedule():
    topo = Torus2D(4)
    fast = all_to_all_fast_schedule(topo)
    connections, schedule = fast.materialize(topo)
    assert len(connections) == 16 * 15
    assert schedule.degree == fast.degree
    schedule.validate(connections)  # re-proves conflict-freeness + coverage
    # slot_of agrees with the materialized configuration set
    slots = {c.pair: slot for slot, cfg in enumerate(schedule) for c in cfg}
    for (s, d), slot in slots.items():
        assert fast.slot_of[s, d] == slot


def test_fastpath_slot_matrix_shape():
    fast = all_to_all_fast_schedule(Torus2D(4, 3))
    n = 12
    assert fast.slot_of.shape == (n, n)
    assert (fast.slot_of.diagonal() == -1).all()
    off = fast.slot_of[~np.eye(n, dtype=bool)]
    assert off.min() == 0 and off.max() == fast.degree - 1
    assert fast.throughput > 0


def test_dispatcher_generic_schedulers_below_ceiling():
    topo = Torus2D(4)
    for name in ("greedy", "coloring", "aapc", "combined"):
        schedule = all_to_all_schedule(topo, scheduler=name)
        assert schedule.degree >= all_to_all_lower_bound(topo)
        assert not hasattr(schedule, "slot_of")  # a real ConfigurationSet


def test_dispatcher_degenerates_above_ceiling_with_honest_tag():
    fast = all_to_all_schedule(
        Torus2D(4), scheduler="combined", materialize_ceiling=10
    )
    assert fast.scheduler == "combined(fastpath[latin-product])"
    assert fast.degree == 16  # the structural result, not the generic one


def test_dispatcher_fastpath_and_validation():
    fast = all_to_all_schedule(Torus2D(4), scheduler="fastpath")
    assert fast.scheduler == "fastpath[latin-product]"
    with pytest.raises(ValueError, match="scheduler must be one of"):
        all_to_all_schedule(Torus2D(4), scheduler="banana")


def test_default_ceiling_is_sized_for_32x32():
    # 16x16 (65 280 connections) must still take the generic path by
    # default; 32x32 (1 047 552) must not.
    assert 16 * 16 * 255 < MATERIALIZE_CEILING < 32 * 32 * 1023


def test_combined_coloring_ceiling_degenerates_to_aapc():
    from repro.core.combined import combined_schedule
    from repro.core.aapc_ordered import ordered_aapc_schedule
    from repro.core.paths import route_requests
    from repro.patterns.classic import all_to_all_pattern

    topo = Torus2D(4)
    conns = route_requests(topo, all_to_all_pattern(topo.num_nodes))
    capped = combined_schedule(conns, topo, coloring_ceiling=10)
    assert capped.scheduler == "combined(aapc)"
    assert capped.degree == ordered_aapc_schedule(conns, topo).degree
    # default ceiling leaves the small case on the full two-pass path
    full = combined_schedule(conns, topo)
    assert full.scheduler in ("combined(coloring)", "combined(aapc)")
    assert full.degree <= capped.degree
