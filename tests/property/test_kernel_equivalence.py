"""Kernel equivalence: the bitmask schedulers match the hash-set reference.

The entire contract of :mod:`repro.core.linkmask` is that answering the
placement test with bitmasks instead of hash sets only ever changes
speed -- the resulting :class:`ConfigurationSet` must be *identical* to
the one the readable hash-set implementation (``tests/set_reference.py``)
builds, configuration by configuration and member by member, for every
scheduler entry point and every workload.  These properties pin that
contract on random patterns, random array redistributions, and the
paper's classic patterns across torus, mesh and ring substrates.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.aapc.phases import _best_fit, aapc_phase_map
from repro.core.aapc_ordered import aapc_rank_order, ordered_aapc_schedule
from repro.core.coloring import coloring_schedule
from repro.core.combined import combined_schedule
from repro.core.greedy import greedy_schedule
from repro.core.packing import first_fit, repack
from repro.core.paths import route_requests
from repro.core.requests import RequestSet
from repro.patterns.classic import (
    all_to_all_pattern,
    hypercube_pattern,
    ring_pattern,
    shuffle_exchange_pattern,
    transpose_pattern,
)
from repro.patterns.redistribution import (
    random_distribution,
    redistribution_requests,
)
from repro.topology.mesh import Mesh2D
from repro.topology.ring import Ring
from repro.topology.torus import Torus2D
from tests import set_reference as ref

TOPOLOGIES = {
    "torus": Torus2D(4),
    "mesh": Mesh2D(4),
    "ring": Ring(16),
}


def as_slots(schedule):
    """A schedule as nested pair lists -- the identity we compare."""
    return [[c.pair for c in cfg] for cfg in schedule]


@st.composite
def routed_connections(draw, max_requests: int = 40, unique: bool = True):
    topo = TOPOLOGIES[draw(st.sampled_from(sorted(TOPOLOGIES)))]
    n = topo.num_nodes
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ),
            min_size=1,
            max_size=max_requests,
            unique=unique,
        )
    )
    return topo, route_requests(
        topo, RequestSet.from_pairs(pairs, allow_duplicates=not unique)
    )


class TestKernelEquivalence:
    @given(routed_connections())
    @settings(max_examples=120, deadline=None)
    def test_first_fit(self, tc):
        _, conns = tc
        assert as_slots(first_fit(conns)) == as_slots(ref.first_fit(conns))

    @given(routed_connections(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_first_fit_shuffled_order(self, tc, rnd):
        _, conns = tc
        order = list(range(len(conns)))
        rnd.shuffle(order)
        assert as_slots(first_fit(conns, order)) == as_slots(
            ref.first_fit(conns, order)
        )

    @given(routed_connections())
    @settings(max_examples=80, deadline=None)
    def test_first_fit_singleton_runs(self, tc):
        # every run of length 1 is trivially link-disjoint, so the
        # batched path must agree with the sequential reference
        _, conns = tc
        batched = first_fit(conns, runs=[1] * len(conns))
        assert as_slots(batched) == as_slots(ref.first_fit(conns))

    @given(routed_connections(unique=False))
    @settings(max_examples=60, deadline=None)
    def test_first_fit_aapc_runs(self, tc):
        # real AAPC phase blocks (duplicates allowed -- repeated pairs
        # must split into disjoint runs): run-batched placement is
        # byte-identical to the sequential reference on the same order
        topo, conns = tc
        order, runs = aapc_rank_order(
            conns, aapc_phase_map(topo), with_runs=True
        )
        batched = first_fit(conns, order, runs=runs, num_links=topo.num_links)
        assert as_slots(batched) == as_slots(ref.first_fit(conns, order))

    @given(routed_connections(unique=False))
    @settings(max_examples=60, deadline=None)
    def test_ordered_aapc(self, tc):
        # end to end: the scheduler entry point that feeds the runs hint
        topo, conns = tc
        assert as_slots(ordered_aapc_schedule(conns, topo)) == as_slots(
            ref.ordered_aapc(conns, aapc_phase_map(topo))
        )

    @given(routed_connections())
    @settings(max_examples=100, deadline=None)
    def test_greedy(self, tc):
        _, conns = tc
        assert as_slots(greedy_schedule(conns)) == as_slots(ref.first_fit(conns))

    @given(routed_connections(), st.sampled_from(["most-constrained", "paper-ratio"]))
    @settings(max_examples=120, deadline=None)
    def test_coloring(self, tc, priority):
        _, conns = tc
        assert as_slots(coloring_schedule(conns, priority=priority)) == as_slots(
            ref.coloring(conns, priority)
        )

    @given(routed_connections())
    @settings(max_examples=60, deadline=None)
    def test_repack(self, tc):
        _, conns = tc
        # both start from the same (already proven above) first-fit
        # schedule, each from its own copy
        assert as_slots(repack(ref.first_fit(conns))) == as_slots(
            ref.repack(ref.first_fit(conns))
        )

    @given(routed_connections())
    @settings(max_examples=40, deadline=None)
    def test_combined(self, tc):
        topo, conns = tc
        assert as_slots(combined_schedule(conns, topo)) == as_slots(
            ref.combined(conns, aapc_phase_map(topo))
        )

    @given(routed_connections(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_best_fit(self, tc, rnd):
        # the AAPC builder's packer, over arbitrary orders
        _, conns = tc
        order = list(range(len(conns)))
        rnd.shuffle(order)
        assert as_slots(_best_fit(conns, order)) == as_slots(
            ref.best_fit(conns, order)
        )


class TestKernelEquivalenceRedistributions:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_redistribution_coloring_and_first_fit(self, seed):
        src = random_distribution((16, 16), 16, seed=seed)
        dst = random_distribution((16, 16), 16, seed=seed + 1)
        requests = redistribution_requests(src, dst)
        if not requests:
            return
        conns = route_requests(TOPOLOGIES["torus"], requests)
        assert as_slots(coloring_schedule(conns)) == as_slots(ref.coloring(conns))
        assert as_slots(first_fit(conns)) == as_slots(ref.first_fit(conns))


CLASSIC_PATTERNS = {
    "ring": lambda n: ring_pattern(n),
    "all-to-all": lambda n: all_to_all_pattern(n),
    "hypercube": lambda n: hypercube_pattern(n),
    "shuffle": lambda n: shuffle_exchange_pattern(n),
    "transpose": lambda n: transpose_pattern(int(round(n ** 0.5))),
}


#: Every classic pattern on every property substrate, plus the paper's
#: densest instance: all-to-all on the 8x8 torus (4032 connections).
CLASSIC_TOPOLOGIES = {**TOPOLOGIES, "torus8": Torus2D(8)}
CLASSIC_CASES = [
    (pattern, topo)
    for topo in sorted(TOPOLOGIES)
    for pattern in sorted(CLASSIC_PATTERNS)
] + [("all-to-all", "torus8")]


@pytest.mark.parametrize("pattern_name, topo_name", CLASSIC_CASES)
def test_classic_patterns_identical(pattern_name, topo_name):
    topo = CLASSIC_TOPOLOGIES[topo_name]
    conns = route_requests(topo, CLASSIC_PATTERNS[pattern_name](topo.num_nodes))
    phase_of = aapc_phase_map(topo)
    natural = range(len(conns))
    for production, reference in (
        (lambda: first_fit(conns), lambda: ref.first_fit(conns)),
        (lambda: coloring_schedule(conns), lambda: ref.coloring(conns)),
        (lambda: repack(ref.first_fit(conns)),
         lambda: ref.repack(ref.first_fit(conns))),
        (lambda: _best_fit(conns, natural), lambda: ref.best_fit(conns, natural)),
        (lambda: combined_schedule(conns, topo),
         lambda: ref.combined(conns, phase_of)),
    ):
        assert as_slots(production()) == as_slots(reference())
