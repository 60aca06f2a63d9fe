"""Tests for the Omega multistage network."""

import pytest

from repro.core.greedy import greedy_schedule
from repro.core.coloring import coloring_schedule
from repro.core.bounds import max_link_load_bound
from repro.core.paths import route_requests
from repro.core.requests import RequestSet
from repro.topology.omega import OmegaNetwork


class TestConstruction:
    def test_counts(self):
        om = OmegaNetwork(8)
        assert om.num_nodes == 8
        assert om.bits == 3
        assert om.num_transit_links == 24

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            OmegaNetwork(12)

    def test_signature(self):
        assert OmegaNetwork(16).signature == "omega:16"


class TestRouting:
    def test_path_length_is_stage_count(self):
        om = OmegaNetwork(16)
        for s in range(16):
            for d in range(16):
                if s != d:
                    assert len(om.route(s, d)) == 2 + om.bits

    def test_self_routing_reaches_destination(self):
        """The route's final stage wire must sit at row == destination."""
        om = OmegaNetwork(32)
        for s in range(32):
            for d in range(32):
                if s == d:
                    continue
                last = om.route(s, d)[-2]
                info = om.link_info(last)
                assert info.src == d

    def test_unique_paths(self):
        om = OmegaNetwork(8)
        assert om.route(0, 5) == om.route(0, 5)

    def test_known_route(self):
        """0 -> 5 on omega-8: rows 0 ->(shuffle) 0 ->bit1 1 ->(shuffle)
        2 ->bit0 2 ->(shuffle) 4 ->bit1 5."""
        om = OmegaNetwork(8)
        rows = [om.link_info(l).src for l in om.route(0, 5)[1:-1]]
        assert rows == [1, 2, 5]


class TestClassicMINFacts:
    def test_identity_shift_is_conflict_free(self):
        """The +1 cyclic shift is a classic omega-passable permutation."""
        om = OmegaNetwork(16)
        rs = RequestSet.from_pairs([(i, (i + 1) % 16) for i in range(16)])
        conns = route_requests(om, rs)
        assert greedy_schedule(conns).degree == 1
        # the bidirectional ring on 64 ports needs very few slots
        from repro.patterns.classic import ring_pattern

        ring = route_requests(OmegaNetwork(64), ring_pattern(64))
        assert coloring_schedule(ring).degree <= 4

    def test_bit_reversal_conflicts(self):
        """Bit reversal is a classic omega worst case: some center-stage
        wire carries ~sqrt(N) connections, and coloring schedules it at
        exactly that load."""
        om = OmegaNetwork(64)
        pairs = []
        for i in range(64):
            rev = int(f"{i:06b}"[::-1], 2)
            if rev != i:
                pairs.append((i, rev))
        conns = route_requests(om, RequestSet.from_pairs(pairs))
        load = max_link_load_bound(conns)
        assert load == 7  # sqrt(64) - 1 (the diagonal's fixed points drop one)
        assert coloring_schedule(conns).degree == load

    def test_all_to_all_wire_load_is_n(self):
        """Every stage wire carries exactly N of the N(N-1)+N pairs; with
        self-pairs excluded the load is N or N-1."""
        om = OmegaNetwork(8)
        rs = RequestSet.from_pairs(
            [(s, d) for s in range(8) for d in range(8) if s != d]
        )
        conns = route_requests(om, rs)
        from repro.core.conflicts import link_load

        loads = {
            link: load
            for link, load in link_load(conns).items()
            if om.link_info(link).kind.value == "transit"
        }
        assert set(loads.values()) <= {7, 8}

    def test_schedulers_work_unchanged(self):
        om = OmegaNetwork(16)
        rs = RequestSet.from_pairs(
            [(s, d) for s in range(16) for d in range(16) if s != d]
        )
        conns = route_requests(om, rs)
        schedule = coloring_schedule(conns)
        schedule.validate(conns)
        assert schedule.degree >= 15  # injection bound
        # The uniform stages make the all-to-all conflict graph easy:
        # on 64 ports coloring lands on the N - 1 = 63 injection bound
        # exactly (the 8x8 torus needs 82 against its optimum of 64).
        from repro.patterns.classic import all_to_all_pattern

        everyone = route_requests(OmegaNetwork(64), all_to_all_pattern(64))
        assert coloring_schedule(everyone).degree == 63

    def test_codegen_not_applicable_but_simulator_is(self):
        """The compiled simulator (which only needs routes + schedules)
        runs on the MIN."""
        from repro.simulator.compiled import compiled_completion_time
        from repro.simulator.params import SimParams

        om = OmegaNetwork(16)
        rs = RequestSet.from_pairs([(i, (i + 3) % 16) for i in range(16)], size=8)
        result = compiled_completion_time(om, rs, SimParams())
        assert result.completion_time > 0
        assert all(m.delivered is not None for m in result.messages)
