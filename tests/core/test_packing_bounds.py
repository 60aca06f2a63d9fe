"""Tests for the packing primitives and the degree lower bounds."""

import pytest

from repro.core.bounds import clique_bound, degree_lower_bound, max_link_load_bound
from repro.core.configuration import Configuration, ConfigurationSet
from repro.core.greedy import greedy_schedule
from repro.core.packing import first_fit, repack
from repro.core.paths import route_requests
from repro.core.requests import RequestSet
from repro.patterns.random_patterns import random_pattern


class TestFirstFit:
    def test_equals_paper_greedy_formulation(self, torus8):
        """First-fit and the paper's pass-per-configuration greedy are
        the same algorithm: check against a hand-simulated instance."""
        rs = RequestSet.from_pairs([(0, 1), (0, 2), (1, 2), (2, 3), (0, 3)])
        conns = route_requests(torus8, rs)
        # Manual pass-per-config: C1={(0,1),(1,2),(2,3)}, C2={(0,2)}, C3={(0,3)}
        slots = first_fit(conns).slot_map()
        assert slots == {0: 0, 2: 0, 3: 0, 1: 1, 4: 2}

    def test_respects_order(self, linear5):
        rs = RequestSet.from_pairs([(0, 2), (1, 3), (3, 4), (2, 4)])
        conns = route_requests(linear5, rs)
        assert first_fit(conns).degree == 3
        assert first_fit(conns, [0, 3, 1, 2]).degree == 2


class TestOrderValidation:
    def _conns(self, topo):
        rs = RequestSet.from_pairs([(0, 1), (1, 2), (2, 3)])
        return route_requests(topo, rs)

    def test_duplicate_positions_rejected(self, torus8):
        with pytest.raises(ValueError, match="duplicated positions \\[1\\]"):
            first_fit(self._conns(torus8), [0, 1, 1])

    def test_missing_positions_rejected(self, torus8):
        with pytest.raises(ValueError, match="permutation"):
            first_fit(self._conns(torus8), [0, 1])

    def test_out_of_range_rejected(self, torus8):
        with pytest.raises(ValueError, match="out-of-range positions \\[3\\]"):
            first_fit(self._conns(torus8), [0, 1, 3])

    def test_negative_rejected(self, torus8):
        with pytest.raises(ValueError, match="out-of-range"):
            first_fit(self._conns(torus8), [0, 1, -1])

    def test_valid_permutation_accepted(self, torus8):
        conns = self._conns(torus8)
        first_fit(conns, [2, 0, 1]).validate(conns)


class TestRepack:
    def test_reduces_padded_schedule(self, torus8):
        """A schedule deliberately split into singleton configurations
        repacks down to the greedy degree or better."""
        conns = route_requests(torus8, random_pattern(64, 60, seed=0))
        padded = ConfigurationSet([Configuration([c]) for c in conns])
        packed = repack(padded)
        packed.validate(conns)
        assert packed.degree <= greedy_schedule(conns).degree

    def test_preserves_validity(self, torus8):
        conns = route_requests(torus8, random_pattern(64, 500, seed=1))
        schedule = repack(first_fit(conns))
        schedule.validate(conns)

    def test_no_change_on_tight_schedule(self, torus8):
        # 4 messages out of one node: degree 4 is optimal; repack keeps it.
        conns = route_requests(
            torus8, RequestSet.from_pairs([(0, 1), (0, 2), (0, 3), (0, 4)])
        )
        schedule = repack(first_fit(conns))
        assert schedule.degree == 4

    def test_scheduler_label_updated(self, torus8):
        conns = route_requests(torus8, RequestSet.from_pairs([(0, 1)]))
        assert repack(first_fit(conns)).scheduler.endswith("+repack")

    def test_input_schedule_byte_identical_after_repack(self, torus8):
        """Aliasing regression: repack used to mutate the caller's
        configurations in place, corrupting cache-held artifacts.  The
        input must serialize to the exact same bytes afterwards."""
        from repro.compiler.serialize import canonical_dumps, schedule_to_dict

        conns = route_requests(torus8, random_pattern(64, 60, seed=3))
        padded = ConfigurationSet([Configuration([c]) for c in conns])
        before = canonical_dumps(schedule_to_dict(padded))
        packed = repack(padded)
        assert packed.degree < padded.degree  # repack actually did work
        assert canonical_dumps(schedule_to_dict(padded)) == before
        padded.validate(conns)

    def test_matches_resort_reference(self, torus8):
        """The incrementally maintained candidate order reaches exactly
        the local optimum of the straightforward re-sort-every-round
        formulation (regression guard for the order bookkeeping)."""
        from tests.set_reference import repack as naive_repack

        conns = route_requests(torus8, random_pattern(64, 300, seed=9))
        padded = ConfigurationSet([Configuration([c]) for c in conns])
        reference = naive_repack(padded)
        packed = repack(padded)
        assert [[c.pair for c in cfg] for cfg in packed] == [
            [c.pair for c in cfg] for cfg in reference
        ]

    def test_failed_dissolve_leaves_victim_untouched(self, linear5):
        """A failed all-or-nothing dissolution must not reorder the
        victim's members (a hash-set rollback once rotated them,
        silently diverging from the bitmask dissolver)."""
        from tests.set_reference import repack as reference_repack

        rs = RequestSet.from_pairs([(0, 1), (3, 4), (2, 4)])
        conns = route_requests(linear5, rs)
        a, b, c = conns
        for impl in (reference_repack, repack):
            schedule = ConfigurationSet([Configuration([a, b]), Configuration([c])])
            packed = impl(schedule)
            assert packed.degree == 2  # (3,4) can never leave: no dissolve
            assert [m.pair for m in packed[0]] == [a.pair, b.pair], impl


class TestBounds:
    def test_link_load_bound_out_degree(self, torus8):
        conns = route_requests(
            torus8, RequestSet.from_pairs([(0, 1), (0, 2), (0, 3)])
        )
        assert max_link_load_bound(conns) == 3

    def test_empty(self):
        assert max_link_load_bound([]) == 0
        assert clique_bound([]) == 0

    def test_clique_bound_at_least_link_bound_on_small(self, linear5):
        rs = RequestSet.from_pairs([(0, 2), (1, 3), (3, 4), (2, 4)])
        conns = route_requests(linear5, rs)
        assert clique_bound(conns) >= max_link_load_bound(conns)

    @pytest.mark.parametrize("n", [50, 200, 800])
    def test_bound_below_all_schedulers(self, torus8, n):
        from repro.core.registry import get_scheduler

        conns = route_requests(torus8, random_pattern(64, n, seed=n))
        bound = degree_lower_bound(conns)
        for name in ("greedy", "coloring", "aapc", "combined"):
            assert bound <= get_scheduler(name)(conns, torus8).degree

    def test_bound_with_clique_option(self, linear5):
        rs = RequestSet.from_pairs([(0, 2), (1, 3), (3, 4), (2, 4)])
        conns = route_requests(linear5, rs)
        assert degree_lower_bound(conns, use_clique=True) == 2
