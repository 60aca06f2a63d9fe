"""Tests for AAPC phase decompositions."""

import pytest

from repro.aapc.bounds import (
    aapc_injection_bound,
    aapc_link_bound,
    all_pairs_requests,
    torus_phase_optimum,
)
from repro.aapc.phases import (
    aapc_decomposition,
    aapc_phase_map,
    build_aapc_decomposition,
)
from repro.topology.kary_ncube import KAryNCube, TieBreak
from repro.topology.ring import Ring
from repro.topology.torus import Torus2D


class TestBounds:
    def test_all_pairs_count(self, torus4):
        assert len(all_pairs_requests(torus4)) == 16 * 15

    def test_injection_bound(self, torus8):
        assert aapc_injection_bound(torus8) == 63

    def test_link_bound_matches_paper_formula(self, torus8):
        """The routed link bound on the balanced 8x8 torus equals the
        paper's N^3/8 = 64."""
        assert aapc_link_bound(torus8) == torus_phase_optimum(8) == 64

    def test_formula_rejects_odd(self):
        with pytest.raises(ValueError):
            torus_phase_optimum(7)


class TestPaperTorus:
    def test_64_phases_on_8x8(self, torus8):
        """The headline substrate result: our decomposition meets the
        paper's optimum of N^3/8 = 64 phases."""
        dec = aapc_decomposition(torus8)
        dec.validate()
        assert dec.num_phases == 64
        assert dec.num_phases == dec.lower_bound()

    def test_product_construction_used(self, torus8):
        dec = aapc_decomposition(torus8)
        assert "latin-product" in dec.schedule.scheduler

    def test_phase_map_covers_all_pairs(self, torus8):
        phase_of = aapc_phase_map(torus8)
        assert len(phase_of) == 64 * 63
        assert set(phase_of.values()) == set(range(64))

    def test_every_phase_is_near_permutation(self, torus8):
        """In the Latin-product schedule every node sends at most once
        and receives at most once per phase."""
        dec = aapc_decomposition(torus8)
        for cfg in dec.schedule:
            sources = [c.request.src for c in cfg]
            dests = [c.request.dst for c in cfg]
            assert len(set(sources)) == len(sources)
            assert len(set(dests)) == len(dests)

    def test_cached(self, torus8):
        assert aapc_decomposition(torus8) is aapc_decomposition(torus8)


class TestOtherTopologies:
    def test_ring8_optimal(self):
        dec = build_aapc_decomposition(Ring(8))
        dec.validate()
        assert dec.num_phases == dec.lower_bound() == 8

    def test_torus4_close_to_bound(self, torus4):
        dec = build_aapc_decomposition(torus4)
        dec.validate()
        assert dec.lower_bound() <= dec.num_phases <= dec.lower_bound() + 1

    def test_torus6_within_two_of_bound(self):
        dec = build_aapc_decomposition(Torus2D(6))
        dec.validate()
        assert dec.num_phases <= dec.lower_bound() + 2

    def test_3d_torus(self):
        topo = KAryNCube((4, 4, 4))
        dec = build_aapc_decomposition(topo)
        dec.validate()
        assert dec.num_phases <= dec.lower_bound() + 2

    def test_rectangular_torus(self):
        topo = Torus2D(4, 2)
        dec = build_aapc_decomposition(topo)
        dec.validate()

    def test_positive_tie_break_falls_back_to_heuristic(self):
        """The Latin tables assume balanced routing; positive-policy
        tori must still get a valid (heuristic) decomposition."""
        topo = Torus2D(4, tie_break=TieBreak.POSITIVE)
        dec = build_aapc_decomposition(topo)
        dec.validate()
        assert "latin-product" not in dec.schedule.scheduler

    def test_fast_effort_valid(self):
        dec = build_aapc_decomposition(Torus2D(4), effort="fast")
        dec.validate()

    def test_linear_array_decomposition(self):
        from repro.topology.linear import LinearArray

        dec = build_aapc_decomposition(LinearArray(4))
        dec.validate()
        assert dec.num_phases >= dec.lower_bound()
