"""Tests for Latin ring schedules (the torus-AAPC building block)."""

import pytest

from repro.aapc.ring_latin import (
    PRECOMPUTED,
    latin_feasible,
    ring_latin_schedule,
    ring_link_load,
    ring_route,
    solve_ring_latin,
    validate_ring_latin,
)


class TestRingRoute:
    def test_self_pair_empty(self):
        assert ring_route(8, 3, 3) == ()

    def test_short_way_positive(self):
        assert ring_route(8, 0, 2) == (("+", 0), ("+", 1))

    def test_short_way_negative(self):
        assert ring_route(8, 0, 6) == (("-", 7), ("-", 6))

    def test_half_ring_balanced(self):
        assert all(sign == "+" for sign, _ in ring_route(8, 2, 6))
        assert all(sign == "-" for sign, _ in ring_route(8, 3, 7))

    def test_matches_topology_routing(self, ring8):
        """ring_route's fiber usage must agree with the Ring topology's
        transit links one-to-one."""
        for u in range(8):
            for v in range(8):
                if u == v:
                    continue
                labels = ring_route(8, u, v)
                transit = ring8.route(u, v)[1:-1]
                assert len(labels) == len(transit)
                directions = {ring8.link_info(l).direction for l in transit}
                assert directions == {s + "x" for s, _ in labels}


class TestFeasibility:
    def test_load_formula_even(self):
        # Balanced all-pairs ring load ~ n^2/8 for even n (the parity of
        # the half-ring split can add 1 when 8 does not divide n^2).
        for n in (4, 6, 8, 12):
            assert n * n // 8 <= ring_link_load(n) <= n * n // 8 + 1
        assert ring_link_load(8) == 8  # the perfect case

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_small_rings_feasible(self, n):
        assert latin_feasible(n)

    @pytest.mark.parametrize("n", [10, 12, 16])
    def test_large_rings_infeasible(self, n):
        assert not latin_feasible(n)
        assert solve_ring_latin(n) is None


class TestPrecomputedTables:
    @pytest.mark.parametrize("n", sorted(PRECOMPUTED))
    def test_table_valid(self, n):
        validate_ring_latin(n, PRECOMPUTED[n])

    def test_ring8_is_perfect(self):
        """Every fiber of the 8-ring is lit in every phase: the n = n^2/8
        coincidence that makes the 8x8 torus product optimal."""
        phi = PRECOMPUTED[8]
        per_phase_hops = [0] * 8
        for u in range(8):
            for v in range(8):
                per_phase_hops[phi[u][v]] += len(ring_route(8, u, v))
        assert per_phase_hops == [16] * 8  # 8 '+' fibers + 8 '-' fibers


class TestSolver:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_solver_finds_valid_schedule(self, n):
        phi = solve_ring_latin(n, seed=0)
        assert phi is not None
        validate_ring_latin(n, phi)

    def test_solver_deterministic(self):
        assert solve_ring_latin(5, seed=1) == solve_ring_latin(5, seed=1)

    def test_budget_exhaustion_returns_none(self):
        # Absurdly small budget on the hard instance.
        assert solve_ring_latin(8, seed=0, max_nodes=5, restarts=2) is None


class TestValidator:
    def test_detects_bad_row(self):
        phi = [row[:] for row in PRECOMPUTED[4]]
        phi[0][0] = phi[0][1]
        with pytest.raises(AssertionError, match="row 0"):
            validate_ring_latin(4, phi)

    def test_detects_link_clash(self):
        # A proper order-5 Latin square that puts (0,2) and (1,3) in the
        # same phase: both route over fiber 1->2 (+1), so rows and
        # columns pass but the disjointness check must fire.
        phi = [[1, 2, 0, 3, 4], [2, 1, 4, 0, 3], [0, 3, 1, 4, 2],
               [3, 4, 2, 1, 0], [4, 0, 3, 2, 1]]
        with pytest.raises(AssertionError, match="reuses fibers"):
            validate_ring_latin(5, phi)


class TestLookup:
    def test_precomputed_preferred(self):
        assert ring_latin_schedule(8) is PRECOMPUTED[8]

    def test_trivial_ring(self):
        assert ring_latin_schedule(1) == [[0]]

    def test_infeasible_returns_none(self):
        assert ring_latin_schedule(10) is None
