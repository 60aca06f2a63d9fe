"""Tests for size-aware (weighted) TDM schedules."""

import numpy as np
import pytest

from repro.core.combined import combined_schedule
from repro.core.paths import route_requests
from repro.core.requests import Request, RequestSet
from repro.core.weighted import (
    WeightedSchedule,
    _deficit_round_robin,
    simulate_weighted,
    weighted_schedule,
)
from repro.patterns.random_patterns import random_pattern


@pytest.fixture()
def skewed(torus8):
    """Two disjoint heavy connections + several light conflicting ones."""
    rs = RequestSet.from_sized_pairs([
        (0, 1, 400), (2, 3, 400),          # heavy, mutually compatible
        (0, 2, 4), (1, 3, 4), (0, 3, 4),   # light, conflict with the heavy ones
    ])
    conns = route_requests(torus8, rs)
    return conns, combined_schedule(conns, torus8)


class TestDeficitRoundRobin:
    def test_counts_respected(self):
        frame = _deficit_round_robin([3, 1, 2])
        assert len(frame) == 6
        assert frame.count(0) == 3
        assert frame.count(1) == 1
        assert frame.count(2) == 2

    def test_spreading(self):
        """A configuration with half the slots appears every other slot."""
        frame = _deficit_round_robin([4, 2, 1, 1])
        positions = [t for t, i in enumerate(frame) if i == 0]
        gaps = [b - a for a, b in zip(positions, positions[1:])]
        assert max(gaps) <= 3  # near-even spacing for rate 1/2


class TestWeightedSchedule:
    def test_uniform_sizes_stay_unreplicated(self, torus8):
        rs = RequestSet.from_pairs([(0, 1), (0, 2), (0, 3)], size=16)
        conns = route_requests(torus8, rs)
        base = combined_schedule(conns, torus8)
        weighted = weighted_schedule(base)
        assert weighted.frame_length == base.degree
        assert set(weighted.multiplicities) == {1}

    def test_skewed_sizes_replicate_heavy_config(self, skewed):
        conns, base = skewed
        weighted = weighted_schedule(base)
        weighted.validate(conns)
        assert weighted.frame_length > base.degree
        # The configuration holding the heavy connections got extra slots.
        assert max(weighted.multiplicities) > 1

    def test_skewed_makespan_improves(self, skewed, torus8):
        conns, base = skewed
        flat = WeightedSchedule(base=base, frame=list(range(base.degree)))
        weighted = weighted_schedule(base)
        t_flat = simulate_weighted(flat)
        t_weighted = simulate_weighted(weighted)
        assert t_weighted < t_flat
        # A heavy tail on a random pattern: 10% of 300 messages carry
        # 50x the data.
        rng = np.random.default_rng(7)
        pattern = random_pattern(64, 300, seed=rng)
        sizes = np.where(rng.random(300) < 0.1, 200, 4)
        heavy = RequestSet(
            [Request(r.src, r.dst, size=int(z)) for r, z in zip(pattern, sizes)]
        )
        conns = route_requests(torus8, heavy)
        base = combined_schedule(conns, torus8)
        flat = WeightedSchedule(base=base, frame=list(range(base.degree)))
        weighted = weighted_schedule(base)
        weighted.validate(conns)
        assert simulate_weighted(weighted) < simulate_weighted(flat)

    def test_frame_cap_respected(self, skewed):
        _, base = skewed
        weighted = weighted_schedule(base, max_frame=base.degree + 1)
        assert weighted.frame_length <= base.degree + 1

    def test_cap_below_degree_rejected(self, skewed):
        _, base = skewed
        with pytest.raises(ValueError):
            weighted_schedule(base, max_frame=base.degree - 1)

    def test_empty_schedule(self):
        from repro.core.configuration import ConfigurationSet

        weighted = weighted_schedule(ConfigurationSet([]))
        assert weighted.frame == []
        assert simulate_weighted(weighted) == 0

    def test_validate_detects_missing_configuration(self, skewed):
        conns, base = skewed
        bad = WeightedSchedule(base=base, frame=[0] * base.degree)
        if base.degree > 1:
            with pytest.raises(AssertionError, match="never get a slot"):
                bad.validate(conns)


class TestSimulateWeighted:
    def test_matches_compiled_model_for_flat_frame(self, torus8):
        """With multiplicities all 1 the weighted simulator must agree
        with the compiled transfer model."""
        from repro.simulator.compiled import compiled_completion_time
        from repro.simulator.params import SimParams

        rs = RequestSet.from_sized_pairs([(0, 1, 40), (1, 2, 12), (4, 5, 8)])
        conns = route_requests(torus8, rs)
        base = combined_schedule(conns, torus8)
        flat = WeightedSchedule(base=base, frame=list(range(base.degree)))
        params = SimParams(compiled_startup=0)
        expected = compiled_completion_time(torus8, rs, params).completion_time
        assert simulate_weighted(flat, startup=0) == expected

    def test_startup_offsets_result(self, skewed):
        _, base = skewed
        weighted = weighted_schedule(base)
        assert simulate_weighted(weighted, startup=10) == \
            simulate_weighted(weighted, startup=0) + 10
