"""Tests for random-pattern generation and embeddings."""

import numpy as np
import pytest

from repro.patterns.embeddings import (
    embed_pairs,
    gray_embedding,
    identity_embedding,
    snake_embedding,
)
from repro.patterns.random_patterns import random_pattern


class TestRandomPattern:
    def test_distinct_pairs(self):
        rs = random_pattern(64, 500, seed=0)
        assert len(set(rs.pairs)) == 500

    def test_no_self_loops(self):
        rs = random_pattern(64, 4032, seed=0)
        assert all(s != d for s, d in rs.pairs)

    def test_full_density_is_all_to_all(self):
        rs = random_pattern(8, 56, seed=1)
        assert set(rs.pairs) == {(s, d) for s in range(8) for d in range(8) if s != d}

    def test_too_many_rejected(self):
        with pytest.raises(ValueError):
            random_pattern(8, 57)

    def test_deterministic(self):
        assert random_pattern(64, 100, seed=5).pairs == random_pattern(64, 100, seed=5).pairs

    def test_generator_shared_state(self):
        rng = np.random.default_rng(0)
        a = random_pattern(64, 100, seed=rng)
        b = random_pattern(64, 100, seed=rng)
        assert a.pairs != b.pairs

    def test_roughly_uniform_sources(self):
        rs = random_pattern(64, 4000, seed=2)
        from collections import Counter

        counts = Counter(s for s, _ in rs.pairs)
        assert min(counts.values()) >= 40  # each node ~62.5 expected

    def test_size_attached(self):
        assert all(r.size == 16 for r in random_pattern(64, 10, seed=0, size=16))


class TestIdentityEmbedding:
    def test_maps_through(self):
        emb = identity_embedding(8)
        assert [emb(i) for i in range(8)] == list(range(8))

    def test_range_checked(self):
        with pytest.raises(ValueError):
            identity_embedding(8)(8)


class TestSnakeEmbedding:
    def test_consecutive_pes_adjacent(self, torus8):
        emb = snake_embedding(8, 8)
        for pe in range(63):
            assert torus8.distance(emb(pe), emb(pe + 1)) == 1

    def test_closes_into_hamiltonian_cycle(self, torus8):
        emb = snake_embedding(8, 8)
        assert torus8.distance(emb(63), emb(0)) == 1

    def test_bijective(self):
        emb = snake_embedding(8, 8)
        assert sorted(emb(i) for i in range(64)) == list(range(64))


class TestGrayEmbedding:
    def test_bijective(self):
        emb = gray_embedding(8, 8)
        assert sorted(emb(i) for i in range(64)) == list(range(64))

    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            gray_embedding(6, 6)

    def test_reduces_hypercube_dilation(self, torus8):
        """Gray placement should make hypercube neighbours closer on
        average than the identity numbering."""
        from repro.patterns.classic import hypercube_pattern

        ident = hypercube_pattern(64)
        gray = hypercube_pattern(64, embedding=gray_embedding(8, 8))
        dist = lambda rs: sum(torus8.distance(s, d) for s, d in rs.pairs)
        assert dist(gray) <= dist(ident)
        # ... and the schedulers turn the shorter paths into a degree
        # no higher than the identity placement's
        from repro.core.combined import combined_schedule
        from repro.core.paths import route_requests

        degree = lambda rs: combined_schedule(route_requests(torus8, rs), torus8).degree
        assert degree(gray) <= degree(ident)


class TestEmbedPairs:
    def test_applies_mapping(self):
        emb = snake_embedding(4, 2)
        rs = embed_pairs([(0, 1), (3, 4)], emb)
        assert rs.pairs == ((emb(0), emb(1)), (emb(3), emb(4)))
