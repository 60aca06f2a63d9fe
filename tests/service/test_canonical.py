"""Tests for pattern canonicalization under torus translation symmetry."""

import pytest

from repro.compiler.codegen import decode_registers, generate_registers
from repro.compiler.serialize import (
    ArtifactError,
    registers_from_dict,
    registers_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.core.paths import route_requests
from repro.core.registry import get_scheduler, scheduler_names
from repro.core.requests import Request, RequestSet
from repro.patterns.classic import ring_pattern, transpose_pattern
from repro.service.canonical import (
    _canonicalize_tuples,
    canonicalize,
    invert_permutation,
    node_permutation,
    permute_registers_dict,
    permute_schedule_dict,
    translate_link,
    translation_group,
)
from repro.topology.kary_ncube import KAryNCube, TieBreak
from repro.topology.mesh import Mesh2D
from repro.topology.torus import Torus2D


def translated(topo, requests, shift):
    """The same pattern with every endpoint moved by ``shift``."""
    sigma = node_permutation(topo, shift)
    return [(sigma[r.src], sigma[r.dst], r.size, r.tag) for r in requests]


class TestTranslationGroup:
    def test_balanced_even_radix_restricts_to_even_offsets(self):
        group = translation_group(Torus2D(4, 4))  # balanced tie-break
        assert len(group) == 4
        assert all(tx % 2 == 0 and ty % 2 == 0 for tx, ty in group)

    def test_positive_tie_break_allows_all(self):
        group = translation_group(Torus2D(4, 4, tie_break=TieBreak.POSITIVE))
        assert len(group) == 16

    def test_odd_radix_unrestricted(self):
        group = translation_group(KAryNCube([3, 3]))
        assert len(group) == 9

    def test_asymmetric_topology_gets_identity(self):
        assert translation_group(Mesh2D(4)) == [()]

    def test_identity_is_member(self):
        topo = Torus2D(4)
        assert tuple(0 for _ in topo.dims) in translation_group(topo)


class TestPermutations:
    def test_node_permutation_is_bijection(self):
        topo = Torus2D(4)
        sigma = node_permutation(topo, (2, 2))
        assert sorted(sigma) == list(range(topo.num_nodes))
        inv = invert_permutation(sigma)
        assert [sigma[inv[v]] for v in range(16)] == list(range(16))

    def test_translate_link_permutes_all_links(self):
        topo = Torus2D(4)
        sigma = node_permutation(topo, (2, 0))
        images = [translate_link(topo, l, sigma) for l in range(topo.num_links)]
        assert sorted(images) == list(range(topo.num_links))

    def test_translate_link_preserves_kind(self):
        topo = Torus2D(4)
        n = topo.num_nodes
        sigma = node_permutation(topo, (0, 2))
        for l in range(n):
            assert translate_link(topo, l, sigma) < n  # injection
        for l in range(n, 2 * n):
            img = translate_link(topo, l, sigma)
            assert n <= img < 2 * n  # ejection

    def test_translated_routes_are_translated_links(self):
        # The admissibility property the whole subsystem rests on:
        # route(sigma(s), sigma(d)) == sigma(route(s, d)), link by link.
        topo = Torus2D(4)
        for shift in translation_group(topo):
            sigma = node_permutation(topo, shift)
            for s in range(topo.num_nodes):
                for d in range(topo.num_nodes):
                    if s == d:
                        continue
                    base = topo.route(s, d)
                    moved = topo.route(sigma[s], sigma[d])
                    assert list(moved) == [
                        translate_link(topo, l, sigma) for l in base
                    ]


class TestCanonicalize:
    def test_order_independent(self):
        topo = Torus2D(4)
        reqs = [(0, 1, 4, 0), (5, 2, 1, 0), (3, 7, 2, 1)]
        a = canonicalize(topo, reqs)
        b = canonicalize(topo, list(reversed(reqs)))
        assert a.key_bytes == b.key_bytes
        assert a.requests == b.requests

    def test_translated_variants_collapse(self):
        topo = Torus2D(4)
        base = transpose_pattern(4)
        keys = set()
        for shift in translation_group(topo):
            c = canonicalize(topo, translated(topo, base, shift))
            keys.add(c.key_bytes)
        assert len(keys) == 1

    def test_distinct_patterns_do_not_collapse(self):
        topo = Torus2D(4)
        a = canonicalize(topo, [(0, 1, 1, 0)])
        b = canonicalize(topo, [(0, 2, 1, 0)])
        assert a.key_bytes != b.key_bytes

    def test_sizes_and_tags_distinguish(self):
        topo = Torus2D(4)
        assert (
            canonicalize(topo, [(0, 1, 1, 0)]).key_bytes
            != canonicalize(topo, [(0, 1, 2, 0)]).key_bytes
        )
        assert (
            canonicalize(topo, [(0, 1, 1, 0)]).key_bytes
            != canonicalize(topo, [(0, 1, 1, 1)]).key_bytes
        )

    def test_packed_and_tuple_paths_agree(self):
        topo = Torus2D(4)
        reqs = [(5, 2, 3, 1), (0, 9, 1, 0), (12, 4, 7, 2)]
        fast = canonicalize(topo, reqs)
        slow = _canonicalize_tuples(topo, reqs, translation_group(topo))
        assert fast.requests == slow.requests
        assert fast.translation == slow.translation
        assert fast.sigma == slow.sigma

    def test_huge_sizes_fall_back_to_tuples(self):
        topo = Torus2D(4)
        c = canonicalize(topo, [(0, 1, 1 << 30, 0)])
        assert c.key_bytes.startswith(b"tuples\0")
        assert c.requests[0][2] == 1 << 30

    def test_accepts_request_sets(self):
        topo = Torus2D(4)
        rs = ring_pattern(16)
        a = canonicalize(topo, rs)
        b = canonicalize(topo, [(r.src, r.dst, r.size, r.tag) for r in rs])
        assert a.key_bytes == b.key_bytes

    def test_sigma_maps_original_to_canonical(self):
        topo = Torus2D(4)
        base = [(1, 6, 2, 0), (9, 12, 1, 3)]
        c = canonicalize(topo, base)
        mapped = sorted(
            (c.sigma[s], c.sigma[d], size, tag) for s, d, size, tag in base
        )
        assert mapped == c.requests


class TestDegreePreservation:
    """Canonicalization must not change what any scheduler achieves."""

    @pytest.mark.parametrize("scheduler", scheduler_names())
    def test_degree_preserved_on_all_schedulers(self, scheduler):
        topo = Torus2D(4)
        base = transpose_pattern(4)
        shift = next(t for t in translation_group(topo) if any(t))
        moved = translated(topo, base, shift)

        def degree_of(tuples):
            rs = RequestSet(
                (Request(s, d, size=size, tag=tag) for s, d, size, tag in tuples),
                allow_duplicates=True,
            )
            conns = route_requests(topo, rs)
            schedule = get_scheduler(scheduler)(conns, topo)
            schedule.validate(conns)
            return schedule.degree

        canonical = canonicalize(topo, moved)
        assert degree_of(canonical.requests) == degree_of(
            sorted((r.src, r.dst, r.size, r.tag) for r in base)
        )


class TestArtifactPermutation:
    @pytest.fixture()
    def compiled(self):
        topo = Torus2D(4)
        requests = transpose_pattern(4)
        conns = route_requests(topo, requests)
        schedule = get_scheduler("combined")(conns, topo)
        return topo, requests, schedule

    def test_identity_schedule_permutation_is_noop(self, compiled):
        topo, _, schedule = compiled
        doc = schedule_to_dict(schedule)
        assert permute_schedule_dict(doc, list(range(topo.num_nodes))) == doc

    def test_permuted_schedule_validates(self, compiled):
        topo, _, schedule = compiled
        sigma = node_permutation(topo, (2, 2))
        doc = permute_schedule_dict(schedule_to_dict(schedule), sigma)
        loaded, conns = schedule_from_dict(topo, doc)  # re-validates
        assert loaded.degree == schedule.degree

    def test_permuted_registers_realise_permuted_schedule(self, compiled):
        topo, _, schedule = compiled
        sigma = node_permutation(topo, (2, 0))
        regs_doc = permute_registers_dict(
            topo, registers_to_dict(generate_registers(topo, schedule)), sigma
        )
        sched_doc = permute_schedule_dict(schedule_to_dict(schedule), sigma)
        permuted_schedule, _ = schedule_from_dict(topo, sched_doc)
        fresh = generate_registers(topo, permuted_schedule)
        assert decode_registers(registers_from_dict(topo, regs_doc)) == (
            decode_registers(fresh)
        )

    @pytest.mark.parametrize("corruption", ["truncated", "port_out_of_range",
                                            "output_used_twice"])
    def test_malformed_words_rejected(self, compiled, corruption):
        topo, _, schedule = compiled
        doc = registers_to_dict(generate_registers(topo, schedule))
        word = doc["words"]["0"][0]
        doc["words"]["0"][0] = {
            "truncated": word[:-1],
            "port_out_of_range": [5, *word[1:]],
            "output_used_twice": [1, 1, *word[2:]],
        }[corruption]
        with pytest.raises(ArtifactError, match="register image"):
            permute_registers_dict(topo, doc, node_permutation(topo, (2, 0)))
