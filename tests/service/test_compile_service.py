"""Tests for the synchronous compile core (canonicalize -> cache -> run)."""

import pytest

from repro.compiler.serialize import schedule_from_dict
from repro.core import perf
from repro.service.cache import ArtifactCache
from repro.service.canonical import canonicalize, node_permutation, translation_group
from repro.service.compile import (
    artifact_verifier,
    build_canonical_artifact,
    compile_digest,
    compile_pattern,
)
from repro.patterns.classic import ring_pattern, transpose_pattern
from repro.service.specs import (
    TopologySpecError,
    topology_from_spec,
    topology_to_spec,
)
from repro.topology.faults import FaultyTopology
from repro.topology.mesh import Mesh2D
from repro.topology.torus import Torus2D


@pytest.fixture()
def torus():
    return Torus2D(4)


class TestDigest:
    def test_deterministic(self, torus):
        reqs = [(0, 1, 2, 0), (5, 10, 1, 0)]
        c = canonicalize(torus, reqs)
        assert compile_digest(torus, c, "combined") == compile_digest(
            torus, c, "combined"
        )

    def test_translated_variants_share_digest(self, torus):
        base = transpose_pattern(4)
        shift = next(t for t in translation_group(torus) if any(t))
        sigma = node_permutation(torus, shift)
        moved = [(sigma[r.src], sigma[r.dst], r.size, r.tag) for r in base]
        assert compile_digest(
            torus, canonicalize(torus, base), "combined"
        ) == compile_digest(torus, canonicalize(torus, moved), "combined")

    def test_scheduler_and_kernel_and_topology_key(self, torus):
        c = canonicalize(torus, [(0, 1, 1, 0)])
        base = compile_digest(torus, c, "combined")
        assert compile_digest(torus, c, "coloring") != base
        other = Torus2D(8)
        c8 = canonicalize(other, [(0, 1, 1, 0)])
        assert compile_digest(other, c8, "combined") != base

    def test_golden_digest_pinned(self, torus):
        # Pins the whole digest pipeline (canonical packing, topology
        # signature, header layout).  A change here invalidates every
        # existing cache directory -- bump FORMAT_VERSION when that is
        # intended.
        c = canonicalize(torus, [(0, 1, 1, 0), (2, 3, 4, 5)])
        assert (
            compile_digest(torus, c, "combined")
            == "5416e7021428f2912168fdf2a9b437b5b5abbb20e500bb4bf8d7f74ba33c5bc4"
        )


class TestCompilePattern:
    def test_cold_then_warm_byte_identical(self, torus):
        cache = ArtifactCache()
        reqs = transpose_pattern(4)
        cold = compile_pattern(torus, reqs, cache=cache, include_registers=True)
        warm = compile_pattern(torus, reqs, cache=cache, include_registers=True)
        assert cold.cache == "miss" and warm.cache == "hit"
        assert warm.schedule_doc == cold.schedule_doc
        assert warm.registers_doc == cold.registers_doc

    def test_translated_hit_serves_callers_node_ids(self, torus):
        cache = ArtifactCache()
        base = transpose_pattern(4)
        compile_pattern(torus, base, cache=cache)
        shift = next(t for t in translation_group(torus) if any(t))
        sigma = node_permutation(torus, shift)
        moved = [(sigma[r.src], sigma[r.dst], r.size, r.tag) for r in base]
        hit = compile_pattern(torus, moved, cache=cache)
        assert hit.cache == "hit"
        served = {
            (e["src"], e["dst"]) for slot in hit.schedule_doc["slots"] for e in slot
        }
        assert served == {(s, d) for s, d, _, _ in moved}
        loaded, _ = schedule_from_dict(torus, hit.schedule_doc)  # re-validates
        assert loaded.degree == hit.degree

    def test_no_cache_still_compiles(self, torus):
        result = compile_pattern(torus, ring_pattern(16))
        assert result.cache == "miss"
        assert result.degree >= 1

    def test_registers_upgrade_in_place(self, torus):
        cache = ArtifactCache()
        reqs = ring_pattern(16)
        first = compile_pattern(torus, reqs, cache=cache)
        assert first.registers_doc is None
        upgraded = compile_pattern(torus, reqs, cache=cache, include_registers=True)
        assert upgraded.cache == "miss"  # schedule-only entry insufficient
        assert upgraded.registers_doc is not None
        warm = compile_pattern(torus, reqs, cache=cache, include_registers=True)
        assert warm.cache == "hit"
        assert warm.registers_doc == upgraded.registers_doc

    def test_schedule_only_request_hits_register_entry(self, torus):
        cache = ArtifactCache()
        reqs = ring_pattern(16)
        compile_pattern(torus, reqs, cache=cache, include_registers=True)
        warm = compile_pattern(torus, reqs, cache=cache)
        assert warm.cache == "hit"
        assert warm.registers_doc is None  # not asked for

    def test_counters_without_cache(self, torus):
        perf.reset()
        compile_pattern(torus, ring_pattern(16))
        assert perf.COUNTERS.artifact_cache_misses == 1

    def test_mesh_identity_canonicalization(self):
        # No translation symmetry: second call must still hit (sorted
        # request order is the whole canonical form).
        mesh = Mesh2D(4)
        cache = ArtifactCache()
        reqs = [(0, 5, 1, 0), (10, 3, 2, 0)]
        compile_pattern(mesh, reqs, cache=cache)
        assert compile_pattern(mesh, list(reversed(reqs)), cache=cache).cache == "hit"


def swapped_register_doc(topology, requests):
    """A register-carrying artifact whose switches 0 and 1 trade words:
    every word is well formed, but the image no longer realises the
    schedule."""
    canonical = canonicalize(topology, requests)
    doc = build_canonical_artifact(topology, canonical.requests)
    words = doc["registers"]["words"]
    assert words["0"] != words["1"]
    words["0"], words["1"] = words["1"], words["0"]
    return compile_digest(topology, canonical, "combined"), doc


class TestVerifyArtifact:
    def test_swapped_register_image_quarantined_on_disk_promotion(
        self, torus, tmp_path
    ):
        digest, doc = swapped_register_doc(torus, ring_pattern(16))
        ArtifactCache(tmp_path).put(digest, doc)
        fresh = ArtifactCache(tmp_path)
        assert fresh.get(digest, verifier=artifact_verifier(torus)) is None
        assert fresh.stats.verify_failures == 1
        assert fresh.stats.quarantined == 1

    def test_matching_register_image_promoted(self, torus, tmp_path):
        canonical = canonicalize(torus, ring_pattern(16))
        doc = build_canonical_artifact(torus, canonical.requests)
        ArtifactCache(tmp_path).put("ab" * 32, doc)
        fresh = ArtifactCache(tmp_path)
        assert fresh.get("ab" * 32, verifier=artifact_verifier(torus)) == doc


class TestTopologySpecs:
    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "torus", "width": 4},
            {"kind": "torus", "width": 4, "height": 8, "tie_break": "positive"},
            {"kind": "mesh", "width": 4},
            {"kind": "ring", "nodes": 8},
            {"kind": "linear", "nodes": 5},
            {"kind": "omega", "nodes": 8},
            {"kind": "kary", "dims": [4, 4, 2]},
            {
                "kind": "faulty",
                "base": {"kind": "torus", "width": 4},
                "failed": [33],
            },
        ],
    )
    def test_roundtrip(self, spec):
        topo = topology_from_spec(spec)
        again = topology_from_spec(topology_to_spec(topo))
        assert again.signature == topo.signature

    def test_faulty_preserves_failed_links(self):
        topo = topology_from_spec(
            {"kind": "faulty", "base": {"kind": "torus", "width": 4}, "failed": [33]}
        )
        assert isinstance(topo, FaultyTopology)
        assert 33 in topo.failed_links

    def test_unknown_kind_rejected(self):
        with pytest.raises(TopologySpecError, match="unknown topology kind"):
            topology_from_spec({"kind": "moebius", "nodes": 8})

    def test_missing_key_rejected(self):
        with pytest.raises(TopologySpecError, match="missing key"):
            topology_from_spec({"kind": "torus"})

    def test_bad_tie_break_rejected(self):
        with pytest.raises(TopologySpecError, match="tie_break"):
            topology_from_spec({"kind": "ring", "nodes": 8, "tie_break": "coin"})
