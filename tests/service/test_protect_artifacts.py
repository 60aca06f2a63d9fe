"""Protection artifacts through the service layer.

``protect_pattern`` is the protection mirror of ``compile_pattern``:
canonicalize -> digest -> cache -> (miss: build + deep-validate +
store) -> detranslate.  These tests pin the cache discipline, the
digest keying, the load-time structural audit (tampered documents must
never decode), and the corrupted-cache self-heal path.
"""

import json

import pytest

from repro.compiler.serialize import ArtifactError
from repro.core import perf
from repro.service.cache import ArtifactCache
from repro.service.compile import compile_digest, compile_pattern
from repro.service.canonical import canonicalize
from repro.service.protect import (
    PROTECTION_VERSION,
    protect_digest,
    protect_pattern,
    protection_from_dict,
    protection_to_dict,
    verify_protection,
)
from repro.topology.torus import Torus2D

TORUS = Torus2D(4)
PAIRS = [(i, (i + 5) % 16) for i in range(16)]


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


class TestProtectPattern:
    def test_miss_then_hit(self, cache):
        first = protect_pattern(TORUS, PAIRS, cache=cache)
        second = protect_pattern(TORUS, PAIRS, cache=cache)
        assert first.cache == "miss"
        assert second.cache == "hit"
        assert second.digest == first.digest
        assert second.doc == first.doc
        assert cache.stats.stores == 1

    def test_uncached_build_counts_a_miss(self):
        perf.reset()
        result = protect_pattern(TORUS, PAIRS)
        assert result.cache == "miss"
        assert perf.COUNTERS.artifact_cache_misses == 1

    def test_served_protection_deep_validates(self, cache):
        protect_pattern(TORUS, PAIRS, cache=cache)
        hit = protect_pattern(TORUS, PAIRS, cache=cache)
        hit.protected.validate()
        report = hit.protected.overhead_report()
        assert report["uncovered"] == 0

    def test_digest_distinct_from_compile_digest(self):
        canonical = canonicalize(TORUS, PAIRS)
        assert protect_digest(TORUS, canonical, "combined") \
            != compile_digest(TORUS, canonical, "combined")

    def test_digest_keys_on_scheduler(self):
        canonical = canonicalize(TORUS, PAIRS)
        assert protect_digest(TORUS, canonical, "combined") \
            != protect_digest(TORUS, canonical, "greedy")

    def test_golden_digest_pinned(self):
        # Pins the protection digest preimage, including its constant
        # ``bitmask`` field: a change here invalidates every cached
        # protection artifact -- bump PROTECTION_VERSION when intended.
        canonical = canonicalize(TORUS, [(0, 1, 1, 0), (2, 3, 4, 5)])
        assert protect_digest(TORUS, canonical, "combined") == (
            "8a11fb30a5e7c136647cac7708eaa888b096613b2945bfab45b219e4f079cdf6"
        )

    def test_protection_entry_never_serves_schedules(self, cache):
        # Same pattern compiled and protected in one cache: two
        # distinct entries, neither shadowing the other.
        compile_pattern(TORUS, PAIRS, cache=cache)
        protect_pattern(TORUS, PAIRS, cache=cache)
        assert cache.stats.stores == 2

    def test_doc_roundtrip(self):
        result = protect_pattern(TORUS, PAIRS)
        again = protection_from_dict(TORUS, result.doc)
        assert protection_to_dict(again) == result.doc
        again.validate()

    def test_doc_json_serialisable_and_deterministic(self):
        a = protect_pattern(TORUS, PAIRS).doc
        b = protect_pattern(TORUS, PAIRS).doc
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def tampered(mutate):
    doc = json.loads(json.dumps(protect_pattern(TORUS, PAIRS).doc))
    mutate(doc)
    return doc


def augmented_entry(doc):
    return next(
        e for e in doc["scenarios"] if e["kind"] in ("repacked", "augmented")
    )


class TestTamperRejection:
    def test_wrong_protection_version(self):
        doc = tampered(lambda d: d.update(protection=PROTECTION_VERSION + 1))
        with pytest.raises(ArtifactError, match="protection version"):
            verify_protection(TORUS, doc)

    def test_wrong_topology(self):
        doc = protect_pattern(TORUS, PAIRS).doc
        with pytest.raises(ArtifactError, match="built for"):
            verify_protection(Torus2D(8), doc)

    def test_unknown_kind(self):
        def mutate(d):
            d["scenarios"][0]["kind"] = "mystery"
        with pytest.raises(ArtifactError, match="kind"):
            verify_protection(TORUS, tampered(mutate))

    def test_detour_through_failed_fiber(self):
        def mutate(d):
            entry = augmented_entry(d)
            path = next(iter(entry["detours"].values()))
            path[1] = entry["link"]
        with pytest.raises(ArtifactError, match="failed"):
            verify_protection(TORUS, tampered(mutate))

    def test_discontiguous_detour(self):
        def mutate(d):
            entry = augmented_entry(d)
            path = next(iter(entry["detours"].values()))
            path[1], path[2] = path[2], path[1]
        with pytest.raises(ArtifactError):
            verify_protection(TORUS, tampered(mutate))

    def test_dropped_placement(self):
        def mutate(d):
            entry = augmented_entry(d)
            entry["placements"].popitem()
        with pytest.raises(ArtifactError, match="cover"):
            verify_protection(TORUS, tampered(mutate))

    def test_placement_outside_backup_frame(self):
        def mutate(d):
            entry = augmented_entry(d)
            key = next(iter(entry["placements"]))
            entry["placements"][key] = 10**6
        with pytest.raises(ArtifactError, match="backup frame"):
            verify_protection(TORUS, tampered(mutate))

    def test_affected_index_out_of_range(self):
        def mutate(d):
            entry = d["scenarios"][0]
            entry["affected"] = [10**6]
        with pytest.raises(ArtifactError, match="out of range"):
            verify_protection(TORUS, tampered(mutate))

    def test_non_transit_scenario_link(self):
        def mutate(d):
            d["scenarios"][0]["link"] = 0  # an injection fiber
        with pytest.raises(ArtifactError, match="transit"):
            verify_protection(TORUS, tampered(mutate))

    def test_corrupted_cache_entry_self_heals(self, tmp_path):
        root = tmp_path / "cache"
        first = protect_pattern(TORUS, PAIRS, cache=ArtifactCache(root))
        bad = json.loads(json.dumps(first.doc))
        bad["scenarios"][0]["kind"] = "mystery"
        ArtifactCache(root).put(first.digest, bad)
        # A cold process reads the tampered entry off disk: the
        # verifier rejects it, quarantines, and the service rebuilds
        # instead of serving it (the verifier only guards the
        # disk -> process boundary, so the reopen matters).
        cold = ArtifactCache(root)
        again = protect_pattern(TORUS, PAIRS, cache=cold)
        assert again.cache == "miss"
        assert again.doc == first.doc
        assert cold.stats.verify_failures == 1
        final = protect_pattern(TORUS, PAIRS, cache=cold)
        assert final.cache == "hit"
