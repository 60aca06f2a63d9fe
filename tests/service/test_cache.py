"""Tests for the content-addressed artifact cache."""

import json
import logging

import pytest

from repro.core import perf
from repro.service.cache import ArtifactCache

DIGEST = "ab" + "0" * 62
OTHER = "cd" + "1" * 62
DOC = {"version": 1, "schedule": {"degree": 3, "slots": []}}


class TestMemoryTier:
    def test_miss_then_hit(self):
        cache = ArtifactCache()
        assert cache.get(DIGEST) is None
        cache.put(DIGEST, DOC)
        assert cache.get(DIGEST) == DOC
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.memory_hits == 1
        assert cache.stats.stores == 1

    def test_lru_eviction_counts(self):
        cache = ArtifactCache(memory_entries=2)
        cache.put("a" * 64, DOC)
        cache.put("b" * 64, DOC)
        cache.get("a" * 64)  # refresh: now b is the oldest
        cache.put("c" * 64, DOC)
        assert cache.stats.evictions == 1
        assert cache.get("a" * 64) is not None
        assert cache.get("b" * 64) is None

    def test_zero_memory_entries_disables_tier(self):
        cache = ArtifactCache(memory_entries=0)
        cache.put(DIGEST, DOC)
        assert cache.get(DIGEST) is None  # no disk tier either

    def test_len_and_contains(self):
        cache = ArtifactCache()
        assert DIGEST not in cache and len(cache) == 0
        cache.put(DIGEST, DOC)
        assert DIGEST in cache and len(cache) == 1


class TestDiskTier:
    def test_persists_across_instances(self, tmp_path):
        ArtifactCache(tmp_path).put(DIGEST, DOC)
        fresh = ArtifactCache(tmp_path)
        assert fresh.get(DIGEST) == DOC
        assert fresh.stats.disk_hits == 1

    def test_sharded_layout(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(DIGEST, DOC)
        assert (tmp_path / DIGEST[:2] / f"{DIGEST}.json").is_file()

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        ArtifactCache(tmp_path).put(DIGEST, DOC)
        fresh = ArtifactCache(tmp_path)
        fresh.get(DIGEST)
        fresh.get(DIGEST)
        assert fresh.stats.disk_hits == 1
        assert fresh.stats.memory_hits == 1

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(DIGEST, DOC)
        cache.put(OTHER, DOC)
        leftovers = [p for p in tmp_path.rglob("*") if p.name.startswith(".tmp-")]
        assert leftovers == []

    def test_truncated_entry_quarantined(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(DIGEST, DOC)
        path = tmp_path / DIGEST[:2] / f"{DIGEST}.json"
        path.write_text(path.read_text()[:20])
        fresh = ArtifactCache(tmp_path)
        assert fresh.get(DIGEST) is None
        assert fresh.stats.corrupt == 1
        assert not path.exists()

    def test_tampered_payload_rejected(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(DIGEST, DOC)
        path = tmp_path / DIGEST[:2] / f"{DIGEST}.json"
        wrapped = json.loads(path.read_text())
        wrapped["artifact"]["schedule"]["degree"] = 1  # lie about the degree
        path.write_text(json.dumps(wrapped))
        fresh = ArtifactCache(tmp_path)
        assert fresh.get(DIGEST) is None
        assert fresh.stats.corrupt == 1

    def test_len_spans_both_tiers(self, tmp_path):
        cache = ArtifactCache(tmp_path, memory_entries=1)
        cache.put(DIGEST, DOC)
        cache.put(OTHER, DOC)  # evicts DIGEST from memory, both on disk
        assert len(cache) == 2
        assert DIGEST in cache


class TestJournalRecovery:
    def _shard(self, tmp_path, digest=DIGEST):
        return tmp_path / digest[:2] / f"{digest}.json"

    def _intent(self, tmp_path, digest=DIGEST):
        intent = tmp_path / "journal" / f"{digest}.intent"
        intent.parent.mkdir(parents=True, exist_ok=True)
        intent.write_text(json.dumps({"digest": digest}))
        return intent

    def test_clean_write_leaves_no_intent(self, tmp_path):
        ArtifactCache(tmp_path).put(DIGEST, DOC)
        assert list((tmp_path / "journal").glob("*.intent")) == []

    def test_torn_shard_with_intent_is_quarantined_on_open(self, tmp_path):
        ArtifactCache(tmp_path).put(DIGEST, DOC)
        shard = self._shard(tmp_path)
        shard.write_text(shard.read_text()[:17])  # tear mid-JSON
        self._intent(tmp_path)
        fresh = ArtifactCache(tmp_path)
        assert not shard.exists()
        assert (tmp_path / "quarantine" / shard.name).is_file()
        assert fresh.stats.recovered == 1
        assert fresh.stats.quarantined == 1
        assert fresh.get(DIGEST) is None

    def test_clean_shard_with_stale_intent_survives(self, tmp_path):
        # Crash after the rename but before the intent unlink: the
        # shard is whole and must keep being served.
        ArtifactCache(tmp_path).put(DIGEST, DOC)
        self._intent(tmp_path)
        fresh = ArtifactCache(tmp_path)
        assert fresh.get(DIGEST) == DOC
        assert fresh.stats.recovered == 1
        assert fresh.stats.quarantined == 0
        assert list((tmp_path / "journal").glob("*.intent")) == []

    def test_intent_without_shard_is_retired(self, tmp_path):
        # Crash before the rename: nothing on disk, intent retired.
        (tmp_path / DIGEST[:2]).mkdir(parents=True)
        self._intent(tmp_path)
        report = ArtifactCache(tmp_path, recover=False).recover()
        assert report["intents"] == 1
        assert report["quarantined"] == []

    def test_stray_tmp_files_swept(self, tmp_path):
        ArtifactCache(tmp_path).put(DIGEST, DOC)
        stray = tmp_path / DIGEST[:2] / ".tmp-abc123.json"
        stray.write_text('{"artifact": {"half')
        report = ArtifactCache(tmp_path, recover=False).recover()
        assert report["swept"] == 1
        assert not stray.exists()
        assert (tmp_path / "quarantine" / stray.name).is_file()

    def test_recovery_is_idempotent(self, tmp_path):
        ArtifactCache(tmp_path).put(DIGEST, DOC)
        shard = self._shard(tmp_path)
        shard.write_text(shard.read_text()[:17])
        self._intent(tmp_path)
        cache = ArtifactCache(tmp_path)
        second = cache.recover()
        assert second == {"intents": 0, "quarantined": [], "swept": 0}

    def test_recovery_runs_on_open_by_default(self, tmp_path):
        self._intent(tmp_path)
        cache = ArtifactCache(tmp_path)
        assert cache.stats.recovered == 1
        untouched = ArtifactCache(tmp_path, recover=False)
        assert untouched.stats.recovered == 0


class TestVerifier:
    def _reject(self, doc):
        raise ValueError("semantic check failed")

    def test_verifier_runs_on_disk_promotion_only(self, tmp_path):
        calls = []
        ArtifactCache(tmp_path).put(DIGEST, DOC)
        fresh = ArtifactCache(tmp_path)
        verifier = lambda doc: calls.append(doc)
        assert fresh.get(DIGEST, verifier=verifier) == DOC
        assert fresh.get(DIGEST, verifier=verifier) == DOC  # memory hit
        assert len(calls) == 1

    def test_rejected_doc_is_quarantined_miss(self, tmp_path):
        ArtifactCache(tmp_path).put(DIGEST, DOC)
        fresh = ArtifactCache(tmp_path)
        assert fresh.get(DIGEST, verifier=self._reject) is None
        assert fresh.stats.verify_failures == 1
        assert fresh.stats.quarantined == 1
        assert fresh.stats.misses == 1
        assert not (tmp_path / DIGEST[:2] / f"{DIGEST}.json").exists()

    def test_memory_hits_skip_verifier(self):
        cache = ArtifactCache()
        cache.put(DIGEST, DOC)
        assert cache.get(DIGEST, verifier=self._reject) == DOC


class TestVerifyScan:
    def test_clean_cache_reports_all_ok(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(DIGEST, DOC)
        cache.put(OTHER, DOC)
        report = cache.verify_scan()
        assert report == {"checked": 2, "ok": 2, "quarantined": []}

    def test_torn_shard_quarantined_by_scan(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(DIGEST, DOC)
        cache.put(OTHER, DOC)
        shard = tmp_path / OTHER[:2] / f"{OTHER}.json"
        shard.write_text(shard.read_text()[:40])
        report = ArtifactCache(tmp_path).verify_scan()
        assert report["checked"] == 2
        assert report["ok"] == 1
        assert report["quarantined"] == [OTHER]
        assert not shard.exists()

    def test_semantic_failures_quarantined_by_scan(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(DIGEST, DOC)

        def reject(doc):
            raise ValueError("conflict found")

        report = ArtifactCache(tmp_path).verify_scan(verifier=reject)
        assert report["quarantined"] == [DIGEST]


class TestQuarantineLog:
    def _events(self, caplog):
        return [
            (r.event, r.file, r.cause) for r in caplog.records
            if r.name == "repro.service.cache"
        ]

    def test_each_quarantine_logs_its_cause(self, tmp_path, caplog):
        caplog.set_level(logging.WARNING, logger="repro.service.cache")
        cache = ArtifactCache(tmp_path)
        cache.put(DIGEST, DOC)
        cache.put(OTHER, DOC)
        shard = tmp_path / OTHER[:2] / f"{OTHER}.json"
        shard.write_text(shard.read_text()[:40])  # corrupt the shard
        stray = tmp_path / DIGEST[:2] / ".tmp-abc123.json"
        stray.write_text('{"artifact": {"half')

        def reject(doc):
            raise ValueError("conflict found")

        fresh = ArtifactCache(tmp_path)  # recovery sweeps the stray temp
        assert fresh.get(OTHER) is None
        assert fresh.get(DIGEST, verifier=reject) is None
        assert self._events(caplog) == [
            ("quarantine", stray.name, "torn"),
            ("quarantine", f"{OTHER}.json", "corrupt"),
            ("quarantine", f"{DIGEST}.json", "verify"),
        ]
        assert all(r.levelno == logging.WARNING for r in caplog.records
                   if r.name == "repro.service.cache")
        assert len(self._events(caplog)) == fresh.stats.quarantined

    def test_verify_scan_logs_one_record_per_quarantine(self, tmp_path, caplog):
        caplog.set_level(logging.WARNING, logger="repro.service.cache")
        cache = ArtifactCache(tmp_path)
        cache.put(DIGEST, DOC)
        cache.put(OTHER, DOC)

        def reject(doc):
            raise ValueError("conflict found")

        fresh = ArtifactCache(tmp_path)
        report = fresh.verify_scan(verifier=reject)
        assert report["quarantined"] == [DIGEST, OTHER]
        assert [cause for _, _, cause in self._events(caplog)] == ["verify"] * 2
        assert len(self._events(caplog)) == fresh.stats.quarantined


class TestCounters:
    def test_perf_counters_wired(self):
        perf.reset()
        cache = ArtifactCache(memory_entries=1)
        cache.get(DIGEST)
        cache.put(DIGEST, DOC)
        cache.get(DIGEST)
        cache.put(OTHER, DOC)  # evicts
        assert perf.COUNTERS.artifact_cache_misses == 1
        assert perf.COUNTERS.artifact_cache_hits == 1
        assert perf.COUNTERS.artifact_cache_stores == 2
        assert perf.COUNTERS.artifact_cache_evictions == 1
        snap = perf.snapshot()
        assert snap["artifact_cache_hit_rate"] == pytest.approx(0.5)

    def test_stats_dict_has_hit_rate(self):
        cache = ArtifactCache()
        cache.put(DIGEST, DOC)
        cache.get(DIGEST)
        out = cache.stats.as_dict()
        assert out["hit_rate"] == 1.0
        assert out["stores"] == 1
