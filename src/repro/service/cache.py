"""Content-addressed artifact store for compiled schedules.

Two tiers:

* an **in-process LRU** of parsed documents (``memory_entries`` deep),
  so a hot pattern costs a dict lookup.  Each entry also keeps the
  document's canonical encoding (:class:`CachedArtifact`), computed
  once when the entry is made, so serving or pushing an artifact never
  re-encodes or re-hashes it;
* an **on-disk store** under ``root/<digest[:2]>/<digest>.json`` that
  survives processes and is shared between them.

Disk writes are atomic (temp file + ``os.replace`` in the same
directory) and **journaled**: before touching the shard the writer
records an intent under ``root/journal/<digest>.intent``, and removes
it only after the rename has landed.  A crash mid-write therefore
leaves evidence -- a leftover intent and possibly a torn temp or shard
file -- and the **startup recovery scan** (:meth:`ArtifactCache.recover`,
run on open) uses it: shards named by a leftover intent are re-verified
against their embedded ``payload_sha256`` and *quarantined* (moved to
``root/quarantine/``) when torn, stray ``.tmp-*`` files are swept, and
clean shards simply have their intent retired.  The read path applies
the same payload-hash check on every disk load, and callers can pass a
``verifier`` (semantic conflict re-check against the topology,
:func:`repro.service.compile.verify_artifact`) for defense-in-depth
beyond the hash; any failure quarantines the entry and reads as a
miss, because the compiler can always regenerate it.

Hit/miss/store/quarantine/recovery counts feed both a per-cache
:class:`CacheStats` and the process-global perf counters
(:mod:`repro.core.perf`), so the server's ``stats`` verb reports cache
behaviour alongside kernel and route-cache activity.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable

from repro.compiler.serialize import (
    ArtifactError,
    artifact_digest,
    canonical_dumps,
    compose_fields,
)
from repro.core import perf
from repro.service.wire import Payload

log = logging.getLogger(__name__)

#: Default depth of the in-process LRU tier.
DEFAULT_MEMORY_ENTRIES = 64

#: Subdirectories reserved by the store (never shard prefixes: shard
#: dirs are two hex chars).
JOURNAL_DIR = "journal"
QUARANTINE_DIR = "quarantine"


@dataclass
class CacheStats:
    """Counters for one :class:`ArtifactCache` instance."""

    #: lookups answered from either tier.
    hits: int = 0
    #: of those, answered by the in-process LRU.
    memory_hits: int = 0
    #: of those, answered by a disk read.
    disk_hits: int = 0
    #: lookups that found nothing.
    misses: int = 0
    #: artifacts written.
    stores: int = 0
    #: memory-tier entries dropped by the LRU policy.
    evictions: int = 0
    #: disk entries that failed their integrity check and were removed.
    corrupt: int = 0
    #: disk entries moved to the quarantine directory.
    quarantined: int = 0
    #: torn writes detected and cleaned by the startup recovery scan.
    recovered: int = 0
    #: served artifacts rejected by a semantic verifier.
    verify_failures: int = 0

    def as_dict(self) -> dict[str, float]:
        out: dict[str, float] = {f.name: getattr(self, f.name) for f in fields(self)}
        looked_up = self.hits + self.misses
        out["hit_rate"] = self.hits / looked_up if looked_up else 0.0
        return out


class CachedArtifact:
    """A cached document with its canonical encoding, computed once.

    ``fields`` maps each top-level field to its canonical JSON, and any
    set of them composes into ``canonical_dumps`` of that sub-document
    (:func:`~repro.compiler.serialize.compose_fields`), the whole
    artifact included.  ``sha256`` is the artifact's
    :func:`artifact_digest` -- the value its disk shard and ``store``
    pushes carry.  Artifacts are content-addressed and never mutated
    once cached, so neither can go stale.
    """

    __slots__ = ("doc", "fields", "sha256", "_payloads")

    def __init__(self, doc: dict[str, Any]) -> None:
        if not isinstance(doc, dict):
            raise ArtifactError("an artifact must be a JSON object")
        self.doc = doc
        self.fields = {str(k): canonical_dumps(v) for k, v in doc.items()}
        self.sha256 = artifact_digest(self._compose(self.fields))
        self._payloads: dict[tuple[str, ...], Payload] = {}

    def _compose(self, keys: Any) -> bytes:
        return compose_fields({k: self.fields[k] for k in keys}).encode("ascii")

    def whole(self) -> Payload:
        """The whole artifact as a payload (``store``/``fetch``)."""
        return Payload(self._compose(self.fields), self.sha256)

    def payload(self, *keys: str) -> Payload:
        """The sub-document of ``keys`` as a payload, hashed once."""
        keys = tuple(sorted(keys))
        out = self._payloads.get(keys)
        if out is None:
            data = self._compose(keys)
            out = self._payloads[keys] = Payload(data, artifact_digest(data))
        return out


class ArtifactCache:
    """Two-tier content-addressed store of compiled-schedule documents.

    Parameters
    ----------
    root:
        Directory of the disk tier; created on first store.  ``None``
        disables the disk tier (in-process LRU only).
    memory_entries:
        LRU depth of the in-process tier; ``0`` disables it.
    recover:
        Run the crash-recovery scan on open (default).  Only tests
        that stage torn state *after* opening turn this off.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
        recover: bool = True,
    ) -> None:
        self.root = Path(root) if root is not None else None
        self.memory_entries = int(memory_entries)
        self._memory: OrderedDict[str, CachedArtifact] = OrderedDict()
        self.stats = CacheStats()
        if recover and self.root is not None and self.root.is_dir():
            self.recover()

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------
    def get(
        self,
        digest: str,
        *,
        verifier: Callable[[dict[str, Any]], None] | None = None,
    ) -> dict[str, Any] | None:
        """The cached document for ``digest``, or ``None``.

        Promotes disk hits into the memory tier.  ``verifier`` (raise
        to reject) runs on documents crossing the disk -> process
        boundary -- the untrusted one; memory-tier entries already
        passed it, or were produced by a validated compile in-process.
        A rejected document is quarantined and the lookup is a miss.
        """
        entry = self._memory.get(digest)
        if entry is not None:
            self._memory.move_to_end(digest)
            self.stats.hits += 1
            self.stats.memory_hits += 1
            perf.COUNTERS.artifact_cache_hits += 1
            return entry.doc
        entry = self._disk_read(digest)
        if entry is not None and verifier is not None:
            try:
                verifier(entry.doc)
            except Exception:
                self.stats.verify_failures += 1
                perf.COUNTERS.artifact_verify_failures += 1
                self._quarantine(self._path(digest), "verify")
                entry = None
        if entry is not None:
            self._memory_put(digest, entry)
            self.stats.hits += 1
            self.stats.disk_hits += 1
            perf.COUNTERS.artifact_cache_hits += 1
            return entry.doc
        self.stats.misses += 1
        perf.COUNTERS.artifact_cache_misses += 1
        return None

    def put(self, digest: str, doc: dict[str, Any]) -> None:
        """Store ``doc`` under ``digest`` in both tiers (atomic on disk)."""
        entry = CachedArtifact(doc)
        self._memory_put(digest, entry)
        if self.root is not None:
            self._disk_write(digest, entry)
        self.stats.stores += 1
        perf.COUNTERS.artifact_cache_stores += 1

    def __contains__(self, digest: str) -> bool:
        return digest in self._memory or self._path(digest).is_file()

    def __len__(self) -> int:
        """Number of distinct artifacts reachable from this cache."""
        return len(self.digests())

    def digests(self) -> set[str]:
        """Every digest reachable from either tier (union of both)."""
        on_disk = (
            {p.stem for p in self.root.glob("??/*.json")}
            if self.root is not None and self.root.is_dir()
            else set()
        )
        return on_disk | set(self._memory)

    def peek(self, digest: str) -> dict[str, Any] | None:
        """Read without touching hit/miss stats or the LRU order.

        For inventory-style scans (anti-entropy digest exchange): the
        disk read still payload-hash checks (and quarantines a corrupt
        entry), but a peek never promotes, never counts as a hit, and
        never reorders the memory tier.
        """
        entry = self.encoded(digest)
        return None if entry is None else entry.doc

    def encoded(self, digest: str) -> CachedArtifact | None:
        """:meth:`peek` with the document's canonical encoding: what a
        server writes, or a farm node pushes, without re-encoding."""
        entry = self._memory.get(digest)
        if entry is not None:
            return entry
        return self._disk_read(digest)

    # ------------------------------------------------------------------
    # memory tier
    # ------------------------------------------------------------------
    def _memory_put(self, digest: str, entry: CachedArtifact) -> None:
        if self.memory_entries <= 0:
            return
        self._memory[digest] = entry
        self._memory.move_to_end(digest)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1
            perf.COUNTERS.artifact_cache_evictions += 1

    # ------------------------------------------------------------------
    # disk tier
    # ------------------------------------------------------------------
    def _path(self, digest: str) -> Path:
        if self.root is None:
            return Path(os.devnull)
        return self.root / digest[:2] / f"{digest}.json"

    def _intent_path(self, digest: str) -> Path:
        assert self.root is not None
        return self.root / JOURNAL_DIR / f"{digest}.intent"

    def _quarantine(self, path: Path, cause: str) -> None:
        """Move a suspect file out of the serving tree (never serve it).

        Falls back to unlinking when the move itself fails; either way
        the path stops being servable.  ``cause`` -- ``corrupt`` (hash
        or parse failure), ``verify`` (verifier rejection) or ``torn``
        (stray temp file) -- goes into one WARNING record.
        """
        if self.root is None or not path.exists():
            return
        qdir = self.root / QUARANTINE_DIR
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / path.name)
        except OSError:  # pragma: no cover - racing quarantiners
            try:
                path.unlink()
            except OSError:
                pass
        self.stats.quarantined += 1
        perf.COUNTERS.artifact_cache_quarantined += 1
        log.warning(
            "artifact cache: quarantined %s (%s)", path.name, cause,
            extra={"event": "quarantine", "file": path.name, "cause": cause},
        )

    def _disk_read(self, digest: str) -> CachedArtifact | None:
        if self.root is None:
            return None
        path = self._path(digest)
        try:
            wrapped = json.loads(path.read_text())
            entry = CachedArtifact(wrapped["artifact"])
            if entry.sha256 != wrapped["payload_sha256"]:
                raise ValueError("payload digest mismatch")
        except FileNotFoundError:
            return None
        except (ValueError, KeyError, TypeError, OSError):
            # Corrupt / truncated / tampered: quarantine and recompile.
            self.stats.corrupt += 1
            self._quarantine(path, "corrupt")
            return None
        return entry

    def _disk_write(self, digest: str, entry: CachedArtifact) -> None:
        path = self._path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        wrapped = {"artifact": entry.doc, "payload_sha256": entry.sha256}
        intent = self._write_intent(digest)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(wrapped, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        finally:
            # The shard either landed atomically or was cleaned up:
            # either way the intent is settled.
            try:
                intent.unlink()
            except OSError:  # pragma: no cover - racing writers
                pass

    def _write_intent(self, digest: str) -> Path:
        """Journal the upcoming shard write (crash evidence)."""
        intent = self._intent_path(digest)
        intent.parent.mkdir(parents=True, exist_ok=True)
        intent.write_text(json.dumps({"digest": digest}))
        return intent

    # ------------------------------------------------------------------
    # crash recovery / verification
    # ------------------------------------------------------------------
    def recover(self) -> dict[str, Any]:
        """Scan the journal for torn writes; quarantine, sweep, retire.

        Runs on open.  For every leftover intent the named shard is
        re-read under the payload-hash check: a clean shard means the
        rename landed before the crash (intent retired), a torn one is
        quarantined, a missing one means the crash hit before the
        rename (nothing to clean but the temp sweep).  Stray ``.tmp-*``
        files are always quarantined -- their write never committed.
        """
        report: dict[str, Any] = {"intents": 0, "quarantined": [], "swept": 0}
        if self.root is None or not self.root.is_dir():
            return report
        journal = self.root / JOURNAL_DIR
        for intent in sorted(journal.glob("*.intent")) if journal.is_dir() else []:
            report["intents"] += 1
            digest = intent.stem
            path = self._path(digest)
            if path.is_file():
                before = self.stats.corrupt
                # _disk_read quarantines on failure and counts corrupt.
                if self._disk_read(digest) is None and self.stats.corrupt > before:
                    report["quarantined"].append(digest)
            self.stats.recovered += 1
            perf.COUNTERS.artifact_cache_recovered += 1
            try:
                intent.unlink()
            except OSError:  # pragma: no cover - racing recoverers
                pass
        for tmp in sorted(self.root.glob("??/.tmp-*")):
            self._quarantine(tmp, "torn")
            report["swept"] += 1
        return report

    def verify_scan(
        self,
        *,
        verifier: Callable[[dict[str, Any]], None] | None = None,
    ) -> dict[str, Any]:
        """Full integrity pass over the disk tier.

        Every shard is payload-hash checked (and, with ``verifier``,
        semantically re-checked); failures are quarantined.  Returns
        ``{"checked": n, "ok": n, "quarantined": [digests]}`` -- a
        clean cache reports ``checked == ok``.
        """
        report: dict[str, Any] = {"checked": 0, "ok": 0, "quarantined": []}
        if self.root is None or not self.root.is_dir():
            return report
        for shard in sorted(self.root.glob("??/*.json")):
            digest = shard.stem
            report["checked"] += 1
            entry = self._disk_read(digest)
            if entry is not None and verifier is not None:
                try:
                    verifier(entry.doc)
                except Exception:
                    self.stats.verify_failures += 1
                    perf.COUNTERS.artifact_verify_failures += 1
                    self._quarantine(shard, "verify")
                    entry = None
            if entry is None:
                report["quarantined"].append(digest)
            else:
                report["ok"] += 1
        return report
