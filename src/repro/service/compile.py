"""The synchronous compile core: canonicalize -> cache -> scheduler.

Every compile -- whether issued by the CLI, the asyncio server, or the
fault-recovery path of the compiled simulator -- goes through
:func:`compile_pattern`:

1. the pattern is canonicalized (:mod:`repro.service.canonical`), so
   any translated/reordered instance maps to one digest;
2. the digest keys the artifact cache; a hit skips the scheduler
   entirely;
3. a miss routes and schedules the *canonical* pattern, validates the
   result, serialises it (schedule, and optionally the register image)
   and stores it under the digest;
4. either way, the canonical artifact is translated back through the
   inverse node permutation before being returned, so the caller sees
   its own node ids.

Because both the cold and the warm path serve the stored canonical
document through the same translation, a cache hit is byte-identical
(post-serialization) to the cold compile that populated it -- asserted
by the test suite.

Determinism note: the service always schedules the canonical request
*order* (sorted), so order-sensitive schedulers (the paper's greedy)
see one fixed order per equivalence class.  That is the price of
collapsing relabelled instances; the paper's production schedulers are
priority-driven and unaffected.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Sequence

from repro.compiler.codegen import generate_registers
from repro.compiler.serialize import (
    ArtifactError,
    FORMAT_VERSION,
    check_schedule,
    registers_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.core import perf
from repro.core.paths import route_requests
from repro.core.registry import get_scheduler
from repro.service.cache import ArtifactCache
from repro.service.canonical import (
    CanonicalPattern,
    canonicalize,
    permute_registers_dict,
    permute_schedule_dict,
)
from repro.topology.base import Topology


def compile_digest(
    topology: Topology,
    canonical: CanonicalPattern,
    scheduler: str,
) -> str:
    """Stable content address of one compilation problem.

    Keyed by (artifact format version, topology signature -- which
    already encodes every routing-relevant parameter, scheduler name,
    canonical pattern bytes).  Anything that can change the produced
    schedule must appear here; bumping ``FORMAT_VERSION`` retires every
    old entry at once.
    """
    h = hashlib.sha256()
    # The constant ``bitmask`` field once named a selectable placement
    # kernel; it stays in the preimage so every existing digest, cache
    # directory and golden pin remains valid.
    header = (
        f"repro-artifact/v{FORMAT_VERSION}\0{topology.signature}\0"
        f"{scheduler}\0bitmask\0"
    )
    h.update(header.encode("ascii"))
    h.update(canonical.key_bytes)
    return h.hexdigest()


def verify_artifact(topology: Topology, doc: dict[str, Any]) -> None:
    """Semantic re-check of a cached artifact before it is served.

    Defense-in-depth past the payload-hash check: the schedule is
    re-routed on ``topology`` and every slot re-checked conflict-free
    (:func:`check_schedule` raises on a link conflict, degree lie, or
    version mismatch), and a register image, when present, must equal
    the one codegen emits for that schedule, which only then is built
    as objects.  A hash-clean artifact whose *content* would program a
    conflicting switch state or circuits other than its schedule's --
    a poisoned store, a digest collision, a serializer bug -- is
    rejected here and never leaves the cache.
    """
    signature = doc.get("topology")
    if signature is not None and signature != topology.signature:
        raise ArtifactError(
            f"artifact built for {signature!r}, "
            f"serving topology is {topology.signature!r}"
        )
    if "registers" not in doc:
        check_schedule(topology, doc["schedule"])
        return
    schedule, _ = schedule_from_dict(topology, doc["schedule"])
    if doc["registers"] != registers_to_dict(generate_registers(topology, schedule)):
        raise ArtifactError("register image does not realise the schedule")


def artifact_verifier(topology: Topology):
    """:func:`verify_artifact` curried for :meth:`ArtifactCache.get`."""
    return lambda doc: verify_artifact(topology, doc)


@dataclass
class CompileResult:
    """Outcome of one service compile.

    ``schedule_doc`` (and ``registers_doc`` when requested) are in the
    *caller's* node ids; feed them to
    :func:`repro.compiler.serialize.schedule_from_dict` /
    ``registers_from_dict``, which re-validate on load.
    """

    digest: str
    #: ``"hit"`` or ``"miss"`` (the server adds ``"inflight"``).
    cache: str
    degree: int
    schedule_doc: dict[str, Any]
    registers_doc: dict[str, Any] | None
    #: wall-clock seconds this compile spent in the service.
    seconds: float
    #: canonicalizing translation applied (``()``/all-zero = identity).
    translation: tuple[int, ...]


def build_canonical_artifact(
    topology: Topology,
    canonical_requests: Sequence[tuple[int, int, int, int]],
    scheduler: str = "combined",
    *,
    include_registers: bool = True,
) -> dict[str, Any]:
    """Cold-compile a canonical pattern into a cacheable document.

    Pure function of its arguments (runs the scheduler; no cache
    access), so it can execute in a worker process.  The schedule is
    validated before serialisation -- an illegal schedule can never
    enter a cache.
    """
    from repro.core.requests import Request, RequestSet

    requests = RequestSet(
        (Request(s, d, size=size, tag=tag)
         for s, d, size, tag in canonical_requests),
        allow_duplicates=True,
        name="canonical",
    )
    connections = route_requests(topology, requests)
    schedule = get_scheduler(scheduler)(connections, topology)
    schedule.validate(connections)
    doc: dict[str, Any] = {
        "version": FORMAT_VERSION,
        "topology": topology.signature,
        "scheduler": scheduler,
        "schedule": schedule_to_dict(schedule),
    }
    if include_registers:
        doc["registers"] = registers_to_dict(
            generate_registers(topology, schedule)
        )
    return doc


def compile_pattern(
    topology: Topology,
    requests: Sequence,
    *,
    cache: ArtifactCache | None = None,
    scheduler: str = "combined",
    include_registers: bool = False,
) -> CompileResult:
    """Compile ``requests`` on ``topology`` through the artifact cache.

    With ``cache=None`` the compile still runs (cold) but nothing is
    stored.  ``include_registers`` additionally returns (and caches)
    the switch register image.
    """
    t0 = perf.perf_timer()
    canonical = canonicalize(topology, requests)
    digest = compile_digest(topology, canonical, scheduler)

    doc = (
        cache.get(digest, verifier=artifact_verifier(topology))
        if cache is not None
        else None
    )
    outcome = "hit"
    if doc is not None and include_registers and "registers" not in doc:
        # Cached by a schedule-only compile; upgrade the entry in place.
        doc = None
    if doc is None:
        outcome = "miss"
        if cache is None:
            perf.COUNTERS.artifact_cache_misses += 1
        doc = build_canonical_artifact(
            topology, canonical.requests, scheduler,
            include_registers=include_registers,
        )
        if cache is not None:
            cache.put(digest, doc)

    schedule_doc = doc["schedule"]
    registers_doc = doc.get("registers") if include_registers else None
    if not canonical.is_identity:
        schedule_doc = permute_schedule_dict(schedule_doc, canonical.sigma_inv)
        if registers_doc is not None:
            registers_doc = permute_registers_dict(
                topology, registers_doc, canonical.sigma_inv
            )
    return CompileResult(
        digest=digest,
        cache=outcome,
        degree=int(schedule_doc["degree"]),
        schedule_doc=schedule_doc,
        registers_doc=registers_doc,
        seconds=perf.perf_timer() - t0,
        translation=canonical.translation,
    )
