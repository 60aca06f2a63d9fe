"""Protection artifacts: serialisation, canonicalization, caching.

A :class:`~repro.core.protection.ProtectedSchedule` is a compile-time
product just like a schedule, so it travels through the same service
machinery: a schema-versioned JSON document, content-addressed by a
digest that covers everything able to change the plans, stored in the
:class:`~repro.service.cache.ArtifactCache` (payload-hash wrapped,
crash-safe, chaos-harness covered), and canonicalized under torus
translation symmetry so every translated instance of a pattern shares
one protection entry.

One wrinkle distinguishes protection from plain schedules: detour
routes must be **stored**, not recomputed on load.  The BFS fallback
of :class:`~repro.topology.faults.FaultyTopology` breaks ties by node
id, which is *not* translation-equivariant -- recomputing a detour
after detranslation could legally pick a different path and silently
diverge from the placements the artifact promised were conflict-free.
Storing the paths and carrying each link through
:func:`~repro.service.canonical.translate_link` keeps a cache hit
byte-for-byte consistent with the cold build that populated it
(translations map link-disjoint sets to link-disjoint sets, so
validity is preserved exactly).

Loading re-validates: the base schedule is re-routed and re-checked by
:func:`~repro.compiler.serialize.schedule_from_dict`, and every stored
detour is structurally audited (a contiguous light path of the claimed
endpoints that avoids the scenario's failed fiber).  The deep
per-scenario conflict check runs once on the cold path before the
artifact may enter a cache, and on demand via ``repro-tdm protect
--verify``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Sequence

from repro.compiler.serialize import (
    ArtifactError,
    FORMAT_VERSION,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.core import perf
from repro.core.paths import route_requests
from repro.core.protection import (
    PLAN_KINDS,
    ProtectedSchedule,
    ScenarioPlan,
    build_protection,
)
from repro.core.registry import get_scheduler
from repro.service.cache import ArtifactCache
from repro.service.canonical import (
    CanonicalPattern,
    canonicalize,
    permute_schedule_dict,
    translate_link,
)
from repro.topology.base import Topology
from repro.topology.links import LinkKind

#: Bump to retire every cached protection artifact at once (the plan
#: algorithm, document schema, or detour policy changed).
PROTECTION_VERSION = 1


def protect_digest(
    topology: Topology,
    canonical: CanonicalPattern,
    scheduler: str,
) -> str:
    """Content address of one protection problem.

    Same keying discipline as
    :func:`repro.service.compile.compile_digest`, under a distinct
    header so a protection document can never collide with (or be
    served as) a plain schedule artifact, plus the protection schema
    version.
    """
    h = hashlib.sha256()
    # ``bitmask`` is the retired placement-kernel field, kept constant
    # so existing digests and cache directories stay valid.
    header = (
        f"repro-protect/v{FORMAT_VERSION}.{PROTECTION_VERSION}\0"
        f"{topology.signature}\0{scheduler}\0bitmask\0"
    )
    h.update(header.encode("ascii"))
    h.update(canonical.key_bytes)
    return h.hexdigest()


# ----------------------------------------------------------------------
# document codec
# ----------------------------------------------------------------------

def protection_to_dict(protected: ProtectedSchedule) -> dict[str, Any]:
    """Serialise a protected schedule (digest-stable).

    Connection indices in the document are **slot-order positions** of
    the base schedule -- the numbering
    :func:`~repro.compiler.serialize.schedule_from_dict` recreates on
    load -- so the original in-memory indices are remapped here.
    """
    pos = {
        c.index: p
        for p, c in enumerate(
            c for cfg in protected.schedule for c in cfg
        )
    }
    scenarios = []
    for link in protected.scenarios:
        plan = protected.plans[link]
        entry: dict[str, Any] = {
            "link": int(link),
            "kind": plan.kind,
            "affected": sorted(pos[i] for i in plan.affected),
            "delta_k": int(plan.delta_k),
        }
        if plan.detours:
            entry["detours"] = {
                str(pos[i]): [int(l) for l in path]
                for i, path in plan.detours.items()
            }
            entry["placements"] = {
                str(pos[i]): int(s) for i, s in plan.placements.items()
            }
        if plan.reason:
            entry["reason"] = str(plan.reason)
        scenarios.append(entry)
    return {
        "version": FORMAT_VERSION,
        "protection": PROTECTION_VERSION,
        "topology": protected.topology.signature,
        "schedule": schedule_to_dict(protected.schedule),
        "scenarios": scenarios,
    }


def _check_detour(
    topology: Topology, conn, banned: int, path: Sequence[int]
) -> None:
    """Audit one stored detour: a contiguous light path of the
    connection's endpoints that avoids the scenario's failed fiber."""
    if banned in path:
        raise ArtifactError(
            f"detour for connection {conn.index} crosses the failed "
            f"fiber {banned}"
        )
    infos = [topology.link_info(l) for l in path]
    src, dst = conn.pair
    if infos[0].kind is not LinkKind.INJECT or infos[0].src != src:
        raise ArtifactError(
            f"detour for connection {conn.index} does not start at the "
            f"injection fiber of node {src}"
        )
    if infos[-1].kind is not LinkKind.EJECT or infos[-1].dst != dst:
        raise ArtifactError(
            f"detour for connection {conn.index} does not end at the "
            f"ejection fiber of node {dst}"
        )
    for a, b in zip(infos, infos[1:]):
        if a.dst != b.src:
            raise ArtifactError(
                f"detour for connection {conn.index} is not contiguous "
                f"(link into {a.dst} followed by link out of {b.src})"
            )


def protection_from_dict(
    topology: Topology, doc: dict[str, Any]
) -> ProtectedSchedule:
    """Rebuild (and audit) a protection document on ``topology``.

    The base schedule is re-routed and re-validated; every scenario is
    structurally checked (valid transit link, known kind, detour paths
    contiguous / endpoint-correct / avoiding the failed fiber,
    placements in range and covering exactly the affected set).  The
    per-scenario conflict re-check is deliberately not run here -- see
    the module docstring; :meth:`ProtectedSchedule.validate` provides
    it.
    """
    if doc.get("version") != FORMAT_VERSION:
        raise ArtifactError(
            f"unsupported artifact version {doc.get('version')!r}"
        )
    if doc.get("protection") != PROTECTION_VERSION:
        raise ArtifactError(
            f"unsupported protection version {doc.get('protection')!r}"
        )
    signature = doc.get("topology")
    if signature is not None and signature != topology.signature:
        raise ArtifactError(
            f"protection built for {signature!r}, "
            f"serving topology is {topology.signature!r}"
        )
    schedule, connections = schedule_from_dict(topology, doc["schedule"])
    degree = schedule.degree
    plans: dict[int, ScenarioPlan] = {}
    for entry in doc["scenarios"]:
        link = int(entry["link"])
        if topology.link_info(link).kind is not LinkKind.TRANSIT:
            raise ArtifactError(f"scenario link {link} is not a transit fiber")
        kind = entry["kind"]
        if kind not in PLAN_KINDS:
            raise ArtifactError(f"unknown scenario kind {kind!r}")
        affected = tuple(int(i) for i in entry.get("affected", ()))
        if any(i < 0 or i >= len(connections) for i in affected):
            raise ArtifactError(
                f"scenario {link} names a connection index out of range"
            )
        detours = {
            int(i): tuple(int(l) for l in path)
            for i, path in entry.get("detours", {}).items()
        }
        placements = {
            int(i): int(s) for i, s in entry.get("placements", {}).items()
        }
        delta_k = int(entry.get("delta_k", 0))
        if kind in ("repacked", "augmented"):
            if set(detours) != set(affected) or set(placements) != set(affected):
                raise ArtifactError(
                    f"scenario {link}: detours/placements do not cover "
                    "the affected set"
                )
            for i, path in detours.items():
                _check_detour(topology, connections[i], link, path)
            for i, s in placements.items():
                if not 0 <= s < degree + delta_k:
                    raise ArtifactError(
                        f"scenario {link}: placement slot {s} outside "
                        f"the {degree}+{delta_k} backup frame"
                    )
        plans[link] = ScenarioPlan(
            link=link,
            kind=kind,
            affected=affected,
            detours=detours,
            placements=placements,
            delta_k=delta_k,
            reason=entry.get("reason"),
        )
    return ProtectedSchedule(topology, connections, schedule, plans)


def verify_protection(topology: Topology, doc: dict[str, Any]) -> None:
    """Structural audit of a cached protection document (see
    :func:`protection_from_dict`); raises on the first violation."""
    protection_from_dict(topology, doc)


def protection_verifier(topology: Topology):
    """:func:`verify_protection` curried for :meth:`ArtifactCache.get`."""
    return lambda doc: verify_protection(topology, doc)


def permute_protection_dict(
    topology: Topology, doc: dict[str, Any], sigma: Sequence[int]
) -> dict[str, Any]:
    """A protection document with every node and link carried through
    ``sigma`` (scenario fibers and stored detour paths included).

    Connection indices are untouched:
    :func:`~repro.service.canonical.permute_schedule_dict` preserves
    slot structure and entry order, so slot-order positions are
    translation-invariant.
    """
    return {
        **doc,
        "schedule": permute_schedule_dict(doc["schedule"], sigma),
        "scenarios": [
            {
                **entry,
                "link": translate_link(topology, entry["link"], sigma),
                **(
                    {
                        "detours": {
                            i: [translate_link(topology, l, sigma) for l in path]
                            for i, path in entry["detours"].items()
                        }
                    }
                    if "detours" in entry
                    else {}
                ),
            }
            for entry in doc["scenarios"]
        ],
    }


# ----------------------------------------------------------------------
# the compile-and-protect front-end
# ----------------------------------------------------------------------

def build_canonical_protection(
    topology: Topology,
    canonical_requests: Sequence[tuple[int, int, int, int]],
    scheduler: str = "combined",
) -> dict[str, Any]:
    """Cold-build a canonical pattern's protection document.

    Routes and schedules the pattern, plans every single-fiber
    scenario, deep-validates each covered backup schedule, and
    serialises.  An invalid protection can never enter a cache.
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
    protected = build_protection(topology, connections, schedule)
    protected.validate()
    return protection_to_dict(protected)


@dataclass
class ProtectResult:
    """Outcome of one protection compile.

    ``protected`` (and ``doc``) are in the *caller's* node ids; the
    connection tags submitted with the pattern survive untouched, which
    is how the fault simulator maps plans back to messages.
    """

    digest: str
    #: ``"hit"`` or ``"miss"``.
    cache: str
    protected: ProtectedSchedule
    doc: dict[str, Any]
    #: wall-clock seconds this call spent in the service.
    seconds: float
    #: canonicalizing translation applied (``()``/all-zero = identity).
    translation: tuple[int, ...]


def protect_pattern(
    topology: Topology,
    requests: Sequence,
    *,
    cache: ArtifactCache | None = None,
    scheduler: str = "combined",
) -> ProtectResult:
    """Compile ``requests`` and plan its single-fault protection,
    through the artifact cache.

    The protection mirror of
    :func:`repro.service.compile.compile_pattern`: canonicalize ->
    digest -> cache -> (miss: build + store) -> detranslate.  With
    ``cache=None`` the build still runs (cold) but nothing is stored.
    """
    t0 = perf.perf_timer()
    canonical = canonicalize(topology, requests)
    digest = protect_digest(topology, canonical, scheduler)

    doc = (
        cache.get(digest, verifier=protection_verifier(topology))
        if cache is not None
        else None
    )
    outcome = "hit"
    if doc is None:
        outcome = "miss"
        if cache is None:
            perf.COUNTERS.artifact_cache_misses += 1
        doc = build_canonical_protection(
            topology, canonical.requests, scheduler
        )
        if cache is not None:
            cache.put(digest, doc)

    if not canonical.is_identity:
        doc = permute_protection_dict(topology, doc, canonical.sigma_inv)
    protected = protection_from_dict(topology, doc)
    return ProtectResult(
        digest=digest,
        cache=outcome,
        protected=protected,
        doc=doc,
        seconds=perf.perf_timer() - t0,
        translation=canonical.translation,
    )
