"""Independent correctness oracle.

Nothing here trusts the program's own checks (``ConfigurationSet.validate``,
``schedule_from_dict``, payload hashes).  A schedule is re-routed entry by
entry with ``Topology.route`` and checked from first principles:

* every slot is link-disjoint (no directed link carries two connections);
* the scheduled entries are exactly the requested multiset of
  ``(src, dst, size, tag)`` rows, no more and no fewer;
* the declared degree equals the number of slots, and is at least the
  link-load bound L (a schedule below L is impossible, so it would be a lie).

Warm and translated replies are compared entry by entry against the
cold reference (translated by the benchmark itself), so a reply that
differs from the reference in any field, order or slot is caught.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Any, Sequence

import numpy as np

Row = tuple[int, int, int, int]
Slots = tuple[tuple[Row, ...], ...]


class OracleError(AssertionError):
    """A schedule or reply failed an independent check."""


def compact(doc: dict[str, Any]) -> Slots:
    """A serialized schedule as nested tuples, checking its declared degree."""
    slots = tuple(
        tuple((int(e["src"]), int(e["dst"]), int(e.get("size", 1)), int(e.get("tag", 0)))
              for e in slot)
        for slot in doc["slots"]
    )
    if int(doc["degree"]) != len(slots):
        raise OracleError(f"declared degree {doc['degree']} != {len(slots)} slots")
    return slots


def fingerprint(slots: Slots) -> bytes:
    """Digest of the entry sequence; equal digests mean identical replies."""
    flat = np.fromiter(
        (x for slot in slots for row in slot for x in row), dtype=np.int64
    )
    sizes = np.fromiter((len(slot) for slot in slots), dtype=np.int64)
    h = hashlib.blake2b(digest_size=16)
    h.update(sizes.tobytes())
    h.update(flat.tobytes())
    return h.digest()


def translate(slots: Slots, sigma: Sequence[int]) -> Slots:
    return tuple(
        tuple((sigma[s], sigma[d], size, tag) for s, d, size, tag in slot)
        for slot in slots
    )


def check_schedule(topology, slots: Slots, expected: Sequence[Row]) -> int:
    """Full check of one schedule; returns the link-load bound L."""
    got = Counter(row for slot in slots for row in slot)
    want = Counter(tuple(r) for r in expected)
    if got != want:
        missing = sum((want - got).values())
        extra = sum((got - want).values())
        raise OracleError(f"coverage: {missing} requested rows missing, {extra} extra")
    load: Counter = Counter()
    for k, slot in enumerate(slots):
        if not slot:
            raise OracleError(f"slot {k} is empty")
        used: set[int] = set()
        for s, d, _size, _tag in slot:
            path = topology.route(s, d)
            for link in path:
                if link in used:
                    raise OracleError(f"slot {k}: link {link} used twice")
                used.add(link)
            load.update(path)
    bound = max(load.values())
    if len(slots) < bound:
        raise OracleError(f"degree {len(slots)} below the link-load bound {bound}")
    return bound


def check_fastpath(topology, fast, *, conflict_slots: int | None,
                   rng: np.random.Generator | None = None) -> None:
    """Coverage, and conflicts, of a structural all-to-all.

    ``conflict_slots=None`` re-routes every pair; a number re-routes every
    pair of that many slots drawn with ``rng`` (``0`` skips the check).
    """
    n = topology.num_nodes
    slot_of = np.asarray(fast.slot_of)
    if slot_of.shape != (n, n):
        raise OracleError(f"slot table shape {slot_of.shape}, expected {(n, n)}")
    if not np.all(np.diag(slot_of) == -1):
        raise OracleError("a node is scheduled to talk to itself")
    off = slot_of[~np.eye(n, dtype=bool)]
    if off.min() < 0 or off.max() >= fast.degree:
        raise OracleError("a pair is unscheduled or outside the declared degree")
    counts = np.bincount(off, minlength=fast.degree)
    if len(counts) != fast.degree or not np.array_equal(counts, np.asarray(fast.slot_sizes)):
        raise OracleError("slot sizes disagree with the slot table")
    if fast.num_connections != n * (n - 1):
        raise OracleError(f"{fast.num_connections} connections declared, {n * (n - 1)} pairs")
    if conflict_slots == 0:
        return
    if conflict_slots is None:
        pairs = np.argwhere(slot_of >= 0)
    else:
        chosen = rng.choice(fast.degree, size=min(conflict_slots, fast.degree), replace=False)
        pairs = np.argwhere(np.isin(slot_of, chosen))
    codes = []
    num_links = topology.num_links
    for s, d in pairs.tolist():
        base = int(slot_of[s, d]) * num_links
        codes.extend(base + link for link in topology.route(s, d))
    arr = np.asarray(codes, dtype=np.int64)
    arr.sort()
    if arr.size and np.any(arr[1:] == arr[:-1]):
        raise OracleError("two pairs share a link in one slot")


def self_test(topology) -> None:
    """Feed the oracle one corrupted schedule and one corrupted reply.

    Raises ``RuntimeError`` if either corruption goes unnoticed: an oracle
    that cannot fail would make ``error_rate`` meaningless.
    """
    from repro.service.compile import compile_pattern
    from repro.patterns import ring_pattern

    rows = [(r.src, r.dst, r.size, r.tag) for r in ring_pattern(topology.num_nodes)]
    result = compile_pattern(topology, rows, cache=None, scheduler="combined")
    good = compact(result.schedule_doc)
    check_schedule(topology, good, rows)

    # 1. corrupted schedule: merge the first two slots, which share links.
    merged = (good[0] + good[1],) + good[2:]
    try:
        check_schedule(topology, merged, rows)
    except OracleError:
        pass
    else:
        raise RuntimeError("oracle self-test: a conflicting schedule passed")

    # 2. corrupted reply: one entry's destination altered in flight.
    doc = {"degree": result.schedule_doc["degree"],
           "slots": [[dict(e) for e in slot] for slot in result.schedule_doc["slots"]]}
    entry = doc["slots"][0][0]
    entry["dst"] = (entry["dst"] + 1) % topology.num_nodes
    if entry["dst"] == entry["src"]:
        entry["dst"] = (entry["dst"] + 1) % topology.num_nodes
    bad = compact(doc)
    if fingerprint(bad) == fingerprint(good):
        raise RuntimeError("oracle self-test: an altered reply matched its reference")
    try:
        check_schedule(topology, bad, rows)
    except OracleError:
        pass
    else:
        raise RuntimeError("oracle self-test: an altered reply passed coverage")
