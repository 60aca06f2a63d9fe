"""Serialisation of compiled-communication artifacts.

A real compiled-communication toolchain separates compile time from run
time: the compiler writes the schedule and switch-register images to a
file the loader ships to the machine.  This module provides that
boundary as JSON:

* :func:`schedule_to_dict` / :func:`schedule_from_dict` -- a
  :class:`ConfigurationSet` as (slot -> list of sized requests); the
  loader re-routes on its own topology and *re-validates*, so a
  schedule file can never smuggle in a conflicting configuration (e.g.
  when the loader's routing policy differs from the compiler's);
* :func:`registers_to_dict` / :func:`registers_from_dict` -- the
  per-switch register words, bound to the topology signature; loading
  re-decodes and trace-audits the image against the declared circuits.

File-level helpers (:func:`save_artifact` / :func:`load_artifact`)
bundle both plus metadata into one document.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path
from typing import Any

import numpy as np

from repro.compiler.codegen import (
    RegisterSchedule,
    decode_registers,
    generate_registers,
)
from repro.core.configuration import Configuration, ConfigurationSet
from repro.core.paths import Connection, route_requests
from repro.core.requests import Request, RequestSet
from repro.topology.base import Topology
from repro.topology.switch import port_tables

FORMAT_VERSION = 1


class ArtifactError(ValueError):
    """A serialized artifact is malformed or does not match the topology."""


# ----------------------------------------------------------------------
# canonical JSON + digests
# ----------------------------------------------------------------------

#: Scalar types :func:`canonical_json` passes through unchanged.
_PLAIN = frozenset({int, str, bool, type(None)})


def canonical_json(obj: Any) -> Any:
    """Normalise ``obj`` so equal artifacts serialize identically.

    Recursively

    * coerces dict keys to strings (the only key type JSON has anyway),
    * collapses integral floats to ints (``2.0`` and ``2`` must hash
      the same -- the degree travels as an int in one process and may
      come back as a float through a JSON round trip in another),
    * rejects NaN/Inf, whose JSON spellings are implementation-defined.

    Raises :class:`ArtifactError` for non-finite floats or types JSON
    cannot represent, rather than letting ``json.dumps`` pick a
    platform-dependent fallback.

    Containers go first and pass plain scalars through without a call
    (an artifact is mostly dicts of ints).
    """
    if isinstance(obj, dict):
        return {
            k if type(k) is str else str(k):
            v if type(v) in _PLAIN else canonical_json(v)
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [v if type(v) in _PLAIN else canonical_json(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ArtifactError(f"non-finite float {obj!r} in artifact document")
        return int(obj) if obj.is_integer() else obj
    raise ArtifactError(f"type {type(obj).__name__} is not JSON-serialisable")


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace,
    canonicalised scalars.  The same logical document produces the same
    bytes in every process, which is what makes content-addressed
    artifact caching possible."""
    return json.dumps(
        canonical_json(obj), sort_keys=True, separators=(",", ":"),
        ensure_ascii=True, allow_nan=False,
    )


def artifact_digest(doc: dict[str, Any] | bytes) -> str:
    """SHA-256 hex digest of a document's canonical encoding.

    Pass the encoding itself (``bytes``) when it is already at hand --
    the service hashes cached or received canonical bytes this way
    instead of re-encoding the document.
    """
    data = doc if isinstance(doc, bytes) else canonical_dumps(doc).encode("ascii")
    return hashlib.sha256(data).hexdigest()


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------

def schedule_to_dict(schedule: ConfigurationSet) -> dict[str, Any]:
    """Serialise a configuration set (requests per slot).

    The output is digest-stable: every field is coerced to a plain int
    or str, so two processes serialising the same schedule produce
    byte-identical canonical JSON (see :func:`artifact_digest`).
    """
    return {
        "version": FORMAT_VERSION,
        "scheduler": str(schedule.scheduler),
        "degree": int(schedule.degree),
        "slots": [
            [
                {"src": int(c.request.src), "dst": int(c.request.dst),
                 "size": int(c.request.size), "tag": int(c.request.tag)}
                for c in cfg
            ]
            for cfg in schedule
        ],
    }


def schedule_from_dict(topology: Topology, data: dict[str, Any]) -> tuple[ConfigurationSet, list[Connection]]:
    """Rebuild (and re-validate) a schedule on ``topology``.

    Returns the schedule plus the routed connection list (in slot
    order), which downstream consumers (codegen, simulator) need.
    """
    if data.get("version") != FORMAT_VERSION:
        raise ArtifactError(f"unsupported schedule version {data.get('version')!r}")
    requests = RequestSet(
        (
            Request(e["src"], e["dst"], size=e.get("size", 1), tag=e.get("tag", 0))
            for slot in data["slots"]
            for e in slot
        ),
        allow_duplicates=True,
    )
    connections = route_requests(topology, requests)
    configs = []
    i = 0
    for slot in data["slots"]:
        configs.append(Configuration._trusted(connections[i:i + len(slot)]))
        i += len(slot)
    schedule = ConfigurationSet(configs, scheduler=data.get("scheduler", "loaded"))
    try:
        schedule.validate(connections)  # the one check: raises if the file lies
    except AssertionError as exc:
        raise ArtifactError(f"schedule file is not conflict-free here: {exc}") from exc
    if schedule.degree != data["degree"]:
        raise ArtifactError(
            f"declared degree {data['degree']} != actual {schedule.degree}"
        )
    return schedule, connections


# ----------------------------------------------------------------------
# register images
# ----------------------------------------------------------------------

def registers_to_dict(regs: RegisterSchedule) -> dict[str, Any]:
    """Serialise per-switch register words (digest-stable, see
    :func:`schedule_to_dict`).

    Every producer of a :class:`RegisterSchedule` (codegen and
    :func:`registers_from_dict`) holds plain-int words, so they are
    copied as they are; anything else fails :func:`canonical_json`.
    """
    return {
        "version": FORMAT_VERSION,
        "topology": regs.topology.signature,
        "degree": int(regs.degree),
        "words": {str(node): list(map(list, words))
                  for node, words in sorted(regs.words.items())},
    }


def registers_from_dict(topology: Topology, data: dict[str, Any]) -> RegisterSchedule:
    """Rebuild a register image for ``topology`` (signature-checked;
    malformed words raise :class:`ArtifactError`, see
    :func:`register_array`)."""
    if data.get("version") != FORMAT_VERSION:
        raise ArtifactError(f"unsupported registers version {data.get('version')!r}")
    if data["topology"] != topology.signature:
        raise ArtifactError(
            f"register image built for {data['topology']!r}, "
            f"loader topology is {topology.signature!r}"
        )
    register_array(topology, data)
    words = {
        int(node): list(map(tuple, node_words))
        for node, node_words in data["words"].items()
    }
    return RegisterSchedule(topology=topology, degree=data["degree"], words=words)


def register_array(topology: Topology, data: dict[str, Any]) -> np.ndarray:
    """The words of a register-image document as one checked flat array.

    The layout is :class:`repro.topology.switch.PortTables`'.  Raises
    :class:`ArtifactError` unless the words cover exactly the switches
    of ``topology``, each with ``degree`` words of one integer per input
    port, every entry -1 (dark) or an output port of that switch, and no
    output port driven twice within one word.
    """
    tables = port_tables(topology)
    degree, words = data.get("degree"), data.get("words")
    if type(degree) is not int or degree < 1 or not isinstance(words, dict):
        raise ArtifactError("register image needs a positive degree and words")
    nodes = [str(v) for v in range(len(tables.in_links))]
    if len(words) != len(nodes) or not all(v in words for v in nodes):
        raise ArtifactError("register image does not cover every switch")
    rows = [words[v] for v in nodes]
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {degree}:
        raise ArtifactError(f"register image: a switch does not hold {degree} words")
    flat_words = list(itertools.chain.from_iterable(rows))
    if set(map(type, flat_words)) != {list}:
        raise ArtifactError("register image: a word is not a list")
    lengths = np.fromiter(map(len, flat_words), dtype=np.intp, count=len(flat_words))
    if not np.array_equal(lengths, np.repeat(tables.n_in, degree)):
        raise ArtifactError("register image: a word does not match its switch's ports")
    values = list(itertools.chain.from_iterable(flat_words))
    if not set(map(type, values)) <= {int}:
        raise ArtifactError("register image: a port is not an integer")
    image = np.array(values, dtype=np.intp)
    if ((image < -1) | (image >= np.repeat(tables.n_out, tables.n_in * degree))).any():
        raise ArtifactError("register image: a port is out of range")
    word = np.repeat(np.arange(len(flat_words)), lengths)
    lit = image >= 0
    used = np.bincount(word[lit] * int(tables.n_out.max()) + image[lit])
    if used.size and used.max() > 1:
        raise ArtifactError("register image: an output port is used twice in a word")
    return image


# ----------------------------------------------------------------------
# bundled artifact files
# ----------------------------------------------------------------------

def save_artifact(
    path: str | Path,
    topology: Topology,
    schedule: ConfigurationSet,
    *,
    name: str = "",
) -> None:
    """Write schedule + generated registers as one JSON document."""
    regs = generate_registers(topology, schedule)
    doc = {
        "version": FORMAT_VERSION,
        "name": name,
        "topology": topology.signature,
        "schedule": schedule_to_dict(schedule),
        "registers": registers_to_dict(regs),
    }
    # Sorted keys so the file bytes (and hence any digest of them) do
    # not depend on dict construction order.
    Path(path).write_text(json.dumps(canonical_json(doc), indent=1, sort_keys=True))


def load_artifact(
    path: str | Path, topology: Topology
) -> tuple[ConfigurationSet, RegisterSchedule]:
    """Load and fully audit an artifact file.

    The register image is decoded and the traced circuits are compared
    against the schedule's declared connections slot by slot -- a
    tampered or corrupted file fails loudly.
    """
    doc = json.loads(Path(path).read_text())
    if doc.get("topology") != topology.signature:
        raise ArtifactError(
            f"artifact built for {doc.get('topology')!r}, "
            f"loader topology is {topology.signature!r}"
        )
    schedule, _connections = schedule_from_dict(topology, doc["schedule"])
    regs = registers_from_dict(topology, doc["registers"])
    traced = decode_registers(regs)
    declared = [
        {c.pair for c in cfg} for cfg in schedule
    ]
    if traced != declared:
        raise ArtifactError("register image does not realise the declared schedule")
    return schedule, regs
