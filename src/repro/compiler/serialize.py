"""Serialisation of compiled-communication artifacts.

A real compiled-communication toolchain separates compile time from run
time: the compiler writes the schedule and switch-register images to a
file the loader ships to the machine.  This module provides that
boundary as JSON:

* :func:`schedule_to_dict` / :func:`schedule_from_dict` -- a
  :class:`ConfigurationSet` as (slot -> list of sized requests); the
  loader re-routes on its own topology and *re-checks* every slot
  (:func:`check_schedule`), so a schedule file can never smuggle in a
  conflicting configuration (e.g. when the loader's routing policy
  differs from the compiler's);
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
import operator
from pathlib import Path
from typing import Any

import numpy as np

from repro.compiler.codegen import (
    RegisterSchedule,
    decode_registers,
    generate_registers,
)
from repro.core.configuration import Configuration, ConfigurationSet
from repro.core.paths import Connection
from repro.core.requests import Request
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


#: Keys of a schedule document (:func:`schedule_to_dict`).
_SCHEDULE_KEYS = frozenset({"degree", "scheduler", "slots", "version"})
#: One schedule row's values in sorted-key order, and its encoding.
_ROW_VALUES = operator.itemgetter("dst", "size", "src", "tag")
_ROW_TEMPLATE = '{"dst":%d,"size":%d,"src":%d,"tag":%d}'


def _schedule_dumps(doc: Any) -> str | None:
    """:func:`canonical_dumps` of a plain schedule document, else ``None``.

    Plain is what :func:`schedule_to_dict` and ``json.loads`` produce:
    exactly the four schedule keys, a list of lists of rows, each row a
    dict of exactly ``src``/``dst``/``size``/``tag``, every number an
    ``int`` (not a bool, float or numpy integer) and a ``str``
    scheduler.  Those types are checked in C-level passes and each row
    is then one ``%`` template; anything else is the general encoder's.
    """
    if type(doc) is not dict or doc.keys() != _SCHEDULE_KEYS:
        return None
    slots, scheduler = doc["slots"], doc["scheduler"]
    if (
        type(slots) is not list or type(scheduler) is not str
        or type(doc["degree"]) is not int or type(doc["version"]) is not int
        or not set(map(type, slots)) <= {list}
    ):
        return None
    rows = list(itertools.chain.from_iterable(slots))
    if not (set(map(type, rows)) <= {dict} and set(map(len, rows)) <= {4}):
        return None
    try:
        values = list(map(_ROW_VALUES, rows))
    except KeyError:
        return None
    if not set(map(type, itertools.chain.from_iterable(values))) <= {int}:
        return None
    encoded = map(_ROW_TEMPLATE.__mod__, values)
    body = ",".join([
        "[%s]" % ",".join(itertools.islice(encoded, n)) for n in map(len, slots)
    ])
    return '{"degree":%d,"scheduler":%s,"slots":[%s],"version":%d}' % (
        doc["degree"], json.dumps(scheduler), body, doc["version"],
    )


def compose_fields(fields: dict[str, str]) -> str:
    """The JSON object whose fields have the canonical encodings ``fields``.

    Keys sort, so this is byte-for-byte :func:`canonical_dumps` of the
    object: how a document that holds a schedule document is encoded,
    and how the artifact cache composes cached fields.
    """
    return "{" + ",".join(
        json.dumps(k) + ":" + fields[k] for k in sorted(fields)
    ) + "}"


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace,
    canonicalised scalars.  The same logical document produces the same
    bytes in every process, which is what makes content-addressed
    artifact caching possible.

    A plain schedule document is written by one template per row
    (:func:`_schedule_dumps`), and an object with ``str`` keys that
    holds one is composed field by field (:func:`compose_fields`); both
    give exactly the general encoder's bytes.
    """
    encoded = _schedule_dumps(obj)
    if encoded is not None:
        return encoded
    if (
        type(obj) is dict
        and any(type(v) is dict and v.keys() == _SCHEDULE_KEYS for v in obj.values())
        and set(map(type, obj)) == {str}
    ):
        return compose_fields({k: canonical_dumps(v) for k, v in obj.items()})
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


def _request(row: dict[str, Any]) -> Request:
    return Request(
        row["src"], row["dst"], size=row.get("size", 1), tag=row.get("tag", 0)
    )


def check_schedule(
    topology: Topology, data: dict[str, Any]
) -> tuple[list[Any], list[int], list[tuple[int, ...]]]:
    """Check a schedule document on ``topology`` without building objects.

    Returns its rows in slot order, the number of rows per slot and
    each row's route.  In order, the checks are the format version,
    each row's ``src``/``dst`` (``KeyError``/``TypeError`` when missing
    or not a dict), self-loops (``ValueError``, as
    :class:`~repro.core.requests.RequestSet` words it), routing (one
    :meth:`~repro.topology.base.Topology.route_many` call, which raises
    :class:`~repro.topology.base.RoutingError`), conflicts and the
    declared degree.  Routes are simple paths, so two connections share
    a link in a slot iff a ``slot * num_links + link`` key repeats: one
    sort of all the keys finds every conflict.
    """
    if data.get("version") != FORMAT_VERSION:
        raise ArtifactError(f"unsupported schedule version {data.get('version')!r}")
    slots = data["slots"]
    rows = [e for slot in slots for e in slot]
    pairs = [(e["src"], e["dst"]) for e in rows]
    if any(itertools.starmap(operator.eq, pairs)):
        i = next(i for i, (s, d) in enumerate(pairs) if s == d)
        raise ValueError(f"request {i} is a self-loop: {_request(rows[i])}")
    paths = topology.route_many(pairs)
    lengths = list(map(len, slots))
    hops = np.fromiter(map(len, paths), dtype=np.intp, count=len(paths))
    keys = np.fromiter(
        itertools.chain.from_iterable(paths), dtype=np.int64, count=int(hops.sum())
    )
    slot_of = np.repeat(np.repeat(np.arange(len(lengths)), lengths), hops)
    keys += slot_of * topology.num_links
    keys.sort()
    repeated = np.flatnonzero(keys[1:] == keys[:-1])
    if repeated.size:
        slot, link = divmod(int(keys[repeated[0]]), topology.num_links)
        raise ArtifactError(
            f"schedule file is not conflict-free here: slot {slot}: "
            f"link {link} is used twice"
        )
    if len(lengths) != data["degree"]:
        raise ArtifactError(
            f"declared degree {data['degree']} != actual {len(lengths)}"
        )
    return rows, lengths, paths


def schedule_from_dict(topology: Topology, data: dict[str, Any]) -> tuple[ConfigurationSet, list[Connection]]:
    """Rebuild (and re-check, :func:`check_schedule`) a schedule on
    ``topology``.

    Returns the schedule plus the routed connection list (in slot
    order), which downstream consumers (codegen, simulator) need.
    """
    rows, lengths, paths = check_schedule(topology, data)
    connections = [
        Connection(i, _request(e), p) for i, (e, p) in enumerate(zip(rows, paths))
    ]
    members = iter(connections)
    schedule = ConfigurationSet(
        [Configuration._trusted(list(itertools.islice(members, n))) for n in lengths],
        scheduler=data.get("scheduler", "loaded"),
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
