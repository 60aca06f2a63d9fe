"""The object-based schedule loader, kept as the reference of the array check.

:func:`repro.compiler.serialize.check_schedule` finds a link conflict by
sorting ``slot * num_links + link`` keys.  The loader it replaced is
kept here word for word: every row becomes a :class:`Request`, the rows
are routed into :class:`Connection` objects, each slot becomes a
:class:`Configuration`, and :meth:`ConfigurationSet.validate` checks
the set.  The property suite demands that both accept and reject the
same documents, with the same exception types, and load the same
schedules.
"""

from __future__ import annotations

from typing import Any

from repro.compiler.serialize import FORMAT_VERSION, ArtifactError
from repro.core.configuration import Configuration, ConfigurationSet
from repro.core.paths import Connection, route_requests
from repro.core.requests import Request, RequestSet
from repro.topology.base import Topology


def schedule_from_dict(
    topology: Topology, data: dict[str, Any]
) -> tuple[ConfigurationSet, list[Connection]]:
    """Rebuild (and re-validate) a schedule on ``topology``."""
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
