"""Scheduler registry: name -> scheduler callable.

Every scheduler is normalised to the uniform signature

    ``schedule(connections, topology=None) -> ConfigurationSet``

so the table drivers, the CLI and the compiler front-end can select
algorithms by name (``"greedy"``, ``"coloring"``, ``"aapc"``,
``"combined"``, plus the ablation schedulers).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.core import extra_schedulers as extra
from repro.core.aapc_ordered import ordered_aapc_schedule
from repro.core.combined import combined_schedule
from repro.core.coloring import coloring_schedule
from repro.core.configuration import ConfigurationSet
from repro.core.greedy import greedy_schedule
from repro.core.paths import Connection
from repro.topology.base import Topology

Scheduler = Callable[..., ConfigurationSet]


def _wrap_topology_free(fn: Callable[[Sequence[Connection]], ConfigurationSet]) -> Scheduler:
    def schedule(connections: Sequence[Connection], topology: Topology | None = None) -> ConfigurationSet:
        return fn(connections)

    schedule.__name__ = fn.__name__
    schedule.__doc__ = fn.__doc__
    return schedule


_REGISTRY: dict[str, Scheduler] = {
    # the paper's algorithms
    "greedy": _wrap_topology_free(greedy_schedule),
    "coloring": _wrap_topology_free(coloring_schedule),
    "aapc": ordered_aapc_schedule,
    "combined": combined_schedule,
    # ablations
    "coloring-ratio": _wrap_topology_free(
        lambda connections: coloring_schedule(connections, priority="paper-ratio")
    ),
    "dsatur": _wrap_topology_free(extra.dsatur_schedule),
    "largest-first": _wrap_topology_free(extra.largest_first_schedule),
    "random-restart": _wrap_topology_free(extra.random_restart_schedule),
    "longest-first": _wrap_topology_free(extra.longest_first_schedule),
    "shortest-first": _wrap_topology_free(extra.shortest_first_schedule),
    "coloring+repack": _wrap_topology_free(extra.coloring_repack_schedule),
    "combined+repack": extra.combined_repack_schedule,
}


def _exact_schedule_adapter(connections: Sequence[Connection]) -> ConfigurationSet:
    """Exact branch-and-bound (small instances only, <= 64 connections)."""
    from repro.core.exact import exact_schedule

    return exact_schedule(connections).schedule


_REGISTRY["exact"] = _wrap_topology_free(_exact_schedule_adapter)


def scheduler_names() -> list[str]:
    """All registered scheduler names (paper algorithms first)."""
    return list(_REGISTRY)


def get_scheduler(name: str) -> Scheduler:
    """Look up a scheduler by name.

    Raises ``KeyError`` with the list of valid names on a miss.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scheduler {name!r}; choose one of {scheduler_names()}"
        ) from None
