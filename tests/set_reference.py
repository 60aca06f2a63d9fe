"""Hash-set reference implementations of the placement algorithms.

The production schedulers answer every placement test with the bitmask
kernel of :mod:`repro.core.linkmask`.  The functions here answer the
same questions the readable way -- a ``frozenset.isdisjoint`` per
candidate configuration, per-link conflict buckets -- and exist only so
the property suites can demand that production produces *identical*
schedules, configuration by configuration and member by member.

They are transcriptions of the paper's pseudocode, not tuned code:
first-fit (Fig. 2), the coloring round loop (Fig. 4), the AAPC
builder's best-fit packer, and ``repack``'s all-or-nothing dissolution.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.aapc_ordered import aapc_rank_order
from repro.core.configuration import Configuration, ConfigurationSet
from repro.core.conflicts import links_to_connections
from repro.core.paths import Connection


def first_fit(
    connections: Sequence[Connection],
    order: Sequence[int] | None = None,
    *,
    scheduler: str = "first-fit",
) -> ConfigurationSet:
    """First-fit: each connection joins the first configuration it fits."""
    seq = connections if order is None else [connections[i] for i in order]
    configs: list[Configuration] = []
    for c in seq:
        for cfg in configs:
            if cfg.fits(c):
                cfg.add(c)
                break
        else:
            configs.append(Configuration([c]))
    return ConfigurationSet(configs, scheduler=scheduler)


def best_fit(
    connections: Sequence[Connection], order: Sequence[int]
) -> ConfigurationSet:
    """Best-fit: join the fullest (most links lit) fitting configuration;
    ties keep the earliest."""
    configs: list[Configuration] = []
    for pos in order:
        c = connections[pos]
        best: Configuration | None = None
        for cfg in configs:
            if cfg.fits(c) and (
                best is None or cfg.total_links_used > best.total_links_used
            ):
                best = cfg
        if best is None:
            best = Configuration()
            configs.append(best)
        best.add(c)
    return ConfigurationSet(configs, scheduler="aapc-best-fit")


def ordered_aapc(
    connections: Sequence[Connection], phase_of: Mapping[tuple[int, int], int]
) -> ConfigurationSet:
    """Ordered-AAPC: first-fit over the AAPC phase order."""
    return first_fit(
        connections, aapc_rank_order(connections, phase_of), scheduler="aapc"
    )


def _adjacency(connections: Sequence[Connection]) -> list[np.ndarray]:
    """Conflict adjacency from per-link buckets, as sorted index arrays."""
    raw: list[list[int]] = [[] for _ in connections]
    for members in links_to_connections(connections).values():
        if len(members) > 1:
            for i in members:
                raw[i].extend(members)
    adj = []
    for i, lst in enumerate(raw):
        a = np.unique(np.asarray(lst, dtype=np.int32))
        adj.append(a[a != i])
    return adj


def coloring(
    connections: Sequence[Connection], priority: str = "most-constrained"
) -> ConfigurationSet:
    """The Fig. 4 round loop: sort the uncolored nodes by priority, color
    the first workable one, knock its uncolored neighbours out of the
    round, repeat; one configuration per round."""
    n = len(connections)
    adj = _adjacency(connections)
    deg = np.array([len(a) for a in adj], dtype=np.int64)
    lengths = np.array([c.num_links for c in connections], dtype=np.float64)
    uncolored = np.ones(n, dtype=bool)
    n_left = n
    configs: list[Configuration] = []
    while n_left > 0:
        if priority == "paper-ratio":
            prio = np.where(deg > 0, lengths / np.maximum(deg, 1), np.inf)
        else:
            prio = deg.astype(np.float64)
        idxs = np.nonzero(uncolored)[0]
        # priority descending, index ascending
        order = idxs[np.lexsort((idxs, -prio[idxs]))]
        in_work = uncolored.copy()
        cfg = Configuration()
        for i in order:
            if not in_work[i]:
                continue
            cfg.add(connections[i])
            uncolored[i] = in_work[i] = False
            n_left -= 1
            still = adj[i][uncolored[adj[i]]]
            deg[still] -= 1
            in_work[still] = False
        configs.append(cfg)
    return ConfigurationSet(configs, scheduler="coloring")


def combined(
    connections: Sequence[Connection], phase_of: Mapping[tuple[int, int], int]
) -> ConfigurationSet:
    """Best of coloring and ordered-AAPC; ties go to coloring."""
    by_color = coloring(connections)
    by_aapc = ordered_aapc(connections, phase_of)
    return by_aapc if by_aapc.degree < by_color.degree else by_color


def try_dissolve(
    victim: Configuration, configs: Sequence[Configuration]
) -> list[Configuration] | None:
    """Move every member of ``victim`` into the first other configuration
    of ``configs`` it fits.

    All-or-nothing: on failure every tentative move is rolled back and
    ``victim`` is left exactly as found, members in their original
    order.  Returns the receiving configurations, else None.
    """
    original = list(victim.connections)
    moves: list[tuple[Connection, Configuration]] = []
    for c in original:
        for cfg in configs:
            if cfg is not victim and cfg.fits(c):
                victim.remove(c)
                cfg.add(c)
                moves.append((c, cfg))
                break
        else:
            for moved, cfg in moves:
                cfg.remove(moved)
                victim.used_links |= moved.link_set
            victim.connections[:] = original
            return None
    return [cfg for _, cfg in moves]


def repack(schedule: ConfigurationSet) -> ConfigurationSet:
    """``repack`` without its bookkeeping: walk the configurations
    smallest-first (creation order breaking ties), dissolve the first
    one that can be, re-derive every position with an O(K) scan, and
    repeat until no configuration dissolves."""
    configs = [cfg.clone() for cfg in schedule if len(cfg) > 0]
    rank = {id(cfg): pos for pos, cfg in enumerate(configs)}
    progress = True
    while progress and len(configs) > 1:
        progress = False
        for victim in sorted(configs, key=lambda cfg: (len(cfg), rank[id(cfg)])):
            if try_dissolve(victim, configs) is not None:
                configs.pop(configs.index(victim))
                progress = True
                break
    return ConfigurationSet(configs, scheduler=schedule.scheduler + "+repack")
