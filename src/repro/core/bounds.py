"""Lower bounds on the multiplexing degree.

The scheduling heuristics are evaluated against each other in the paper;
for testing *our* implementations we additionally want certificates that
a schedule is not absurdly far from optimal.  Two cheap bounds:

**max link load** -- a directed link carries at most one connection per
time slot, so K >= max over links of the number of connections routed
through it.  Injection/ejection links make this at least the max
out-degree / in-degree of the pattern (the paper's "switch conflicts").

**clique bound** -- any set of pairwise-conflicting connections needs
pairwise-distinct slots.  Every link's user set is a clique, so the
clique bound dominates the link-load bound; we expose a heuristic
clique search (networkx) for small instances as an optional sharper
certificate.

Property tests assert ``bound <= scheduler degree`` for every scheduler
and ``scheduler degree <= |R|`` (trivial upper bound).
"""

from __future__ import annotations

from collections.abc import Sequence

import networkx as nx

from repro.core.conflicts import build_conflict_graph, link_load
from repro.core.paths import Connection


def max_link_load_bound(connections: Sequence[Connection]) -> int:
    """K >= the maximum number of connections sharing one link."""
    if not connections:
        return 0
    return max(link_load(connections).values())


def clique_bound(connections: Sequence[Connection]) -> int:
    """A (heuristically found) clique size in the conflict graph.

    Uses :func:`networkx.algorithms.approximation.max_clique`; intended
    for small instances (tests, the Fig. 3 example), since the conflict
    graph of dense patterns is large.
    """
    if not connections:
        return 0
    g = build_conflict_graph(connections)
    clique = nx.algorithms.approximation.max_clique(g)
    return max(len(clique), 1)


def degree_lower_bound(connections: Sequence[Connection], *, use_clique: bool = False) -> int:
    """Best available lower bound on the multiplexing degree."""
    bound = max_link_load_bound(connections)
    if use_clique:
        bound = max(bound, clique_bound(connections))
    return bound
