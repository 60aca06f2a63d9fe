"""The graph-coloring connection scheduling algorithm (paper Fig. 4).

The request set is modelled as a **conflict graph** (one node per
connection, edges between conflicting pairs); a proper coloring is a
partition into configurations, so minimising colors minimises the
multiplexing degree.  Coloring is NP-complete, so the paper uses a
priority heuristic.  Each round builds one configuration: walk the
uncolored nodes in priority order, color the highest-priority workable
node, and knock its uncolored neighbours out of the round's work list.
When a node is colored, the degrees of its uncolored neighbours
decrease; those neighbours are exactly the nodes removed from the work
list, so within a round the priority order of the *remaining* work list
is unaffected (which is why a single sort per round, as in the paper's
Fig. 4, suffices).

Priority rules -- a reproduction note
-------------------------------------
The paper's prose defines the priority as *"the ratio of the number of
links in the connection to the degree of the corresponding node in the
uncolored conflict subgraph"*, processed highest-first, i.e.
fewest-conflicts-first.  Implemented literally, that rule produces
multiplexing degrees consistently *worse than the greedy algorithm* on
the paper's own Table 1 workloads (e.g. ~18 vs ~16 at 400 random
connections), contradicting the paper's central observation that "the
coloring algorithm is always better than the greedy algorithm".

Processing **most-constrained connections first** -- priority = degree
in the uncolored conflict subgraph, descending (the Welsh-Powell
discipline) -- reproduces the paper's coloring column closely on every
reported workload (ring 2, nearest-neighbour 4, shuffle-exchange 4,
all-to-all 82 vs the paper's 83; random patterns tracking Table 1
within ~5%) and restores coloring <= greedy throughout.  We therefore
default to ``priority="most-constrained"`` and keep the literal rule
available as ``priority="paper-ratio"`` for comparison; the ablation
bench quantifies the difference, and EXPERIMENTS.md discusses it.

Implementation notes: the conflict graph is a packed bit matrix
(:class:`repro.core.linkmask.ConflictMatrix`) and each round's walk is
vectorized (see :func:`coloring_schedule`); the densest evaluation
instance (all-to-all on the 8x8 torus: 4032 connections, ~1.4M conflict
edges) colors in well under a second.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.configuration import Configuration, ConfigurationSet
from repro.core.linkmask import ConflictMatrix
from repro.core.paths import Connection

#: Valid ``priority`` arguments of :func:`coloring_schedule`.
PRIORITY_RULES = ("most-constrained", "paper-ratio")

#: Window width of the round walk (see :func:`coloring_schedule`).
_WALK_WINDOW = 64


def coloring_schedule(
    connections: Sequence[Connection],
    *,
    priority: str = "most-constrained",
) -> ConfigurationSet:
    """Schedule ``connections`` with the Fig. 4 coloring heuristic.

    Parameters
    ----------
    connections:
        Routed request set, indexed ``0..n-1``.
    priority:
        ``"most-constrained"`` (default; degree descending -- see the
        module docstring for why) or ``"paper-ratio"`` (the paper's
        literal links/degree rule, fewest conflicts first).

    Returns a :class:`ConfigurationSet` whose conflict-freeness is
    guaranteed by the adjacency knock-outs (and re-checkable with
    ``validate()``).

    Three observations let the round loop drop per-pick Python
    bookkeeping without changing a single pick of the literal
    walk-the-work-list formulation:

    * The degree of an uncolored node in the uncolored subgraph only
      matters at round *starts* (the priority sort), and the nodes
      colored within one round are mutually non-adjacent, so the
      per-pick ``deg -= 1`` updates can be batched into one vectorized
      subtraction of the round's members' summed adjacency rows.
    * Within a round, skipping knocked-out nodes is a filter: keep the
      priority-ordered candidate array, and after each pick drop every
      candidate adjacent to it.  Doing that per *window* of
      ``_WALK_WINDOW`` candidates -- gather the window's conflict
      submatrix, pack its rows into per-candidate machine words, select
      greedily with integer bit tests, then knock the union of the
      picks' rows out of the tail once -- amortises the numpy call
      overhead over many picks.
    * Priority descending with ties broken by index ascending is a
      single stable argsort of ``-prio`` over the ascending index array.
    """
    if priority not in PRIORITY_RULES:
        raise ValueError(f"priority must be one of {PRIORITY_RULES}, got {priority!r}")
    n = len(connections)
    if n == 0:
        return ConfigurationSet([], scheduler="coloring")
    for i, c in enumerate(connections):
        if c.index != i:
            raise ValueError("connections must be indexed 0..n-1 in order")

    matrix = ConflictMatrix(connections)
    bits = matrix.bits
    B = matrix.unpacked()
    deg = matrix.degrees()
    lengths = None
    if priority == "paper-ratio":
        lengths = np.array([c.num_links for c in connections], dtype=np.float64)
    uncolored = np.ones(n, dtype=bool)
    n_left = n
    # Degrees only decrease, so ``maxd - deg`` is a non-negative sort
    # key whose ascending stable order equals descending-by-degree; for
    # n < 2**16 it fits uint16, where numpy's stable sort is radix
    # (linear-time) instead of mergesort.
    maxd = int(deg.max()) if n else 0
    radix = n < (1 << 16)

    configs: list[Configuration] = []
    while n_left > 0:
        idxs = np.nonzero(uncolored)[0]
        if priority == "paper-ratio":
            d = deg[idxs]
            prio = np.where(d > 0, lengths[idxs] / np.maximum(d, 1), np.inf)
            order = idxs[np.argsort(-prio, kind="stable")]
        elif radix:
            key = (maxd - deg[idxs]).astype(np.uint16)
            order = idxs[np.argsort(key, kind="stable")]
        else:
            order = idxs[np.argsort(-deg[idxs], kind="stable")]
        rem = order
        members: list[int] = []
        while rem.size:
            head = rem[:_WALK_WINDOW]
            h = len(head)
            window = B.take((head[:, None] * n + head).ravel()).reshape(h, h)
            packed = np.packbits(window, axis=1, bitorder="little")
            if packed.shape[1] < 8:  # short tail window: widen to one word
                buf = np.zeros((h, 8), dtype=np.uint8)
                buf[:, : packed.shape[1]] = packed
                packed = buf
            rowbits = packed.view(np.uint64).ravel().tolist()
            selbits, sel_local = 0, []
            for j in range(h):
                if not rowbits[j] & selbits:
                    sel_local.append(j)
                    selbits |= 1 << j
            sel = head[sel_local]
            members.extend(sel.tolist())
            tail = rem[h:]
            if not tail.size:
                break
            blocked = np.bitwise_or.reduce(bits[sel], axis=0)
            hit = (blocked[tail >> 3] >> (tail & 7).astype(np.uint8)) & 1
            rem = tail[hit == 0]
        marr = np.asarray(members)
        uncolored[marr] = False
        n_left -= len(members)
        deg -= B[marr].sum(axis=0, dtype=np.uint32)
        configs.append(
            Configuration._trusted([connections[i] for i in members])
        )
    return ConfigurationSet(configs, scheduler="coloring")
