"""The ordered-AAPC connection scheduling algorithm (paper Fig. 5).

For **dense** patterns the greedy and coloring heuristics can exceed the
multiplexing degree needed for full all-to-all personalized
communication (AAPC), which is absurd: any pattern embeds in AAPC.  The
ordered-AAPC algorithm guarantees the AAPC bound by construction:

1. take a *phased AAPC decomposition* of the topology -- a partition of
   all N(N-1) source/destination pairs into contention-free phases
   ``A_1 ... A_P`` (built once per topology by :mod:`repro.aapc.phases`);
2. rank each phase by the total link length of the requests that fall
   into it (``PhaseRank[k] += length(s_i, d_i)``) -- phases with higher
   utilisation are scheduled first, keeping dense groups intact;
3. reorder the request set phase-by-phase in rank order and run the
   greedy algorithm on the reordered set.

Because all requests inside one AAPC phase are mutually conflict-free,
greedy can never open more configurations than there are non-empty
phases, so the result is bounded by the AAPC phase count (~ N^3/8 = 64
configurations on the 8x8 torus).  For sparse patterns greedy often
merges several partially-filled phases, dropping below the bound.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.configuration import ConfigurationSet
from repro.core.packing import first_fit
from repro.core.paths import Connection
from repro.topology.base import Topology


def aapc_rank_order(
    connections: Sequence[Connection],
    phase_of: Mapping[tuple[int, int], int],
    *,
    with_runs: bool = False,
) -> list[int] | tuple[list[int], list[int]]:
    """Processing order per Fig. 5: phases by descending rank.

    ``phase_of`` maps every (src, dst) pair of the topology to its AAPC
    phase index.  Returns positions into ``connections``; with
    ``with_runs=True`` also returns the lengths of consecutive blocks of
    that order whose members are mutually link-disjoint -- exactly the
    precondition of ``first_fit``'s run-batched placement
    (:func:`repro.core.packing.first_fit`).  Blocks follow the phase
    boundaries (one AAPC phase is contention-free across *distinct*
    pairs), except that a repeated pair -- request sets are multisets --
    starts a new block, since duplicates share every link.

    Vectorized: per-phase ranks accumulate with one ``bincount`` and the
    (rank desc, phase asc, index asc) order is a single ``lexsort`` --
    the path lengths are small integers, so the float64 rank sums are
    exact and the order matches the tuple-sort formulation.
    """
    n = len(connections)
    if n == 0:
        return ([], []) if with_runs else []
    phases = np.fromiter((phase_of[c.pair] for c in connections), dtype=np.int64, count=n)
    lengths = np.fromiter((c.num_links for c in connections), dtype=np.float64, count=n)
    rank = np.bincount(phases, weights=lengths)
    # sort connections by (phase rank desc, phase id asc, index asc);
    # lexsort keys run least-significant first.
    order = np.lexsort((np.arange(n), phases, -rank[phases]))
    if not with_runs:
        return order.tolist()
    sorted_phases = phases[order]
    splits = np.nonzero(sorted_phases[1:] != sorted_phases[:-1])[0] + 1
    bounds = np.concatenate(([0], splits, [n]))
    pairs = [connections[i].pair for i in order]
    if len(set(pairs)) == n:
        return order.tolist(), np.diff(bounds).tolist()
    # A repeated pair breaks the phase's disjointness guarantee: split
    # its block greedily so no run sees the same pair twice.
    runs: list[int] = []
    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        seen: set[tuple[int, int]] = set()
        run_start = int(b0)
        for i in range(int(b0), int(b1)):
            if pairs[i] in seen:
                runs.append(i - run_start)
                run_start = i
                seen = {pairs[i]}
            else:
                seen.add(pairs[i])
        runs.append(int(b1) - run_start)
    return order.tolist(), runs


def ordered_aapc_schedule(
    connections: Sequence[Connection],
    topology: Topology | None = None,
    phase_of: Mapping[tuple[int, int], int] | None = None,
) -> ConfigurationSet:
    """Schedule ``connections`` with the ordered-AAPC algorithm.

    Parameters
    ----------
    connections:
        Routed request set.
    topology:
        Needed (unless ``phase_of`` is given) to build/fetch the cached
        AAPC phase decomposition.
    phase_of:
        Pre-built pair -> phase map; overrides ``topology``.
    """
    if phase_of is None:
        if topology is None:
            raise ValueError("ordered_aapc_schedule needs a topology or a phase map")
        from repro.aapc.phases import aapc_phase_map

        phase_of = aapc_phase_map(topology)
    order, runs = aapc_rank_order(connections, phase_of, with_runs=True)
    num_links = topology.num_links if topology is not None else None
    result = first_fit(
        connections, order, scheduler="aapc", num_links=num_links, runs=runs,
    )
    return result
