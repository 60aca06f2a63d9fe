"""Structural all-to-all scheduling -- the large-torus compile path.

The generic schedulers take a list of routed :class:`Connection`
objects.  For complete exchange that list has ``N(N-1)`` entries --
4032 on the paper's 8x8 torus, 16.7 million on a 64x64 torus, where
merely materialising the Python objects costs minutes and gigabytes
before a single placement test runs.  Compiled communication does not
need the objects: all-to-all is *structured*, and the product theorem
(:mod:`repro.aapc.product`) yields a provably contention-free phase for
every pair from two tiny per-ring tables.

:func:`all_to_all_fast_schedule` turns the product decomposition into a
:class:`FastAllToAllSchedule` -- a dense ``slot_of[src, dst]`` matrix.
Product cells that the grouped-product theorem proves link-disjoint
share a slot (:meth:`~repro.aapc.product.ProductDecomposition.grouped_cell_slots`),
and the slots are ranked like the ordered-AAPC scheduler ranks its
phases (total routed link length, descending; paper Fig. 5).  The
ranking runs on the decomposition's phase grid (one cell per
combination of ring phases), which is expanded to node pairs once, for
``slot_of``.  A 64x64 all-to-all "compiles" in well under 0.1 s warm,
in 62,039 slots against the link bound of 32,768 (the ungrouped
product needs 276,676); the 8x8 case reproduces the optimal 64-slot
Latin product the generic path finds, which
:meth:`FastAllToAllSchedule.materialize` cross-checks against the real
:class:`ConfigurationSet` machinery at small sizes.

:func:`all_to_all_schedule` is the scheduler-aware dispatcher the bench
harness drives: below a materialisation ceiling it routes the pattern
(via the vectorized :class:`~repro.core.routetable.RouteTable`) and
runs the requested generic scheduler; above it, the structural path is
the only feasible compile and "combined" degenerates to it by design
(the same honesty as the coloring ceiling in
:mod:`repro.core.combined` -- the tag says so).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.aapc.product import ProductDecomposition, product_decomposition
from repro.aapc.ring_latin import ring_link_load
from repro.core import perf
from repro.core.configuration import Configuration, ConfigurationSet
from repro.core.paths import Connection
from repro.topology.base import Topology
from repro.topology.kary_ncube import KAryNCube

__all__ = [
    "FastAllToAllSchedule",
    "all_to_all_lower_bound",
    "all_to_all_fast_schedule",
    "all_to_all_schedule",
    "MATERIALIZE_CEILING",
]

#: Largest all-to-all connection count the dispatcher will materialise
#: as Connection objects for the generic schedulers.  Above this the
#: structural product path is the only feasible compile (the 32x32
#: pattern is ~1M connections; object routing alone takes ~a minute).
MATERIALIZE_CEILING = 150_000


def all_to_all_lower_bound(topology: KAryNCube) -> int:
    """Closed-form lower bound on any all-to-all TDM schedule.

    The max of the injection bound (every source must emit ``N - 1``
    messages one slot each) and, per dimension, the fiber-load bound:
    each of the ``N / k`` rings of radix ``k`` in dimension ``d`` sees
    the full all-pairs ring load on its busiest fiber once per choice
    of the other coordinates, giving ``(N / k) * ring_link_load(k)``
    slots.  On the paper's 8x8 torus this is ``max(63, 64, 64) = 64``
    -- the known optimum.
    """
    n = topology.num_nodes
    bound = n - 1
    for k in topology.dims:
        bound = max(bound, (n // k) * ring_link_load(k))
    return bound


@dataclass
class FastAllToAllSchedule:
    """A complete-exchange schedule in dense matrix form.

    ``slot_of[s, d]`` is the time slot of connection ``s -> d`` (``-1``
    on the diagonal); ``degree`` the multiplexing degree.  Equivalent
    to a :class:`ConfigurationSet` over the all-pairs connection list,
    without materialising the list -- :meth:`materialize` builds the
    real thing for cross-validation at small sizes.
    """

    topology_signature: str
    num_nodes: int
    num_connections: int
    degree: int
    lower_bound: int
    scheduler: str
    seconds: float
    slot_of: np.ndarray = field(repr=False)
    slot_sizes: np.ndarray = field(repr=False)

    @property
    def optimality_ratio(self) -> float:
        """``degree / lower_bound`` -- 1.0 means provably optimal."""
        return self.degree / self.lower_bound if self.lower_bound else 0.0

    @property
    def throughput(self) -> float:
        """Connections scheduled per second of compile time."""
        return self.num_connections / self.seconds if self.seconds > 0 else 0.0

    def materialize(self, topology: Topology) -> tuple[list[Connection], ConfigurationSet]:
        """Route every pair and expand into a real ConfigurationSet.

        Intended for validation at small ``N`` (it is exactly the
        object materialisation the fast path exists to avoid):
        ``schedule.validate(connections)`` then re-proves contention-
        freeness and coverage from scratch.
        """
        from repro.aapc.bounds import all_pairs_requests
        from repro.core.routetable import RouteTable

        table = RouteTable.all_pairs(topology)
        connections = table.connections(all_pairs_requests(topology))
        buckets: list[list[Connection]] = [[] for _ in range(self.degree)]
        slots = self.slot_of[table.src, table.dst]
        for c, slot in zip(connections, slots.tolist()):
            buckets[slot].append(c)
        return connections, ConfigurationSet(
            [Configuration._trusted(b) for b in buckets], scheduler=self.scheduler
        )


def _ranked_cell_slots(dec: ProductDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Each grid cell's slot, ranked, and the pair count of each slot.

    A slot's pair count and routed length are sums over its cells
    (:meth:`~repro.aapc.product.ProductDecomposition.grouped_cell_slots`);
    slots no non-self pair uses drop out.  The rest are ranked by
    routed length, descending, ties by the smallest phase id in the
    slot -- so where every slot is one cell, the product's phases in
    the ordered-AAPC rank order.
    """
    cell_slot, num_slots = dec.grouped_cell_slots()
    counts = np.bincount(cell_slot, weights=dec.cell_counts, minlength=num_slots)
    lengths = np.bincount(cell_slot, weights=dec.cell_lengths, minlength=num_slots)
    used = dec.cell_phase >= 0
    first = np.full(num_slots, dec.num_phases, dtype=dec.cell_phase.dtype)
    np.minimum.at(first, cell_slot[used], dec.cell_phase[used])
    live = np.flatnonzero(counts > 0)
    # Both rank keys in one integer: a conflict-free slot's length is at
    # most the link count, so the product stays far inside int64.
    key = first[live] - lengths[live].astype(np.int64) * dec.num_phases
    ranked = live[np.argsort(key)]
    rank = np.full(num_slots, -1, dtype=np.int32)
    rank[ranked] = np.arange(ranked.size, dtype=np.int32)
    return rank[cell_slot], counts[ranked].astype(np.int64)


def all_to_all_fast_schedule(topology: KAryNCube) -> FastAllToAllSchedule:
    """Schedule complete exchange structurally (no connection objects).

    Phases come from the product decomposition.  Cells whose dimension-0
    ring phases have disjoint destination columns and whose last ring
    phases have disjoint source rows share a slot (the grouped product,
    :mod:`repro.aapc.product`); the slots are ranked by total routed
    link length, descending (ties by smallest phase id), matching the
    ordered-AAPC rank order so the dense groups land in the early
    slots.  The tag reads ``fastpath[grouped-product]`` where some slot
    holds two cells, and the product's kind otherwise.
    """
    t0 = perf.perf_timer()
    dec = product_decomposition(topology)
    n = topology.num_nodes
    cell_slot, sizes = _ranked_cell_slots(dec)
    slot_of = dec.pair_matrix(cell_slot)
    degree = sizes.size
    kind = dec.kind if degree == dec.num_phases else "grouped-product"
    seconds = perf.perf_timer() - t0
    perf.COUNTERS.fastpath_builds += 1
    perf.COUNTERS.fastpath_seconds += seconds
    return FastAllToAllSchedule(
        topology_signature=topology.signature,
        num_nodes=n,
        num_connections=n * (n - 1),
        degree=degree,
        lower_bound=all_to_all_lower_bound(topology),
        scheduler=f"fastpath[{kind}]",
        seconds=seconds,
        slot_of=slot_of,
        slot_sizes=sizes,
    )


def all_to_all_schedule(
    topology: KAryNCube,
    *,
    scheduler: str = "combined",
    materialize_ceiling: int | None = MATERIALIZE_CEILING,
) -> ConfigurationSet | FastAllToAllSchedule:
    """Compile all-to-all with the requested scheduler, scale permitting.

    ``scheduler`` is one of ``"greedy"``, ``"coloring"``, ``"aapc"``,
    ``"combined"`` or ``"fastpath"``.  Below ``materialize_ceiling``
    connections the pattern is routed through the vectorized
    :class:`~repro.core.routetable.RouteTable` and handed to the
    generic scheduler, returning an ordinary
    :class:`ConfigurationSet`.  ``"fastpath"`` -- and any scheduler
    above the ceiling, where object materialisation stops being a
    compile path -- returns the structural
    :class:`FastAllToAllSchedule` instead, with the degeneration
    recorded in the scheduler tag (``combined(fastpath[...])``).
    """
    known = ("greedy", "coloring", "aapc", "combined", "fastpath")
    if scheduler not in known:
        raise ValueError(f"scheduler must be one of {known}, got {scheduler!r}")
    n = topology.num_nodes
    num_connections = n * (n - 1)
    if scheduler == "fastpath":
        return all_to_all_fast_schedule(topology)
    if materialize_ceiling is not None and num_connections > materialize_ceiling:
        fast = all_to_all_fast_schedule(topology)
        fast.scheduler = f"{scheduler}({fast.scheduler})"
        return fast
    from repro.aapc.bounds import all_pairs_requests
    from repro.core.coloring import coloring_schedule
    from repro.core.combined import combined_schedule
    from repro.core.greedy import greedy_schedule
    from repro.core.aapc_ordered import ordered_aapc_schedule
    from repro.core.routetable import RouteTable

    table = RouteTable.all_pairs(topology)
    connections = table.connections(all_pairs_requests(topology))
    if scheduler == "greedy":
        return greedy_schedule(connections)
    if scheduler == "coloring":
        return coloring_schedule(connections)
    if scheduler == "aapc":
        return ordered_aapc_schedule(connections, topology)
    return combined_schedule(connections, topology)
