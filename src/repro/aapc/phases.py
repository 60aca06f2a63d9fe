"""Construction of phased AAPC decompositions.

Strategy (see the package docstring): try several deterministic request
orderings, pack each with first-fit *and* fullest-bin-first best-fit,
locally repack every candidate, and keep the smallest decomposition.

The workhorse ordering for tori is **offset-major with sublattice
spacing**: all-to-all splits into translation classes ("offsets"
``(o_0, ..., o_{n-1})``, the per-dimension signed hop counts).  Two
same-offset connections conflict iff their sources are closer than the
offset length in some dimension, so enumerating each class by source
sublattices of stride ``a_d >= |o_d|`` (``a_d`` dividing the radix)
emits long runs of mutually conflict-free connections that first-fit
lays into the same phase.  Processing large offsets first fills each
phase's long segments before short fillers arrive -- the same
"keep dense groups intact" intuition as the paper's phase ranking.

Decompositions are cached per topology signature: they depend only on
the topology and routing policy, and the ordered-AAPC scheduler
(called hundreds of times by the table benches) reuses them.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.configuration import Configuration, ConfigurationSet
from repro.core.linkmask import SlotOccupancy, iter_bits, required_links
from repro.core.packing import first_fit, repack
from repro.core.paths import Connection, route_requests
from repro.aapc.bounds import (
    aapc_injection_bound,
    all_pairs_requests,
)
from repro.core.bounds import max_link_load_bound
from repro.topology.base import Topology
from repro.topology.kary_ncube import KAryNCube


class AAPCDecomposition:
    """A contention-free phase decomposition of all-to-all.

    Attributes
    ----------
    topology:
        The substrate the decomposition was built for.
    schedule:
        The phases as a :class:`~repro.core.configuration.ConfigurationSet`
        over the all-pairs connection list.
    connections:
        The routed all-pairs connections (lexicographic pair order).
    """

    def __init__(self, topology: Topology, schedule: ConfigurationSet,
                 connections: Sequence[Connection]) -> None:
        self.topology = topology
        self.schedule = schedule
        self.connections = list(connections)
        self._phase_of: dict[tuple[int, int], int] = {}
        for phase, cfg in enumerate(schedule):
            for c in cfg:
                self._phase_of[c.pair] = phase

    @property
    def num_phases(self) -> int:
        """Phase count == multiplexing degree needed for full AAPC."""
        return self.schedule.degree

    @property
    def phase_of(self) -> dict[tuple[int, int], int]:
        """Map ``(src, dst)`` -> phase index, defined for every pair."""
        return self._phase_of

    def lower_bound(self) -> int:
        """Best lower bound on any decomposition for this topology."""
        return max(
            aapc_injection_bound(self.topology),
            max_link_load_bound(self.connections),
        )

    def validate(self) -> None:
        """Assert contention-freeness and exact all-pairs coverage."""
        self.schedule.validate(self.connections)
        n = self.topology.num_nodes
        if len(self._phase_of) != n * (n - 1):
            raise AssertionError(
                f"phase map covers {len(self._phase_of)} pairs, "
                f"expected {n * (n - 1)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AAPCDecomposition {self.topology.signature} "
            f"phases={self.num_phases} bound={self.lower_bound()}>"
        )


# ----------------------------------------------------------------------
# request orderings
# ----------------------------------------------------------------------

def _smallest_divisor_at_least(k: int, m: int) -> int:
    """Smallest divisor of ``k`` that is >= ``m`` (k itself in the worst case)."""
    for a in range(max(m, 1), k + 1):
        if k % a == 0:
            return a
    return k


def _offset_major_order(
    topology: KAryNCube, connections: Sequence[Connection], *, descending: bool = True
) -> list[int]:
    """Offset-major, sublattice-spaced source order (tori only)."""
    keyed = []
    for pos, c in enumerate(connections):
        src_c = topology.coords(c.request.src)
        dst_c = topology.coords(c.request.dst)
        offset = tuple(
            topology.signed_offset(s, d, dim)
            for dim, (s, d) in enumerate(zip(src_c, dst_c))
        )
        dist = sum(abs(o) for o in offset)
        spacing = tuple(
            _smallest_divisor_at_least(k, abs(o))
            for k, o in zip(topology.dims, offset)
        )
        sub = tuple(s % a for s, a in zip(src_c, spacing))
        sort_dist = -dist if descending else dist
        keyed.append(((sort_dist, offset, sub, src_c), pos))
    keyed.sort()
    return [pos for _, pos in keyed]


def _longest_first_order(connections: Sequence[Connection]) -> list[int]:
    return sorted(range(len(connections)), key=lambda i: (-connections[i].num_links, i))


# ----------------------------------------------------------------------
# packers
# ----------------------------------------------------------------------

def _best_fit(
    connections: Sequence[Connection], order: Sequence[int]
) -> ConfigurationSet:
    """Pack into the *fullest* (most links lit) configuration that fits.

    Ties keep the earliest configuration.  One slot-mask OR yields
    every fitting slot.
    """
    occ = SlotOccupancy(required_links(connections))
    members: list[list[Connection]] = []
    lit: list[int] = []  # distinct links used per configuration
    for pos in order:
        c = connections[pos]
        best, best_lit = -1, -1
        for slot in iter_bits(occ.free_slots(c.links)):
            if lit[slot] > best_lit:
                best, best_lit = slot, lit[slot]
        if best < 0:
            best = occ.num_slots
            members.append([])
            lit.append(0)
        occ.place(c.links, best)
        members[best].append(c)
        # members are link-disjoint, so the union size is the plain sum.
        lit[best] += len(c.link_set)
    return ConfigurationSet(
        [Configuration._trusted(m) for m in members], scheduler="aapc-best-fit"
    )


# ----------------------------------------------------------------------
# builder + cache
# ----------------------------------------------------------------------

def _product_schedule(
    topology: KAryNCube, connections: Sequence[Connection]
) -> ConfigurationSet | None:
    """Latin-product construction (optimal on the paper's 8x8 torus).

    Builds per-dimension Latin ring schedules
    (:mod:`repro.aapc.ring_latin`) and combines them by the product
    theorem into a ``prod(dims)``-phase decomposition.  Returns ``None``
    when a dimension has no Latin schedule (radix too large) or the
    routing policy is not the balanced one the ring tables assume.
    """
    from repro.topology.kary_ncube import TieBreak
    from repro.aapc.ring_latin import ring_latin_schedule

    if topology.tie_break is not TieBreak.BALANCED:
        return None
    tables = []
    for k in topology.dims:
        phi = ring_latin_schedule(k)
        if phi is None:
            return None
        tables.append(phi)

    num_phases = 1
    for k in topology.dims:
        num_phases *= k
    buckets: list[list[Connection]] = [[] for _ in range(num_phases)]
    for c in connections:
        src_c = topology.coords(c.request.src)
        dst_c = topology.coords(c.request.dst)
        phase, radix = 0, 1
        for k, phi, s, d in zip(topology.dims, tables, src_c, dst_c):
            phase += phi[s][d] * radix
            radix *= k
        buckets[phase].append(c)
    configs = [Configuration(members) for members in buckets if members]
    return ConfigurationSet(configs, scheduler="aapc[latin-product]")


_CACHE: dict[str, AAPCDecomposition] = {}


def build_aapc_decomposition(
    topology: Topology, *, effort: str = "normal"
) -> AAPCDecomposition:
    """Build a phased AAPC decomposition from scratch (no cache).

    Tries, in order:

    1. the **Latin-product construction** (tori with balanced routing
       and Latin-feasible radices) -- provably valid, optimal at 64
       phases on the paper's 8x8 torus;
    2. heuristic packing over structured orderings, locally repacked;
    3. at ``effort="high"``, an iterated-local-search polish
       (:mod:`repro.aapc.optimize`) of the heuristic result.

    and keeps the best.  ``effort`` is ``"fast"`` (one heuristic
    ordering, no repack -- for tests on big substrates), ``"normal"``
    or ``"high"``.
    """
    requests = all_pairs_requests(topology)
    connections = route_requests(topology, requests)

    best: ConfigurationSet | None = None
    if isinstance(topology, KAryNCube):
        best = _product_schedule(topology, connections)
        if best is not None and best.degree <= max_link_load_bound(connections):
            return AAPCDecomposition(topology, best, connections)

    orders: list[tuple[str, list[int]]] = []
    if isinstance(topology, KAryNCube):
        orders.append(("offset-desc", _offset_major_order(topology, connections, descending=True)))
        if effort != "fast":
            orders.append(("offset-asc", _offset_major_order(topology, connections, descending=False)))
    if effort != "fast" or not orders:
        orders.append(("longest-first", _longest_first_order(connections)))

    for name, order in orders:
        for packer in (first_fit, _best_fit):
            candidate = packer(connections, order)
            if effort != "fast":
                candidate = repack(candidate)
            if best is None or candidate.degree < best.degree:
                best = ConfigurationSet(list(candidate), scheduler=f"aapc[{name}]")
    assert best is not None

    if effort == "high":
        from repro.aapc.optimize import minimize_degree

        bound = max(
            aapc_injection_bound(topology), max_link_load_bound(connections)
        )
        best = minimize_degree(best, target=bound, scheduler=best.scheduler + "+ils")
    return AAPCDecomposition(topology, best, connections)


def aapc_decomposition(topology: Topology, *, effort: str = "normal") -> AAPCDecomposition:
    """Cached :func:`build_aapc_decomposition` (keyed by topology signature)."""
    key = f"{topology.signature}|{effort}"
    if key not in _CACHE:
        _CACHE[key] = build_aapc_decomposition(topology, effort=effort)
    return _CACHE[key]


def aapc_phase_map(topology: Topology) -> dict[tuple[int, int], int]:
    """Pair -> phase map of the cached decomposition (scheduler entry point)."""
    return aapc_decomposition(topology).phase_of
