"""Generalized product decompositions: structural AAPC at any radix.

:mod:`repro.aapc.ring_latin` proves the **product theorem**: per-ring
schedules whose rows and columns are phase-injective and whose phases
are segment-link-disjoint compose, dimension by dimension, into a
contention-free AAPC decomposition of the whole torus.  The Latin
tables it ships satisfy those properties *and* use the minimum ``n``
phases -- but Latin schedules only exist up to radix 8 (the all-pairs
fiber load exceeds ``n`` beyond that), which is why the generic phase
builder falls back to heuristic packing of the fully routed all-pairs
set on big tori.  That fallback materialises ``N(N-1)`` connection
objects; at 64x64 (16.7 M connections) it is not a compile path, it is
a memory benchmark.

This module keeps the *structure* and drops the minimality: a
**contention-free ring schedule** is any ``phi[u][v] -> phase`` over
all ``n^2`` pairs (self-pairs included) with

1. injective rows (``phi[u][.]`` has ``n`` distinct values),
2. injective columns,
3. per-phase link-disjoint routed segments.

Exactly the three properties the product proof consumes -- nothing in
the proof needs the phase count to be ``n`` (the permutation rows of a
Latin schedule are just injectivity plus surjectivity, and surjectivity
is never used).  Self-pairs route no fibers but still occupy a row and
a column entry: the proof's injection/ejection cases compare *all*
destinations of a source, including ``u`` itself, so the injectivity
must cover them.

For radices with a precomputed Latin table the table is used verbatim
(so on the paper's 8x8 torus the product is the optimal 64-phase
decomposition).  For larger radices a deterministic greedy first-fit
over the ``n^2`` pairs, hardest (longest route) first, builds a
partial-Latin schedule with two phase-mask ORs per routed fiber hop
(one to test, one to mark) -- 131k Python-int ORs at radix 64
(~50 ms), versus the infeasible alternative of packing 16.7 M routed
connections.

The product puts the pair ``s -> d`` in the cell

    ``cell(s, d) = sum_d phi_d[s_d][d_d] * stride_d``

(``stride_d`` = product of the phase counts of the lower dimensions)
of a **phase grid** with one cell per combination of ring phases.
Every pair is a choice of one ring pair per dimension, so a cell's
pair count, self-pair count and total routed length are outer products
of per-ring ``bincount`` vectors: the decomposition is built at grid
size (277k cells at 64x64) rather than pair size (16.7M pairs), and
compacted to the cells some non-self pair uses.  A per-cell table
becomes the dense pair matrix only on request
(:meth:`ProductDecomposition.pair_matrix`); :mod:`repro.core.allpairs`
ranks the phases on the grid and expands the slot table once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.aapc.ring_latin import PRECOMPUTED, ring_route
from repro.topology.kary_ncube import KAryNCube, TieBreak

__all__ = [
    "RingSchedule",
    "contention_free_ring_schedule",
    "validate_ring_schedule",
    "ProductDecomposition",
    "product_decomposition",
]


def _route_fibers(n: int, u: int, v: int) -> tuple[int, ...]:
    """Ring route ``u -> v`` as indices of the ``2n`` directed fibers.

    Index ``i`` is the positive fiber ``i -> i+1``; ``n + j`` the
    negative fiber ``j+1 -> j`` (both mod ``n``).
    """
    return tuple(i if sign == "+" else n + i for sign, i in ring_route(n, u, v))


@dataclass(frozen=True)
class RingSchedule:
    """A contention-free ring schedule (see the module docstring).

    ``phi[u][v]`` is the phase of pair ``(u, v)``; ``num_phases`` the
    number of phases used (``n`` exactly when ``kind == "latin"``).
    """

    n: int
    phi: tuple[tuple[int, ...], ...]
    num_phases: int
    kind: str  # "latin" | "greedy"


def _greedy_ring_schedule(n: int) -> RingSchedule:
    """Deterministic first-fit partial-Latin builder for any radix.

    Pairs are processed hardest (longest route) first; each takes the
    lowest phase not blocked by its row, its column, or a fiber clash.
    Rows, columns and fibers each keep a Python-int mask of the phases
    they are busy in, so a pair's choice is the lowest zero bit of the
    OR of its row, column and route-fiber masks -- a bit past the last
    phase opens a new one.
    """
    routes = {(u, v): _route_fibers(n, u, v) for u in range(n) for v in range(n)}
    pairs = sorted(routes, key=lambda p: (-len(routes[p]), p))
    row_used = [0] * n
    col_used = [0] * n
    fiber_used = [0] * (2 * n)
    num_phases = 0
    phi = [[-1] * n for _ in range(n)]
    for u, v in pairs:
        fibers = routes[(u, v)]
        blocked = row_used[u] | col_used[v]
        for f in fibers:
            blocked |= fiber_used[f]
        bit = (blocked + 1) & ~blocked
        chosen = bit.bit_length() - 1
        num_phases = max(num_phases, chosen + 1)
        row_used[u] |= bit
        col_used[v] |= bit
        for f in fibers:
            fiber_used[f] |= bit
        phi[u][v] = chosen
    return RingSchedule(
        n, tuple(tuple(row) for row in phi), num_phases, "greedy"
    )


_RING_CACHE: dict[int, RingSchedule] = {}


def contention_free_ring_schedule(n: int) -> RingSchedule:
    """Contention-free ring schedule for radix ``n`` (cached).

    Uses the optimal precomputed Latin table where one exists
    (``n <= 8`` and ``n == 1``), the greedy partial-Latin builder
    otherwise.  Every returned schedule satisfies the three product-
    theorem properties; ``validate_ring_schedule`` re-proves them and
    the test suite exercises it at representative radices.
    """
    if n < 1:
        raise ValueError(f"ring radix must be >= 1, got {n}")
    cached = _RING_CACHE.get(n)
    if cached is not None:
        return cached
    if n == 1:
        result = RingSchedule(1, ((0,),), 1, "latin")
    elif n in PRECOMPUTED:
        phi = PRECOMPUTED[n]
        result = RingSchedule(n, tuple(tuple(row) for row in phi), n, "latin")
    else:
        result = _greedy_ring_schedule(n)
    _RING_CACHE[n] = result
    return result


def validate_ring_schedule(schedule: RingSchedule) -> None:
    """Assert the three product-theorem properties of ``schedule``."""
    n, phi, num_phases = schedule.n, schedule.phi, schedule.num_phases
    for u in range(n):
        row = phi[u]
        if len(set(row)) != n:
            raise AssertionError(f"row {u} is not injective: {row}")
        if min(row) < 0 or max(row) >= num_phases:
            raise AssertionError(f"row {u} leaves [0, {num_phases}): {row}")
    for v in range(n):
        col = {phi[u][v] for u in range(n)}
        if len(col) != n:
            raise AssertionError(f"column {v} is not injective")
    lit: set[tuple[int, int]] = set()  # (phase, fiber)
    for u in range(n):
        for v in range(n):
            p = phi[u][v]
            for f in _route_fibers(n, u, v):
                if (p, f) in lit:
                    raise AssertionError(
                        f"phase {p}: pair ({u},{v}) reuses an occupied fiber"
                    )
                lit.add((p, f))


# ----------------------------------------------------------------------
# torus product
# ----------------------------------------------------------------------

@dataclass
class ProductDecomposition:
    """A product-theorem AAPC decomposition on its phase grid.

    The grid has one cell per combination of ring phases, flattened
    with dimension 0 fastest (``len = prod(ring_phases)``); the pair
    ``s -> d`` lies in cell ``sum_d phi_d[s_d][d_d] * stride_d``.
    Cells some non-self pair uses are the phases, compacted in cell
    order to ``0 .. num_phases - 1``: ``cell_phase`` holds each cell's
    phase id (``-1`` where only self-pairs, or nothing, land),
    ``cell_counts`` its non-self pair count and ``cell_lengths`` their
    total routed length (inject + eject + per-dimension hops).
    ``phase_counts[p]`` is the number of connections in phase ``p``.
    """

    topology: KAryNCube
    num_phases: int
    phase_counts: np.ndarray
    ring_phases: tuple[int, ...]
    kind: str  # "latin-product" | "greedy-product"
    ring_tables: tuple[np.ndarray, ...] = field(repr=False)
    cell_phase: np.ndarray = field(repr=False)
    cell_counts: np.ndarray = field(repr=False)
    cell_lengths: np.ndarray = field(repr=False)

    def pair_matrix(self, table: np.ndarray) -> np.ndarray:
        """Expand a per-cell ``table`` into the dense ``N x N`` pair matrix.

        ``out[s, d] = table[cell(s, d)]``, with ``-1`` on the diagonal
        (self-pairs are not network traffic).  One ``take`` per
        dimension turns that dimension's ring-phase axis of the grid
        into the ring's (source, destination) coordinate axes; one
        transpose then orders the axes as all source coordinates, then
        all destination coordinates -- the node numbering.
        """
        grid = np.asarray(table).reshape(self.ring_phases[::-1])
        for d, phi in enumerate(self.ring_tables):
            grid = np.take(grid, phi, axis=-(2 * d + 1))
        ndim = len(self.ring_tables)
        axes = [*range(0, 2 * ndim, 2), *range(1, 2 * ndim, 2)]
        n = self.topology.num_nodes
        out = grid.transpose(axes).reshape(n, n)
        np.fill_diagonal(out, -1)
        return out

    @property
    def phase_matrix(self) -> np.ndarray:
        """``phase_matrix[s, d]``: the phase of ``s -> d`` (``-1`` on the
        diagonal), expanded afresh on every access."""
        return self.pair_matrix(self.cell_phase)


def _grid_product(factors: list[np.ndarray]) -> np.ndarray:
    """Outer product of per-ring vectors, flattened in cell order."""
    out = np.ones(1, dtype=np.int64)
    for vector in factors:
        out = np.multiply.outer(vector, out).ravel()
    return out


def product_decomposition(topology: KAryNCube) -> ProductDecomposition:
    """Build the product decomposition of all-to-all on ``topology``.

    Only the BALANCED tie-break is supported: the ring tables encode
    exactly that policy's half-ring choice, and a mismatched policy
    would silently break the segment-disjointness the proof needs
    (``ValueError`` instead).
    """
    if not isinstance(topology, KAryNCube):
        raise ValueError(
            f"product decompositions need a k-ary n-cube, got {topology!r}"
        )
    if topology.tie_break is not TieBreak.BALANCED:
        raise ValueError(
            "product decompositions require the BALANCED tie-break "
            f"(topology uses {topology.tie_break.value})"
        )
    rings = [contention_free_ring_schedule(k) for k in topology.dims]
    tables = tuple(np.asarray(r.phi, dtype=np.intp) for r in rings)
    # Per ring phase: its pairs, its self-pairs, and the hops its pairs
    # route (the shorter way round; a half ring is k/2 either way).
    pairs, selfs, hops = [], [], []
    for k, ring, phi in zip(topology.dims, rings, tables):
        offset = (np.arange(k)[None, :] - np.arange(k)[:, None]) % k
        ring_hops = np.minimum(offset, k - offset)
        pairs.append(np.bincount(phi.ravel(), minlength=ring.num_phases))
        selfs.append(np.bincount(phi.diagonal(), minlength=ring.num_phases))
        hops.append(np.bincount(
            phi.ravel(), weights=ring_hops.ravel(), minlength=ring.num_phases,
        ).astype(np.int64))
    # A cell's pairs pick one ring pair per dimension, so its counts are
    # outer products; a self-pair is a self-pair in every dimension.
    counts = _grid_product(pairs) - _grid_product(selfs)
    lengths = 2 * counts
    for d in range(len(rings)):
        lengths += _grid_product(pairs[:d] + [hops[d]] + pairs[d + 1:])
    # Compact to the cells used by non-self pairs: a tail combination
    # can be populated by self-pairs alone, and those carry no traffic.
    used = counts > 0
    num_phases = int(used.sum())
    cell_phase = np.full(counts.size, -1, dtype=np.int32)
    cell_phase[used] = np.arange(num_phases, dtype=np.int32)
    kind = (
        "latin-product"
        if all(r.kind == "latin" for r in rings)
        else "greedy-product"
    )
    return ProductDecomposition(
        topology=topology,
        num_phases=num_phases,
        phase_counts=counts[used],
        ring_phases=tuple(r.num_phases for r in rings),
        kind=kind,
        ring_tables=tables,
        cell_phase=cell_phase,
        cell_counts=counts,
        cell_lengths=lengths,
    )
