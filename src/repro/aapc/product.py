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
ranks the slots on the grid and expands the slot table once.

**Grouped product.**  Under dimension-order routing every line,
injection fiber and ejection fiber a cell uses is pinned by a first
destination coordinate in ``D(p_0)`` (the destination columns of its
dimension-0 ring phase) or by a last source coordinate in
``S(p_{n-1})`` (the source rows of its last ring phase).  So for
``n >= 2`` cells with disjoint ``D(p_0)`` and disjoint ``S(p_{n-1})``
are link-disjoint, whatever their middle phases, and may share a slot
(:meth:`ProductDecomposition.grouped_cell_slots`): 62,039 slots at
64x64 instead of 276,676 (proof in docs/aapc_theory.md §4).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.aapc.ring_latin import PRECOMPUTED, ring_route
from repro.topology.kary_ncube import KAryNCube, TieBreak

__all__ = [
    "RingSchedule",
    "contention_free_ring_schedule",
    "validate_ring_schedule",
    "PhaseGroups",
    "disjoint_phase_groups",
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


@dataclass(frozen=True)
class PhaseGroups:
    """One radix's ring phases in groups with pairwise-disjoint columns.

    ``group[p]`` is the group of ring phase ``p`` and ``position[p]``
    its place in that group; ``sizes[g]`` is the size of group ``g``.
    """

    group: np.ndarray
    position: np.ndarray
    sizes: np.ndarray


@functools.cache
def disjoint_phase_groups(n: int, side: str) -> PhaseGroups:
    """Group radix ``n``'s ring phases by disjoint columns (cached,
    read-only).

    ``side="dst"`` groups phases whose destination coordinate sets are
    pairwise disjoint, ``side="src"`` phases whose source coordinate
    sets are (self-pairs included: a cell's pairs take one ring pair per
    dimension, so a self-pair in one ring still sources or sinks a
    non-self pair).  Greedy first-fit, largest set first, ties by phase
    id: each phase joins the first group its set does not meet, or
    opens a new one.
    """
    if side not in ("dst", "src"):
        raise ValueError(f"side must be 'dst' or 'src', got {side!r}")
    ring = contention_free_ring_schedule(n)
    sets = [0] * ring.num_phases
    for u, row in enumerate(ring.phi):
        for v, p in enumerate(row):
            sets[p] |= 1 << (v if side == "dst" else u)
    unions: list[int] = []
    members: list[list[int]] = []
    for p in sorted(range(ring.num_phases), key=lambda p: (-sets[p].bit_count(), p)):
        for g, union in enumerate(unions):
            if not union & sets[p]:
                unions[g] |= sets[p]
                members[g].append(p)
                break
        else:
            unions.append(sets[p])
            members.append([p])
    group = np.empty(ring.num_phases, dtype=np.intp)
    position = np.empty(ring.num_phases, dtype=np.intp)
    for g, phases in enumerate(members):
        group[phases] = g
        position[phases] = np.arange(len(phases))
    sizes = np.array([len(m) for m in members], dtype=np.intp)
    for array in (group, position, sizes):
        array.flags.writeable = False
    return PhaseGroups(group, position, sizes)


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
        (self-pairs are not network traffic).  One ``take`` per inner
        dimension turns that dimension's ring-phase axis of the grid
        into the ring's (source, destination) coordinate axes, at grid
        size; one transpose orders the axes as inner source coordinates,
        the outermost ring-phase axis, then inner destination
        coordinates.  Each outermost source coordinate's block of rows
        is then one ``take`` over that axis, written straight into the
        output: no full-size temporary.
        """
        table = np.asarray(table)
        *inner, outer = self.ring_tables
        grid = table.reshape(self.ring_phases[::-1])
        for d, phi in enumerate(inner):
            grid = np.take(grid, phi, axis=-(2 * d + 1))
        m = len(inner)
        axes = [*range(1, 2 * m, 2), 0, *range(2, 2 * m + 1, 2)]
        grid = np.ascontiguousarray(grid.transpose(axes))
        n = self.topology.num_nodes
        k = outer.shape[0]
        block = grid.shape[:m] + (k,) + grid.shape[m + 1:]
        out = np.empty((n, n), dtype=table.dtype)
        blocks = out.reshape((k,) + block)
        # The indices are in range; "clip" lets take write out unbuffered.
        for s, phases in enumerate(outer):
            grid.take(phases, axis=m, out=blocks[s], mode="clip")
        np.fill_diagonal(out, -1)
        return out

    def grouped_cell_slots(self) -> tuple[np.ndarray, int]:
        """Each cell's slot in the grouped product, and the slot count.

        Dimension 0's ring phases are grouped by disjoint destination
        columns and the last dimension's by disjoint source rows
        (:func:`disjoint_phase_groups`).  A block -- one dimension-0
        group ``G`` of size ``a``, one combination of middle phases, one
        last-dimension group ``H`` of size ``b`` -- takes ``max(a, b)``
        slots: slot ``t`` holds the cells ``(G[r], mid, H[c])`` with
        ``(c - r) mod max(a, b) == t``, so no two of its cells share a
        group member.  Slots holding no used cell are left for the
        caller to compact.  A ring (one dimension) gets no sharing:
        every cell is its own slot.
        """
        cells = self.cell_counts.size
        if len(self.ring_tables) < 2:
            return np.arange(cells), cells
        dims = self.topology.dims
        xs = disjoint_phase_groups(dims[0], "dst")
        ys = disjoint_phase_groups(dims[-1], "src")
        middle = cells // (self.ring_phases[0] * self.ring_phases[-1])
        # Blocks in (last group, middle cell, first group) order: the
        # grid's own axis order, so cells index them by broadcasting.
        width = np.maximum(ys.sizes[:, None], xs.sizes[None, :])
        blocks = width[:, None, :].repeat(middle, axis=1)
        ends = blocks.cumsum()
        start = (ends - blocks.ravel()).reshape(blocks.shape)
        offset = (ys.position[:, None] - xs.position[None, :]) % np.take(
            width[ys.group], xs.group, axis=1
        )
        slots = np.take(start[ys.group], xs.group, axis=2)
        slots += offset[:, None, :]
        return slots.ravel(), int(ends[-1])

    @property
    def phase_matrix(self) -> np.ndarray:
        """``phase_matrix[s, d]``: the phase of ``s -> d`` (``-1`` on the
        diagonal), expanded afresh on every access."""
        return self.pair_matrix(self.cell_phase)


@functools.cache
def _ring_arrays(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Radix ``k``'s phase table and, per ring phase, its pairs, its
    self-pairs and the hops its pairs route (the shorter way round; a
    half ring is k/2 either way).  Cached per radix, read-only."""
    ring = contention_free_ring_schedule(k)
    phi = np.asarray(ring.phi, dtype=np.intp)
    offset = (np.arange(k)[None, :] - np.arange(k)[:, None]) % k
    ring_hops = np.minimum(offset, k - offset)
    arrays = (
        phi,
        np.bincount(phi.ravel(), minlength=ring.num_phases),
        np.bincount(phi.diagonal(), minlength=ring.num_phases),
        np.bincount(
            phi.ravel(), weights=ring_hops.ravel(), minlength=ring.num_phases,
        ).astype(np.int64),
    )
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _grid_product(factors: tuple[np.ndarray, ...]) -> np.ndarray:
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
    tables, pairs, selfs, hops = zip(*(_ring_arrays(k) for k in topology.dims))
    # A cell's pairs pick one ring pair per dimension, so its counts are
    # outer products; a self-pair is a self-pair in every dimension.
    counts = _grid_product(pairs) - _grid_product(selfs)
    lengths = 2 * counts
    for d in range(len(rings)):
        lengths += _grid_product(pairs[:d] + (hops[d],) + pairs[d + 1:])
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
