"""Generalized k-ary n-cube (n-dimensional torus) with dimension-order routing.

The paper's machine model is the 2-D torus of Fig. 1, but nothing in the
scheduling framework is specific to two dimensions, so the substrate is
implemented once for arbitrary mixed-radix tori and specialised by
:class:`repro.topology.torus.Torus2D` and :class:`repro.topology.ring.Ring`.

Coordinates and node ids
------------------------
``dims = (k_0, k_1, ..., k_{n-1})`` and node ids are mixed-radix with
dimension 0 varying fastest::

    id = c_0 + k_0 * (c_1 + k_1 * (c_2 + ...))

For a ``W x H`` torus this is the paper's numbering: ``id = x + W * y``.

Routing
-------
Deterministic dimension-order routing: the path corrects dimension 0
first, then dimension 1, etc., always along the shorter way around each
ring.  When the offset in a dimension is exactly ``k/2`` (even ``k``)
both directions are shortest; the ``tie_break`` policy decides:

``TieBreak.POSITIVE``
    always go in the positive direction (simplest, fully deterministic);

``TieBreak.BALANCED``
    go positive iff the source's coordinate in that dimension is even.
    This splits the half-ring traffic of dense patterns evenly over the
    two directions, which matters for approaching the optimal
    all-to-all phase count (see :mod:`repro.aapc.bounds`).

Transit link ids
----------------
Each node drives ``2n`` transit fibers (one per direction per
dimension).  Transit offset of the fiber leaving node ``v`` in dimension
``d``, direction ``s`` (0 = positive, 1 = negative) is
``v * 2n + 2d + s``.  Dimensions with ``k == 1`` have no links and no
traffic; dimensions with ``k == 2`` keep both fibers (the +1 and -1
neighbours coincide, giving two parallel fibers, which is how a physical
2-ary dimension is usually cabled).
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Sequence

import numpy as np

from repro.topology.base import Topology
from repro.topology.links import Link, LinkKind

_DIM_NAMES = "xyzw"

#: Distinct route-cache misses at which ``route_many`` on a k-ary
#: n-cube computes them with one :meth:`KAryNCube.route_arrays` call
#: instead of one walk each.  The vectorized call costs about as much as 6-8
#: scalar walks on an 8x8 torus and 4-6 on 16x16 (the measured
#: crossover, see docs/performance.md), so a few new pairs stay on the
#: walk.
BULK_ROUTE_MIN_MISSES = 8


class TieBreak(enum.Enum):
    """Direction policy for half-ring (distance exactly k/2) offsets."""

    POSITIVE = "positive"
    BALANCED = "balanced"


def _dim_name(dim: int) -> str:
    return _DIM_NAMES[dim] if dim < len(_DIM_NAMES) else f"d{dim}"


class KAryNCube(Topology):
    """Mixed-radix n-dimensional torus with dimension-order routing."""

    def __init__(
        self,
        dims: Sequence[int],
        tie_break: TieBreak = TieBreak.BALANCED,
    ) -> None:
        dims = tuple(int(k) for k in dims)
        if not dims:
            raise ValueError("at least one dimension is required")
        if any(k < 1 for k in dims):
            raise ValueError(f"all radices must be >= 1, got {dims}")
        self.dims = dims
        self.tie_break = tie_break
        n = 1
        for k in dims:
            n *= k
        self.num_nodes = n
        self._ndims = len(dims)
        self.num_transit_links = n * 2 * self._ndims
        self._offset_tables: tuple[np.ndarray, ...] | None = None

    # ------------------------------------------------------------------
    # coordinates
    # ------------------------------------------------------------------
    def coords(self, node: int) -> tuple[int, ...]:
        """Mixed-radix coordinates of ``node`` (dimension 0 first)."""
        self._check_node(node)
        out = []
        for k in self.dims:
            out.append(node % k)
            node //= k
        return tuple(out)

    def node_at(self, coords: Sequence[int]) -> int:
        """Node id at ``coords`` (coordinates are reduced mod the radix)."""
        if len(coords) != self._ndims:
            raise ValueError(f"expected {self._ndims} coordinates, got {len(coords)}")
        node = 0
        for k, c in zip(reversed(self.dims), reversed(tuple(coords))):
            node = node * k + (c % k)
        return node

    # ------------------------------------------------------------------
    # links
    # ------------------------------------------------------------------
    def transit_link(self, node: int, dim: int, positive: bool) -> int:
        """Link id of the fiber leaving ``node`` along ``dim``."""
        self._check_node(node)
        if not 0 <= dim < self._ndims:
            raise ValueError(f"dimension {dim} out of range")
        off = node * 2 * self._ndims + 2 * dim + (0 if positive else 1)
        return self.transit_link_base + off

    def transit_link_info(self, offset: int) -> Link:
        node, rest = divmod(offset, 2 * self._ndims)
        dim, sign = divmod(rest, 2)
        positive = sign == 0
        k = self.dims[dim]
        c = self.coords(node)
        nbr = list(c)
        nbr[dim] = (c[dim] + (1 if positive else -1)) % k
        return Link(
            LinkKind.TRANSIT,
            node,
            self.node_at(nbr),
            direction=("+" if positive else "-") + _dim_name(dim),
        )

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def signed_offset(self, src_c: int, dst_c: int, dim: int) -> int:
        """Shortest signed offset from ``src_c`` to ``dst_c`` along ``dim``.

        Positive means travel in the positive direction.  A half-ring
        offset is resolved by the tie-break policy.
        """
        k = self.dims[dim]
        d = (dst_c - src_c) % k
        if d == 0:
            return 0
        if 2 * d < k:
            return d
        if 2 * d > k:
            return d - k
        # exactly half way around
        if self.tie_break is TieBreak.POSITIVE or src_c % 2 == 0:
            return d
        return d - k

    def _transit_route(self, src: int, dst: int) -> tuple[int, ...]:
        cur = list(self.coords(src))
        dst_c = self.coords(dst)
        links: list[int] = []
        for dim, k in enumerate(self.dims):
            off = self.signed_offset(cur[dim], dst_c[dim], dim)
            step = 1 if off > 0 else -1
            for _ in range(abs(off)):
                links.append(self.transit_link(self.node_at(cur), dim, off > 0))
                cur[dim] = (cur[dim] + step) % k
        return tuple(links)

    def _route_misses(self, pairs: list[tuple[int, int]]) -> list[tuple[int, ...]]:
        if len(pairs) < BULK_ROUTE_MIN_MISSES:
            return super()._route_misses(pairs)
        try:
            ends = np.fromiter(itertools.chain.from_iterable(pairs), dtype=np.int64,
                               count=2 * len(pairs)).reshape(-1, 2)
        except OverflowError:  # an id past int64: the walk refuses it
            return super()._route_misses(pairs)
        indptr, links = self.route_arrays(ends[:, 0], ends[:, 1])
        flat = list(map(self._link_ints.__getitem__, links.tolist()))
        bounds = indptr.tolist()
        return [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])]

    def route_arrays(
        self, src: np.ndarray, dst: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Routes of many pairs at once, as CSR ``(indptr, links)``.

        Path ``i`` is ``links[indptr[i]:indptr[i + 1]]`` and equals
        ``route(src[i], dst[i])``.  Signed offsets come from per-dimension
        ``k x k`` tables of :meth:`signed_offset` (so the tie-break policy
        is inherited, not re-derived), built once per instance.  Every hop
        of every path is then computed in one pass: hop ``j`` of dimension
        ``d`` leaves the node whose lower dimensions are already corrected
        and whose higher dimensions still hold the source coordinates.
        The first pair :meth:`route` would refuse raises the same
        :class:`~repro.topology.base.RoutingError`.
        """
        n = self.num_nodes
        bad = (src < 0) | (src >= n) | (dst < 0) | (dst >= n) | (src == dst)
        if bad.any():
            i = int(bad.argmax())
            self._check_pair(int(src[i]), int(dst[i]))
        if self._offset_tables is None:
            self._offset_tables = self._build_offset_tables()
        offsets, radix, strides, dims = self._offset_tables
        ndims = len(radix)
        p = len(src)
        coords = (src[:, None] // strides) % radix
        off = offsets[dims, coords, (dst[:, None] // strides) % radix]
        # hop counts per (pair, dimension), flattened in path order
        hops = np.abs(off).ravel()
        ends = np.cumsum(hops)
        indptr = np.zeros(p + 1, dtype=np.int64)
        indptr[1:] = ends[ndims - 1::ndims] + 2 * np.arange(1, p + 1)
        links = np.empty(int(indptr[-1]), dtype=np.int32)
        links[indptr[:-1]] = src  # injection fiber of the source
        links[indptr[1:] - 1] = n + dst  # ejection fiber
        total = int(ends[-1]) if p else 0
        if total:
            seg = np.repeat(np.arange(p * ndims), hops)
            h = np.arange(total)
            pair, d = np.divmod(seg, ndims)
            sgn = np.sign(off.ravel())[seg]
            k, stride = radix[d], strides[d]
            cur = (coords.ravel()[seg] + (h - (ends - hops)[seg]) * sgn) % k
            node = dst[pair] % stride + cur * stride + src[pair] // (stride * k) * (stride * k)
            # hop h of the flat hop list sits after 2 * pair fibers of
            # earlier paths and its own path's injection fiber
            links[h + 2 * pair + 1] = (
                self.transit_link_base + node * 2 * ndims + 2 * d + (sgn < 0)
            )
        return indptr, links

    def _build_offset_tables(self) -> tuple[np.ndarray, ...]:
        """``(signed offsets [d, a, b], radices, strides, dimension ids)``."""
        kmax = max(self.dims)
        offsets = np.zeros((self._ndims, kmax, kmax), dtype=np.int64)
        for d, k in enumerate(self.dims):
            offsets[d, :k, :k] = [
                [self.signed_offset(a, b, d) for b in range(k)] for a in range(k)
            ]
        radix = np.array(self.dims, dtype=np.int64)
        strides = np.cumprod(np.concatenate(([1], radix[:-1])))
        return offsets, radix, strides, np.arange(self._ndims)

    def distance(self, src: int, dst: int) -> int:
        """Switch-to-switch hop distance under the routing policy."""
        if src == dst:
            return 0
        sc, dc = self.coords(src), self.coords(dst)
        return sum(abs(self.signed_offset(s, d, dim)) for dim, (s, d) in enumerate(zip(sc, dc)))

    # ------------------------------------------------------------------
    @property
    def signature(self) -> str:
        dims = "x".join(str(k) for k in self.dims)
        return f"kary-ncube:{dims}:tie={self.tie_break.value}"


def translation_group(topology: Topology) -> list[tuple[int, ...]]:
    """Admissible translation vectors of ``topology``.

    Returns coordinate offsets (one per dimension) for
    :class:`KAryNCube` substrates, restricted to *routing* symmetries:
    under ``TieBreak.BALANCED`` a half-ring tie consults the source
    coordinate's parity, so only translations that are even in every
    even-radix dimension map routes onto routes (see
    :mod:`repro.service.canonical`).  Any other topology yields just the
    identity.  The list order is deterministic (row-major product, the
    identity first), which fixes the canonical tie-break.
    """
    if not isinstance(topology, KAryNCube):
        return [()]
    ranges = []
    for k in topology.dims:
        if topology.tie_break is TieBreak.BALANCED and k % 2 == 0:
            ranges.append(range(0, k, 2))
        else:
            ranges.append(range(k))
    return [tuple(t) for t in itertools.product(*ranges)]
