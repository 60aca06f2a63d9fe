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

from repro.topology.base import Topology
from repro.topology.links import Link, LinkKind

_DIM_NAMES = "xyzw"


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
