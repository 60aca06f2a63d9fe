"""Precomputed all-pairs route tables in flat numpy (CSR) form.

``Topology.route`` is a per-pair Python walk plus an LRU cache -- fine
when a sweep re-routes the paper's 4032 pairs, but at 16x16 and beyond
the big patterns route tens of thousands of pairs and the walk itself
becomes a visible slice of the compile profile.  A :class:`RouteTable`
computes every requested path in a handful of vectorized passes and
stores them as one flat ``links`` array with CSR offsets:

* ``path(i)`` / ``connections()`` reproduce the exact tuples
  ``Topology.route`` returns (the equivalence is pinned by
  ``tests/core/test_routetable.py`` across tie-break cases);
* the builder is :meth:`KAryNCube.route_arrays
  <repro.topology.kary_ncube.KAryNCube.route_arrays>` on k-ary
  n-cube substrates -- the same vectorized pass that computes
  ``route_requests``' cache misses -- with
  :meth:`~repro.topology.base.Topology.route_many` as the per-pair
  fallback for any other topology.

The table deliberately stores *routes*, not policy: it is built from
the topology's own ``signed_offset`` tables, so a tie-break change
flows through automatically.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.paths import Connection
from repro.core.requests import Request
from repro.topology.base import Topology
from repro.topology.kary_ncube import KAryNCube

__all__ = ["RouteTable"]


class RouteTable:
    """All requested light paths as one flat CSR link array.

    Attributes
    ----------
    src, dst:
        ``(P,)`` endpoint vectors, in the order the pairs were given.
    indptr:
        ``(P + 1,)`` offsets; path ``i`` is ``links[indptr[i]:indptr[i+1]]``.
    links:
        Concatenated link ids (injection fiber first, ejection last).
    """

    def __init__(
        self,
        topology: Topology,
        src: np.ndarray,
        dst: np.ndarray,
        indptr: np.ndarray,
        links: np.ndarray,
    ) -> None:
        self.topology = topology
        self.src = src
        self.dst = dst
        self.indptr = indptr
        self.links = links

    def __len__(self) -> int:
        return len(self.src)

    def path(self, i: int) -> tuple[int, ...]:
        """Path of pair ``i``, identical to ``topology.route(src, dst)``."""
        return tuple(self.links[self.indptr[i]:self.indptr[i + 1]].tolist())

    def total_links(self) -> int:
        """Total link occupancy (sum of path lengths) over the table."""
        return int(len(self.links))

    def connections(
        self, requests: Sequence[Request] | None = None
    ) -> list[Connection]:
        """The table as routed :class:`Connection` objects.

        ``requests`` must align with the table's pairs (it defaults to
        bare unit-size requests).  This is the bulk replacement for
        :func:`repro.core.paths.route_requests` on large patterns.
        """
        if requests is None:
            requests = [
                Request(int(s), int(d)) for s, d in zip(self.src, self.dst)
            ]
        elif len(requests) != len(self):
            raise ValueError(
                f"{len(requests)} requests for a table of {len(self)} pairs"
            )
        flat = self.links.tolist()
        bounds = self.indptr.tolist()
        return [
            Connection(i, r, tuple(flat[bounds[i]:bounds[i + 1]]))
            for i, r in enumerate(requests)
        ]

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------
    @classmethod
    def all_pairs(cls, topology: Topology) -> "RouteTable":
        """Table of every ``src != dst`` pair, lexicographic order."""
        n = topology.num_nodes
        grid = np.arange(n)
        src = np.repeat(grid, n)
        dst = np.tile(grid, n)
        keep = src != dst
        return cls.for_pairs(topology, src[keep], dst[keep])

    @classmethod
    def for_pairs(
        cls,
        topology: Topology,
        src: Sequence[int] | np.ndarray,
        dst: Sequence[int] | np.ndarray,
    ) -> "RouteTable":
        """Table of the given pairs (vectorized on k-ary n-cubes).

        Raises :class:`~repro.topology.base.RoutingError` (a
        ``ValueError``) for the first pair ``Topology.route`` would
        refuse: an out-of-range node id or a self-pair.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError("src and dst must be equal-length flat vectors")
        if isinstance(topology, KAryNCube):
            indptr, links = topology.route_arrays(src, dst)
        else:
            indptr, links = _generic_routes(topology, src, dst)
        return cls(topology, src, dst, indptr, links)


def _generic_routes(
    topology: Topology, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair fallback through ``Topology.route_many``."""
    paths = topology.route_many(list(zip(src.tolist(), dst.tolist())))
    lens = np.fromiter((len(p) for p in paths), dtype=np.int64, count=len(paths))
    indptr = np.zeros(len(paths) + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    links = np.fromiter(
        (l for p in paths for l in p), dtype=np.int32, count=int(indptr[-1])
    )
    return indptr, links
