"""Routed connections.

A :class:`Connection` binds a request to its light path on a concrete
topology.  Because all-optical circuit switching holds the *entire*
path for a time slot, the path's link set is the only thing the
schedulers need: two connections conflict iff the sets intersect.

Routes are computed once by :func:`route_requests`; every scheduler then
works on the same immutable list, which keeps algorithm comparisons
apples-to-apples and makes the routing policy an explicit experimental
knob of the topology rather than of the scheduler.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.requests import Request, RequestSet
from repro.topology.base import Topology


class Connection:
    """A routed connection request.

    Attributes
    ----------
    index:
        Stable position of this connection in the routed set; used as
        the node id in conflict graphs and as the key of slot maps.
    request:
        The originating :class:`~repro.core.requests.Request`.
    links:
        The light path as an ordered tuple of link ids (injection fiber
        first, ejection fiber last).
    link_set:
        ``frozenset(links)``; the conflict footprint.
    """

    __slots__ = ("index", "request", "links", "_link_set")

    def __init__(self, index: int, request: Request, links: tuple[int, ...]) -> None:
        self.index = index
        self.request = request
        self.links = links
        self._link_set = None

    @property
    def link_set(self) -> frozenset[int]:
        # Built on first use: the bitmask kernel never needs the
        # frozenset, so eager construction would tax every routed
        # connection for the few hash-set callers' benefit.
        ls = self._link_set
        if ls is None:
            ls = self._link_set = frozenset(self.links)
        return ls

    @property
    def num_links(self) -> int:
        """Path length in links -- the paper's "number of links in the
        connection" (coloring priority numerator, AAPC phase rank
        summand)."""
        return len(self.links)

    @property
    def pair(self) -> tuple[int, int]:
        return self.request.pair

    def conflicts_with(self, other: "Connection") -> bool:
        """True iff the two connections cannot share a time slot."""
        return not self.link_set.isdisjoint(other.link_set)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Connection #{self.index} {self.request} len={self.num_links}>"


def route_requests(
    topology: Topology,
    requests: RequestSet | Sequence[Request],
) -> list[Connection]:
    """Route every request on ``topology``.

    Returns connections in request order with ``index`` equal to the
    request's position.  Paths come from one
    :meth:`~repro.topology.base.Topology.route_many` call, so a batch
    of route-cache misses is computed in one vectorized pass where the
    topology has one.  Raises
    :class:`~repro.topology.base.RoutingError` for invalid endpoints.
    """
    paths = topology.route_many([r.pair for r in requests])
    return [Connection(i, r, p) for i, (r, p) in enumerate(zip(requests, paths))]
