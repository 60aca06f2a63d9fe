"""Abstract topology interface.

A :class:`Topology` is the substrate every other layer builds on.  It
must provide:

* a dense node id space ``0 .. num_nodes - 1``;
* a dense **link id** space (integers), partitioned into one injection
  link and one ejection link per node plus the topology's transit links;
* a deterministic ``route(src, dst)`` returning the full light path as a
  tuple of link ids, *including* the injection and ejection fibers.

Routing must be deterministic because the off-line schedulers reason
about fixed paths: the compiler picks time slots, not routes.  (Route
choice policies, e.g. the wrap-around tie break on a torus, are
constructor parameters so experiments can treat them as ablations.)

Link-id layout
--------------
All concrete topologies share the layout::

    0              .. num_nodes-1          injection link of node v  (id v)
    num_nodes      .. 2*num_nodes-1        ejection  link of node v  (id num_nodes + v)
    2*num_nodes    ..                      transit links (topology specific)

Keeping the layout uniform lets the simulator and the bounds code index
per-link state with flat numpy arrays.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from collections.abc import Iterator, Sequence

from repro.topology.links import Link, LinkKind

# Route-cache hit/miss counters live in repro.core.perf, but repro.core's
# package init imports this module, so bind lazily at first route() call
# (perf.reset() zeroes the instance in place -- the binding stays valid).
_COUNTERS = None


def _counters():
    global _COUNTERS
    if _COUNTERS is None:
        from repro.core.perf import COUNTERS

        _COUNTERS = COUNTERS
    return _COUNTERS


class RoutingError(ValueError):
    """Raised for invalid routing queries (bad node id, src == dst)."""


class Topology(abc.ABC):
    """Base class for all interconnect topologies.

    Subclasses must set :attr:`num_nodes` and :attr:`num_transit_links`
    before ``__init__`` returns and implement :meth:`_transit_route` and
    :meth:`transit_link_info`.
    """

    #: number of processing elements / switches.
    num_nodes: int
    #: number of directed switch-to-switch fibers.
    num_transit_links: int
    #: max (src, dst) entries the per-instance route cache retains.
    route_cache_size: int = 1 << 16

    # ------------------------------------------------------------------
    # link id helpers
    # ------------------------------------------------------------------
    def inject_link(self, node: int) -> int:
        """Link id of the PE -> switch fiber of ``node``."""
        self._check_node(node)
        return node

    def eject_link(self, node: int) -> int:
        """Link id of the switch -> PE fiber of ``node``."""
        self._check_node(node)
        return self.num_nodes + node

    @property
    def transit_link_base(self) -> int:
        """First link id used for transit links."""
        return 2 * self.num_nodes

    @property
    def num_links(self) -> int:
        """Total number of directed links (inject + eject + transit)."""
        return 2 * self.num_nodes + self.num_transit_links

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route(self, src: int, dst: int) -> tuple[int, ...]:
        """Full light path from ``src``'s PE to ``dst``'s PE.

        Returns the tuple ``(inject(src), t_1, ..., t_k, eject(dst))``
        where ``t_i`` are transit link ids.  ``k`` equals the routing
        distance between the two switches.

        Routes are deterministic, so results are memoised per instance
        in an LRU cache of :attr:`route_cache_size` pairs -- the table
        sweeps re-route the same (src, dst) pairs hundreds of times.
        Subclasses whose routes can change after construction (e.g.
        fault injection) must call :meth:`invalidate_route_cache`.

        Raises
        ------
        RoutingError
            If either endpoint is out of range or ``src == dst`` (a PE
            never talks to itself through the network).
        """
        cache = self._route_cache
        if cache is None:
            cache = self._route_cache = OrderedDict()
        key = (src, dst)
        path = cache.get(key)
        counters = _counters()
        if path is not None:
            counters.route_cache_hits += 1
            cache.move_to_end(key)
            return path
        counters.route_cache_misses += 1
        path = self._walk(src, dst)
        cache[key] = path
        if len(cache) > self.route_cache_size:
            cache.popitem(last=False)
        return path

    def route_many(self, pairs: Sequence[tuple[int, int]]) -> list[tuple[int, ...]]:
        """``[self.route(s, d) for s, d in pairs]``, misses computed together.

        One LRU lookup per pair; a hit returns the cached tuple and
        refreshes its recency.  The distinct uncached pairs go to
        :meth:`_route_misses` in one call (vectorized on k-ary n-cubes
        once there are enough of them), are cached, and count one
        ``route_cache_misses`` each; every other request counts one
        ``route_cache_hits``.  A pair repeated within the call is
        computed once.  The first request (in order) that :meth:`route`
        would refuse raises the same :class:`RoutingError`.
        """
        cache = self._route_cache
        if cache is None:
            cache = self._route_cache = OrderedDict()
        get, touch = cache.get, cache.move_to_end
        paths = []
        missed: dict[tuple[int, int], None] = {}
        for key in pairs:
            path = get(key)
            if path is None:
                missed[key] = None
            else:
                touch(key)
            paths.append(path)
        counters = _counters()
        if not missed:
            counters.route_cache_hits += len(paths)
            return paths
        computed = dict(zip(missed, self._route_misses(list(missed))))
        counters.route_cache_misses += len(computed)
        counters.route_cache_hits += len(paths) - len(computed)
        cache.update(computed)
        while len(cache) > self.route_cache_size:
            cache.popitem(last=False)
        return [
            computed[key] if path is None else path
            for key, path in zip(pairs, paths)
        ]

    def _route_misses(self, pairs: list[tuple[int, int]]) -> list[tuple[int, ...]]:
        """Uncached paths of distinct ``pairs``, validated in order."""
        return [self._walk(src, dst) for src, dst in pairs]

    def _walk(self, src: int, dst: int) -> tuple[int, ...]:
        """One path computed from scratch (no cache), made of the
        topology's shared link-id objects (:attr:`_link_ints`)."""
        self._check_pair(src, dst)
        ids = self._link_ints
        return (ids[src], *map(ids.__getitem__, self._transit_route(src, dst)),
                ids[self.num_nodes + dst])

    @property
    def _link_ints(self) -> list[int]:
        """One int object per link id, built once per instance.

        Cached routes are made of these, so a cached path costs its
        tuple of references rather than a fresh int object per link
        (ids past 256 are not interned by the interpreter).
        """
        ids = self.__dict__.get("_link_ints_store")
        if ids is None:
            ids = self.__dict__["_link_ints_store"] = list(range(self.num_links))
        return ids

    @property
    def _route_cache(self) -> OrderedDict | None:
        # Lazy per-instance storage: Topology subclasses predate the
        # cache and none call super().__init__.
        return self.__dict__.get("_route_cache_store")

    @_route_cache.setter
    def _route_cache(self, value: OrderedDict) -> None:
        self.__dict__["_route_cache_store"] = value

    def invalidate_route_cache(self) -> None:
        """Drop every memoised route (call after anything reroutes)."""
        self.__dict__.pop("_route_cache_store", None)

    def route_length(self, src: int, dst: int) -> int:
        """Number of links of ``route(src, dst)`` (inject + transit + eject).

        This is the "number of links in the connection" used as the
        numerator of the coloring heuristic's priority and the summand of
        the ordered-AAPC phase rank.
        """
        return len(self.route(src, dst))

    @abc.abstractmethod
    def _transit_route(self, src: int, dst: int) -> tuple[int, ...]:
        """Transit portion of the route; ``src != dst`` is guaranteed."""

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def link_info(self, link_id: int) -> Link:
        """Decode ``link_id`` into a :class:`~repro.topology.links.Link`."""
        if 0 <= link_id < self.num_nodes:
            return Link(LinkKind.INJECT, link_id, link_id)
        if self.num_nodes <= link_id < 2 * self.num_nodes:
            node = link_id - self.num_nodes
            return Link(LinkKind.EJECT, node, node)
        if 2 * self.num_nodes <= link_id < self.num_links:
            return self.transit_link_info(link_id - self.transit_link_base)
        raise ValueError(f"link id {link_id} out of range for {self!r}")

    @abc.abstractmethod
    def transit_link_info(self, offset: int) -> Link:
        """Decode transit link ``transit_link_base + offset``."""

    def iter_links(self) -> Iterator[int]:
        """All link ids, injection links first."""
        return iter(range(self.num_links))

    def iter_nodes(self) -> Iterator[int]:
        """All node ids."""
        return iter(range(self.num_nodes))

    @property
    @abc.abstractmethod
    def signature(self) -> str:
        """Stable string identifying topology *and* routing policy.

        Used as a cache key (e.g. by the AAPC phase builder), so any
        parameter that changes routes must appear here.
        """

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise RoutingError(f"node {node} out of range [0, {self.num_nodes})")

    def _check_pair(self, src: int, dst: int) -> None:
        self._check_node(src)
        self._check_node(dst)
        if src == dst:
            raise RoutingError(f"src == dst == {src}: self-pairs are not routed")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.signature}>"
