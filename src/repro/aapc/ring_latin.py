"""Latin ring schedules: the building block of optimal torus AAPC.

Definition
----------
For a ring of ``n`` nodes (balanced shortest-path routing), a **Latin
ring schedule** is a map ``phi[u][v] -> phase`` over *all* ``n^2`` pairs
(including the self-pairs ``(u, u)``, which occupy no links) such that

1. each row ``phi[u][.]`` is a permutation of ``0..n-1`` (every source
   is busy exactly once per phase),
2. each column ``phi[.][v]`` is a permutation (every destination
   receives exactly once per phase),
3. within each phase the routed ring segments are pairwise
   link-disjoint.

Product theorem
---------------
If ``phi_x`` and ``phi_y`` are Latin ring schedules for radices ``W``
and ``H``, then

    ``phase(s, d) = phi_x[s_x][d_x] + W * phi_y[s_y][d_y]``

is a valid ``W*H``-phase AAPC decomposition of the ``W x H`` torus under
dimension-order routing.  Proof sketch (each case uses one Latin/
disjointness property):

* *injection*: two connections from the same source in one phase force
  ``d_x`` equal (row bijection of ``phi_x``) and ``d_y`` equal (row
  bijection of ``phi_y``) -- same connection.
* *ejection*: symmetric via the column bijections.
* *x-segment overlap*: requires the same source row and two x-pairs in
  the same ``phi_x`` phase; distinct pairs are link-disjoint by (3),
  identical pairs force the same source (and then the same connection).
* *y-segment overlap*: requires the same intermediate column ``d_x``;
  distinct y-pairs in a ``phi_y`` phase are disjoint by (3), identical
  y-pairs force ``s_x = s_x'`` via the column bijection of ``phi_x``.

The argument extends dimension-by-dimension to any mixed-radix torus
(segments in dimension ``i`` share a line only if all lower dimensions
agree on destination coordinates and all higher ones on source
coordinates).

For ``n = 8`` the +x fibers of a row carry exactly ``8`` segment-hops
per phase -- every fiber is lit in every phase -- so the 64-phase
product schedule on the 8x8 torus is *perfect* and meets the paper's
``N^3/8`` optimum.  Feasibility requires the all-pairs ring link load
to be at most ``n`` (true for ``n <= 8``, and for odd ``n <= 9``; for
larger rings no Latin schedule exists and the phase builder falls back
to heuristic packing).

Schedules for common radices are precomputed (a randomized DFS found
them; they are validated by the test suite), and :func:`solve_ring_latin`
can search for new radices.
"""

from __future__ import annotations

import functools
import random

__all__ = [
    "ring_route",
    "ring_link_load",
    "latin_feasible",
    "solve_ring_latin",
    "ring_latin_schedule",
    "validate_ring_latin",
]


def ring_route(n: int, u: int, v: int) -> tuple[tuple[str, int], ...]:
    """Directed fiber labels of the balanced shortest route ``u -> v``.

    Labels are ``('+', i)`` for the fiber ``i -> i+1`` and ``('-', j)``
    for the fiber ``j+1 -> j`` (all mod ``n``).  The half-ring tie goes
    positive iff ``u`` is even, matching
    :meth:`repro.topology.kary_ncube.KAryNCube.signed_offset` with the
    BALANCED policy.
    """
    d = (v - u) % n
    if d == 0:
        return ()
    if 2 * d < n or (2 * d == n and u % 2 == 0):
        return tuple(("+", (u + i) % n) for i in range(d))
    return tuple(("-", (u - i - 1) % n) for i in range(n - d))


@functools.cache
def ring_link_load(n: int) -> int:
    """Max fiber load of the all-pairs (non-self) routed ring pattern
    (memoized per radix)."""
    load: dict[tuple[str, int], int] = {}
    for u in range(n):
        for v in range(n):
            for link in ring_route(n, u, v):
                load[link] = load.get(link, 0) + 1
    return max(load.values(), default=0)


def latin_feasible(n: int) -> bool:
    """Necessary condition: all-pairs fiber load fits in ``n`` phases."""
    return ring_link_load(n) <= n


def solve_ring_latin(
    n: int,
    *,
    seed: int = 0,
    max_nodes: int = 300_000,
    restarts: int = 200,
) -> list[list[int]] | None:
    """Randomized DFS for a Latin ring schedule of radix ``n``.

    Returns ``phi`` as an ``n x n`` matrix or ``None`` if the node
    budget is exhausted on every restart (or ``n`` is infeasible).
    Deterministic given ``seed`` (restart ``r`` uses ``seed + r``).
    """
    if not latin_feasible(n):
        return None
    pairs = [(u, v) for u in range(n) for v in range(n)]
    routes = {p: ring_route(n, *p) for p in pairs}
    pairs.sort(key=lambda p: (-len(routes[p]), p))  # hardest first

    for restart in range(restarts):
        rng = random.Random(seed + restart)
        row_used = [[False] * n for _ in range(n)]
        col_used = [[False] * n for _ in range(n)]
        occ: list[set[tuple[str, int]]] = [set() for _ in range(n)]
        assign: dict[tuple[int, int], int] = {}
        nodes = 0

        def dfs(i: int) -> bool:
            nonlocal nodes
            if i == len(pairs):
                return True
            nodes += 1
            if nodes > max_nodes:
                return False
            u, v = pairs[i]
            r = routes[(u, v)]
            phases = list(range(n))
            rng.shuffle(phases)
            for p in phases:
                if row_used[u][p] or col_used[v][p]:
                    continue
                if any(link in occ[p] for link in r):
                    continue
                row_used[u][p] = col_used[v][p] = True
                occ[p].update(r)
                assign[(u, v)] = p
                if dfs(i + 1):
                    return True
                row_used[u][p] = col_used[v][p] = False
                occ[p].difference_update(r)
                del assign[(u, v)]
            return False

        if dfs(0):
            return [[assign[(u, v)] for v in range(n)] for u in range(n)]
    return None


#: Precomputed Latin ring schedules (balanced tie-break), radix -> phi.
#: Found by :func:`solve_ring_latin`; validated in tests/aapc/.
PRECOMPUTED: dict[int, list[list[int]]] = {
    2: [[1, 0], [0, 1]],
    3: [[1, 0, 2], [0, 2, 1], [2, 1, 0]],
    4: [[1, 0, 2, 3], [2, 3, 1, 0], [0, 2, 3, 1], [3, 1, 0, 2]],
    5: [[3, 4, 2, 0, 1], [4, 0, 3, 1, 2], [1, 2, 0, 4, 3],
        [0, 3, 1, 2, 4], [2, 1, 4, 3, 0]],
    6: [[1, 5, 0, 4, 2, 3], [3, 0, 5, 2, 4, 1], [2, 1, 4, 0, 3, 5],
        [5, 4, 3, 1, 0, 2], [4, 3, 2, 5, 1, 0], [0, 2, 1, 3, 5, 4]],
    7: [[3, 0, 2, 4, 1, 6, 5], [4, 5, 1, 0, 6, 2, 3], [6, 4, 5, 2, 3, 1, 0],
        [1, 3, 0, 6, 2, 5, 4], [0, 2, 4, 1, 5, 3, 6], [5, 1, 6, 3, 0, 4, 2],
        [2, 6, 3, 5, 4, 0, 1]],
    8: [[5, 0, 7, 1, 3, 6, 4, 2], [4, 5, 2, 6, 0, 7, 3, 1],
        [6, 1, 3, 7, 4, 5, 2, 0], [2, 3, 0, 4, 6, 1, 7, 5],
        [0, 7, 1, 5, 2, 3, 6, 4], [1, 4, 6, 2, 7, 0, 5, 3],
        [7, 2, 5, 3, 1, 4, 0, 6], [3, 6, 4, 0, 5, 2, 1, 7]],
}


def validate_ring_latin(n: int, phi: list[list[int]]) -> None:
    """Assert the three defining properties of a Latin ring schedule."""
    expect = set(range(n))
    for u in range(n):
        if set(phi[u]) != expect:
            raise AssertionError(f"row {u} is not a permutation: {phi[u]}")
    for v in range(n):
        col = {phi[u][v] for u in range(n)}
        if col != expect:
            raise AssertionError(f"column {v} is not a permutation")
    occ: list[set[tuple[str, int]]] = [set() for _ in range(n)]
    for u in range(n):
        for v in range(n):
            r = ring_route(n, u, v)
            p = phi[u][v]
            clash = occ[p].intersection(r)
            if clash:
                raise AssertionError(
                    f"phase {p}: pair ({u},{v}) reuses fibers {sorted(clash)}"
                )
            occ[p].update(r)


def ring_latin_schedule(n: int, *, seed: int = 0) -> list[list[int]] | None:
    """Latin ring schedule for radix ``n``: precomputed table or search.

    Returns ``None`` when no Latin schedule exists (fiber load exceeds
    ``n``) or the search budget runs out.
    """
    if n in PRECOMPUTED:
        return PRECOMPUTED[n]
    if n == 1:
        return [[0]]
    return solve_ring_latin(n, seed=seed)
