"""The greedy connection scheduling algorithm (paper Fig. 2).

The algorithm repeatedly builds configurations: scan the remaining
requests in order, adding every request that does not conflict with the
configuration under construction; repeat until all requests are placed.
The multiplexing degree it finds depends on the request order -- Fig. 3
of the paper shows a 5-node linear-array instance where the natural
order costs 3 slots while the optimum is 2.  The coloring and
ordered-AAPC algorithms exist precisely to pick better orders.

Complexity: O(|R| * K) disjointness tests, answered O(path length)
word operations at a time by the slot-indexed bitmasks of
:mod:`repro.core.linkmask` (the paper states O(|R| * max|C_i| * K) for
the pairwise-test formulation).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.configuration import ConfigurationSet
from repro.core.packing import first_fit
from repro.core.paths import Connection


def greedy_schedule(
    connections: Sequence[Connection],
    order: Sequence[int] | None = None,
) -> ConfigurationSet:
    """Schedule ``connections`` with the paper's greedy algorithm.

    Parameters
    ----------
    connections:
        Routed request set (see :func:`repro.core.paths.route_requests`).
    order:
        Optional processing order (positions into ``connections``).
        The default is the natural request order, matching the paper's
        "arbitrary order" behaviour deterministically.

    Returns
    -------
    ConfigurationSet
        A valid schedule; ``result.degree`` is the multiplexing degree.
    """
    return first_fit(connections, order, scheduler="greedy")
