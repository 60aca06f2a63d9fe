"""The combined scheduling algorithm (paper section 3.4, Tables 1-3).

Compiled communication runs off-line, so the compiler can afford to run
*both* the coloring algorithm (best on sparse patterns) and the
ordered-AAPC algorithm (best on dense patterns) and keep whichever
produced the smaller multiplexing degree.  This is the scheduler the
paper uses in the compiled-vs-dynamic simulation of section 4.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.core.aapc_ordered import ordered_aapc_schedule
from repro.core.bounds import max_link_load_bound
from repro.core.coloring import coloring_schedule
from repro.core.configuration import ConfigurationSet
from repro.core.paths import Connection
from repro.topology.base import Topology


#: Connection count above which the coloring pass is skipped.  The
#: conflict matrix costs ~n^2/8 bytes packed plus n^2 bytes unpacked
#: for the round walk (~16 GB at a 128k-connection 19x19 all-to-all),
#: and on patterns that dense the ordered-AAPC bound wins anyway -- so
#: past the ceiling "combined" degenerates to ordered-AAPC by design
#: rather than by OOM.
COLORING_CONNECTION_CEILING = 120_000


def combined_schedule(
    connections: Sequence[Connection],
    topology: Topology | None = None,
    phase_of: Mapping[tuple[int, int], int] | None = None,
    *,
    coloring_ceiling: int | None = COLORING_CONNECTION_CEILING,
) -> ConfigurationSet:
    """Best of :func:`coloring_schedule` and :func:`ordered_aapc_schedule`.

    Ties go to the coloring result (slightly cheaper to realise: its
    configurations tend to be front-loaded, but the choice does not
    affect the degree, which is all the evaluation measures).

    When coloring's degree already equals the maximum link load L
    (:func:`~repro.core.bounds.max_link_load_bound`), ordered AAPC is
    not run: no conflict-free schedule has degree below L, so AAPC
    could at best tie, and ties keep coloring.  The result is the one
    running both passes would return.

    Above ``coloring_ceiling`` connections (``None`` disables the
    guard) only the ordered-AAPC pass runs -- see
    :data:`COLORING_CONNECTION_CEILING`.

    Raises ``ValueError`` before scheduling when neither ``topology``
    nor ``phase_of`` is given (ordered AAPC needs one of them).
    """
    if topology is None and phase_of is None:
        raise ValueError("combined_schedule needs a topology or a phase map")
    if coloring_ceiling is not None and len(connections) > coloring_ceiling:
        by_aapc = ordered_aapc_schedule(connections, topology, phase_of)
        return ConfigurationSet(list(by_aapc), scheduler=f"combined({by_aapc.scheduler})")
    by_color = coloring_schedule(connections)
    if by_color.degree <= max_link_load_bound(connections):
        return ConfigurationSet(list(by_color), scheduler=f"combined({by_color.scheduler})")
    by_aapc = ordered_aapc_schedule(connections, topology, phase_of)
    winner = by_aapc if by_aapc.degree < by_color.degree else by_color
    return ConfigurationSet(list(winner), scheduler=f"combined({winner.scheduler})")
