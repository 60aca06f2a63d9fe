"""repro: compiled communication for all-optical TDM networks.

A from-scratch reproduction of

    Xin Yuan, Rami Melhem, Rajiv Gupta.
    "Compiled Communication for All-optical TDM Networks", SC 1996.

The library implements the whole system the paper describes:

* the **topology substrate** -- tori of electro-optical crossbar
  switches with dimension-order routing (:mod:`repro.topology`);
* the **off-line connection schedulers** -- greedy, conflict-graph
  coloring, ordered-AAPC and their combination, which compute the
  minimal TDM multiplexing degree for a static pattern
  (:mod:`repro.core`);
* the **phased AAPC decompositions** the ordered-AAPC scheduler needs,
  including a provably optimal 64-phase construction for the paper's
  8x8 torus (:mod:`repro.aapc`);
* the **evaluation workloads** -- random patterns, block-cyclic array
  redistributions, classic patterns, and the GS/TSCF/P3M application
  patterns (:mod:`repro.patterns`);
* the **cycle-level simulator** comparing compiled communication with
  a distributed path-reservation protocol (:mod:`repro.simulator`);
* the **compiler front end** -- pattern specs, per-phase scheduling,
  switch-register code generation (:mod:`repro.compiler`);
* **experiment drivers** for every table and figure
  (:mod:`repro.analysis`, ``python -m repro.cli``).

Quick start::

    from repro import Torus2D, route_requests, get_scheduler
    from repro.patterns import hypercube_pattern

    topo = Torus2D(8)
    connections = route_requests(topo, hypercube_pattern(64))
    schedule = get_scheduler("combined")(connections, topo)
    print(schedule.degree)  # TDM multiplexing degree for the pattern
"""

from repro.topology import (
    Topology,
    Torus2D,
    Ring,
    LinearArray,
    Mesh2D,
    KAryNCube,
    TieBreak,
)
from repro.core import (
    Request,
    RequestSet,
    Connection,
    route_requests,
    Configuration,
    ConfigurationSet,
    greedy_schedule,
    coloring_schedule,
    ordered_aapc_schedule,
    combined_schedule,
    get_scheduler,
    scheduler_names,
)
from repro.simulator import (
    SimParams,
    compiled_completion_time,
    simulate_dynamic,
)

__version__ = "1.0.0"

__all__ = [
    "Topology",
    "Torus2D",
    "Ring",
    "LinearArray",
    "Mesh2D",
    "KAryNCube",
    "TieBreak",
    "Request",
    "RequestSet",
    "Connection",
    "route_requests",
    "Configuration",
    "ConfigurationSet",
    "greedy_schedule",
    "coloring_schedule",
    "ordered_aapc_schedule",
    "combined_schedule",
    "get_scheduler",
    "scheduler_names",
    "SimParams",
    "compiled_completion_time",
    "simulate_dynamic",
    "__version__",
]
