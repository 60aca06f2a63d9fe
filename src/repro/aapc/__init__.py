"""Phased all-to-all personalized communication (AAPC) decompositions.

The ordered-AAPC scheduler (paper Fig. 5) presupposes a partition of the
complete communication pattern -- every PE sends to every other PE --
into contention-free phases.  The paper imports this substrate from
Hinrichs et al. [8], who give an optimal construction for tori reaching
``N^3 / 8`` phases on an ``N x N`` torus (64 phases for 8 x 8); that
implementation is not available, so this package *builds* phased AAPC
decompositions for arbitrary topologies:

* a structured request ordering that places translation-equivalent,
  provably non-conflicting connections adjacently (offset-major,
  sublattice-spaced sources on tori),
* first-fit packing over that ordering, followed by
* an all-or-nothing local-search repacking pass
  (:func:`repro.core.packing.repack`).

:mod:`repro.aapc.bounds` derives the matching lower bounds (injection
bound ``N - 1``; link-load bound, which evaluates to ``N^3/8`` on even
tori with balanced half-ring routing) so tests can certify
how close the construction lands.  On the paper's 8x8 torus the builder
reaches the optimal 64 phases (asserted in the test suite).
"""

from repro.aapc.phases import AAPCDecomposition, aapc_decomposition, aapc_phase_map
from repro.aapc.bounds import aapc_injection_bound, aapc_link_bound, torus_phase_optimum

__all__ = [
    "AAPCDecomposition",
    "aapc_decomposition",
    "aapc_phase_map",
    "aapc_injection_bound",
    "aapc_link_bound",
    "torus_phase_optimum",
]
