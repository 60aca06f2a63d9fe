"""Random communication patterns (Table 1 workload).

The paper: "A random pattern consists of a certain number of random
connection requests.  A connection request is obtained by randomly
generating the source and the destination.  Uniform probability
distribution is used."

Pairs are sampled **without replacement** (all pairs distinct,
``src != dst``).  Two observations pin this down: Table 1 goes up to
4000 connections while 64 PEs admit only 4032 distinct pairs, and the
ordered-AAPC column saturates at the 64-phase AAPC bound for dense
rows -- impossible if duplicate pairs occurred, since a duplicate needs
a second time slot outside its AAPC phase.
"""

from __future__ import annotations

import numpy as np

from repro.core.requests import RequestSet


def random_pattern(
    num_nodes: int,
    num_connections: int,
    *,
    seed: int | np.random.Generator = 0,
    size: int = 1,
) -> RequestSet:
    """``num_connections`` distinct uniform pairs on ``num_nodes`` PEs.

    Parameters
    ----------
    num_nodes:
        Number of PEs (64 for the paper's 8x8 torus).
    num_connections:
        Pattern density; at most ``num_nodes * (num_nodes - 1)``.
    seed:
        Seed or generator; patterns are deterministic given it.
    size:
        Message size attached to every request (irrelevant to the
        schedulers; the simulators use it).
    """
    total = num_nodes * (num_nodes - 1)
    if not 0 <= num_connections <= total:
        raise ValueError(
            f"cannot draw {num_connections} distinct pairs from {total}"
        )
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    # Enumerate the src != dst pairs as 0..total-1 and sample indices
    # without replacement (vectorised; total is only 4032 on the paper's
    # machine so this is cheap even for dense draws).
    picks = rng.choice(total, size=num_connections, replace=False)
    src = picks // (num_nodes - 1)
    off = picks % (num_nodes - 1)
    dst = np.where(off >= src, off + 1, off)  # skip the diagonal
    pairs = [(int(s), int(d)) for s, d in zip(src, dst)]
    return RequestSet.from_pairs(pairs, size=size, name=f"random-{num_connections}")
