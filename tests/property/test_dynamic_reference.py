"""The dynamic simulator reproduces its reference engine exactly.

``tests/dynamic_reference.py`` keeps the straightforward engine: a
``(time, seq)`` event heap, per-slot channel lists and one scalar
backoff draw per retry.  Production runs on a slot calendar with
bitmask channel state and block draws.  On every scenario -- either
protocol, staggered arrivals, runtime fiber cuts and repairs,
non-default backoff and hold timeouts, dynamic WDM -- both must produce
the same messages, counters, fault log and trace events, and
production must leave no channel owned or locked.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.requests import RequestSet
from repro.patterns.random_patterns import random_pattern
from repro.simulator.dynamic.control import _DynamicSimulator
from repro.simulator.dynamic.trace import ProtocolTrace
from repro.simulator.faults import random_fault_schedule
from repro.simulator.params import SimParams
from repro.simulator.wdm import _WDMDynamicSimulator
from repro.topology.ring import Ring
from repro.topology.torus import Torus2D
from tests.dynamic_reference import ReferenceSimulator, ReferenceWDMSimulator

#: A torus with path diversity, and a ring that two cuts partition.
TOPOLOGIES = (Torus2D(4), Ring(8))


@st.composite
def request_sets(draw, topology):
    """Uniform patterns from sparse to dense (a quarter of all pairs)."""
    n = topology.num_nodes
    count = draw(st.integers(1, n * (n - 1) // 4))
    seed = draw(st.integers(0, 2**16))
    pattern = random_pattern(n, count, seed=seed)
    sizes = np.random.default_rng(seed).integers(1, 25, size=count)
    return RequestSet.from_sized_pairs(
        [(r.src, r.dst, int(z)) for r, z in zip(pattern, sizes)]
    )


def sim_params():
    return st.builds(
        SimParams,
        retry_backoff=st.integers(1, 40),
        hold_timeout=st.integers(1, 80),
        fault_retry_limit=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )


@st.composite
def scenarios(draw):
    topology = draw(st.sampled_from(TOPOLOGIES))
    requests = draw(request_sets(topology))
    arrivals = draw(st.one_of(
        st.none(),
        st.lists(st.integers(0, 40), min_size=len(requests),
                 max_size=len(requests)),
    ))
    faults = None
    if draw(st.booleans()):
        faults = random_fault_schedule(
            topology,
            draw(st.integers(1, 4)),
            draw(st.integers(1, 80)),
            repair_after=draw(st.one_of(st.none(), st.integers(1, 60))),
            seed=draw(st.integers(0, 2**16)),
        )
    return {
        "topology": topology,
        "requests": requests,
        "degree": draw(st.integers(1, 5)),
        "params": draw(sim_params()),
        "arrivals": arrivals,
        "protocol": draw(st.sampled_from(["dropping", "holding"])),
        "faults": faults,
    }


def _outcome(sim) -> tuple:
    return (
        sim.messages, sim.completion, sim.total_retries, sim.fault_retries,
        sim.delivered_count, sim.lost_count, sim.fault_log,
    )


@given(scenarios())
@settings(max_examples=120, deadline=None)
def test_identical_to_reference(scenario):
    ours = _DynamicSimulator(**scenario, trace=ProtocolTrace())
    ref = ReferenceSimulator(**scenario, trace=ProtocolTrace())
    ours.run()
    ref.run()
    assert _outcome(ours) == _outcome(ref)
    assert ours.trace.events == ref.trace.events
    assert ours.net.orphans() == []


@given(request_sets(TOPOLOGIES[0]), st.integers(1, 5), sim_params())
@settings(max_examples=20, deadline=None)
def test_wdm_identical_to_reference(requests, wavelengths, params):
    torus = TOPOLOGIES[0]
    ours = _WDMDynamicSimulator(torus, requests, wavelengths, params)
    ref = ReferenceWDMSimulator(torus, requests, wavelengths, params)
    ours.run()
    ref.run()
    assert _outcome(ours) == _outcome(ref)
    assert ours.net.orphans() == []
