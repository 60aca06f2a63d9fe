"""Register images: table-driven codegen and detranslation properties.

:func:`repro.compiler.codegen.generate_registers` writes every switch
word with one scatter through the topology's port tables.  The oracle
here is the direct reading of the compiler's last step: walk every
connection hop by hop, connect each crossed switch's
:class:`SwitchState`, then encode it.  The two must agree word for word,
including on which schedules they refuse.  Detranslation
(:func:`repro.service.canonical.permute_registers_dict`) must give, byte
for byte, the image codegen writes for the translated schedule.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.codegen import generate_registers
from repro.compiler.serialize import (
    canonical_dumps,
    registers_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.core.configuration import Configuration, ConfigurationSet
from repro.core.paths import route_requests
from repro.core.registry import get_scheduler
from repro.core.requests import RequestSet
from repro.service.canonical import (
    node_permutation,
    permute_registers_dict,
    permute_schedule_dict,
    translation_group,
)
from repro.topology.kary_ncube import KAryNCube, TieBreak
from repro.topology.linear import LinearArray
from repro.topology.mesh import Mesh2D
from repro.topology.ring import Ring
from repro.topology.switch import SwitchConfigError, SwitchState, build_switches
from repro.topology.torus import Torus2D

#: Translation-symmetric substrates (detranslation needs a group).
SYMMETRIC = {
    "torus4": Torus2D(4),
    "torus4-positive": Torus2D(4, tie_break=TieBreak.POSITIVE),
    "torus6x4": Torus2D(6, 4),
    "kary332": KAryNCube((3, 3, 2)),
    "ring8": Ring(8),
}

TOPOLOGIES = {
    **SYMMETRIC,
    "mesh4": Mesh2D(4),
    "linear5": LinearArray(5),
}

SCHEDULERS = ["greedy", "coloring", "combined"]


def reference_registers(topology, schedule) -> dict[int, list[tuple[int, ...]]]:
    """The per-hop walk: one :class:`SwitchState` per (switch, slot)."""
    switches = build_switches(topology)
    degree = max(schedule.degree, 1)
    states: dict[tuple[int, int], SwitchState] = {}
    for slot, cfg in enumerate(schedule):
        for conn in cfg:
            # Consecutive link pairs; each pair crosses one switch.
            for in_link, out_link in zip(conn.links, conn.links[1:]):
                node = topology.link_info(out_link).src
                state = states.setdefault((node, slot), SwitchState(node))
                state.connect(in_link, out_link)
    return {
        node: [
            switch.encode(states.get((node, slot), SwitchState(node)))
            for slot in range(degree)
        ]
        for node, switch in switches.items()
    }


@st.composite
def scheduled(draw, topologies=TOPOLOGIES):
    name = draw(st.sampled_from(sorted(topologies)))
    topo = topologies[name]
    n = topo.num_nodes
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ),
            min_size=0,
            max_size=3 * n,
        )
    )
    connections = route_requests(topo, RequestSet.from_pairs(pairs, allow_duplicates=True))
    schedule = get_scheduler(draw(st.sampled_from(SCHEDULERS)))(connections, topo)
    return topo, schedule


@settings(max_examples=60, deadline=None)
@given(scheduled())
def test_codegen_equals_reference_walk(case):
    topo, schedule = case
    assert generate_registers(topo, schedule).words == reference_registers(topo, schedule)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_conflicting_slot_rejected_like_the_reference(data):
    """Two routed connections forced into one slot: codegen refuses
    exactly when the walk does, and otherwise writes the same words."""
    topo = TOPOLOGIES[data.draw(st.sampled_from(sorted(TOPOLOGIES)))]
    n = topo.num_nodes
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    pairs = data.draw(st.lists(pair, min_size=2, max_size=4))
    connections = route_requests(topo, RequestSet.from_pairs(pairs, allow_duplicates=True))
    schedule = ConfigurationSet([Configuration._trusted(list(connections))])
    try:
        expected = reference_registers(topo, schedule)
    except SwitchConfigError:
        with pytest.raises(SwitchConfigError):
            generate_registers(topo, schedule)
    else:
        assert generate_registers(topo, schedule).words == expected


@settings(max_examples=25, deadline=None)
@given(scheduled(SYMMETRIC))
def test_detranslation_equals_codegen_of_translated_schedule(case):
    topo, schedule = case
    image = registers_to_dict(generate_registers(topo, schedule))
    for shift in translation_group(topo):
        sigma = node_permutation(topo, shift)
        moved, _ = schedule_from_dict(
            topo, permute_schedule_dict(schedule_to_dict(schedule), sigma)
        )
        fresh = registers_to_dict(generate_registers(topo, moved))
        assert canonical_dumps(permute_registers_dict(topo, image, sigma)) == (
            canonical_dumps(fresh)
        )
