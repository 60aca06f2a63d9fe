"""Pins of ``repack``: its output, its fit-test accounting, the AAPC
decomposition it builds, and the amend stream it compacts.

``repack`` dissolves configurations on the slot-indexed bitmask layout.
These pins were taken before it moved there, so any change in which
configuration a member lands in, in the order candidates are tried, or
in how many placement tests a dissolution counts moves one of them.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.aapc.bounds import all_pairs_requests
from repro.aapc.phases import (
    _best_fit,
    _longest_first_order,
    _offset_major_order,
    build_aapc_decomposition,
)
from repro.compiler.serialize import canonical_dumps, schedule_to_dict
from repro.core import perf
from repro.core.delta import DeltaScheduler
from repro.core.linkmask import SlotOccupancy
from repro.core.packing import first_fit, repack
from repro.core.paths import Connection, route_requests
from repro.core.registry import get_scheduler
from repro.core.requests import Request, RequestSet
from repro.topology.torus import Torus2D
from tests import set_reference as ref


def members(schedule):
    """A schedule as nested connection-index lists, slot by slot."""
    return [[c.index for c in cfg] for cfg in schedule]


# ----------------------------------------------------------------------
# (a) the AAPC builder's six candidates on a 6x6 torus
# ----------------------------------------------------------------------

TORUS6 = Torus2D(6)
CONNS6 = route_requests(TORUS6, all_pairs_requests(TORUS6))
ORDERS6 = {
    "offset-desc": _offset_major_order(TORUS6, CONNS6, descending=True),
    "offset-asc": _offset_major_order(TORUS6, CONNS6, descending=False),
    "longest-first": _longest_first_order(CONNS6),
}
PACKERS = {"first-fit": first_fit, "best-fit": _best_fit}
#: ``perf.COUNTERS.fit_tests`` moved by one ``repack`` of each candidate.
FIT_TESTS6 = {
    ("offset-desc", "first-fit"): 7_043,
    ("offset-desc", "best-fit"): 6_124,
    ("offset-asc", "first-fit"): 81_457,
    ("offset-asc", "best-fit"): 72_681,
    ("longest-first", "first-fit"): 8_942,
    ("longest-first", "best-fit"): 10_314,
}


@pytest.mark.parametrize("order,packer", sorted(FIT_TESTS6))
def test_aapc_candidates_match_reference_and_fit_tests(order, packer):
    candidate = PACKERS[packer](CONNS6, ORDERS6[order])
    before = perf.COUNTERS.fit_tests
    packed = repack(candidate)
    assert perf.COUNTERS.fit_tests - before == FIT_TESTS6[order, packer]
    assert members(packed) == members(ref.repack(candidate))
    assert packed.scheduler == candidate.scheduler + "+repack"
    packed.validate(CONNS6)


# ----------------------------------------------------------------------
# (b) the cold 10x10 decomposition (no Latin ring schedule at radix 10)
# ----------------------------------------------------------------------

def test_torus10_decomposition_pin():
    decomposition = build_aapc_decomposition(Torus2D(10))
    phases = [[list(c.pair) for c in cfg] for cfg in decomposition.schedule]
    assert len(phases) == 153
    digest = hashlib.sha256(json.dumps(phases).encode()).hexdigest()
    assert digest == TORUS10_SHA


TORUS10_SHA = "0bd7450c37158b631a7db79a0aa7d4ff94adde1e97f2a02d755f77df693c6890"


# ----------------------------------------------------------------------
# (c) a DeltaScheduler stream that repacks repeatedly
# ----------------------------------------------------------------------

def amend_stream(width=8, live=128, updates=400, seed=11):
    """Replay a seeded two-out, two-in update stream on a greedy
    schedule; yields every epoch's :class:`AmendResult`."""
    torus = Torus2D(width)
    rng = np.random.default_rng(seed)
    n = torus.num_nodes
    pairs: list[tuple[int, int]] = []
    while len(pairs) < live:
        s, d = (int(x) for x in rng.integers(n, size=2))
        if s != d and (s, d) not in pairs:
            pairs.append((s, d))
    conns = route_requests(torus, RequestSet.from_pairs(pairs))
    engine = DeltaScheduler(
        get_scheduler("greedy")(conns, torus), num_links=torus.num_links
    )
    index = {pair: c.index for pair, c in zip(pairs, conns)}
    next_index = len(conns)
    for _ in range(updates):
        gone = [index.pop(pairs.pop(int(rng.integers(len(pairs)))))
                for _ in range(2)]
        add = []
        while len(add) < 2:
            s, d = (int(x) for x in rng.integers(n, size=2))
            if s != d and (s, d) not in index:
                add.append(Connection(next_index, Request(s, d), torus.route(s, d)))
                index[s, d] = next_index
                pairs.append((s, d))
                next_index += 1
        yield engine.amend(add=add, remove=gone)


def test_amend_stream_pin():
    h = hashlib.sha256()
    actions: dict[str, int] = {}
    for result in amend_stream():
        actions[result.action] = actions.get(result.action, 0) + 1
        h.update(canonical_dumps(schedule_to_dict(result.schedule)).encode())
    assert actions == AMEND_ACTIONS
    assert actions["amend+repack"] >= 10
    assert h.hexdigest() == AMEND_STREAM_SHA


AMEND_ACTIONS = {"amend": 389, "amend+repack": 11}
AMEND_STREAM_SHA = "61bb672d4ae5352d38b41b4ddd7498cfa8da210fc0bc53e71ca558b6d517ff8f"


# ----------------------------------------------------------------------
# (d) SlotOccupancy.drop_slot
# ----------------------------------------------------------------------

class TestDropSlot:
    def occupancy(self, placements, num_links=6):
        occ = SlotOccupancy(num_links)
        for slot, links in enumerate(placements):
            occ.place(links, slot)
        return occ

    def test_later_slots_move_down_in_order(self):
        occ = self.occupancy([(0, 1), (2,), (3, 4), (1, 5)])
        occ.remove((2,), 1)
        occ.drop_slot(1)
        assert occ.num_slots == 3
        assert occ.masks == self.occupancy([(0, 1), (3, 4), (1, 5)]).masks

    def test_first_and_last_slot_take_their_bits_along(self):
        occ = self.occupancy([(0,), (1,), (2,)])
        occ.drop_slot(0)
        assert occ.masks == self.occupancy([(1,), (2,)]).masks
        occ.drop_slot(1)
        assert occ.masks == self.occupancy([(1,)]).masks
        assert occ.first_fit_slot((1,)) == 1
        assert occ.first_fit_slot((2,)) == 0

    def test_wide_frames(self):
        # Far past one machine word: the masks are unbounded ints.
        occ = self.occupancy([(s % 3,) for s in range(200)], num_links=3)
        occ.drop_slot(70)
        expect = [(s % 3,) for s in range(200) if s != 70]
        assert occ.masks == self.occupancy(expect, num_links=3).masks
        assert occ.num_slots == 199
