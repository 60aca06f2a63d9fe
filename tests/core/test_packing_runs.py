"""Run-batched first-fit: the vectorized block placement of
link-disjoint runs must be byte-identical to sequential placement,
and a wrong ``runs`` hint must be rejected, never silently applied."""

import numpy as np
import pytest

from repro.core.linkmask import SlotMatrix
from repro.core.packing import first_fit
from repro.core.paths import route_requests
from repro.patterns.classic import all_to_all_pattern
from repro.topology.torus import Torus2D
from tests import set_reference as ref


def slots(schedule):
    return [[c.pair for c in cfg] for cfg in schedule]


@pytest.fixture(scope="module")
def conns():
    topo = Torus2D(4)
    return route_requests(topo, all_to_all_pattern(topo.num_nodes))


def test_singleton_runs_match_sequential(conns):
    # every run of length 1 is trivially link-disjoint
    batched = first_fit(conns, runs=[1] * len(conns))
    assert slots(batched) == slots(ref.first_fit(conns))


def test_aapc_runs_match_sequential(conns):
    from repro.aapc.phases import aapc_phase_map
    from repro.core.aapc_ordered import aapc_rank_order

    topo = Torus2D(4)
    order, runs = aapc_rank_order(conns, aapc_phase_map(topo), with_runs=True)
    assert sum(runs) == len(conns) and min(runs) >= 1
    batched = first_fit(conns, order, runs=runs, num_links=topo.num_links)
    sequential = first_fit(conns, order, num_links=topo.num_links)
    assert slots(batched) == slots(sequential)
    assert slots(batched) == slots(ref.first_fit(conns, order))


def test_duplicate_pairs_split_into_disjoint_runs():
    # request sets are multisets: duplicates of one pair land in the
    # same AAPC phase but share every link, so the runs hint must break
    # at each repeat instead of handing first_fit a non-disjoint block
    from repro.aapc.phases import aapc_phase_map
    from repro.core.aapc_ordered import aapc_rank_order, ordered_aapc_schedule
    from repro.core.requests import RequestSet

    topo = Torus2D(4)
    pairs = [(0, 1)] * 12 + [(2, 3), (5, 6)]
    dup = route_requests(
        topo, RequestSet.from_pairs(pairs, allow_duplicates=True)
    )
    order, runs = aapc_rank_order(dup, aapc_phase_map(topo), with_runs=True)
    assert sum(runs) == len(dup) and min(runs) >= 1
    batched = first_fit(dup, order, runs=runs, num_links=topo.num_links)
    assert slots(batched) == slots(ref.first_fit(dup, order))
    assert slots(ordered_aapc_schedule(dup, topo)) == slots(
        ref.ordered_aapc(dup, aapc_phase_map(topo))
    )


def test_empty_sequence_with_empty_runs():
    assert len(first_fit([], runs=[])) == 0


def test_runs_must_sum_to_sequence_length(conns):
    with pytest.raises(ValueError, match="sum"):
        first_fit(conns, runs=[len(conns) - 1])


def test_runs_must_be_positive(conns):
    with pytest.raises(ValueError, match="positive"):
        first_fit(conns, runs=[0, len(conns)])


def test_runs_must_be_link_disjoint(conns):
    # one run spanning everything: all-to-all certainly shares links
    with pytest.raises(ValueError, match="disjoint"):
        first_fit(conns, runs=[len(conns)])


class TestSlotMatrix:
    def test_empty_run(self):
        occ = SlotMatrix(8)
        out = occ.place_run(np.zeros(0, dtype=np.intp),
                            np.zeros(0, dtype=np.intp))
        assert out.size == 0 and occ.num_slots == 0

    def test_single_link_grows_across_word_boundaries(self):
        # the same link placed run after run must walk slots 0,1,2,...
        # straight through the 64-bit word boundary
        occ = SlotMatrix(4)
        flat = np.array([2], dtype=np.intp)
        lens = np.array([1], dtype=np.intp)
        got = [int(occ.place_run(flat, lens)[0]) for _ in range(130)]
        assert got == list(range(130))
        assert occ.num_slots == 130

    def test_disjoint_run_shares_new_slot(self):
        # two disjoint members that fit nowhere open ONE shared slot --
        # the sequential-equivalence linchpin
        occ = SlotMatrix(4)
        flat = np.array([0, 1], dtype=np.intp)
        lens = np.array([1, 1], dtype=np.intp)
        assert occ.place_run(flat, lens).tolist() == [0, 0]
        # next run: link 0 is busy in slot 0, link 2 is not
        flat2 = np.array([0, 2], dtype=np.intp)
        assert occ.place_run(flat2, lens).tolist() == [1, 0]
