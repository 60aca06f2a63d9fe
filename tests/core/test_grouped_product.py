"""Proofs that the structural all-to-all schedule is conflict-free and complete.

Three independent checks of :func:`all_to_all_fast_schedule`:

* a brute-force validator that routes every pair and sorts the
  ``slot * num_links + link`` keys (conflicts), reads every pair's slot
  (coverage) and recounts the slot sizes;
* a structural certificate of the grouped product: every pair of one
  product cell shares a slot, and within a slot the dimension-0 ring
  phases have pairwise-disjoint destination columns and the last
  dimension's ring phases pairwise-disjoint source rows -- which, under
  dimension-order routing, makes the slot's cells link-disjoint
  (docs/aapc_theory.md, "Grouped products");
* the degree never exceeds the product's phase count, and where no slot
  holds two cells the slot table is the product's phases ranked by
  total routed length (ties by phase id), bit for bit.

The three read only the outputs of the product decomposition and the
fast path, and they also pass on the ungrouped product, where every
slot is one cell.  The last tests check the per-radix phase groups
themselves.
"""

import numpy as np
import pytest

from repro.aapc.product import (
    contention_free_ring_schedule,
    disjoint_phase_groups,
    product_decomposition,
)
from repro.core.allpairs import all_to_all_fast_schedule
from repro.core.routetable import RouteTable
from repro.topology.kary_ncube import KAryNCube
from repro.topology.torus import Torus2D


def check_by_routing(topo, fast) -> None:
    """Conflicts, coverage and slot sizes of ``fast``, pair by pair."""
    n = topo.num_nodes
    slot_of = fast.slot_of
    assert slot_of.shape == (n, n)
    assert (slot_of.diagonal() == -1).all()
    table = RouteTable.all_pairs(topo)
    assert len(table) == n * (n - 1) == fast.num_connections
    slots = slot_of[table.src, table.dst].astype(np.int64)
    assert slots.min() >= 0 and slots.max() == fast.degree - 1
    sizes = np.bincount(slots, minlength=fast.degree)
    assert np.array_equal(sizes, fast.slot_sizes)
    assert (sizes > 0).all()
    hops = np.diff(table.indptr)
    keys = np.repeat(slots * topo.num_links, hops) + table.links
    keys.sort()
    assert not (keys[1:] == keys[:-1]).any(), "two pairs share a link in one slot"


def _column_sets(phi: np.ndarray, num_phases: int, *, axis: int) -> np.ndarray:
    """``out[p, c]``: ring phase ``p`` holds a pair whose source (``axis=0``)
    or destination (``axis=1``) coordinate is ``c``."""
    k = phi.shape[0]
    coords = np.broadcast_to(np.arange(k)[:, None] if axis == 0 else np.arange(k), phi.shape)
    out = np.zeros((num_phases, k), dtype=np.int64)
    out[phi.ravel(), coords.ravel()] = 1
    return out


def cell_slots_from_pairs(topo, fast, dec) -> np.ndarray:
    """Each product cell's slot, read back from ``fast.slot_of``.

    Asserts that every non-self pair of a cell sits in one slot; cells
    no non-self pair uses read ``-1``.
    """
    tables = dec.ring_tables
    strides = np.cumprod((1,) + dec.ring_phases[:-1])
    n = topo.num_nodes
    cells = dec.cell_counts.size
    lo = np.full(cells, np.iinfo(np.int64).max)
    hi = np.full(cells, -1, dtype=np.int64)
    outer = tables[-1]
    rows = n // outer.shape[0]
    # Rows with outer source coordinate s, as (inner source node, destination).
    inner_src = np.arange(rows)
    dst = np.arange(n)
    for s in range(outer.shape[0]):
        cell = np.zeros((rows, n), dtype=np.int64)
        src_rem, dst_rem = inner_src.copy(), dst.copy()
        for d, (phi, k) in enumerate(zip(tables[:-1], topo.dims[:-1])):
            cell += phi[(src_rem % k)[:, None], (dst_rem % k)[None, :]] * strides[d]
            src_rem //= k
            dst_rem //= k
        cell += outer[s, dst_rem][None, :] * strides[-1]
        block = fast.slot_of[s * rows:(s + 1) * rows].astype(np.int64)
        off = block >= 0
        np.minimum.at(lo, cell[off], block[off])
        np.maximum.at(hi, cell[off], block[off])
    used = hi >= 0
    assert np.array_equal(used, dec.cell_phase >= 0)
    assert np.array_equal(lo[used], hi[used]), "a cell's pairs span two slots"
    return np.where(used, hi, -1)


def check_certificate(topo, fast) -> None:
    """The grouped-product certificate (see the module docstring)."""
    dec = product_decomposition(topo)
    cell_slot = cell_slots_from_pairs(topo, fast, dec)
    used = np.flatnonzero(cell_slot >= 0)
    slot = cell_slot[used]
    # Every used cell lies in exactly one slot, and the slots' pair
    # counts are the slot sizes.
    sizes = np.bincount(slot, weights=dec.cell_counts[used], minlength=fast.degree)
    assert np.array_equal(sizes.astype(np.int64), fast.slot_sizes)
    first, last = dec.ring_tables[0], dec.ring_tables[-1]
    p_first = used % dec.ring_phases[0]
    p_last = used // (dec.cell_counts.size // dec.ring_phases[-1])
    for phi, phases, axis in ((first, p_first, 1), (last, p_last, 0)):
        sets = _column_sets(phi, phi.max() + 1, axis=axis)
        cover = np.zeros((fast.degree, phi.shape[0]), dtype=np.int64)
        np.add.at(cover, slot, sets[phases])
        assert cover.max() <= 1, "two cells of a slot share a column"


def _ranked_product(topo) -> np.ndarray:
    """The product's phases ranked by total routed length, descending
    (ties by phase id), as a slot table."""
    dec = product_decomposition(topo)
    used = dec.cell_phase >= 0
    order = np.argsort(-dec.cell_lengths[used], kind="stable")
    rank = np.empty(dec.num_phases, dtype=np.int32)
    rank[order] = np.arange(dec.num_phases, dtype=np.int32)
    phases = dec.phase_matrix
    return np.where(phases >= 0, rank[phases], -1)


BRUTE_FORCE = [Torus2D(k) for k in range(3, 21)] + [
    Torus2D(12, 16), Torus2D(16, 10), Torus2D(20, 12), Torus2D(13, 11),
    KAryNCube((10, 2, 10)), KAryNCube((10, 3, 12)),
]


@pytest.mark.parametrize("topo", BRUTE_FORCE, ids=lambda t: t.signature)
def test_every_pair_is_scheduled_once_without_conflict(topo):
    check_by_routing(topo, all_to_all_fast_schedule(topo))


CERTIFIED = [Torus2D(24), Torus2D(32), Torus2D(64), KAryNCube((10, 10, 10))]


@pytest.mark.parametrize("topo", CERTIFIED, ids=lambda t: t.signature)
def test_grouped_slots_carry_the_disjointness_certificate(topo):
    check_certificate(topo, all_to_all_fast_schedule(topo))


def _pinned_shapes():
    topos = [Torus2D(k) for k in (*range(2, 14), 16, 20, 24, 32)]
    topos += [Torus2D(4, 3), Torus2D(8, 16), Torus2D(9, 4), Torus2D(16, 5)]
    topos += [KAryNCube(dims) for dims in
              ((4, 4, 4), (3, 5, 4), (8, 8, 8), (2, 3, 4, 5))]
    return topos + [Torus2D(64)]


@pytest.mark.parametrize("topo", _pinned_shapes(), ids=lambda t: t.signature)
def test_degree_never_exceeds_the_product(topo):
    fast = all_to_all_fast_schedule(topo)
    num_phases = product_decomposition(topo).num_phases
    assert fast.degree <= num_phases
    if fast.degree == num_phases:
        assert np.array_equal(fast.slot_of, _ranked_product(topo))
    else:
        assert fast.scheduler == "fastpath[grouped-product]"


@pytest.mark.parametrize("side", ["dst", "src"])
@pytest.mark.parametrize("k", [1, 4, 8, 10, 16, 64])
def test_phase_groups_partition_the_ring_phases_into_disjoint_sets(k, side):
    ring = contention_free_ring_schedule(k)
    groups = disjoint_phase_groups(k, side)
    assert disjoint_phase_groups(k, side) is groups  # cached per radix
    sets = _column_sets(np.asarray(ring.phi), ring.num_phases,
                        axis=1 if side == "dst" else 0)
    cover = np.zeros((groups.sizes.size, k), dtype=np.int64)
    np.add.at(cover, groups.group, sets)
    assert cover.max() <= 1
    assert np.array_equal(np.bincount(groups.group), groups.sizes)
    for g, size in enumerate(groups.sizes):
        assert sorted(groups.position[groups.group == g]) == list(range(size))
    if ring.kind == "latin":  # a Latin phase covers every column
        assert (groups.sizes == 1).all()


def test_phase_groups_reject_an_unknown_side():
    with pytest.raises(ValueError, match="side"):
        disjoint_phase_groups(16, "both")
