"""The product decomposition's phase grid and its ring tables.

A pair's phase-grid cell is ``sum_d phi_d[s_d][d_d] * stride_d``;
:meth:`ProductDecomposition.pair_matrix` expands a per-cell table into
the dense pair matrix.  These tests check that expansion against a
per-pair brute force, the per-cell counts and lengths against the pair
matrix they summarise, and pin the greedy ring tables the grid is
built from.
"""

import hashlib

import numpy as np
import pytest

from repro.aapc.product import contention_free_ring_schedule, product_decomposition
from repro.topology.kary_ncube import KAryNCube
from repro.topology.torus import Torus2D

RING_PINS = {
    9: "f3a7581ecc7324ff1105b0ba8d3fd753ffa1d1fa7f3dd95e562907d9bcd94a06",
    10: "0a0df7af3892be1f4235a699b01bfb46700f7fff82ff25f389f7e65ef365a7f7",
    11: "363a3042648598e6e1802b6a0f8104fdc8472d3e9b1fd29189dba193695d5023",
    12: "a4af7d194560d273484c01b3c44c538a40c9ab291d08dcad0b400d05ac9ee6a0",
    13: "f791d99b246575f1c3b626f5ac45ed2bda570b7d8a5649791a42ce8032290d7b",
    14: "36cc8725dd040efbaafff10c8df3987d102b63fd65c4bb28a8bf750dd17ca136",
    15: "b7c1ab51e843d30a495cff048dc233704ea4e06d9b8966c03c4a13c587503ea0",
    16: "be846eb7d96688f1ccb95b514b3eced678878f797f1083cb4f8af51d119173f4",
    17: "4a4ae7aeabcfb01986e3fb01b71683cebdb1816117b9c1b9f058902f5af576da",
    18: "4a3e29d9ca565b70de8fb21869122adb684308372f8aead06b95e42a85dbd9e6",
    19: "37f8f2ca2b6bbb3a56b6460bdb63c52e946a72bd5128b65616c862a3c72855ff",
    20: "70e5db70915a4ac01e76496982a6a610c094e0d528edce90c554b02c6f4808d4",
    32: "5ee3238ddb9c91083cfa1bc0e812e97cb9d2f091d805733a8195928782381b27",
    64: "fd0f23014cdf808f605fbb0a74393b90b601898a3ff5d46ad7540372f4c588d2",
    65: "4a5b1b402c81130ab6fc365764b27687c8bdeba3053810f94272b435d5531b2f",
}


@pytest.mark.parametrize("n", sorted(RING_PINS))
def test_greedy_ring_tables_are_pinned(n):
    ring = contention_free_ring_schedule(n)
    assert ring.kind == "greedy"
    assert hashlib.sha256(repr(ring.phi).encode()).hexdigest() == RING_PINS[n]


def _brute_force_cells(topo):
    """Per-pair cell ids from the ring tables, one pair at a time."""
    rings = [contention_free_ring_schedule(k) for k in topo.dims]
    n = topo.num_nodes
    cells = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            cell, stride = 0, 1
            for d, ring in enumerate(rings):
                cell += ring.phi[topo.coords(s)[d]][topo.coords(t)[d]] * stride
                stride *= ring.num_phases
            cells[s, t] = cell
    return cells


@pytest.mark.parametrize("topo", [Torus2D(4, 3), KAryNCube((3, 5, 4))],
                         ids=lambda t: t.signature)
def test_pair_matrix_matches_brute_force_cells(topo):
    dec = product_decomposition(topo)
    grid_size = int(np.prod(dec.ring_phases))
    expanded = dec.pair_matrix(np.arange(grid_size, dtype=np.int64))
    assert expanded.dtype == np.int64
    assert (expanded == _brute_force_cells(topo)).all()


@pytest.mark.parametrize("topo", [
    Torus2D(4, 3), Torus2D(9, 4), KAryNCube((3, 5, 4)),
], ids=lambda t: t.signature)
def test_grid_tables_summarise_the_pair_matrix(topo):
    dec = product_decomposition(topo)
    phase = dec.phase_matrix
    off = ~np.eye(topo.num_nodes, dtype=bool)
    # compacted ids: every used cell has one, unused cells none
    used = dec.cell_phase >= 0
    assert (dec.cell_phase[used] == np.arange(dec.num_phases)).all()
    assert (dec.cell_counts[used] == dec.phase_counts).all()
    assert (dec.cell_counts[~used] == 0).all()
    # routed length per phase: inject + eject + hops, summed over pairs
    lengths = np.zeros(dec.num_phases, dtype=np.int64)
    for s, t in np.argwhere(off):
        lengths[phase[s, t]] += 2 + sum(
            abs(topo.signed_offset(a, b, d)) for d, (a, b) in
            enumerate(zip(topo.coords(int(s)), topo.coords(int(t))))
        )
    assert (dec.cell_lengths[used] == lengths).all()
