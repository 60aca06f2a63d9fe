"""Pins of the structural all-to-all path's outputs, memory and edge cases.

The digests cover every output of :func:`all_to_all_fast_schedule` and
of :func:`product_decomposition` -- dtypes and shapes included -- on
2-D tori, rectangles and k-ary n-cubes, so a change to how the slot
table is computed cannot change what it contains.  Where the grouped
product merges cells into shared slots (both outer radices 10 or more)
the pins were taken only after ``tests/core/test_grouped_product.py``
proved the shape conflict-free and complete.  The memory tests bound
the traced peak allocation of one build against the size of the slot
table it returns.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.aapc.product import product_decomposition
from repro.core.allpairs import all_to_all_fast_schedule
from repro.topology.kary_ncube import KAryNCube
from repro.topology.ring import Ring
from repro.topology.torus import Torus2D


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def _outputs_digest(topo) -> str:
    fast = all_to_all_fast_schedule(topo)
    fast_digest = _digest(
        fast.slot_of, fast.slot_sizes, fast.degree, fast.lower_bound,
        fast.scheduler, fast.num_nodes, fast.num_connections,
    )
    del fast
    dec = product_decomposition(topo)
    return _digest(
        fast_digest, dec.phase_matrix, dec.phase_counts, dec.num_phases,
        dec.ring_phases, dec.kind,
    )


PINS = {
    "torus2d:2x2:tie=balanced": "b6384a66dd7830182e8c70db83cb3d2ebc35d698f58e3a1132c9396267101622",
    "torus2d:3x3:tie=balanced": "0a979466e03db0ce7a5eb46cdfc1ec22153f06fa8be43864a9be6715e77495b4",
    "torus2d:4x4:tie=balanced": "65ba3b807bf465244aa565dc3016927d317a6a7c5a1d5424d97a341a0dd28e6d",
    "torus2d:5x5:tie=balanced": "c4fd23339c8966833ea3d99ad767aefd4b8c667bcec129eb2fc6fdf200285a3b",
    "torus2d:6x6:tie=balanced": "eb48130914dc54b002c35006b4c762e271aed419a3ce180e3eca9d32aea6aeb9",
    "torus2d:7x7:tie=balanced": "25b7948e20d59017b1dcbf712b5b550592be348fc2b4ec969fd92c788bc49246",
    "torus2d:8x8:tie=balanced": "c6fd2ff9246e84c46c79587f9d1a6b4d757e33f8fcff4e2e17b8214cba5e1aaa",
    "torus2d:9x9:tie=balanced": "d55527d1e15228d523c084fdd598e0711617a3a28e7c4b957c5c5a544195270c",
    "torus2d:10x10:tie=balanced": "0724570f40c39bb12b5a7db8ed4226612357ea5e4ab175d02fa38005acad612a",
    "torus2d:11x11:tie=balanced": "15749b86d84cbd05b3e993625c00597ec8963534e7a0ca0c7a17892b409c1683",
    "torus2d:12x12:tie=balanced": "db81d29d753e1b8680a735768b34fc9061953917f14458006bc87a9a6d3caf95",
    "torus2d:13x13:tie=balanced": "92e6afd19fdb31c14ea718acff4aff5bb5354fc9017de961ce3cc616a0cb8982",
    "torus2d:16x16:tie=balanced": "8a2f850bf800f52238e886360bb6cd514417879004aca24e43bbb059d85625b1",
    "torus2d:20x20:tie=balanced": "7496b79226bc5bc01bd8e15632838c93a592240e0ec8d7728d70d94ec18c2571",
    "torus2d:24x24:tie=balanced": "d216121206bec54eee733a7de7a650140dcc2687b01950ae43595e211d71f4e1",
    "torus2d:32x32:tie=balanced": "a20ffa3025cf558f6c466e44812be57bff559175ce287851523e93c8166edc54",
    "torus2d:4x3:tie=balanced": "a24a779197c0e7797dadfca60761e62045be4b100b0f2f561caed1a42490ec36",
    "torus2d:8x16:tie=balanced": "4e58e310378f1a55818cb37cbf40f568e9c9d0a18aa93b6896794967fedda789",
    "torus2d:9x4:tie=balanced": "297b61cb0fefb7364a2992266b112a4160d78d3b95e0e1b6588a0bb73e2bfa2f",
    "torus2d:16x5:tie=balanced": "1bcddf3ce54b10d4947e4fd13890ab78f06a83ca8ec829085e9deed86445ceb5",
    "kary-ncube:4x4x4:tie=balanced": "7ac6fbf96042d495ce8c75a0306f882addbe5b286c682ca2d742e36e6389a25d",
    "kary-ncube:3x5x4:tie=balanced": "617065f436540487f191adb9484f0a8bfe5a81bbdfc71364348776708868f635",
    "kary-ncube:8x8x8:tie=balanced": "fee14feb2600c1096f0670418329e70aa75c150d24cd76dad55d2f7eec8728b4",
    "kary-ncube:2x3x4x5:tie=balanced": "dcfc7c702ecb4e6577d8c636e9ffe2971ba98107e4ca8ff4087f4abf62c0414e",
    "torus2d:64x64:tie=balanced": "473329e64ca853e772310daa932688850ddf71692b6425c34c548d32ec077758",
}


def _topologies():
    topos = [Torus2D(k) for k in (*range(2, 14), 16, 20, 24, 32)]
    topos += [Torus2D(4, 3), Torus2D(8, 16), Torus2D(9, 4), Torus2D(16, 5)]
    topos += [KAryNCube(dims) for dims in
              ((4, 4, 4), (3, 5, 4), (8, 8, 8), (2, 3, 4, 5))]
    topos.append(Torus2D(64))
    return topos


@pytest.mark.parametrize("topo", _topologies(), ids=lambda t: t.signature)
def test_outputs_are_pinned(topo):
    assert _outputs_digest(topo) == PINS[topo.signature]


@pytest.mark.parametrize("topo", [
    Torus2D(9, 4), KAryNCube((3, 5, 4)), KAryNCube((2, 3, 4, 5)),
], ids=lambda t: t.signature)
def test_n_dimensional_schedules_materialize_and_validate(topo):
    fast = all_to_all_fast_schedule(topo)
    connections, schedule = fast.materialize(topo)
    assert schedule.degree == fast.degree
    schedule.validate(connections)  # conflict-freeness and coverage


def _traced_peak(build):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fastpath_peak_is_a_small_multiple_of_its_slot_table():
    topo = Torus2D(32)
    all_to_all_fast_schedule(topo)  # warm the ring tables
    fast, peak = _traced_peak(lambda: all_to_all_fast_schedule(topo))
    assert fast.slot_of.dtype == np.int32
    # 1.29x measured on this shape
    assert peak <= 1.6 * fast.slot_of.nbytes, peak / fast.slot_of.nbytes


def test_pair_matrix_writes_straight_into_its_output():
    dec = product_decomposition(Torus2D(32))
    out, peak = _traced_peak(lambda: dec.pair_matrix(dec.cell_phase))
    # One output plus grid-sized temporaries (1.13x measured): no
    # second full-size array.
    assert peak <= 1.3 * out.nbytes, peak / out.nbytes


def test_product_decomposition_peak_stays_below_one_slot_table():
    topo = Torus2D(32)
    product_decomposition(topo)  # warm the ring tables
    _, peak = _traced_peak(lambda: product_decomposition(topo))
    slot_table_bytes = topo.num_nodes ** 2 * np.dtype(np.int32).itemsize
    assert peak < slot_table_bytes, peak / slot_table_bytes


@pytest.mark.parametrize("topo", [Torus2D(1), Ring(1)],
                         ids=lambda t: t.signature)
def test_one_node_torus_schedules_nothing(topo):
    fast = all_to_all_fast_schedule(topo)
    assert fast.degree == 0
    assert fast.lower_bound == 0
    assert fast.num_connections == 0
    assert fast.slot_of.tolist() == [[-1]]
    assert fast.slot_of.dtype == np.int32
    assert fast.slot_sizes.size == 0
    dec = product_decomposition(topo)
    assert dec.num_phases == 0
    assert dec.phase_matrix.tolist() == [[-1]]
