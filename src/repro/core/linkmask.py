"""Vectorized bitmask scheduling kernel.

The schedulers' hot path answers one question millions of times per
sweep: *does this connection's link set intersect that set of occupied
links?*  Asking it with hash-set ``isdisjoint`` per candidate
configuration is the readable formulation; this module answers it with
bitmasks instead, in three layouts:

**Slot-indexed masks** (:class:`SlotOccupancy`)
    Per *link*, a bitmask over *time slots* (bit ``j`` set iff some
    connection in configuration ``j`` uses the link).  A placement
    query ORs the candidate's few link masks: the clear bits are every
    slot it fits, the lowest one is its first fit -- O(path length)
    word operations with no per-configuration loop at all.  Python's
    arbitrary-precision integers are the storage (a 128-slot frame is
    two machine words), which profiling showed beats a per-step numpy
    reduction: sequential placement issues one tiny query per
    connection, and numpy's per-call overhead (~2 us) exceeds the whole
    query's work.  Every single placement runs here: first-fit, the
    AAPC builder's best-fit, the delta scheduler, and repack's
    all-or-nothing dissolution trials (one query per member of the
    configuration on trial; a dissolved configuration's slot is deleted
    with :meth:`SlotOccupancy.drop_slot`).

**Slot-mask matrix** (:class:`SlotMatrix`)
    The slot-indexed layout again, but as a numpy ``(num_links, W)``
    uint64 matrix, for *batched* first-fit over runs of mutually
    link-disjoint candidates (AAPC phase blocks): one
    ``bitwise_or.reduceat`` computes every member's busy mask at once,
    amortising numpy's per-call overhead over the whole run.

**Conflict bit-matrix** (:class:`ConflictMatrix`)
    Per-link connection bitsets OR-reduced into an ``n x n`` packed
    adjacency matrix in a handful of numpy operations
    (``packbits`` + fancy-indexed ``bitwise_or.reduce``), replacing the
    per-node ``np.unique`` build that dominated coloring's profile.

Every kernel entry point is exercised by the equivalence property suite
(``tests/property/test_kernel_equivalence.py``): for any workload the
schedulers must produce *identical* schedules to the hash-set reference
implementation that lives in the test suite (``tests/set_reference.py``).
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain

import numpy as np

from repro.core import perf
from repro.core.paths import Connection

def required_links(connections: Sequence[Connection]) -> int:
    """Smallest link-id space covering ``connections`` (0 when empty).

    Callers that know the topology should pass ``topology.num_links``
    instead; this is the fallback that keeps the kernel usable on a bare
    connection list.
    """
    return 1 + max((max(c.links) for c in connections if c.links), default=-1)


def words_for(num_bits: int) -> int:
    """uint64 words needed for ``num_bits`` mask bits (min 1)."""
    return max(1, (num_bits + 63) // 64)


# ----------------------------------------------------------------------
# slot-indexed masks
# ----------------------------------------------------------------------

class SlotOccupancy:
    """Per-link bitmasks over time slots -- the placement fast path.

    ``masks[l]`` has bit ``j`` set iff configuration ``j`` uses link
    ``l``.  The slots busy for a candidate are the OR of its links'
    masks; the first fit is the lowest clear bit.  Arbitrary-precision
    ints keep the frame width unbounded at word-op cost.
    """

    __slots__ = ("masks", "num_slots")

    def __init__(self, num_links: int) -> None:
        self.masks: list[int] = [0] * num_links
        self.num_slots = 0

    def first_fit_slot(self, links: tuple[int, ...]) -> int:
        """Lowest slot where every link is free (``num_slots`` = open new)."""
        perf.COUNTERS.fit_tests += self.num_slots
        busy = 0
        masks = self.masks
        for l in links:
            busy |= masks[l]
        free = ~busy & ((1 << self.num_slots) - 1)
        if free:
            return (free & -free).bit_length() - 1
        return self.num_slots

    def free_slots(self, links: tuple[int, ...], exclude: int = -1) -> int:
        """Bitmask of existing slots where every link is free."""
        perf.COUNTERS.fit_tests += self.num_slots
        busy = 0
        masks = self.masks
        for l in links:
            busy |= masks[l]
        free = ~busy & ((1 << self.num_slots) - 1)
        if exclude >= 0:
            free &= ~(1 << exclude)
        return free

    def place(self, links: tuple[int, ...], slot: int) -> None:
        """Mark ``links`` busy in ``slot`` (``slot == num_slots`` opens one)."""
        if slot == self.num_slots:
            self.num_slots += 1
        bit = 1 << slot
        masks = self.masks
        for l in links:
            masks[l] |= bit

    def remove(self, links: tuple[int, ...], slot: int) -> None:
        """Free ``links`` in ``slot`` (the connection must occupy it)."""
        clear = ~(1 << slot)
        masks = self.masks
        for l in links:
            masks[l] &= clear

    def drop_slot(self, slot: int) -> None:
        """Delete ``slot``; every later slot moves down one, in order."""
        low = (1 << slot) - 1
        high = ~low
        self.masks[:] = [(m & low) | ((m >> 1) & high) for m in self.masks]
        self.num_slots -= 1


def iter_bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class SlotMatrix:
    """Per-link slot bitmasks as a ``(num_links, W)`` uint64 matrix.

    The numpy twin of :class:`SlotOccupancy`, for **batched** first-fit:
    where :class:`SlotOccupancy` answers one candidate's query at a time
    in Python ints, :class:`SlotMatrix` answers a whole *run* of
    mutually link-disjoint candidates in a handful of array operations
    (one gather + ``bitwise_or.reduceat`` for every member's busy mask,
    a vectorized lowest-clear-bit, one scattered ``bitwise_or.at``
    placement).  At 16x16 all-to-all scale this removes ~65k Python
    first-fit iterations from the ordered-AAPC hot path.

    Used through ``first_fit(..., runs=...)``
    (:mod:`repro.core.packing`), which states and verifies the
    precondition under which batching is byte-identical to sequential
    placement.
    """

    __slots__ = ("bits", "num_slots")

    def __init__(self, num_links: int) -> None:
        self.bits = np.zeros((num_links, 1), dtype=np.uint64)
        self.num_slots = 0

    def _ensure_slot_capacity(self, slots: int) -> None:
        have = self.bits.shape[1]
        need = words_for(slots)
        if need <= have:
            return
        grown = np.zeros((self.bits.shape[0], max(need, 2 * have)), dtype=np.uint64)
        grown[:, :have] = self.bits
        self.bits = grown

    def place_run(self, flat_links: np.ndarray, lens: np.ndarray) -> np.ndarray:
        """First-fit slots for one run of link-disjoint candidates.

        ``flat_links`` is the concatenation of the run members' link
        ids and ``lens`` the per-member path lengths.  Every member is
        assigned its lowest all-free slot; members fitting no existing
        slot share one freshly opened slot (legal precisely because the
        run is link-disjoint -- the caller must guarantee it).  Places
        the members and returns the slot vector.
        """
        m = len(lens)
        if m == 0:
            return np.zeros(0, dtype=np.int64)
        starts = np.zeros(m, dtype=np.intp)
        np.cumsum(lens[:-1], out=starts[1:])
        busy = np.bitwise_or.reduceat(self.bits[flat_links], starts, axis=0)
        free = ~busy
        nbits = self.num_slots
        word = nbits >> 6
        if word < free.shape[1]:
            free[:, word] &= np.uint64((1 << (nbits & 63)) - 1)
            free[:, word + 1:] = 0
        perf.COUNTERS.fit_tests += m * nbits
        nz = free != 0
        fits = nz.any(axis=1)
        w_idx = np.argmax(nz, axis=1)
        lowest = free[np.arange(m), w_idx]
        lowest &= ~lowest + np.uint64(1)  # isolate the lowest set bit
        # log2 of a power of two <= 2**63 is exact in float64.
        bitpos = np.log2(
            lowest.astype(np.float64), where=fits, out=np.zeros(m)
        ).astype(np.int64)
        slots = w_idx.astype(np.int64) * 64 + bitpos
        slots[~fits] = nbits  # all non-fitters share one fresh slot
        grown = int(slots.max()) + 1
        if grown > nbits:
            self._ensure_slot_capacity(grown)
            self.num_slots = grown
        su = slots.astype(np.uint64)
        # Links are unique within a run (the members are disjoint), so
        # the (link, word) scatter targets are distinct and a plain
        # fancy-indexed OR-assign is safe -- no ``bitwise_or.at`` cost.
        self.bits[flat_links, np.repeat(slots >> 6, lens)] |= np.repeat(
            np.uint64(1) << (su & np.uint64(63)), lens
        )
        return slots


# ----------------------------------------------------------------------
# conflict bit-matrix
# ----------------------------------------------------------------------

def _popcount_rows(packed: np.ndarray) -> np.ndarray:
    """Per-row popcount of a packed uint8 matrix."""
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0
        return np.bitwise_count(packed).sum(axis=1, dtype=np.int64)
    return (
        np.unpackbits(packed, axis=1)
        .sum(axis=1, dtype=np.int64)
    )


class ConflictMatrix:
    """Packed conflict adjacency built with vectorized set operations.

    Two connections conflict iff they share a link, so row ``i`` of the
    matrix is the OR of the per-link connection bitsets over connection
    ``i``'s links.  The whole build is four numpy operations over a
    ``(num_links, n)`` boolean scatter -- no per-node ``np.unique``, no
    nested Python loops over link buckets.
    """

    def __init__(self, connections: Sequence[Connection], num_links: int | None = None) -> None:
        t0 = perf.perf_timer()
        n = len(connections)
        self.num_connections = n
        # Ragged paths, rectangular matrix: short paths are padded with
        # the sentinel link id ``num_links``, whose bucket row stays
        # all-zero so it is a no-op in both the scatter and the OR.
        lens = np.fromiter((len(c.links) for c in connections), dtype=np.intp, count=n)
        total = int(lens.sum()) if n else 0
        flat = np.fromiter(
            chain.from_iterable(c.links for c in connections), dtype=np.intp, count=total
        )
        max_len = int(lens.max()) if n else 0
        path_matrix = np.full((n, max(max_len, 1)), -1, dtype=np.intp)
        rows = np.repeat(np.arange(n), lens)
        starts = np.concatenate(([0], np.cumsum(lens)[:-1])) if n else lens
        path_matrix[rows, np.arange(total) - starts[rows]] = flat
        if num_links is None:
            num_links = int(path_matrix.max()) + 1 if n else 0
        path_matrix[path_matrix < 0] = num_links
        member_bits = np.zeros((num_links + 1, n), dtype=bool)
        member_bits[path_matrix.ravel(), np.repeat(np.arange(n), path_matrix.shape[1])] = True
        member_bits[num_links, :] = False
        packed = np.packbits(member_bits, axis=1, bitorder="little")
        # OR the per-link bucket rows position by position: a handful of
        # flat (n, W) gathers beats one (n, max_len, W) gather + reduce
        # (half the memory traffic, no 3-D temporary).
        self.bits = packed[path_matrix[:, 0]].copy() if n else packed[:0]
        for k in range(1, path_matrix.shape[1]):
            np.bitwise_or(self.bits, packed[path_matrix[:, k]], out=self.bits)
        # A connection never conflicts with itself: clear the diagonal.
        idx = np.arange(n)
        self.bits[idx, idx >> 3] &= ~(np.uint8(1) << (idx & 7).astype(np.uint8))
        self._unpacked: np.ndarray | None = None
        perf.COUNTERS.adjacency_builds += 1
        perf.COUNTERS.adjacency_seconds += perf.perf_timer() - t0

    def degrees(self) -> np.ndarray:
        """Conflict-graph degree of every connection (int64 vector)."""
        return _popcount_rows(self.bits)

    def unpacked(self) -> np.ndarray:
        """The adjacency as a dense ``(n, n)`` 0/1 uint8 matrix (cached).

        Costs ``n**2`` bytes (16 MB at the 4032-connection stress case)
        but turns the coloring round walk's per-pick neighbourhood
        lookups into plain row views -- worth it for every workload this
        repo schedules.
        """
        if self._unpacked is None:
            self._unpacked = np.unpackbits(
                self.bits, axis=1, count=self.num_connections, bitorder="little"
            )
        return self._unpacked

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted indices of the connections conflicting with ``i``."""
        row = np.unpackbits(self.bits[i], count=self.num_connections, bitorder="little")
        return np.nonzero(row)[0]

    def adjacency_arrays(self) -> list[np.ndarray]:
        """Adjacency as per-node sorted int32 arrays (reference format)."""
        return [self.neighbors(i).astype(np.int32) for i in range(self.num_connections)]
