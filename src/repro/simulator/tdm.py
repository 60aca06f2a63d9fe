"""TDM link state: slot occupancy and reservation locks.

Under TDM with multiplexing degree K every directed link carries K
virtual channels, one per time slot of the frame.  An all-optical
circuit must use the **same slot index on every link of its path**
(slot continuity: an optical switch cannot buffer a signal into a later
slot), which is why the reservation protocol intersects availability
sets along the path.

:class:`LinkSlotState` keeps one link's channels as bitmasks over the K
slots (bit ``k`` is slot ``k``):

* ``busy`` -- every channel owned or locked;
* ``owners`` -- reservation id -> the channels its established circuit
  uses;
* ``locks`` -- reservation id -> the channels its in-flight RES packet
  holds (released by the ACK/NACK pass).

Every protocol operation is a few integer operations, whatever K is.
The per-slot ``owner``/``lock`` lists are derived views for inspection.

:class:`TDMNetwork` aggregates one state per link of a topology.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.linkmask import iter_bits
from repro.topology.base import Topology

#: Sentinel for "channel free".
FREE = -1


class LinkSlotState:
    """Occupancy of one link's K virtual channels."""

    __slots__ = ("degree", "busy", "owners", "locks")

    def __init__(self, degree: int) -> None:
        self.degree = degree
        self.busy = 0
        self.owners: dict[int, int] = {}
        self.locks: dict[int, int] = {}

    def _view(self, holders: dict[int, int]) -> list[int]:
        out = [FREE] * self.degree
        for rid, mask in holders.items():
            for k in iter_bits(mask):
                out[k] = rid
        return out

    @property
    def owner(self) -> list[int]:
        """Per-slot circuit owner (reservation id or ``FREE``)."""
        return self._view(self.owners)

    @property
    def lock(self) -> list[int]:
        """Per-slot lock holder (reservation id or ``FREE``)."""
        return self._view(self.locks)

    def free_slots(self) -> list[int]:
        """Slots neither owned nor locked."""
        return list(iter_bits(~self.busy & ((1 << self.degree) - 1)))

    def lock_mask(self, mask: int, rid: int) -> None:
        """Lock the slots of ``mask`` for reservation ``rid`` (must be free)."""
        clash = mask & self.busy
        if clash:
            raise RuntimeError(
                f"slot {(clash & -clash).bit_length() - 1} not free to lock"
            )
        self.busy |= mask
        self.locks[rid] = self.locks.get(rid, 0) | mask

    def lock_slots(self, slots: Iterable[int], rid: int) -> None:
        """Lock ``slots`` for reservation ``rid`` (must be free)."""
        mask = 0
        for k in slots:
            mask |= 1 << k
        self.lock_mask(mask, rid)

    def release_locks(self, rid: int, keep: int | None = None) -> int:
        """Drop ``rid``'s locks; if ``keep`` is given, that slot becomes owned.

        Returns the number of channels that became free (the kept slot
        turns into an owned circuit, so it does not count) -- the
        holding protocol wakes at most that many parked reservations.
        """
        mask = self.locks.pop(rid, 0)
        if keep is not None and mask >> keep & 1:
            bit = 1 << keep
            self.owners[rid] = self.owners.get(rid, 0) | bit
            mask ^= bit
        self.busy &= ~mask
        return mask.bit_count()

    def release_owner(self, rid: int) -> int:
        """Tear down ``rid``'s established channel(s); returns channels freed."""
        mask = self.owners.pop(rid, 0)
        self.busy &= ~mask
        return mask.bit_count()

    def clear_reservation(self, rid: int) -> int:
        """Forcibly drop every trace of ``rid`` -- locks *and* owners.

        Fault recovery uses this to tear a dead link's circuits and
        in-flight reservations out of the slot state regardless of which
        protocol phase (RES walk, ACK walk, streaming, REL walk) the
        reservation was in.  Returns the number of channels freed.
        """
        return self.release_locks(rid) + self.release_owner(rid)


class TDMNetwork:
    """Per-link slot state for a whole topology at degree K."""

    def __init__(self, topology: Topology, degree: int) -> None:
        if degree < 1:
            raise ValueError("multiplexing degree must be >= 1")
        self.topology = topology
        self.degree = degree
        self._links: dict[int, LinkSlotState] = {}

    def link(self, link_id: int) -> LinkSlotState:
        """State of ``link_id`` (lazily created -- most links of a
        sparse pattern are never touched)."""
        state = self._links.get(link_id)
        if state is None:
            state = self._links[link_id] = LinkSlotState(self.degree)
        return state

    def occupied_channels(self) -> int:
        """Total owned (link, slot) channels -- a utilisation probe."""
        return sum(
            mask.bit_count()
            for st in self._links.values()
            for mask in st.owners.values()
        )

    def orphans(self) -> list[tuple[int, int, str, int]]:
        """Every non-free (link, slot) channel as ``(link, slot, kind, holder)``.

        A drained network must return ``[]``: any surviving lock or
        owner is a leaked reservation (the fault-recovery property suite
        asserts this after arbitrary fault schedules).
        """
        out: list[tuple[int, int, str, int]] = []
        for link_id, st in self._links.items():
            for k, holder in enumerate(st.owner):
                if holder != FREE:
                    out.append((link_id, k, "owner", holder))
            for k, holder in enumerate(st.lock):
                if holder != FREE:
                    out.append((link_id, k, "lock", holder))
        return out
