"""Delta scheduling: amend an existing schedule instead of recompiling.

The paper compiles one static pattern per phase; a long-running network
absorbs a *rolling* request stream.  This module adds and removes a
handful of connections against an existing :class:`ConfigurationSet` by
local repair, so the amortized cost per update is ~O(update size), not
O(pattern size):

* **removals** free their slots in place (bitmask clears, emptied slots
  compacted by swapping the last slot in);
* **additions** pack first-fit into the freed slack using the
  slot-indexed bitmask kernel (:class:`repro.core.linkmask.SlotOccupancy`),
  opening at most :attr:`AmendPolicy.max_delta_k` fresh slots per update;
* a **cost model** escalates: a large update (relative to the pattern)
  goes straight to a full recompile; enough accumulated churn holes
  (with K above the link-load bound) trigger a partial recompaction
  (:func:`repro.core.packing.repack`); and a drift guard bounds how far
  an amended K may sit above the link-load lower bound, recompiling
  when local repair has drifted.

The drift guard is what makes the headline invariant *provable* rather
than empirical.  L, the max per-link load, is a degree lower bound for
*any* scheduler (a valid schedule uses each link at most once per slot,
so a link's load is the popcount of its slot mask); it is maintained
incrementally under adds/removes and answered in O(1).  A scheduler may
still pack intrinsically looser than L (long-route patterns like a
hypercube embedded in a torus), so the engine **certifies** the gap
``K - L`` at every full placement and the guard recompiles only when
the live gap exceeds the certified one by more than
``recompile_slack``.  Since ``L <= K_ff`` always, every amend satisfies

    ``degree <= first_fit(connections).degree
                + certified_gap + recompile_slack``

(the hypothesis suite asserts it), which collapses to the headline
``K <= K_ff + recompile_slack`` whenever the scheduler packs tight
(``certified_gap == 0``) -- and certifying, rather than assuming, the
gap is what stops the guard from recompiling every update on patterns
where first-fit simply cannot reach L.

Two entry points:

:class:`DeltaScheduler`
    The stateful incremental engine: owns the configurations, the slot
    occupancy and the index->slot map, so each :meth:`~DeltaScheduler.amend`
    costs O(update size) bitmask work (plus rare amortized
    repack/recompile episodes).  The service's ``amend`` verb and the
    churn campaign drive this.

:func:`amend_schedule`
    The stateless convenience wrapper: builds a throwaway engine from
    the input schedule (O(pattern size) setup), applies one update and
    returns the result.  Copy-on-write -- the input set is never
    mutated.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.core import perf
from repro.core.configuration import (
    Configuration,
    ConfigurationSet,
    ScheduleValidationError,
)
from repro.core.linkmask import SlotOccupancy, required_links
from repro.core.packing import first_fit, repack
from repro.core.paths import Connection

#: Actions the cost model can choose, cheapest first.
AMEND_ACTIONS = ("amend", "amend+repack", "recompile")


@dataclass(frozen=True)
class AmendPolicy:
    """Knobs of the amend-vs-recompile cost model.

    max_delta_k:
        Fresh slots one update may open before local repair gives up
        and recompiles.  The per-update K growth bound.
    recompile_slack:
        Drift guard: an amended schedule's gap above the link-load
        lower bound may exceed the gap certified at the last full
        placement by at most this much; beyond it, recompile.  This is
        the bound of the headline invariant ``K <= first-fit K +
        certified_gap + recompile_slack`` (``K <= first-fit K +
        recompile_slack`` when the scheduler packs down to the bound).
    repack_threshold:
        Fraction of the pattern removed in place since the last full
        placement past which the next amend is followed by a partial
        recompaction (``repack``) -- and only when K actually sits
        above the link-load lower bound, since repacking a K that is
        already optimal cannot help.  Counting *holes* rather than
        reading instantaneous slack skew keeps the trigger amortized:
        one O(pattern) repack per ``threshold * pattern`` removals.
    recompile_fraction:
        Updates touching at least this fraction of the post-update
        pattern skip local repair entirely -- at that size a fresh
        first-fit costs about the same and packs better.
    """

    max_delta_k: int = 2
    recompile_slack: int = 4
    repack_threshold: float = 0.5
    recompile_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.max_delta_k < 0:
            raise ValueError(f"max_delta_k must be >= 0, got {self.max_delta_k}")
        if self.recompile_slack < 0:
            raise ValueError(f"recompile_slack must be >= 0, got {self.recompile_slack}")
        if not 0.0 <= self.repack_threshold <= 1.0:
            raise ValueError(
                f"repack_threshold must be in [0, 1], got {self.repack_threshold}"
            )
        if not 0.0 < self.recompile_fraction <= 1.0:
            raise ValueError(
                f"recompile_fraction must be in (0, 1], got {self.recompile_fraction}"
            )


DEFAULT_POLICY = AmendPolicy()


def fragmentation(schedule: Sequence[Configuration]) -> float:
    """Slack skew of a schedule: 0.0 = every slot as full as the peak.

    ``1 - n / (K * peak)`` where ``peak`` is the largest configuration:
    the fraction of the frame's peak-normalised capacity sitting idle.
    An *observable* (reported per amend and by the service's ``amend``
    verb), not the repack trigger: a fresh first-fit schedule is
    already skewed, so the engine triggers recompaction on the churn
    hole count instead (see :attr:`AmendPolicy.repack_threshold`).
    """
    sizes = [len(cfg) for cfg in schedule]
    return _slack(sum(sizes), len(sizes), max(sizes, default=0))


def _slack(total: int, k: int, peak: int) -> float:
    """:func:`fragmentation` from ``total`` connections in ``k`` slots of
    at most ``peak`` each."""
    if k == 0:
        return 0.0
    if peak == 0:
        return 1.0
    return 1.0 - total / (k * peak)


@dataclass
class AmendResult:
    """Outcome of one :meth:`DeltaScheduler.amend` call.

    schedule:
        The post-update schedule.  Independent of the input set (the
        engine is copy-on-write) but shared with the engine's live
        state -- callers that keep amending must treat it as read-only
        or :meth:`~ConfigurationSet.clone` it.
    action:
        Which branch the cost model took (one of :data:`AMEND_ACTIONS`).
    delta_k:
        Degree change relative to the pre-update schedule (may be
        negative).
    degree:
        Post-update multiplexing degree K.
    fragmentation:
        Post-update :func:`fragmentation`.
    added / removed:
        Connection counts actually applied.
    """

    schedule: ConfigurationSet
    action: str
    delta_k: int
    degree: int
    fragmentation: float
    added: int
    removed: int


class DeltaScheduler:
    """Stateful incremental scheduler over a live configuration set.

    Owns cloned configurations plus the occupancy/index bookkeeping, so
    successive :meth:`amend` calls cost O(update size) bitmask work.
    The input schedule is cloned up front and never touched.
    """

    def __init__(
        self,
        schedule: ConfigurationSet,
        *,
        num_links: int | None = None,
        policy: AmendPolicy = DEFAULT_POLICY,
    ) -> None:
        self.policy = policy
        self._tag = schedule.scheduler
        if num_links is None:
            num_links = required_links(schedule.all_connections())
        self._configs: list[Configuration] = []
        self._occ = SlotOccupancy(num_links)
        self._slot_of: dict[int, int] = {}
        self._conn_of: dict[int, Connection] = {}
        #: removals applied in place since the last full placement --
        #: the repack trigger's churn counter (see AmendPolicy).
        self._holes = 0
        self._install([cfg.clone() for cfg in schedule if len(cfg) > 0])

    # -- read-only views --------------------------------------------------
    @property
    def degree(self) -> int:
        """Current multiplexing degree K."""
        return len(self._configs)

    @property
    def num_connections(self) -> int:
        """Connections currently scheduled."""
        return len(self._conn_of)

    @property
    def schedule(self) -> ConfigurationSet:
        """The live schedule (shared with the engine -- treat as read-only)."""
        return ConfigurationSet(list(self._configs), scheduler=self._tag)

    def connections(self) -> list[Connection]:
        """The scheduled connections in index order (for ``validate``)."""
        return [self._conn_of[i] for i in sorted(self._conn_of)]

    def fragmentation(self) -> float:
        """Current :func:`fragmentation` of the live schedule, in O(1):
        the peak configuration size is kept like the peak link load."""
        return _slack(self.num_connections, self.degree, self._size_max)

    @property
    def certified_gap(self) -> int:
        """``K - L`` at the last full placement.

        The scheduler's intrinsic packing gap on this pattern (0 when
        it reaches the link-load bound).  The drift guard and the
        provable degree invariant are both relative to it.
        """
        return self._cert_gap

    def link_load_bound(self) -> int:
        """Max link load L (a degree lower bound), maintained incrementally.

        Each link is busy at most once per slot, so its load is the
        popcount of its slot mask.  L is independent of the *slotting*
        (only of the connection multiset), so the engine tracks per-link
        loads plus a load histogram under adds/removes and answers in
        O(1) -- no per-amend rescan of the mask table.
        """
        return self._load_max

    # -- state maintenance ------------------------------------------------
    def _install(self, configs: list[Configuration]) -> None:
        """(Re)build occupancy and index maps from scratch -- O(pattern)."""
        self._configs = configs
        occ = SlotOccupancy(len(self._occ.masks))
        occ.num_slots = len(configs)
        slot_of: dict[int, int] = {}
        conn_of: dict[int, Connection] = {}
        for slot, cfg in enumerate(configs):
            for c in cfg:
                if c.index in slot_of:
                    raise ScheduleValidationError(
                        f"connection index {c.index} scheduled twice"
                    )
                self._ensure_links(c.links, occ)
                occ.place(c.links, slot)
                slot_of[c.index] = slot
                conn_of[c.index] = c
        self._occ = occ
        self._slot_of = slot_of
        self._conn_of = conn_of
        self._holes = 0
        self._loads = [m.bit_count() for m in occ.masks]
        hist: dict[int, int] = {}
        for load in self._loads:
            hist[load] = hist.get(load, 0) + 1
        self._load_hist = hist
        self._load_max = max(self._loads, default=0)
        sizes: dict[int, int] = {}
        for cfg in configs:
            sizes[len(cfg)] = sizes.get(len(cfg), 0) + 1
        self._size_hist = sizes
        self._size_max = max(sizes, default=0)
        #: K - L certified by this full placement: the scheduler's
        #: intrinsic packing gap on this pattern, which the drift guard
        #: must tolerate (only *drift beyond it* is the engine's debt).
        self._cert_gap = max(0, len(configs) - self._load_max)

    def _ensure_links(self, links: tuple[int, ...], occ: SlotOccupancy | None = None) -> None:
        """Grow the per-link mask table (and load table) to cover ``links``."""
        target = occ or self._occ
        top = max(links, default=-1)
        grow = top + 1 - len(target.masks)
        if grow > 0:
            target.masks.extend([0] * grow)
            if target is self._occ:
                self._loads.extend([0] * grow)
                self._load_hist[0] = self._load_hist.get(0, 0) + grow

    def _load_shift(self, links: tuple[int, ...], delta: int) -> None:
        """Apply +-1 to the tracked load of every link in ``links``.

        Amortized O(len(links)): the histogram makes the max decrement
        (the only non-trivial case) a downward scan that total-orders
        with the increments that raised it.
        """
        loads, hist = self._loads, self._load_hist
        for link in links:
            old = loads[link]
            new = old + delta
            loads[link] = new
            hist[old] -= 1
            if not hist[old]:
                del hist[old]
            hist[new] = hist.get(new, 0) + 1
            if new > self._load_max:
                self._load_max = new
        if delta < 0:
            while self._load_max > 0 and self._load_max not in hist:
                self._load_max -= 1

    def _size_shift(self, old: int, new: int) -> None:
        """Move one configuration from size ``old`` to size ``new`` in the
        configuration-size histogram, keeping its peak.

        Size 0 is not counted: an emptied configuration leaves the
        histogram here, before :meth:`_drop_slot` removes it (the
        configuration that moves into its slot keeps its size), and a
        fresh one enters with its first connection.
        """
        hist = self._size_hist
        if old:
            hist[old] -= 1
            if not hist[old]:
                del hist[old]
        if new:
            hist[new] = hist.get(new, 0) + 1
            if new > self._size_max:
                self._size_max = new
        while self._size_max > 0 and self._size_max not in hist:
            self._size_max -= 1

    def _drop_slot(self, slot: int) -> None:
        """Remove an emptied slot, swapping the last slot into its place.

        O(size of the last configuration): its members are re-pointed at
        ``slot`` in both the bitmasks and the index map.  Slot order is
        not semantically meaningful, so the swap preserves validity.
        """
        last = len(self._configs) - 1
        if slot != last:
            mover = self._configs[last]
            for c in mover:
                self._occ.remove(c.links, last)
                self._occ.place(c.links, slot)
                self._slot_of[c.index] = slot
            self._configs[slot] = mover
        self._configs.pop()
        self._occ.num_slots -= 1

    def _recompile(self, target: list[Connection]) -> None:
        """Full first-fit recompile of ``target`` + state rebuild."""
        # An update may recompile before its additions ever touched the
        # occupancy, so the mask table cannot be assumed to cover them.
        packed = first_fit(
            target,
            scheduler=self._tag or "first-fit",
            num_links=max(len(self._occ.masks), required_links(target)),
        )
        self._install([cfg for cfg in packed if len(cfg) > 0])

    # -- the amend engine -------------------------------------------------
    def amend(
        self,
        *,
        add: Sequence[Connection] = (),
        remove: Iterable[int] = (),
    ) -> AmendResult:
        """Apply one update: remove connection indices, add routed connections.

        ``remove`` holds connection *indices* currently scheduled
        (``KeyError`` on an unknown or doubly-removed index).  ``add``
        holds routed :class:`Connection` objects whose indices collide
        with nothing scheduled or added (``ValueError`` otherwise).

        Returns an :class:`AmendResult`; the engine's live state is the
        result's schedule.
        """
        t0 = perf.perf_timer()
        remove = list(remove)
        degree_before = self.degree
        # Validate the whole update up front so a bad row leaves the
        # schedule untouched.
        seen_new: set[int] = set()
        for c in add:
            if c.index in self._conn_of or c.index in seen_new:
                raise ValueError(
                    f"added connection index {c.index} is already scheduled"
                )
            seen_new.add(c.index)
        for idx in remove:
            if idx not in self._conn_of:
                raise KeyError(f"connection index {idx} is not scheduled")
        if len(remove) != len(set(remove)):
            raise KeyError("a connection index is removed twice in one update")

        survivors_after = self.num_connections - len(remove) + len(add)
        target: list[Connection] | None = None  # built lazily for recompiles

        def full_target() -> list[Connection]:
            nonlocal target
            if target is None:
                gone = set(remove)
                keep = {i: c for i, c in self._conn_of.items() if i not in gone}
                for c in add:
                    keep[c.index] = c
                target = [keep[i] for i in sorted(keep)]
            return target

        update_size = len(add) + len(remove)
        if update_size >= self.policy.recompile_fraction * max(survivors_after, 1):
            self._recompile(full_target())
            return self._result("recompile", degree_before, add, remove, t0)

        # Removals: free the bitmask slots in place; compact emptied slots.
        for idx in remove:
            slot = self._slot_of.pop(idx)
            conn = self._conn_of.pop(idx)
            self._configs[slot].remove(conn)
            self._occ.remove(conn.links, slot)
            self._load_shift(conn.links, -1)
            size = len(self._configs[slot])
            self._size_shift(size + 1, size)
            self._holes += 1
            if size == 0:
                self._drop_slot(slot)

        # Additions: first-fit into slack, opening at most max_delta_k
        # fresh slots; past the budget, local repair loses to first-fit.
        opened = 0
        for c in add:
            self._ensure_links(c.links)
            slot = self._occ.first_fit_slot(c.links)
            if slot == len(self._configs):
                if opened >= self.policy.max_delta_k:
                    self._recompile(full_target())
                    return self._result("recompile", degree_before, add, remove, t0)
                opened += 1
                self._configs.append(Configuration())
            self._occ.place(c.links, slot)
            self._load_shift(c.links, +1)
            self._configs[slot].add(c)  # re-checks conflict-freeness
            size = len(self._configs[slot])
            self._size_shift(size - 1, size)
            self._slot_of[c.index] = slot
            self._conn_of[c.index] = c

        # Recompaction: enough holes have accumulated since the last
        # full placement (amortizes the O(pattern) repack) *and* K sits
        # above the link-load bound (a repack of an optimal K is pure
        # waste -- L is slotting-invariant, so it survives the repack).
        action = "amend"
        bound = self.link_load_bound()
        if (
            self.degree > bound
            and self._holes > self.policy.repack_threshold
            * max(self.num_connections, 1)
        ):
            repacked = repack(self.schedule)
            self._install([cfg for cfg in repacked if len(cfg) > 0])
            action = "amend+repack"

        # Drift guard: the gap above the link-load lower bound may sit
        # at most recompile_slack past the gap certified at the last
        # full placement.  L <= K_first_fit always, which proves the
        # K <= first-fit K + certified_gap + recompile_slack invariant
        # -- and a recompile re-certifies, so it can never loop on a
        # pattern whose intrinsic gap first-fit cannot close.
        if self.degree > bound + self._cert_gap + self.policy.recompile_slack:
            self._recompile(full_target())
            return self._result("recompile", degree_before, add, remove, t0)
        return self._result(action, degree_before, add, remove, t0)

    def _result(
        self,
        action: str,
        degree_before: int,
        add: Sequence[Connection],
        remove: Sequence[int],
        t0: float,
    ) -> AmendResult:
        perf.COUNTERS.amend_updates += 1
        perf.COUNTERS.amend_seconds += perf.perf_timer() - t0
        if action == "recompile":
            perf.COUNTERS.amend_recompiles += 1
        elif action == "amend+repack":
            perf.COUNTERS.amend_repacks += 1
        return AmendResult(
            schedule=self.schedule,
            action=action,
            delta_k=self.degree - degree_before,
            degree=self.degree,
            fragmentation=self.fragmentation(),
            added=len(add),
            removed=len(remove),
        )


def amend_schedule(
    schedule: ConfigurationSet,
    *,
    add: Sequence[Connection] = (),
    remove: Iterable[int] = (),
    policy: AmendPolicy = DEFAULT_POLICY,
    num_links: int | None = None,
) -> AmendResult:
    """Apply one add/remove update to ``schedule`` (copy-on-write).

    The stateless convenience wrapper around :class:`DeltaScheduler`:
    builds a throwaway engine (O(pattern size) setup), applies the
    update and returns the :class:`AmendResult`.  The input schedule is
    never mutated.  Long-running callers (the service's ``amend`` verb,
    the churn campaign) should hold a :class:`DeltaScheduler` instead
    to get O(update size) incremental cost.
    """
    engine = DeltaScheduler(schedule, num_links=num_links, policy=policy)
    return engine.amend(add=add, remove=remove)
