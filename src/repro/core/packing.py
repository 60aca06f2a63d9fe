"""Shared packing primitives used by several schedulers.

Two building blocks live here:

:func:`first_fit`
    Place each connection (in a given order) into the first
    configuration it fits, opening a new configuration when none fits.
    This is *exactly* the paper's greedy algorithm (Fig. 2): the
    paper's formulation fills configuration C_k by one pass over the
    remaining requests before opening C_{k+1}, and a short induction
    shows both formulations assign every request to the same
    configuration -- a request joins C_k iff it conflicts with some
    earlier-ordered member of each of C_1..C_{k-1} and with none in
    C_k.  First-fit is the cheaper formulation, O(|R| * K) fit tests.

:func:`repack`
    A local-search improver: repeatedly try to dissolve the smallest
    configuration by moving each of its members into some other
    configuration.  Preserves validity by construction; used by the
    ablation schedulers and by the AAPC phase builder, *not* by the
    paper's three algorithms (they are reproduced faithfully).

Placement tests run on the bitmask kernel (:mod:`repro.core.linkmask`).
The property suite holds both to a hash-set reference implementation
kept in the tests: the schedules must be *identical*.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence
from itertools import chain

import numpy as np

from repro.core import perf
from repro.core.configuration import Configuration, ConfigurationSet
from repro.core.linkmask import SlotMatrix, SlotOccupancy, required_links
from repro.core.paths import Connection


def validate_order(order: Sequence[int], n: int) -> None:
    """Raise ``ValueError`` unless ``order`` is a permutation of ``range(n)``.

    First-fit silently mis-schedules on a malformed order (a duplicate
    position schedules one connection twice; an omission breaks
    coverage), so every caller-supplied order is checked up front.
    """
    arr = np.asarray(order)
    if arr.ndim != 1 or arr.size != n:
        raise ValueError(
            f"order must be a permutation of range({n}): "
            f"got {arr.size} positions, expected {n}"
        )
    if n == 0:
        return
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(
            f"order must be a permutation of range({n}): "
            f"got non-integer positions (dtype {arr.dtype})"
        )
    if not np.array_equal(np.sort(arr), np.arange(n)):
        counts = np.bincount(arr[(arr >= 0) & (arr < n)], minlength=n)
        duplicated = np.nonzero(counts > 1)[0][:5].tolist()
        missing = np.nonzero(counts == 0)[0][:5].tolist()
        out_of_range = arr[(arr < 0) | (arr >= n)][:5].tolist()
        raise ValueError(
            f"order must be a permutation of range({n}): "
            f"duplicated positions {duplicated}, missing positions {missing}, "
            f"out-of-range positions {out_of_range} (first 5 of each shown)"
        )


def first_fit(
    connections: Sequence[Connection],
    order: Sequence[int] | None = None,
    *,
    scheduler: str = "first-fit",
    num_links: int | None = None,
    runs: Sequence[int] | None = None,
) -> ConfigurationSet:
    """Pack ``connections`` first-fit in the given order.

    Parameters
    ----------
    connections:
        The routed request set.
    order:
        Positions into ``connections`` giving the processing order;
        defaults to the natural (request) order.  Must be a permutation
        of ``range(len(connections))`` (``ValueError`` otherwise).
    num_links:
        Size of the link-id space (``topology.num_links``); derived
        from the connections when omitted.
    runs:
        Optional lengths of consecutive blocks of the *ordered*
        sequence whose members are mutually link-disjoint (e.g. the
        AAPC phase blocks of :func:`repro.core.aapc_ordered.aapc_rank_order`).
        Each block is then placed with one vectorized pass
        (:class:`repro.core.linkmask.SlotMatrix`) instead of a Python
        loop.  The result is *byte-identical* to the sequential
        placement: within a link-disjoint run, placing one member never
        changes whether a later member fits any slot (their link sets
        cannot meet), and every member fitting no pre-run slot shares
        the single freshly opened slot -- exactly what the sequential
        scan does.  The precondition is verified up front
        (``ValueError`` on overlapping run members or lengths not
        summing to the sequence), so a wrong hint can never corrupt a
        schedule.
    """
    if order is None:
        seq = connections
    else:
        validate_order(order, len(connections))
        seq = [connections[i] for i in order]
    t0 = perf.perf_timer()
    if runs is not None:
        result = _first_fit_bitmask_runs(seq, scheduler, num_links, runs)
    else:
        result = _first_fit_bitmask(seq, scheduler, num_links)
    perf.COUNTERS.kernel_calls += 1
    perf.COUNTERS.kernel_seconds += perf.perf_timer() - t0
    return result


def _first_fit_bitmask(
    seq: Sequence[Connection], scheduler: str, num_links: int | None
) -> ConfigurationSet:
    """Bitmask first-fit: one OR over the path's slot masks per placement."""
    if num_links is None:
        num_links = required_links(seq)
    occ = SlotOccupancy(num_links)
    members: list[list[Connection]] = []
    for c in seq:
        slot = occ.first_fit_slot(c.links)
        if slot == len(members):
            members.append([])
        occ.place(c.links, slot)
        members[slot].append(c)
    return ConfigurationSet(
        [Configuration._trusted(m) for m in members], scheduler=scheduler
    )


def _first_fit_bitmask_runs(
    seq: Sequence[Connection],
    scheduler: str,
    num_links: int | None,
    runs: Sequence[int],
) -> ConfigurationSet:
    """Run-batched bitmask first-fit (see ``first_fit``'s ``runs=`` doc)."""
    runs_arr = np.asarray(runs, dtype=np.intp)
    n = len(seq)
    if runs_arr.ndim != 1 or (runs_arr.size > 0 and int(runs_arr.min()) < 1):
        raise ValueError(f"runs must be a flat sequence of positive lengths, got {runs!r}")
    if int(runs_arr.sum()) != n:
        raise ValueError(
            f"runs sum to {int(runs_arr.sum())} but the sequence has {n} connections"
        )
    if num_links is None:
        num_links = required_links(seq)
    lens = np.fromiter((len(c.links) for c in seq), dtype=np.intp, count=n)
    total = int(lens.sum())
    flat = np.fromiter(
        chain.from_iterable(c.links for c in seq), dtype=np.intp, count=total
    )
    # Verify the disjointness precondition: a (run, link) key occurring
    # twice is a link shared by two members of one run.
    run_of = np.repeat(np.arange(runs_arr.size, dtype=np.int64), runs_arr)
    key = np.repeat(run_of, lens) * np.int64(max(num_links, 1)) + flat
    key.sort()
    if key.size and bool((key[1:] == key[:-1]).any()):
        raise ValueError(
            "runs must partition the ordered sequence into mutually "
            "link-disjoint blocks; two members of one run share a link"
        )
    occ = SlotMatrix(num_links)
    members: list[list[Connection]] = []
    conn_starts = np.zeros(n, dtype=np.intp)
    np.cumsum(lens[:-1], out=conn_starts[1:])
    pos = 0
    for run_len in runs_arr:
        lo, hi = pos, pos + int(run_len)
        seg = slice(int(conn_starts[lo]), int(conn_starts[hi - 1] + lens[hi - 1]))
        slots = occ.place_run(flat[seg], lens[lo:hi])
        for off, s in enumerate(slots.tolist()):
            if s == len(members):
                members.append([])
            members[s].append(seq[lo + off])
        pos = hi
    return ConfigurationSet(
        [Configuration._trusted(m) for m in members], scheduler=scheduler
    )


# ----------------------------------------------------------------------
# repack
# ----------------------------------------------------------------------

def _try_dissolve(victim: Configuration, others: Sequence[Configuration]) -> bool:
    """Move every member of ``victim`` into some configuration of ``others``.

    All-or-nothing: on failure every tentative move is rolled back and
    ``victim`` is left exactly as found, members in their original
    order.  Hash-set fit tests, first fitting configuration in
    ``others`` order; the AAPC degree optimiser
    (:mod:`repro.aapc.optimize`) calls it.
    """
    original = list(victim.connections)
    moves: list[tuple[Connection, Configuration]] = []
    tests = 0
    for c in original:
        for cfg in others:
            tests += 1
            if cfg.fits(c):
                victim.remove(c)
                cfg.add(c)
                moves.append((c, cfg))
                break
        else:
            for moved, cfg in moves:
                cfg.remove(moved)
                victim.used_links |= moved.link_set
            victim.connections[:] = original
            perf.COUNTERS.fit_tests += tests
            return False
    perf.COUNTERS.fit_tests += tests
    return True


def _dissolve_on_slots(
    occ: SlotOccupancy,
    victim: Configuration,
    configs: list[Configuration],
    victim_pos: int,
) -> list[Configuration] | None:
    """All-or-nothing dissolution of ``victim`` on slot masks.

    Each member goes to the lowest other slot where all its links are
    free.  The members are link-disjoint, so moving one never changes
    where another fits: every member is tested against the masks as
    they stand, and nothing moves unless all of them fit.  Returns the
    receiving configurations, one per member, else ``None``.
    """
    targets = []
    for c in victim.connections:
        free = occ.free_slots(c.links, exclude=victim_pos)
        if not free:
            return None
        targets.append((free & -free).bit_length() - 1)
    # The trial succeeded on masks alone; apply it to the real
    # configurations (``add`` re-checks disjointness, so a mask
    # bug surfaces as ScheduleValidationError, never silently).
    # The victim's bits stay until the caller drops its slot whole.
    receivers = []
    for c, target in zip(list(victim.connections), targets):
        occ.place(c.links, target)
        victim.remove(c)
        configs[target].add(c)
        receivers.append(configs[target])
    return receivers


def repack(
    schedule: ConfigurationSet,
    *,
    max_rounds: int = 1000,
) -> ConfigurationSet:
    """Local-search improver: dissolve configurations where possible.

    Repeatedly walks the configurations smallest-first and attempts an
    all-or-nothing dissolution of each into the remaining ones; every
    success removes one time slot.  Stops at a local optimum (no
    configuration dissolvable) or after ``max_rounds`` successes.

    The candidate order (by size, creation order breaking ties) is
    maintained incrementally: the single up-front sort is patched after
    each successful dissolve instead of re-sorting every round.

    Copy-on-write: the input set is never mutated -- its configurations
    are cloned up front (O(total connections) pointer copies), so a
    schedule materialised from a cache-held artifact stays intact.
    Validity is preserved by construction --
    :meth:`Configuration.add` re-checks link-disjointness on every move.
    """
    configs = [cfg.clone() for cfg in schedule if len(cfg) > 0]
    occ = SlotOccupancy(
        1 + max((max(cfg.used_links) for cfg in configs if cfg.used_links), default=-1)
    )
    for pos, cfg in enumerate(configs):
        occ.place(tuple(cfg.used_links), pos)
    # Creation-order ranks make (len, rank) a total order, so incremental
    # re-insertion reproduces the stable smallest-first sort exactly.
    rank = {id(cfg): pos for pos, cfg in enumerate(configs)}
    key = lambda cfg: (len(cfg), rank[id(cfg)])  # noqa: E731
    ordered = sorted(configs, key=key)
    # Slot position of every live configuration, by identity -- pop
    # maintenance is O(K - pos) decrements, replacing the O(K) identity
    # scan ``configs.index(victim)`` per dissolve candidate.
    position = {id(cfg): pos for pos, cfg in enumerate(configs)}

    for _ in range(max_rounds):
        if len(configs) <= 1:
            break
        for victim in ordered:
            victim_pos = position[id(victim)]
            receivers = _dissolve_on_slots(occ, victim, configs, victim_pos)
            if receivers is not None:
                occ.drop_slot(victim_pos)
                configs.pop(victim_pos)
                del position[id(victim)]
                for cfg in configs[victim_pos:]:
                    position[id(cfg)] -= 1
                ordered.remove(victim)
                for cfg in {id(c): c for c in receivers}.values():
                    ordered.remove(cfg)
                    bisect.insort(ordered, cfg, key=key)
                break
        else:
            break
    return ConfigurationSet(configs, scheduler=schedule.scheduler + "+repack")
