"""Compiled-communication network model.

Under compiled communication the compiler has already partitioned the
pattern's connections into K configurations (we use the paper's
*combined* scheduler by default); at run time the switch registers are
preloaded, the network cycles through the K states, and every message
simply streams during its connection's slot -- no reservations, no
headers, no control traffic.  The communication time of a pattern is
the makespan over its messages:

    ``startup + finish(slot, K, ceil(size / slot_payload))``

where a message owning slot ``s`` transmits ``slot_payload`` elements
each time the frame reaches ``s``.

The evaluation is analytic; the test suite cross-validates the closed
form the table drivers rely on for speed against a literal slot-stepped
simulation (``tests/compiled_reference.py``), and the two agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import perf
from repro.core.configuration import ConfigurationSet
from repro.core.paths import Connection, route_requests
from repro.core.registry import get_scheduler
from repro.core.requests import RequestSet
from repro.simulator.messages import Message, messages_from_requests
from repro.simulator.params import SimParams
from repro.topology.base import Topology


def transfer_chunks(size: int, slot_payload: int) -> int:
    """Number of owned slots needed to move ``size`` elements."""
    if size < 1:
        raise ValueError("message size must be >= 1 element")
    return -(-size // slot_payload)


def transfer_finish(start: int, slot: int, degree: int, chunks: int) -> int:
    """Completion time of a transfer that may begin at ``start``.

    The connection owns slot index ``slot`` of a ``degree``-slot frame;
    the first usable slot is the earliest time >= ``start`` congruent to
    ``slot`` (mod ``degree``), and one chunk moves per frame after that.
    """
    first = start + (slot - start) % degree
    return first + (chunks - 1) * degree + 1


def chunks_in_window(start: int, end: int, slot: int, degree: int) -> int:
    """Chunks a connection owning ``slot`` moves during ``[start, end)``.

    The closed-form count of slot times congruent to ``slot`` (mod
    ``degree``) in the window -- the fault simulator uses it to advance
    partial transfers exactly between reschedule points.
    """
    if end <= start:
        return 0
    first = start + (slot - start) % degree
    if first >= end:
        return 0
    return (end - 1 - first) // degree + 1


@dataclass
class CompiledResult:
    """Outcome of a compiled-communication run of one pattern."""

    completion_time: int
    degree: int
    schedule: ConfigurationSet
    messages: list[Message]
    params: SimParams

    @property
    def makespan(self) -> int:
        """Alias for ``completion_time`` (slots)."""
        return self.completion_time


def compiled_completion_time(
    topology: Topology,
    requests: RequestSet,
    params: SimParams = SimParams(),
    *,
    scheduler: str = "combined",
) -> CompiledResult:
    """Analytic compiled-communication time of ``requests``.

    Schedules the pattern (computing the minimal multiplexing degree
    the chosen algorithm finds), assigns each message its slot, and
    evaluates the closed-form makespan.
    """
    connections = route_requests(topology, requests)
    schedule = get_scheduler(scheduler)(connections, topology)
    slot_map = schedule.slot_map()
    messages = messages_from_requests(requests)
    degree = max(schedule.degree, 1)
    completion = params.compiled_startup
    for m in messages:
        m.first_attempt = 0
        m.established = params.compiled_startup
        m.slot = slot_map[m.mid]
        chunks = transfer_chunks(m.size, params.slot_payload)
        m.delivered = transfer_finish(
            params.compiled_startup, m.slot, degree, chunks
        )
        completion = max(completion, m.delivered)
    return CompiledResult(
        completion_time=completion,
        degree=schedule.degree,
        schedule=schedule,
        messages=messages,
        params=params,
    )


@dataclass
class CompiledFaultResult:
    """Outcome of a compiled run through a runtime fault schedule.

    Each mid-run fiber cut that touches an undelivered connection
    triggers a **reschedule**: the compiler reroutes and reslots the
    remainder on the degraded topology, pays
    ``SimParams.recompile_latency`` slots of global pause (the switch
    shift-registers are reloaded network-wide), and resumes at element
    granularity -- the schedule records exactly what was delivered
    when, so nothing is retransmitted.  Cuts that miss every remaining
    route cost nothing, and repairs are absorbed lazily at the next
    reschedule (re-establishing circuits just to use a repaired fiber
    rarely pays for the reconfiguration).
    """

    completion_time: int
    #: schedule degree of the initial (pre-fault) compilation.
    initial_degree: int
    #: largest degree any reschedule needed -- the fault's footprint.
    max_degree: int
    #: degree of the last active schedule.
    final_degree: int
    reschedules: int
    #: total slots spent paused in recompilation.
    recompile_slots: int
    #: messages unroutable on the degraded network (partitioned).
    lost: int
    messages: list[Message]
    #: one entry per ``fail`` event: slot, link, messages rescheduled,
    #: time-to-recover (slots until transfers resumed; 0 for misses),
    #: and ``recovery`` (``"failover"``/``"recompile"``/``"none"``).
    fault_log: list[dict]
    params: SimParams
    #: recovery mode the run used (``"reactive"`` or ``"protected"``).
    recovery: str = "reactive"
    #: protected failovers executed (backup register-image swaps).
    failovers: int = 0
    #: total slots spent paused in failovers.
    failover_slots: int = 0
    #: protected-mode faults that had to fall back to recompilation
    #: (uncovered scenario, or backup routes blocked by other cuts).
    uncovered: int = 0

    @property
    def makespan(self) -> int:
        """Alias for ``completion_time`` (slots)."""
        return self.completion_time

    @property
    def degree_inflation(self) -> int:
        """Extra slots per frame the faults forced on the schedule."""
        return self.max_degree - self.initial_degree


def simulate_compiled_faulty(
    topology: Topology,
    requests: RequestSet,
    faults,
    params: SimParams = SimParams(),
    *,
    scheduler: str = "combined",
    cache=None,
    recovery: str = "reactive",
    protection=None,
) -> CompiledFaultResult:
    """Compiled run of ``requests`` under a runtime fault schedule.

    Advances transfers in closed form between fault events; a ``fail``
    whose fiber carries an undelivered connection pauses the network,
    recompiles the remainder (remaining element counts, degraded
    routes) and resumes ``recompile_latency`` slots later.  Events at
    slot 0 degrade the topology *before* the initial compile, making
    them equivalent to scheduling on a pre-run
    :class:`~repro.topology.faults.FaultyTopology`.  With an empty
    schedule this reduces exactly to :func:`compiled_completion_time`.

    ``cache`` (an :class:`repro.service.cache.ArtifactCache`) routes
    every (re)compilation through the artifact cache: repeated faults
    that leave the network in a previously-compiled degraded state --
    common in long campaigns that cut and repair the same fibers --
    reuse the stored schedule and pay only the simulated
    ``recompile_latency``, no host-side scheduler run.  Cached compiles
    schedule the *canonical* form of the remainder, so slot numbering
    (not validity or simulated cost model) can differ from an uncached
    run when the scheduler is sensitive to request order.

    ``recovery="protected"`` precomputes (or accepts via ``protection``,
    a :class:`~repro.core.protection.ProtectedSchedule` built over the
    same request set) a backup configuration set for every single-fiber
    fault at compile time.  A cut that hits a live route then **fails
    over**: the precomputed backup register images for that scenario are
    selected and the run resumes ``failover_latency`` slots later --
    zero run-time scheduling.  Recompilation remains only as the
    fallback for uncovered scenarios: a partitioning cut, or a backup
    plan whose routes cross *another* fiber that is currently down
    (double faults).  A failover is legal from any simulator state
    because each scenario's backup schedule is a complete conflict-free
    schedule of the whole pattern on the degraded topology -- delivered
    messages just leave their slots dark.
    """
    from repro.topology.base import RoutingError
    from repro.topology.faults import FaultyTopology

    if recovery not in ("reactive", "protected"):
        raise ValueError(
            f"recovery must be 'reactive' or 'protected', got {recovery!r}"
        )
    if isinstance(topology, FaultyTopology):
        topo = FaultyTopology(topology.base, topology.failed_links)
    else:
        topo = FaultyTopology(topology)
    faults.validate_for(topo)
    messages = messages_from_requests(requests)
    remaining = {m.mid: m.size for m in messages}
    for m in messages:
        m.first_attempt = 0

    lost_count = 0
    degrees: list[int] = []
    fault_log: list[dict] = []
    reschedules = 0
    recompile_slots = 0
    failovers = 0
    failover_slots = 0
    uncovered_hits = 0
    slots: dict[int, int] = {}
    routes: dict[int, frozenset[int]] = {}
    degree = 1
    protected_sched = None  # ProtectedSchedule once compiled
    idx_to_mid: dict[int, int] = {}  # protection connection index -> mid

    def drop_unroutable(start: int) -> list[int]:
        """Declare partitioned messages lost; return the routable mids."""
        nonlocal lost_count
        live: list[int] = []
        for mid in sorted(remaining):
            m = messages[mid]
            try:
                topo.route(m.src, m.dst)
            except RoutingError:
                m.lost = start
                lost_count += 1
                continue
            live.append(mid)
        for mid in list(remaining):
            if messages[mid].lost is not None:
                del remaining[mid]
        return live

    def compile_remaining(start: int) -> None:
        """(Re)schedule every undelivered message on the current topology."""
        nonlocal slots, routes, degree
        live = drop_unroutable(start)
        slots, routes = {}, {}
        if not live:
            degrees.append(degree)
            return
        # A pristine wrapper routes identically to its base but hides
        # the concrete type from structure-aware schedulers (AAPC), so
        # compile on the base until a failure is actually in force.
        sched_topo = topo if topo.failed_links else topo.base
        if cache is not None:
            from repro.service.compile import compile_pattern

            # Tag each sub-request with its message id so the cached
            # (canonical, detranslated) slot entries map back to
            # messages regardless of request order.
            tuples = [
                (messages[mid].src, messages[mid].dst, remaining[mid], mid)
                for mid in live
            ]
            try:
                result = compile_pattern(
                    sched_topo, tuples, cache=cache, scheduler=scheduler
                )
            except RoutingError:
                result = compile_pattern(
                    sched_topo, tuples, cache=cache, scheduler="coloring"
                )
            degree = max(result.degree, 1)
            degrees.append(result.degree)
            for slot_idx, entries in enumerate(result.schedule_doc["slots"]):
                for e in entries:
                    mid = e["tag"]
                    slots[mid] = slot_idx
                    messages[mid].slot = slot_idx
                    messages[mid].established = start
            for mid in live:
                routes[mid] = frozenset(
                    sched_topo.route(messages[mid].src, messages[mid].dst)
                )
            return
        sub = RequestSet.from_sized_pairs(
            [(messages[mid].src, messages[mid].dst, remaining[mid]) for mid in live]
        )
        connections = route_requests(sched_topo, sub)
        try:
            schedule = get_scheduler(scheduler)(connections, sched_topo)
        except RoutingError:
            # Structure-aware schedulers (AAPC) route node pairs beyond
            # the surviving connections; a partition can disconnect
            # those even when every live message is routable.
            schedule = get_scheduler("coloring")(connections, sched_topo)
        slot_map = schedule.slot_map()
        degree = max(schedule.degree, 1)
        degrees.append(schedule.degree)
        for i, mid in enumerate(live):
            slots[mid] = slot_map[i]
            routes[mid] = connections[i].link_set
            messages[mid].slot = slot_map[i]
            messages[mid].established = start

    def advance(t0: int, t1: int | None) -> None:
        """Move data during ``[t0, t1)`` (``t1=None``: run to drain)."""
        for mid in list(remaining):
            m = messages[mid]
            chunks = transfer_chunks(remaining[mid], params.slot_payload)
            if t1 is not None:
                got = chunks_in_window(t0, t1, slots[mid], degree)
                if got < chunks:
                    remaining[mid] -= got * params.slot_payload
                    continue
            m.delivered = transfer_finish(t0, slots[mid], degree, chunks)
            del remaining[mid]

    def compile_initial_protected(start: int) -> None:
        """Initial compile + protection planning (protected mode only).

        Tags every sub-request with its message id, so the protection's
        connection indices map back to messages no matter how the cache
        canonicalizes the pattern.
        """
        nonlocal slots, routes, degree, protected_sched, idx_to_mid
        live = drop_unroutable(start)
        slots, routes = {}, {}
        if not live:
            degrees.append(degree)
            return
        sched_topo = topo if topo.failed_links else topo.base
        if protection is not None:
            ptopo = protection.topology
            pfailed = frozenset(getattr(ptopo, "failed_links", ()))
            pbase = getattr(ptopo, "base", ptopo)
            if topo.failed_links or pfailed:
                raise ValueError(
                    "an external protection requires an undegraded start "
                    "(no slot-0 fault events, pristine topologies)"
                )
            if pbase.signature != topo.base.signature:
                raise ValueError(
                    f"protection built for {pbase.signature!r}, "
                    f"simulating {topo.base.signature!r}"
                )
            conns = protection.connections
            if len(conns) != len(live) or any(
                c.pair != (messages[mid].src, messages[mid].dst)
                for c, mid in zip(conns, live)
            ):
                raise ValueError(
                    "protection does not cover this request set "
                    "(endpoints differ)"
                )
            protected_sched = protection
            idx_to_mid = {c.index: mid for c, mid in zip(conns, live)}
        elif cache is not None:
            from repro.service.protect import protect_pattern

            tuples = [
                (messages[mid].src, messages[mid].dst, remaining[mid], mid)
                for mid in live
            ]
            try:
                presult = protect_pattern(
                    sched_topo, tuples, cache=cache, scheduler=scheduler
                )
            except RoutingError:
                presult = protect_pattern(
                    sched_topo, tuples, cache=cache, scheduler="coloring"
                )
            protected_sched = presult.protected
            idx_to_mid = {
                c.index: c.request.tag for c in protected_sched.connections
            }
        else:
            from repro.core.protection import build_protection
            from repro.core.requests import Request

            sub = RequestSet(
                (
                    Request(
                        messages[mid].src, messages[mid].dst,
                        size=remaining[mid], tag=mid,
                    )
                    for mid in live
                ),
                allow_duplicates=True,
            )
            connections = route_requests(sched_topo, sub)
            try:
                schedule = get_scheduler(scheduler)(connections, sched_topo)
            except RoutingError:
                schedule = get_scheduler("coloring")(connections, sched_topo)
            protected_sched = build_protection(sched_topo, connections, schedule)
            idx_to_mid = {c.index: c.request.tag for c in connections}
        base_slots = protected_sched.base_slot_map()
        degree = max(protected_sched.base_degree, 1)
        degrees.append(protected_sched.base_degree)
        for c in protected_sched.connections:
            mid = idx_to_mid[c.index]
            slots[mid] = base_slots[c.index]
            routes[mid] = c.link_set
            messages[mid].slot = slots[mid]
            messages[mid].established = start

    def plan_failover(link: int):
        """Backup state for ``link``, or None if failover is unsafe.

        Unsafe: no covered plan, a remaining message outside the
        protection's scope, or a backup route crossing *another* fiber
        that is currently down (the plan assumed only ``link`` failed).
        """
        prot = protected_sched
        if prot is None or not prot.covers(link):
            return None
        slot_map = prot.slot_map_for(link)
        route_map = prot.routes_for(link)
        mid_to_idx = {mid: idx for idx, mid in idx_to_mid.items()}
        bad = topo.failed_links
        new_slots: dict[int, int] = {}
        new_routes: dict[int, frozenset[int]] = {}
        for mid in remaining:
            idx = mid_to_idx.get(mid)
            if idx is None:
                return None
            r = route_map[idx]
            if not r.isdisjoint(bad):
                return None
            new_slots[mid] = slot_map[idx]
            new_routes[mid] = r
        plan = prot.plan(link)
        return new_slots, new_routes, prot.degree_for(link), plan.delta_k

    events = list(faults)
    applied = 0
    while applied < len(events) and events[applied].slot <= 0:
        ev = events[applied]  # pre-run failures: degrade before compiling
        (topo.fail_link if ev.action == "fail" else topo.restore_link)(ev.link)
        applied += 1

    t = params.compiled_startup
    if recovery == "protected":
        compile_initial_protected(t)
    else:
        compile_remaining(t)
    initial_degree = degrees[0]

    for ev in events[applied:]:
        if ev.slot > t:
            if remaining:
                advance(t, ev.slot)
            t = ev.slot
        if ev.action == "restore":
            # Keep streaming on the current (still valid) schedule; the
            # repaired fiber is picked up by the next recompilation or
            # failover (both recheck the live failed-link set).
            topo.restore_link(ev.link)
            continue
        topo.fail_link(ev.link)
        hit = any(ev.link in routes[mid] for mid in remaining)
        if remaining and hit:
            at = max(t, ev.slot)
            swap = plan_failover(ev.link) if recovery == "protected" else None
            if swap is not None:
                new_slots, new_routes, new_degree, delta_k = swap
                resume = at + params.failover_latency
                slots, routes = new_slots, new_routes
                degree = max(new_degree, 1)
                degrees.append(new_degree)
                for mid in remaining:
                    messages[mid].slot = slots[mid]
                    messages[mid].established = resume
                failovers += 1
                failover_slots += resume - at
                perf.COUNTERS.protect_failovers += 1
                perf.COUNTERS.protect_delta_k += delta_k
                fault_log.append(
                    {"slot": ev.slot, "link": ev.link,
                     "rescheduled": len(remaining),
                     "time_to_recover": resume - ev.slot,
                     "recovery": "failover", "delta_k": delta_k}
                )
            else:
                if recovery == "protected":
                    uncovered_hits += 1
                    perf.COUNTERS.protect_uncovered += 1
                resume = at + params.recompile_latency
                compile_remaining(resume)
                reschedules += 1
                recompile_slots += resume - at
                fault_log.append(
                    {"slot": ev.slot, "link": ev.link,
                     "rescheduled": len(remaining),
                     "time_to_recover": resume - ev.slot,
                     "recovery": "recompile"}
                )
            t = resume
        else:
            fault_log.append(
                {"slot": ev.slot, "link": ev.link, "rescheduled": 0,
                 "time_to_recover": 0, "recovery": "none"}
            )
    if remaining:
        advance(t, None)

    completion = max(
        (m.delivered for m in messages if m.delivered is not None),
        default=params.compiled_startup,
    )
    return CompiledFaultResult(
        completion_time=max(completion, params.compiled_startup),
        initial_degree=initial_degree,
        max_degree=max(degrees),
        final_degree=degrees[-1],
        reschedules=reschedules,
        recompile_slots=recompile_slots,
        lost=lost_count,
        messages=messages,
        fault_log=fault_log,
        params=params,
        recovery=recovery,
        failovers=failovers,
        failover_slots=failover_slots,
        uncovered=uncovered_hits,
    )


@dataclass(frozen=True)
class EpochUpdate:
    """One pattern change applied to a running compiled pattern.

    ``add`` rows are ``(src, dst)`` or ``(src, dst, size)`` request
    tuples; ``remove`` names existing messages by mid.  Updates are
    applied at ``slot`` (clamped to the current simulation time if the
    network is already past it).
    """

    slot: int
    add: tuple = ()
    remove: tuple = ()


@dataclass
class CompiledEpochResult:
    """Outcome of a compiled run through a sequence of epoch updates.

    Each :class:`EpochUpdate` pauses the network at an **epoch
    boundary**: the delta scheduler amends the live schedule (removals
    free slack in place, additions pack into it, the cost model may
    repack or recompile), the amended register image is swapped in, and
    the run resumes ``SimParams.amend_latency`` slots later.  Transfers
    advance in closed form between boundaries, so nothing delivered is
    retransmitted; messages removed before delivery are **cancelled**.
    """

    completion_time: int
    #: schedule degree of the initial (epoch-0) compilation.
    initial_degree: int
    #: largest degree any epoch needed.
    max_degree: int
    #: degree of the final epoch's schedule.
    final_degree: int
    #: number of amends applied (final epoch number).
    epochs: int
    #: total slots spent paused swapping schedules.
    amend_slots: int
    #: undelivered messages removed by an update.
    cancelled: int
    messages: list[Message]
    #: one entry per update: slot, epoch, cost-model action, delta_k,
    #: degree after the amend, and added/removed/cancelled counts.
    epoch_log: list[dict]
    params: SimParams

    @property
    def makespan(self) -> int:
        """Alias for ``completion_time`` (slots)."""
        return self.completion_time


def simulate_compiled_epochs(
    topology: Topology,
    requests: RequestSet,
    updates,
    params: SimParams = SimParams(),
    *,
    scheduler: str = "combined",
    policy=None,
    validate: bool = True,
) -> CompiledEpochResult:
    """Compiled run of ``requests`` through a sequence of epoch updates.

    The compiled model's answer to a pattern that *changes* mid-run:
    instead of stopping the network and recompiling from scratch, each
    update is amended into the live schedule by
    :class:`repro.core.delta.DeltaScheduler` and the network pays only
    ``amend_latency`` slots of pause (plus whatever slot reshuffling the
    cost model's chosen action implies -- surviving transfers keep their
    delivered element counts either way).  With no updates this reduces
    exactly to :func:`compiled_completion_time`.

    New messages get fresh mids (``len(messages)`` onward); removal of
    an already-delivered message just frees its slot for later packing,
    while removal of an in-flight message **cancels** it (``lost`` is
    stamped with the boundary slot).  With ``validate=True`` (default)
    every epoch's schedule is re-checked against its connection set, so
    a campaign doubles as a correctness gate.
    """
    from repro.core.delta import DEFAULT_POLICY, DeltaScheduler
    from repro.core.requests import Request

    if policy is None:
        policy = DEFAULT_POLICY
    connections = route_requests(topology, requests)
    schedule = get_scheduler(scheduler)(connections, topology)
    engine = DeltaScheduler(schedule, num_links=topology.num_links, policy=policy)
    messages = messages_from_requests(requests)
    remaining = {m.mid: m.size for m in messages}
    slots = engine.schedule.slot_map()  # mid == connection index
    degree = max(engine.degree, 1)
    t = params.compiled_startup
    for m in messages:
        m.first_attempt = 0
        m.established = t
        m.slot = slots[m.mid]

    initial_degree = engine.degree
    max_degree = engine.degree
    amend_slots = 0
    cancelled = 0
    epoch_log: list[dict] = []
    epoch = 0

    def advance(t0: int, t1: int | None) -> None:
        """Move data during ``[t0, t1)`` (``t1=None``: run to drain)."""
        for mid in list(remaining):
            m = messages[mid]
            chunks = transfer_chunks(remaining[mid], params.slot_payload)
            if t1 is not None:
                got = chunks_in_window(t0, t1, slots[mid], degree)
                if got < chunks:
                    remaining[mid] -= got * params.slot_payload
                    continue
            m.delivered = transfer_finish(t0, slots[mid], degree, chunks)
            del remaining[mid]

    events = sorted(updates, key=lambda u: u.slot)
    for ev in events:
        if ev.slot > t:
            if remaining:
                advance(t, ev.slot)
            t = ev.slot
        at = max(t, ev.slot)
        removed_here = 0
        cancelled_here = 0
        for mid in ev.remove:
            if not 0 <= mid < len(messages):
                raise ValueError(f"remove names unknown mid {mid}")
            removed_here += 1
            if mid in remaining:
                messages[mid].lost = at
                del remaining[mid]
                cancelled_here += 1
        new_msgs: list[Message] = []
        new_conns = []
        for row in ev.add:
            src, dst, *rest = row
            size = int(rest[0]) if rest else 1
            mid = len(messages) + len(new_msgs)
            new_msgs.append(Message(mid=mid, src=src, dst=dst, size=size))
            new_conns.append(Connection(
                mid, Request(src, dst, size=size), topology.route(src, dst)
            ))
        result = engine.amend(add=new_conns, remove=list(ev.remove))
        if validate:
            engine.schedule.validate(engine.connections())
        epoch += 1
        resume = at + params.amend_latency
        slots = engine.schedule.slot_map()
        degree = max(engine.degree, 1)
        max_degree = max(max_degree, engine.degree)
        for m in new_msgs:
            m.first_attempt = at
            remaining[m.mid] = m.size
        messages.extend(new_msgs)
        for mid in remaining:
            messages[mid].slot = slots[mid]
            messages[mid].established = resume
        amend_slots += resume - at
        cancelled += cancelled_here
        epoch_log.append({
            "slot": ev.slot, "epoch": epoch, "action": result.action,
            "delta_k": result.delta_k, "degree": engine.degree,
            "added": len(new_msgs), "removed": removed_here,
            "cancelled": cancelled_here,
        })
        t = resume
    if remaining:
        advance(t, None)

    completion = max(
        (m.delivered for m in messages if m.delivered is not None),
        default=params.compiled_startup,
    )
    return CompiledEpochResult(
        completion_time=max(completion, params.compiled_startup),
        initial_degree=initial_degree,
        max_degree=max_degree,
        final_degree=engine.degree,
        epochs=epoch,
        amend_slots=amend_slots,
        cancelled=cancelled,
        messages=messages,
        epoch_log=epoch_log,
        params=params,
    )

