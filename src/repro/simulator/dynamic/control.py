"""Event-driven simulation of the distributed reservation protocol.

Implementation of the protocol described in the package docstring as a
discrete-event simulation in slot time.  Control packets advance one
hop (one link of the route) per ``control_hop_latency`` slots; data
moves on the optical network per the TDM transfer model shared with the
compiled simulator.  All races (two RES packets contending for the same
virtual channel) are resolved by event order, which is deterministic:
events due in the same slot run in the order they were posted, and the
only randomness -- retry backoff -- comes from a generator seeded by
``SimParams.seed``.

The event queue is a slot calendar: one FIFO bucket of events per due
slot, plus a heap of the distinct due slots.  Most events are posted a
fixed hop latency ahead, so thousands share a slot and the heap sees
one push and one pop per slot rather than per event.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.requests import RequestSet
from repro.simulator.compiled import transfer_chunks, transfer_finish
from repro.simulator.faults import FaultSchedule
from repro.simulator.messages import Message, messages_from_requests
from repro.simulator.dynamic.trace import ProtocolTrace
from repro.simulator.params import SimParams
from repro.simulator.tdm import LinkSlotState, TDMNetwork
from repro.topology.base import RoutingError, Topology

#: Backoff draws taken from the generator at a time.  A block of draws
#: equals the same number of scalar draws, so the size never shows in
#: results (the test suite pins this against a scalar-draw reference).
_DRAW_BLOCK = 1024


@dataclass(eq=False, slots=True)
class _Reservation:
    """In-flight reservation state for one message attempt."""

    rid: int
    message: Message
    path: tuple[int, ...]
    #: slot state of each link of ``path``, resolved once per attempt.
    links: list[LinkSlotState]
    #: bitmask of the slots still free on every link walked so far.
    carried: int = 0
    chosen: int = -1
    #: set when a fault tears the reservation down: its in-flight
    #: control packets (RES/ACK/NACK/REL/data_done) evaporate.
    dead: bool = False
    #: hop index where the RES is parked (holding protocol), or -1.
    parked_hop: int = -1
    #: invalidates stale park-timeout events after a wake-up.
    park_generation: int = 0
    #: absolute slot the holding protocol gives up waiting; preserved
    #: across wake/re-park churn so the deadlock-breaking deadline
    #: cannot be postponed indefinitely.  Reset on hop progress.
    park_deadline: int = -1


@dataclass
class DynamicResult:
    """Outcome of a dynamically controlled run of one pattern."""

    completion_time: int
    degree: int
    messages: list[Message]
    #: failed reservations due to channel contention (NACKs/timeouts).
    total_retries: int
    params: SimParams
    trace: "ProtocolTrace | None" = None
    #: extra attempts attributable to runtime fiber cuts: circuits and
    #: reservations torn down plus re-route retries while partitioned.
    fault_retries: int = 0
    #: messages abandoned because the network stayed partitioned past
    #: ``SimParams.fault_retry_limit`` consecutive routing failures.
    lost: int = 0
    #: one entry per ``fail`` event: slot, link, circuits torn down,
    #: requeued message ids and time-to-recover (slots until the last
    #: affected message was delivered or declared lost).
    fault_log: list[dict] = field(default_factory=list)

    @property
    def makespan(self) -> int:
        """Alias for ``completion_time`` (slots)."""
        return self.completion_time

    @property
    def delivered(self) -> int:
        """Messages that completed (``len(messages) - lost``)."""
        return sum(1 for m in self.messages if m.delivered is not None)


class _DynamicSimulator:
    def __init__(
        self,
        topology: Topology,
        requests: RequestSet,
        degree: int,
        params: SimParams,
        arrivals: list[int] | None = None,
        trace: "ProtocolTrace | None" = None,
        protocol: str = "dropping",
        faults: FaultSchedule | None = None,
    ) -> None:
        if protocol not in ("dropping", "holding"):
            raise ValueError(
                f"protocol must be 'dropping' or 'holding', got {protocol!r}"
            )
        self.topology = topology
        self.trace = trace
        self.protocol = protocol
        #: holding protocol: link id -> parked reservations (FIFO).
        self.parked: dict[int, deque[_Reservation]] = {}
        self.params = params
        self.hop_latency = params.control_hop_latency
        self.degree = degree
        self.net = TDMNetwork(topology, degree)
        #: route -> the slot state of each of its links.
        self._path_links: dict[tuple[int, ...], list[LinkSlotState]] = {}
        self.rng = np.random.default_rng(params.seed)
        #: the current block of backoff draws, next draw last.
        self._draws: list[int] = []
        self.messages = messages_from_requests(requests)
        if arrivals is not None and len(arrivals) != len(self.messages):
            raise ValueError("one arrival time per request required")
        self.arrivals = arrivals or [0] * len(self.messages)
        self.faults = faults if faults else None
        #: mutable routing view when runtime faults are scheduled; the
        #: caller's topology is never modified (a FaultyTopology input
        #: is re-wrapped so its failure set stays untouched).
        self.route_topo = None
        if self.faults is not None:
            from repro.topology.faults import FaultyTopology

            self.faults.validate_for(topology)
            if isinstance(topology, FaultyTopology):
                self.route_topo = FaultyTopology(
                    topology.base, topology.failed_links
                )
            else:
                self.route_topo = FaultyTopology(topology)
        self.queues: dict[int, deque[Message]] = {}
        for m in self.messages:
            if self.route_topo is None:
                m._path = topology.route(m.src, m.dst)
            self.queues.setdefault(m.src, deque())
        self.outstanding: set[int] = set()  # nodes with a RES in flight
        #: slot -> the events due then, in posting order, as
        #: ``(handler, subject, arg)``; ``_slots`` heaps its keys.
        self.calendar: dict[int, list[tuple]] = {}
        self._slots: list[int] = []
        #: the slot whose events are running (none before ``run``).
        self.now: float = -math.inf
        self._rid = itertools.count()
        #: live reservations by id, in creation order.
        self.reservations: dict[int, _Reservation] = {}
        #: message id -> consecutive routing failures (partitioned).
        self._route_failures: dict[int, int] = {}
        self.delivered_count = 0
        self.lost_count = 0
        self.completion = 0
        self.total_retries = 0
        self.fault_retries = 0
        self.fault_log: list[dict] = []

    # -- event machinery -------------------------------------------------
    def _post(self, time: int, handler, subject, arg=None) -> None:
        """Run ``handler(time, subject, arg)`` after every event already
        due at ``time`` (handlers without an ``arg`` ignore it)."""
        bucket = self.calendar.get(time)
        if bucket is None:
            if time < self.now:
                raise RuntimeError(
                    f"event posted for slot {time} while slot {self.now} runs"
                )
            bucket = self.calendar[time] = []
            heapq.heappush(self._slots, time)
        bucket.append((handler, subject, arg))

    def _backoff(self) -> int:
        """Slots until a failed attempt retries: 1 + the next seeded draw."""
        if not self._draws:
            block = self.rng.integers(0, self.params.retry_backoff, size=_DRAW_BLOCK)
            self._draws = block.tolist()[::-1]
        return 1 + self._draws.pop()

    @property
    def pending_count(self) -> int:
        """Messages neither delivered nor declared lost."""
        return len(self.messages) - self.delivered_count - self.lost_count

    def run(self) -> None:
        if self.faults is not None:
            # Posted before the arrivals so a slot-0 failure is in
            # force before any reservation starts (this makes a fault
            # schedule at slot 0 bit-identical to a pre-run
            # FaultyTopology, asserted in the test suite).
            for ev in self.faults:
                self._post(ev.slot, self._on_fault, ev.action, ev.link)
        for m in self.messages:
            self._post(self.arrivals[m.mid], self._on_arrive, m.mid)
        # Run until the calendar drains: the trailing REL chains after
        # the last delivery still tear their circuits down, so the
        # network ends clean (asserted by the property suite).
        # max_slots only guards *undelivered* traffic: the teardown
        # tail after the final delivery may legitimately cross it.
        # Pending messages only fall within a slot, so checking once
        # per slot raises exactly when a per-event check would.
        calendar, slots = self.calendar, self._slots
        while slots:
            t = heapq.heappop(slots)
            if t > self.params.max_slots and self.pending_count:
                raise RuntimeError(
                    f"dynamic simulation exceeded max_slots="
                    f"{self.params.max_slots} with "
                    f"{self.pending_count} messages pending"
                )
            self.now = t
            # Events posted for this slot while it runs join the end of
            # its bucket; a list iterator walks by index, so it reaches
            # them after every event posted earlier.
            for handler, subject, arg in calendar[t]:
                handler(t, subject, arg)
            del calendar[t]
        if self.pending_count:
            raise RuntimeError("event queue drained with undelivered messages")

    # -- handlers ---------------------------------------------------------
    def _on_arrive(self, t: int, mid: int, _=None) -> None:
        """A message becomes ready at its source's control queue."""
        m = self.messages[mid]
        m.first_attempt = t
        if self.trace:
            self.trace.emit(t, "arrive", mid, f"{m.src}->{m.dst} ({m.size} elems)")
        self.queues[m.src].append(m)
        self._on_node(t, m.src)

    def _current_path(self, m: Message) -> tuple[int, ...]:
        """The message's route on the network as it is *now*.

        Static runs keep the paths computed at init; under a fault
        schedule every attempt re-routes on the current degraded
        topology (memoised by the route cache, invalidated on each
        fail/restore), which is what lets the protocol steer around a
        mid-run fiber cut.
        """
        if self.route_topo is None:
            return m._path
        return self.route_topo.route(m.src, m.dst)

    def _on_node(self, t: int, node: int, _=None) -> None:
        """Try to start a reservation for the node's head-of-line message."""
        if node in self.outstanding:
            return
        queue = self.queues.get(node)
        if not queue:
            return
        m = queue[0]
        try:
            path = self._current_path(m)
        except RoutingError:
            self._no_route(t, m)
            return
        self._route_failures.pop(m.mid, None)
        self.outstanding.add(node)
        links = self._path_links.get(path)
        if links is None:
            links = self._path_links[path] = [self.net.link(l) for l in path]
        rid = next(self._rid)
        res = _Reservation(rid, m, path, links, (1 << self.degree) - 1)
        self.reservations[rid] = res
        if self.trace:
            self.trace.emit(t, "res-start", m.mid, f"rid {rid}, {len(path)} links")
        # RES reaches (and processes) link i after i+1 hop latencies.
        self._post(t + self.hop_latency, self._on_res, res, 0)

    def _no_route(self, t: int, m: Message) -> None:
        """Source and destination are disconnected by the current cuts.

        Retry after backoff (a restore may reconnect them) up to
        ``fault_retry_limit`` consecutive failures, then declare the
        message lost so a permanently partitioned network still drains.
        """
        failures = self._route_failures.get(m.mid, 0) + 1
        self._route_failures[m.mid] = failures
        if failures > self.params.fault_retry_limit:
            m.lost = t
            self.lost_count += 1
            if self.trace:
                self.trace.emit(
                    t, "lost", m.mid, f"no route after {failures - 1} retries"
                )
            self.queues[m.src].popleft()
            self._post(t, self._on_node, m.src)  # serve the next message
            return
        m.retries += 1
        self.fault_retries += 1
        self._post(t + self._backoff(), self._on_node, m.src)

    # -- runtime faults ---------------------------------------------------
    def _on_fault(self, t: int, action: str, link_id: int) -> None:
        if action == "restore":
            self.route_topo.restore_link(link_id)
            # Partitioned messages get a fresh retry budget: the
            # repaired fiber may have reconnected them.
            self._route_failures.clear()
            if self.trace:
                self.trace.emit(t, "link-restore", -1, f"link {link_id}")
            return
        self.route_topo.fail_link(link_id)
        if self.trace:
            self.trace.emit(t, "link-fail", -1, f"link {link_id}")
        affected = [
            res for res in self.reservations.values() if link_id in res.path
        ]
        requeued = []
        for res in affected:
            mid = self._kill(t, res)
            if mid is not None:
                requeued.append(mid)
        self.fault_log.append(
            {"slot": t, "link": link_id, "torn": len(affected),
             "requeued": requeued}
        )

    def _kill(self, t: int, res: _Reservation) -> int | None:
        """Tear reservation ``res`` out of the network after a cut.

        Scrubs its locks *and* owners from every link of its path
        (whatever protocol phase it was in: RES walk, parked, ACK walk,
        streaming, REL walk), wakes parked reservations on the freed
        channels, and requeues the message for a fresh attempt.
        Returns the requeued message id, or None when the message had
        already fully delivered (only its REL teardown was interrupted).
        """
        del self.reservations[res.rid]
        res.dead = True
        m = res.message
        if res.parked_hop >= 0:
            parked = self.parked.get(res.path[res.parked_hop])
            if parked and res in parked:
                parked.remove(res)
        for link_id, link in zip(res.path, res.links):
            freed = link.clear_reservation(res.rid)
            if freed:
                self._wake_parked(t, link_id, freed)
        if m.delivered is not None:
            return None
        if self.trace:
            self.trace.emit(t, "fault-kill", m.mid, f"rid {res.rid}")
        m.retries += 1
        self.fault_retries += 1
        if m.established is not None:
            # The circuit died mid-stream.  The protocol keeps no
            # delivery ledger, so the whole message is retransmitted;
            # requeue at the head so recovery does not wait behind the
            # source's queued traffic.
            m.established = None
            m.slot = None
            self.queues[m.src].appendleft(m)
        else:
            # Not yet established: the message is still at its queue
            # head with this reservation outstanding.
            self.outstanding.discard(m.src)
        self._post(t + self._backoff(), self._on_node, m.src)
        return m.mid

    def _on_res(self, t: int, res: _Reservation, hop: int) -> None:
        if res.dead:
            return
        link = res.links[hop]
        avail = res.carried & ~link.busy
        if not avail:
            if self.protocol == "holding":
                # Park at this switch: wait for a channel to free, with
                # a timeout to break hold-and-wait deadlock cycles.
                # The deadline is fixed at the *first* park since the
                # last hop progress: a woken reservation that re-parks
                # keeps it, otherwise churn on the link would postpone
                # the deadlock-breaking timeout indefinitely.
                res.parked_hop = hop
                res.park_generation += 1
                if res.park_deadline < 0:
                    res.park_deadline = t + self.params.hold_timeout
                self.parked.setdefault(res.path[hop], deque()).append(res)
                if self.trace:
                    self.trace.emit(
                        t, "res-park", res.message.mid,
                        f"rid {res.rid} at link {res.path[hop]}",
                    )
                self._post(
                    res.park_deadline,
                    self._on_park_timeout,
                    res,
                    res.park_generation,
                )
                return
            # Dropping protocol: NACK walks back releasing locks.
            if hop == 0:
                self._fail(t, res)
            else:
                self._post(t + self.hop_latency, self._on_nack, res, hop - 1)
            return
        link.lock_mask(avail, res.rid)
        res.carried = avail
        res.park_deadline = -1  # hop progress resets the deadlock clock
        if self.trace:
            self.trace.emit(
                t, "res-hop", res.message.mid,
                f"rid {res.rid} link {res.path[hop]}: "
                f"{avail.bit_count()} slots carried",
            )
        if hop + 1 < len(res.links):
            self._post(t + self.hop_latency, self._on_res, res, hop + 1)
        else:
            # Destination: pick the lowest-numbered surviving channel and
            # send the ACK back along the path.
            res.chosen = (avail & -avail).bit_length() - 1
            self._post(t + self.hop_latency, self._on_ack, res, hop)

    def _on_nack(self, t: int, res: _Reservation, hop: int) -> None:
        if res.dead:
            return
        freed = res.links[hop].release_locks(res.rid)
        self._wake_parked(t, res.path[hop], freed)
        if hop == 0:
            self._fail(t + self.hop_latency, res)
        else:
            self._post(t + self.hop_latency, self._on_nack, res, hop - 1)

    def _wake_parked(self, t: int, link_id: int, freed: int) -> None:
        """``freed`` channels on ``link_id`` freed: wake that many
        parked reservations, FIFO.  Draining the whole queue would be a
        thundering herd -- every woken RES beyond the freed channels
        re-parks immediately, which both contradicts the documented
        FIFO fairness and (before the deadline fix) kept refreshing the
        hold timeout."""
        queue = self.parked.get(link_id)
        if not queue or freed <= 0:
            return
        woken = 0
        while queue and woken < freed:
            res = queue.popleft()
            if res.parked_hop < 0:
                continue
            hop = res.parked_hop
            res.parked_hop = -1
            res.park_generation += 1  # cancel the pending timeout
            self._post(t, self._on_res, res, hop)
            woken += 1

    def _on_park_timeout(self, t: int, res: _Reservation, generation: int) -> None:
        if res.dead or res.parked_hop < 0 or res.park_generation != generation:
            return  # already woken or resolved
        hop = res.parked_hop
        res.parked_hop = -1
        queue = self.parked.get(res.path[hop])
        if queue and res in queue:
            queue.remove(res)
        if hop == 0:
            self._fail(t, res)
        else:
            self._post(t + self.hop_latency, self._on_nack, res, hop - 1)

    def _fail(self, t: int, res: _Reservation) -> None:
        """Reservation failed: requeue with randomised backoff."""
        del self.reservations[res.rid]
        m = res.message
        m.retries += 1
        self.total_retries += 1
        if self.trace:
            self.trace.emit(
                t, "res-fail", m.mid, f"rid {res.rid}, retry {m.retries}"
            )
        self.outstanding.discard(m.src)
        self._post(t + self._backoff(), self._on_node, m.src)

    def _on_ack(self, t: int, res: _Reservation, hop: int) -> None:
        if res.dead:
            return
        freed = res.links[hop].release_locks(res.rid, keep=res.chosen)
        self._wake_parked(t, res.path[hop], freed)
        if hop > 0:
            self._post(t + self.hop_latency, self._on_ack, res, hop - 1)
        else:
            # Hop 0 is the injection link at the source's own switch, so
            # the source learns of the established circuit immediately:
            # establishment costs exactly 2 * path length * hop latency.
            self._established(t, res)

    def _transfer_finish(self, t: int, slot: int, chunks: int) -> int:
        """Slot the last chunk lands when streaming starts at ``t``:
        one chunk per frame, in the circuit's own slot."""
        return transfer_finish(t, slot, self.degree, chunks)

    def _established(self, t: int, res: _Reservation) -> None:
        m = res.message
        m.established = t
        m.slot = res.chosen
        if self.trace:
            self.trace.emit(t, "established", m.mid, f"slot {res.chosen}")
        queue = self.queues[m.src]
        if queue and queue[0] is m:
            queue.popleft()
        else:
            # A fault requeued a killed transfer at the head while this
            # reservation's ACK was in flight for a later message.
            queue.remove(m)
        self.outstanding.discard(m.src)
        # The node may reserve for its next message while data streams.
        self._post(t, self._on_node, m.src)
        chunks = transfer_chunks(m.size, self.params.slot_payload)
        finish = self._transfer_finish(t, res.chosen, chunks)
        self._post(finish, self._on_data_done, res)

    def _on_data_done(self, t: int, res: _Reservation, _=None) -> None:
        if res.dead:
            return
        m = res.message
        m.delivered = t
        self.delivered_count += 1
        self.completion = max(self.completion, t)
        if self.trace:
            self.trace.emit(t, "delivered", m.mid)
        # REL walks the path tearing the circuit down.
        self._post(t + self.hop_latency, self._on_rel, res, 0)

    def _on_rel(self, t: int, res: _Reservation, hop: int) -> None:
        if res.dead:
            return
        freed = res.links[hop].release_owner(res.rid)
        self._wake_parked(t, res.path[hop], freed)
        if hop + 1 < len(res.links):
            self._post(t + self.hop_latency, self._on_rel, res, hop + 1)
        else:
            if self.trace:
                self.trace.emit(t, "released", res.message.mid)
            del self.reservations[res.rid]


def simulate_dynamic(
    topology: Topology,
    requests: RequestSet,
    degree: int,
    params: SimParams = SimParams(),
    *,
    arrivals: list[int] | None = None,
    trace: "ProtocolTrace | None" = None,
    protocol: str = "dropping",
    faults: FaultSchedule | None = None,
) -> DynamicResult:
    """Simulate ``requests`` under dynamic control at a fixed degree.

    ``degree`` is the network's fixed multiplexing degree (the paper
    evaluates 1, 2, 5 and 10; distributed control cannot adapt it per
    pattern, which is one of compiled communication's advantages).
    ``arrivals`` optionally staggers message readiness (one slot time
    per request; default: everything ready at 0, the paper's static-
    pattern setting).

    ``protocol`` selects the blocked-reservation policy: ``"dropping"``
    (the paper's section 4.1: fail, NACK back, retry after backoff) or
    ``"holding"`` (park the RES at the blocked switch until a channel
    frees, with ``SimParams.hold_timeout`` breaking hold-and-wait
    deadlocks -- the design space of the paper's refs [15, 17]).

    ``faults`` optionally injects runtime fiber cuts and repairs (see
    :class:`repro.simulator.faults.FaultSchedule`): a ``fail`` event
    tears down every circuit and in-flight reservation crossing the
    dead link, requeues the affected messages, and subsequent attempts
    re-route around the cut; messages whose endpoints stay partitioned
    past ``SimParams.fault_retry_limit`` routing attempts are declared
    lost rather than simulated forever.
    """
    sim = _DynamicSimulator(
        topology, requests, degree, params, arrivals, trace, protocol, faults
    )
    sim.run()
    for entry in sim.fault_log:
        ends = []
        for mid in entry["requeued"]:
            m = sim.messages[mid]
            ends.append(m.delivered if m.delivered is not None else m.lost)
        entry["time_to_recover"] = (
            max(ends) - entry["slot"] if ends else 0
        )
    return DynamicResult(
        completion_time=sim.completion,
        degree=degree,
        messages=sim.messages,
        total_retries=sim.total_retries,
        params=params,
        trace=trace,
        fault_retries=sim.fault_retries,
        lost=sim.lost_count,
        fault_log=sim.fault_log,
    )
