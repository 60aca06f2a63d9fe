"""Heap-and-list reference engine of the dynamic reservation simulator.

The production simulator (:mod:`repro.simulator.dynamic.control`) runs
on a slot calendar with bitmask channel state.  This module keeps the
straightforward engine it replaced -- one ``(time, seq)`` heap entry per
event, per-slot ``owner``/``lock`` lists scanned linearly, events that
name their reservation by id, one scalar backoff draw per retry -- so
the property suite can demand that production reproduces it exactly:
the same messages, counters, fault log and trace events on every run.

It is a transcription of the protocol of the paper's section 4.1 (plus
the holding and runtime-fault extensions), not tuned code.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.requests import RequestSet
from repro.simulator.compiled import transfer_chunks, transfer_finish
from repro.simulator.dynamic.trace import ProtocolTrace
from repro.simulator.faults import FaultSchedule
from repro.simulator.messages import Message, messages_from_requests
from repro.simulator.params import SimParams
from repro.topology.base import RoutingError, Topology

FREE = -1


class LinkSlotState:
    """Occupancy of one link's K virtual channels, one list entry per slot."""

    __slots__ = ("owner", "lock")

    def __init__(self, degree: int) -> None:
        self.owner = [FREE] * degree
        self.lock = [FREE] * degree

    def lock_slots(self, slots: list[int], rid: int) -> None:
        for k in slots:
            if self.owner[k] != FREE or self.lock[k] != FREE:
                raise RuntimeError(f"slot {k} not free to lock")
            self.lock[k] = rid

    def release_locks(self, rid: int, keep: int | None = None) -> int:
        freed = 0
        for k, holder in enumerate(self.lock):
            if holder == rid:
                self.lock[k] = FREE
                if k == keep:
                    self.owner[k] = rid
                else:
                    freed += 1
        return freed

    def release_owner(self, rid: int) -> int:
        freed = 0
        for k, holder in enumerate(self.owner):
            if holder == rid:
                self.owner[k] = FREE
                freed += 1
        return freed

    def clear_reservation(self, rid: int) -> int:
        return self.release_locks(rid) + self.release_owner(rid)


class TDMNetwork:
    """Lazily created per-link slot state at degree K."""

    def __init__(self, degree: int) -> None:
        self.degree = degree
        self._links: dict[int, LinkSlotState] = {}

    def link(self, link_id: int) -> LinkSlotState:
        state = self._links.get(link_id)
        if state is None:
            state = self._links[link_id] = LinkSlotState(self.degree)
        return state

    def orphans(self) -> list[tuple[int, int, str, int]]:
        out: list[tuple[int, int, str, int]] = []
        for link_id, st in self._links.items():
            for k, holder in enumerate(st.owner):
                if holder != FREE:
                    out.append((link_id, k, "owner", holder))
            for k, holder in enumerate(st.lock):
                if holder != FREE:
                    out.append((link_id, k, "lock", holder))
        return out


@dataclass
class _Reservation:
    rid: int
    message: Message
    path: tuple[int, ...]
    carried: list[int] = field(default_factory=list)
    chosen: int = -1
    parked_hop: int = -1
    park_generation: int = 0
    park_deadline: int = -1


class ReferenceSimulator:
    """The reservation protocol on a ``(time, seq)`` event heap."""

    def __init__(
        self,
        topology: Topology,
        requests: RequestSet,
        degree: int,
        params: SimParams,
        arrivals: list[int] | None = None,
        trace: ProtocolTrace | None = None,
        protocol: str = "dropping",
        faults: FaultSchedule | None = None,
    ) -> None:
        self.topology = topology
        self.trace = trace
        self.protocol = protocol
        self.parked: dict[int, deque[int]] = {}
        self.params = params
        self.degree = degree
        self.net = TDMNetwork(degree)
        self.rng = np.random.default_rng(params.seed)
        self.messages = messages_from_requests(requests)
        self.arrivals = arrivals or [0] * len(self.messages)
        self.faults = faults if faults else None
        self.route_topo = None
        if self.faults is not None:
            from repro.topology.faults import FaultyTopology

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
        self.outstanding: set[int] = set()
        self.events: list[tuple[int, int, str, tuple]] = []
        self._seq = itertools.count()
        self._rid = itertools.count()
        self.reservations: dict[int, _Reservation] = {}
        self.killed: set[int] = set()
        self._route_failures: dict[int, int] = {}
        self.delivered_count = 0
        self.lost_count = 0
        self.completion = 0
        self.total_retries = 0
        self.fault_retries = 0
        self.fault_log: list[dict] = []

    def _post(self, time: int, kind: str, payload: tuple) -> None:
        heapq.heappush(self.events, (time, next(self._seq), kind, payload))

    def _backoff(self) -> int:
        return 1 + int(self.rng.integers(0, self.params.retry_backoff))

    @property
    def pending_count(self) -> int:
        return len(self.messages) - self.delivered_count - self.lost_count

    def run(self) -> None:
        if self.faults is not None:
            for ev in self.faults:
                self._post(ev.slot, "fault", (ev.action, ev.link))
        for m in self.messages:
            self._post(self.arrivals[m.mid], "arrive", (m.mid,))
        handlers = {
            "arrive": self._on_arrive,
            "node": self._on_node,
            "res": self._on_res,
            "nack": self._on_nack,
            "ack": self._on_ack,
            "data_done": self._on_data_done,
            "rel": self._on_rel,
            "park_timeout": self._on_park_timeout,
            "fault": self._on_fault,
        }
        while self.events:
            time, _, kind, payload = heapq.heappop(self.events)
            if time > self.params.max_slots and self.pending_count:
                raise RuntimeError("exceeded max_slots")
            handlers[kind](time, *payload)
        if self.pending_count:
            raise RuntimeError("event queue drained with undelivered messages")

    def _on_arrive(self, t: int, mid: int) -> None:
        m = self.messages[mid]
        m.first_attempt = t
        if self.trace:
            self.trace.emit(t, "arrive", mid, f"{m.src}->{m.dst} ({m.size} elems)")
        self.queues[m.src].append(m)
        self._on_node(t, m.src)

    def _current_path(self, m: Message) -> tuple[int, ...]:
        if self.route_topo is None:
            return m._path
        return self.route_topo.route(m.src, m.dst)

    def _on_node(self, t: int, node: int) -> None:
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
        rid = next(self._rid)
        res = _Reservation(rid=rid, message=m, path=path)
        res.carried = list(range(self.degree))
        self.reservations[rid] = res
        if self.trace:
            self.trace.emit(t, "res-start", m.mid, f"rid {rid}, {len(path)} links")
        self._post(t + self.params.control_hop_latency, "res", (rid, 0))

    def _no_route(self, t: int, m: Message) -> None:
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
            self._post(t, "node", (m.src,))
            return
        m.retries += 1
        self.fault_retries += 1
        self._post(t + self._backoff(), "node", (m.src,))

    def _on_fault(self, t: int, action: str, link_id: int) -> None:
        if action == "restore":
            self.route_topo.restore_link(link_id)
            self._route_failures.clear()
            if self.trace:
                self.trace.emit(t, "link-restore", -1, f"link {link_id}")
            return
        self.route_topo.fail_link(link_id)
        if self.trace:
            self.trace.emit(t, "link-fail", -1, f"link {link_id}")
        affected = [
            rid
            for rid, res in list(self.reservations.items())
            if link_id in res.path
        ]
        requeued = []
        for rid in affected:
            mid = self._kill(t, rid)
            if mid is not None:
                requeued.append(mid)
        self.fault_log.append(
            {"slot": t, "link": link_id, "torn": len(affected),
             "requeued": requeued}
        )

    def _kill(self, t: int, rid: int) -> int | None:
        res = self.reservations.pop(rid)
        self.killed.add(rid)
        m = res.message
        if res.parked_hop >= 0:
            parked = self.parked.get(res.path[res.parked_hop])
            if parked and rid in parked:
                parked.remove(rid)
        for link_id in res.path:
            freed = self.net.link(link_id).clear_reservation(rid)
            if freed:
                self._wake_parked(t, link_id, freed)
        if m.delivered is not None:
            return None
        if self.trace:
            self.trace.emit(t, "fault-kill", m.mid, f"rid {rid}")
        m.retries += 1
        self.fault_retries += 1
        if m.established is not None:
            m.established = None
            m.slot = None
            self.queues[m.src].appendleft(m)
        else:
            self.outstanding.discard(m.src)
        self._post(t + self._backoff(), "node", (m.src,))
        return m.mid

    def _on_res(self, t: int, rid: int, hop: int) -> None:
        if rid in self.killed:
            return
        res = self.reservations[rid]
        link = self.net.link(res.path[hop])
        avail = [
            k
            for k in res.carried
            if link.owner[k] == -1 and link.lock[k] == -1
        ]
        if not avail:
            if self.protocol == "holding":
                res.parked_hop = hop
                res.park_generation += 1
                if res.park_deadline < 0:
                    res.park_deadline = t + self.params.hold_timeout
                self.parked.setdefault(res.path[hop], deque()).append(rid)
                if self.trace:
                    self.trace.emit(
                        t, "res-park", res.message.mid,
                        f"rid {rid} at link {res.path[hop]}",
                    )
                self._post(
                    res.park_deadline,
                    "park_timeout",
                    (rid, res.park_generation),
                )
                return
            if hop == 0:
                self._fail(t, rid)
            else:
                self._post(
                    t + self.params.control_hop_latency, "nack", (rid, hop - 1)
                )
            return
        link.lock_slots(avail, rid)
        res.carried = avail
        res.park_deadline = -1
        if self.trace:
            self.trace.emit(
                t, "res-hop", res.message.mid,
                f"rid {rid} link {res.path[hop]}: {len(avail)} slots carried",
            )
        if hop + 1 < len(res.path):
            self._post(t + self.params.control_hop_latency, "res", (rid, hop + 1))
        else:
            res.chosen = res.carried[0]
            self._post(
                t + self.params.control_hop_latency,
                "ack",
                (rid, len(res.path) - 1),
            )

    def _on_nack(self, t: int, rid: int, hop: int) -> None:
        if rid in self.killed:
            return
        res = self.reservations[rid]
        freed = self.net.link(res.path[hop]).release_locks(res.rid)
        self._wake_parked(t, res.path[hop], freed)
        if hop == 0:
            self._fail(t + self.params.control_hop_latency, rid)
        else:
            self._post(t + self.params.control_hop_latency, "nack", (rid, hop - 1))

    def _wake_parked(self, t: int, link_id: int, freed: int) -> None:
        queue = self.parked.get(link_id)
        if not queue or freed <= 0:
            return
        woken = 0
        while queue and woken < freed:
            rid = queue.popleft()
            res = self.reservations.get(rid)
            if res is None or res.parked_hop < 0:
                continue
            hop = res.parked_hop
            res.parked_hop = -1
            res.park_generation += 1
            self._post(t, "res", (rid, hop))
            woken += 1

    def _on_park_timeout(self, t: int, rid: int, generation: int) -> None:
        res = self.reservations.get(rid)
        if res is None or res.parked_hop < 0 or res.park_generation != generation:
            return
        hop = res.parked_hop
        res.parked_hop = -1
        link_id = res.path[hop]
        queue = self.parked.get(link_id)
        if queue and rid in queue:
            queue.remove(rid)
        if hop == 0:
            self._fail(t, rid)
        else:
            self._post(t + self.params.control_hop_latency, "nack", (rid, hop - 1))

    def _fail(self, t: int, rid: int) -> None:
        res = self.reservations.pop(rid)
        m = res.message
        m.retries += 1
        self.total_retries += 1
        if self.trace:
            self.trace.emit(t, "res-fail", m.mid, f"rid {rid}, retry {m.retries}")
        self.outstanding.discard(m.src)
        self._post(t + self._backoff(), "node", (m.src,))

    def _on_ack(self, t: int, rid: int, hop: int) -> None:
        if rid in self.killed:
            return
        res = self.reservations[rid]
        freed = self.net.link(res.path[hop]).release_locks(rid, keep=res.chosen)
        self._wake_parked(t, res.path[hop], freed)
        if hop > 0:
            self._post(t + self.params.control_hop_latency, "ack", (rid, hop - 1))
        else:
            self._established(t, rid)

    def _established(self, t: int, rid: int) -> None:
        res = self.reservations[rid]
        m = res.message
        m.established = t
        m.slot = res.chosen
        if self.trace:
            self.trace.emit(t, "established", m.mid, f"slot {res.chosen}")
        queue = self.queues[m.src]
        if queue and queue[0] is m:
            queue.popleft()
        else:
            queue.remove(m)
        self.outstanding.discard(m.src)
        self._post(t, "node", (m.src,))
        chunks = transfer_chunks(m.size, self.params.slot_payload)
        finish = transfer_finish(t, res.chosen, self.degree, chunks)
        self._post(finish, "data_done", (rid,))

    def _on_data_done(self, t: int, rid: int) -> None:
        if rid in self.killed:
            return
        res = self.reservations[rid]
        m = res.message
        m.delivered = t
        self.delivered_count += 1
        self.completion = max(self.completion, t)
        if self.trace:
            self.trace.emit(t, "delivered", m.mid)
        self._post(t + self.params.control_hop_latency, "rel", (rid, 0))

    def _on_rel(self, t: int, rid: int, hop: int) -> None:
        if rid in self.killed:
            return
        res = self.reservations[rid]
        freed = self.net.link(res.path[hop]).release_owner(rid)
        self._wake_parked(t, res.path[hop], freed)
        if hop + 1 < len(res.path):
            self._post(t + self.params.control_hop_latency, "rel", (rid, hop + 1))
        else:
            if self.trace:
                self.trace.emit(t, "released", res.message.mid)
            del self.reservations[rid]


class ReferenceWDMSimulator(ReferenceSimulator):
    """Dynamic control on WDM: the lightpath streams every slot."""

    def _established(self, t: int, rid: int) -> None:
        res = self.reservations[rid]
        m = res.message
        m.established = t
        m.slot = res.chosen
        self.queues[m.src].popleft()
        self.outstanding.discard(m.src)
        self._post(t, "node", (m.src,))
        finish = t + transfer_chunks(m.size, self.params.slot_payload)
        self._post(finish, "data_done", (rid,))
