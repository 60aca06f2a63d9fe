"""Multihop emulation over a compiled logical topology.

The second of the paper's mechanisms for dynamic patterns: statically
embed a *logical* low-degree topology with compiled TDM -- here a
hypercube, whose 384 connections need only ~8 slots on the 8x8 torus
versus 64 for standing all-to-all -- and forward dynamic messages hop
by hop over the established logical channels.  Intermediate buffering
happens in the PEs' electronic memory (store-and-forward), never inside
the all-optical switches, so the optical constraints are respected.

Routing over the logical hypercube is e-cube (correct address bits from
least significant up), deadlock-free with per-channel FIFO queues.  A
``z``-element message crossing ``h`` logical hops costs roughly
``h * P * ceil(z / slot_payload)`` slots uncontended (``P`` = the
logical pattern's multiplexing degree), so the mechanism wins over
standing all-to-all exactly when ``h * P < 64`` -- the trade
EXPERIMENTS.md measures.
"""

from __future__ import annotations

from collections import deque

from repro.core.paths import route_requests
from repro.core.registry import get_scheduler
from repro.dynamic_patterns.standing import OnlineResult
from repro.dynamic_patterns.workload import OnlineRequest
from repro.patterns.classic import hypercube_pattern
from repro.simulator.messages import Message
from repro.simulator.params import SimParams
from repro.topology.base import Topology


class MultihopEmulation:
    """Dynamic-message service over a compiled logical hypercube."""

    def __init__(self, topology: Topology, *, scheduler: str = "combined") -> None:
        n = topology.num_nodes
        if n & (n - 1):
            raise ValueError("hypercube emulation needs a power-of-two node count")
        self.topology = topology
        self.bits = n.bit_length() - 1
        pattern = hypercube_pattern(n)
        connections = route_requests(topology, pattern)
        schedule = get_scheduler(scheduler)(connections, topology)
        schedule.validate(connections)
        self.frame_length = schedule.degree
        #: logical channel (u, v) -> its slot in the compiled frame.
        self.slot_of: dict[tuple[int, int], int] = {
            connections[i].pair: slot for i, slot in schedule.slot_map().items()
        }

    def next_hop(self, at: int, dst: int) -> int:
        """E-cube routing: flip the lowest differing address bit."""
        diff = at ^ dst
        lowest = diff & -diff
        return at ^ lowest

    def hops(self, src: int, dst: int) -> int:
        """Logical path length (Hamming distance)."""
        return (src ^ dst).bit_count()

    def simulate(
        self,
        workload: list[OnlineRequest],
        params: SimParams = SimParams(),
    ) -> OnlineResult:
        """Slot-stepped store-and-forward service of ``workload``."""
        messages = [
            Message(mid=i, src=r.src, dst=r.dst, size=r.size)
            for i, r in enumerate(workload)
        ]
        for m, r in zip(messages, workload):
            m.first_attempt = r.arrival
            m.established = r.arrival
        by_arrival = sorted(range(len(workload)), key=lambda i: workload[i].arrival)
        next_arrival = 0
        # Per logical channel: FIFO of (mid, remaining elements).
        channel_q: dict[tuple[int, int], deque[list[int]]] = {}
        # Channels with backlog, indexed by their frame slot.
        busy: list[set[tuple[int, int]]] = [set() for _ in range(self.frame_length)]
        undelivered = len(workload)
        t = 0
        completion = 0

        def enqueue(mid: int, at: int, when_dst: int) -> None:
            channel = (at, self.next_hop(at, when_dst))
            channel_q.setdefault(channel, deque()).append([mid, workload[mid].size])
            busy[self.slot_of[channel]].add(channel)

        while undelivered:
            if t > params.max_slots:
                raise RuntimeError("multihop emulation exceeded max_slots")
            while (
                next_arrival < len(by_arrival)
                and workload[by_arrival[next_arrival]].arrival <= t
            ):
                i = by_arrival[next_arrival]
                enqueue(i, workload[i].src, workload[i].dst)
                next_arrival += 1
            slot = t % self.frame_length
            for channel in list(busy[slot]):
                queue = channel_q[channel]
                head = queue[0]
                head[1] -= params.slot_payload
                if head[1] <= 0:
                    queue.popleft()
                    if not queue:
                        busy[slot].discard(channel)
                    mid = head[0]
                    _, arrived_at = channel
                    if arrived_at == workload[mid].dst:
                        messages[mid].delivered = t + 1
                        completion = max(completion, t + 1)
                        undelivered -= 1
                    else:
                        # Store-and-forward: next hop from t+1 onward.
                        enqueue(mid, arrived_at, workload[mid].dst)
            t += 1
        return OnlineResult(
            completion_time=completion,
            frame_length=self.frame_length,
            messages=messages,
            mechanism="multihop-hypercube",
        )
