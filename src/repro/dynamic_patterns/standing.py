"""Standing all-to-all service for dynamic messages.

The network permanently cycles through a phased AAPC configuration set:
every ordered pair ``(s, d)`` owns exactly one phase, so a dynamically
issued message simply waits for its phase to come around and streams
``slot_payload`` elements each revolution -- zero setup latency, no
control traffic, no buffering inside the optical switches.

The price is the frame length ``P`` (64 on the paper's 8x8 torus): a
``z``-element message takes about ``P * ceil(z / slot_payload)`` slots,
and messages between the *same* pair queue behind each other.
EXPERIMENTS.md compares this against multihop emulation and full
run-time reservation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.aapc.phases import aapc_decomposition
from repro.dynamic_patterns.workload import OnlineRequest
from repro.simulator.messages import Message
from repro.simulator.params import SimParams
from repro.topology.base import Topology


@dataclass
class OnlineResult:
    """Outcome of serving an online workload."""

    completion_time: int
    frame_length: int
    messages: list[Message]
    mechanism: str


class StandingAllToAll:
    """Serve dynamic traffic over the standing AAPC frame."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        decomposition = aapc_decomposition(topology)
        self.phase_of = decomposition.phase_of
        self.frame_length = decomposition.num_phases

    def simulate(
        self,
        workload: list[OnlineRequest],
        params: SimParams = SimParams(),
    ) -> OnlineResult:
        """Slot-stepped service of ``workload`` (arrival order FIFO per pair)."""
        messages = [
            Message(mid=i, src=r.src, dst=r.dst, size=r.size)
            for i, r in enumerate(workload)
        ]
        for m, r in zip(messages, workload):
            m.first_attempt = r.arrival
            m.established = r.arrival  # the channel pre-exists
        # Pending queue per pair, filled as messages arrive; pairs with
        # backlog are indexed by their phase so each slot only touches
        # the pairs it can actually serve.
        by_arrival = sorted(range(len(workload)), key=lambda i: workload[i].arrival)
        queues: dict[tuple[int, int], deque[int]] = {}
        busy_pairs: list[set[tuple[int, int]]] = [set() for _ in range(self.frame_length)]
        remaining = {i: workload[i].size for i in range(len(workload))}
        next_arrival = 0
        undelivered = len(workload)
        t = 0
        completion = 0
        while undelivered:
            if t > params.max_slots:
                raise RuntimeError("standing-AAPC service exceeded max_slots")
            while (
                next_arrival < len(by_arrival)
                and workload[by_arrival[next_arrival]].arrival <= t
            ):
                i = by_arrival[next_arrival]
                pair = (workload[i].src, workload[i].dst)
                queues.setdefault(pair, deque()).append(i)
                busy_pairs[self.phase_of[pair]].add(pair)
                next_arrival += 1
            phase = t % self.frame_length
            served = busy_pairs[phase]
            for pair in list(served):
                queue = queues[pair]
                head = queue[0]
                remaining[head] -= params.slot_payload
                if remaining[head] <= 0:
                    queue.popleft()
                    messages[head].delivered = t + 1
                    completion = max(completion, t + 1)
                    undelivered -= 1
                    if not queue:
                        served.discard(pair)
            t += 1
        return OnlineResult(
            completion_time=completion,
            frame_length=self.frame_length,
            messages=messages,
            mechanism="standing-aapc",
        )
