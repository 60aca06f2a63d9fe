"""Slot-stepped reference engine of the compiled-communication model.

The production model (:func:`repro.simulator.compiled.compiled_completion_time`)
evaluates each message's finish time in closed form.  This module walks
time slot by slot instead, streaming ``slot_payload`` elements for every
connection whose slot matches the frame position, so the suite can
demand that the closed form agrees with it exactly.  It is slower and
makes no closed-form assumptions.
"""

from __future__ import annotations

from repro.core.paths import route_requests
from repro.core.registry import get_scheduler
from repro.core.requests import RequestSet
from repro.simulator.compiled import CompiledResult
from repro.simulator.messages import messages_from_requests
from repro.simulator.params import SimParams
from repro.topology.base import Topology


def simulate_compiled(
    topology: Topology,
    requests: RequestSet,
    params: SimParams = SimParams(),
    *,
    scheduler: str = "combined",
) -> CompiledResult:
    """Slot-stepped run of the compiled model (see the module docstring)."""
    connections = route_requests(topology, requests)
    schedule = get_scheduler(scheduler)(connections, topology)
    slot_map = schedule.slot_map()
    messages = messages_from_requests(requests)
    degree = max(schedule.degree, 1)

    remaining = {m.mid: m.size for m in messages}
    for m in messages:
        m.first_attempt = 0
        m.established = params.compiled_startup
        m.slot = slot_map[m.mid]
    t = params.compiled_startup
    completion = t
    while remaining:
        if t - params.compiled_startup > params.max_slots:
            raise RuntimeError("compiled simulation exceeded max_slots")
        active = t % degree
        done = []
        for mid in remaining:
            m = messages[mid]
            if m.slot == active:
                remaining[mid] -= params.slot_payload
                if remaining[mid] <= 0:
                    m.delivered = t + 1
                    completion = max(completion, t + 1)
                    done.append(mid)
        for mid in done:
            del remaining[mid]
        t += 1
    return CompiledResult(
        completion_time=completion,
        degree=schedule.degree,
        schedule=schedule,
        messages=messages,
        params=params,
    )
