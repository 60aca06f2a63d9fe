"""Wavelength-division multiplexing (WDM) models -- extension.

The paper develops compiled communication for *time*-division
multiplexing but frames it against the WDM literature (refs [1, 4, 12,
17]): wavelengths are the other way to put K virtual channels on a
fiber.  Scheduling is **identical** -- a configuration set of size K is
realised by K wavelengths instead of K time slots, and the wavelength-
continuity constraint of all-optical switching is exactly the slot-
continuity constraint our reservation protocol already enforces.  What
changes is the *transfer model*:

* under TDM, a connection owns 1 slot in K and moves ``slot_payload``
  elements per frame: transfer time ``K * chunks``;
* under WDM, a connection owns a wavelength *continuously* and moves
  ``slot_payload`` elements every slot: transfer time ``chunks``,
  independent of K -- provided the node can drive that many wavelengths
  at once.

The hardware caveat is the interesting part (Melhem's "why does TDM pay
off" argument [12]): WDM needs either one transmitter per wavelength
per node (``transmitters="per-wavelength"``, expensive) or a single
tunable transmitter (``transmitters="single"``), in which case a node
must *serialise its own sends* and dense patterns lose most of the WDM
advantage.  Both variants are modelled, plus a dynamic WDM mode reusing
the TDM reservation protocol with the continuous transfer model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.configuration import ConfigurationSet
from repro.core.paths import route_requests
from repro.core.registry import get_scheduler
from repro.core.requests import RequestSet
from repro.simulator.compiled import transfer_chunks
from repro.simulator.dynamic.control import DynamicResult, _DynamicSimulator
from repro.simulator.messages import Message, messages_from_requests
from repro.simulator.params import SimParams
from repro.topology.base import Topology

TRANSMITTER_MODELS = ("per-wavelength", "single")


@dataclass
class WDMCompiledResult:
    """Outcome of a compiled-communication run on a WDM network."""

    completion_time: int
    num_wavelengths: int
    schedule: ConfigurationSet
    messages: list[Message]
    transmitters: str


def wdm_compiled_completion_time(
    topology: Topology,
    requests: RequestSet,
    params: SimParams = SimParams(),
    *,
    scheduler: str = "combined",
    transmitters: str = "per-wavelength",
) -> WDMCompiledResult:
    """Compiled communication over wavelengths instead of time slots.

    The scheduler's configurations become wavelength assignments.  With
    per-wavelength transmitters every message streams concurrently at
    full bandwidth; with a single tunable transmitter each node sends
    its messages back to back (ordered by wavelength index, matching
    the deterministic TDM slot order).
    """
    if transmitters not in TRANSMITTER_MODELS:
        raise ValueError(
            f"transmitters must be one of {TRANSMITTER_MODELS}, got {transmitters!r}"
        )
    connections = route_requests(topology, requests)
    schedule = get_scheduler(scheduler)(connections, topology)
    wavelength = schedule.slot_map()
    messages = messages_from_requests(requests)
    completion = params.compiled_startup
    if transmitters == "per-wavelength":
        for m in messages:
            m.first_attempt = 0
            m.established = params.compiled_startup
            m.slot = wavelength[m.mid]
            m.delivered = params.compiled_startup + transfer_chunks(
                m.size, params.slot_payload
            )
            completion = max(completion, m.delivered)
    else:
        # Single tunable transmitter: a node's sends serialise, in
        # wavelength order.  (Receivers are assumed wavelength-parallel,
        # as in broadcast-and-select node designs.)
        by_src: dict[int, list[Message]] = {}
        for m in messages:
            m.slot = wavelength[m.mid]
            by_src.setdefault(m.src, []).append(m)
        for queue in by_src.values():
            queue.sort(key=lambda m: m.slot)
            t = params.compiled_startup
            for m in queue:
                m.first_attempt = 0
                m.established = t
                t += transfer_chunks(m.size, params.slot_payload)
                m.delivered = t
            completion = max(completion, t)
    return WDMCompiledResult(
        completion_time=completion,
        num_wavelengths=schedule.degree,
        schedule=schedule,
        messages=messages,
        transmitters=transmitters,
    )


class _WDMDynamicSimulator(_DynamicSimulator):
    """Dynamic control on WDM: continuous transfer once established."""

    def _transfer_finish(self, t: int, slot: int, chunks: int) -> int:
        return t + chunks


def simulate_dynamic_wdm(
    topology: Topology,
    requests: RequestSet,
    num_wavelengths: int,
    params: SimParams = SimParams(),
) -> DynamicResult:
    """The section-4.1 reservation protocol over a WDM data network.

    Identical control plane (RES collects the free-wavelength set along
    the path, ACK picks one -- wavelength continuity); the established
    lightpath then runs at full bandwidth regardless of the wavelength
    count.
    """
    sim = _WDMDynamicSimulator(topology, requests, num_wavelengths, params)
    sim.run()
    return DynamicResult(
        completion_time=sim.completion,
        degree=num_wavelengths,
        messages=sim.messages,
        total_retries=sim.total_retries,
        params=params,
    )
