"""Cycle-level simulator for time-multiplexed all-optical networks.

Reproduces the section-4 evaluation: the same TDM data-network model is
driven either by **compiled communication** (switch registers preloaded
from an off-line schedule; zero control traffic) or by **dynamic
control** (a distributed path-reservation protocol over an electronic
shadow network).  Time is measured in *slots* -- the paper's time unit.

The paper's simulator parameter list was lost from the archived text;
:class:`repro.simulator.params.SimParams` documents our choices.  The
defaults are calibrated so the compiled-communication model reproduces
the paper's GS column exactly (a ``G``-element boundary exchange at
multiplexing degree 2 costs ``2*ceil(G/4) + 3`` slots = 35/67/131 for
G = 64/128/256), and every parameter is an explicit knob.
"""

from repro.simulator.params import SimParams
from repro.simulator.messages import Message, messages_from_requests
from repro.simulator.tdm import LinkSlotState, TDMNetwork
from repro.simulator.compiled import (
    CompiledEpochResult,
    CompiledFaultResult,
    CompiledResult,
    EpochUpdate,
    compiled_completion_time,
    simulate_compiled_epochs,
    simulate_compiled_faulty,
)
from repro.simulator.dynamic import DynamicResult, simulate_dynamic
from repro.simulator.faults import FaultEvent, FaultSchedule, random_fault_schedule
from repro.simulator.metrics import recovery_summary, summarize
from repro.simulator.wdm import (
    WDMCompiledResult,
    simulate_dynamic_wdm,
    wdm_compiled_completion_time,
)
from repro.simulator.register_sim import simulate_registers, weighted_registers

__all__ = [
    "SimParams",
    "Message",
    "messages_from_requests",
    "LinkSlotState",
    "TDMNetwork",
    "CompiledEpochResult",
    "CompiledFaultResult",
    "CompiledResult",
    "EpochUpdate",
    "simulate_compiled_epochs",
    "simulate_compiled_faulty",
    "compiled_completion_time",
    "DynamicResult",
    "simulate_dynamic",
    "FaultEvent",
    "FaultSchedule",
    "random_fault_schedule",
    "recovery_summary",
    "summarize",
    "WDMCompiledResult",
    "simulate_dynamic_wdm",
    "wdm_compiled_completion_time",
    "simulate_registers",
    "weighted_registers",
]
