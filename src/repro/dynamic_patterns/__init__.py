"""Handling communication patterns unknown at compile time -- extension.

The paper's section 3 sketches (and its conclusion names as ongoing
work) two ways a compiled-communication system can serve *dynamic*
patterns without a run-time control plane, both built on statically
determined multiplexed sequences:

**standing all-to-all** (:mod:`repro.dynamic_patterns.standing`)
    Keep the AAPC configuration set cycling permanently.  Every ordered
    pair owns one phase of the frame, so any message can be sent with
    zero setup -- at the cost of a 64-slot frame on the 8x8 torus
    ("establishing paths for all-to-all communication can be
    prohibitively expensive for a large system").

**multihop emulation** (:mod:`repro.dynamic_patterns.multihop`)
    Embed a low-degree logical topology (e.g. a hypercube: 7-8 slots
    instead of 64) with compiled TDM, and forward dynamic messages
    store-and-forward over the established logical channels -- trading
    per-hop buffering (electronic, at the PEs, not in the optical
    switches) for a much shorter frame.

:mod:`repro.dynamic_patterns.workload` generates online traffic;
EXPERIMENTS.md compares both mechanisms against the full run-time
reservation protocol of section 4.1.
"""

from repro.dynamic_patterns.workload import OnlineRequest, random_online_workload
from repro.dynamic_patterns.standing import StandingAllToAll
from repro.dynamic_patterns.multihop import MultihopEmulation

__all__ = [
    "OnlineRequest",
    "random_online_workload",
    "StandingAllToAll",
    "MultihopEmulation",
]
