"""Result summarisation helpers shared by tests, CLI and examples."""

from __future__ import annotations

import statistics
from collections.abc import Sequence

from repro.simulator.messages import Message


def summarize(
    messages: Sequence[Message], *, allow_lost: bool = False
) -> dict[str, float]:
    """Per-message statistics of a finished run.

    Returns a dict with the makespan, mean/median/max latency, mean
    establishment delay (dynamic runs) and total retries.  Raises if a
    message was never delivered -- a run that silently dropped traffic
    must not summarise cleanly.  ``allow_lost`` admits messages a fault
    run explicitly declared lost (counted under ``"lost"``, excluded
    from the latency statistics); silent drops still raise.
    """
    if not messages:
        return {"makespan": 0.0, "messages": 0.0}
    latencies = []
    establish = []
    retries = 0
    lost = 0
    makespan = 0
    for m in messages:
        if m.delivered is None:
            if allow_lost and m.lost is not None:
                lost += 1
                retries += m.retries
                continue
            raise ValueError(f"message {m.mid} was never delivered")
        makespan = max(makespan, m.delivered)
        if m.latency is not None:
            latencies.append(m.latency)
        if m.established is not None and m.first_attempt is not None:
            establish.append(m.established - m.first_attempt)
        retries += m.retries
    out: dict[str, float] = {
        "makespan": float(makespan),
        "messages": float(len(messages)),
        "retries": float(retries),
    }
    if allow_lost:
        out["lost"] = float(lost)
    if latencies:
        out["latency_mean"] = statistics.fmean(latencies)
        out["latency_median"] = float(statistics.median(latencies))
        out["latency_max"] = float(max(latencies))
    if establish:
        out["establish_mean"] = statistics.fmean(establish)
    return out


def recovery_summary(result) -> dict[str, float]:
    """Fault-recovery statistics of a run under a fault schedule.

    Accepts a :class:`~repro.simulator.dynamic.DynamicResult` or a
    :class:`~repro.simulator.compiled.CompiledFaultResult` -- the
    common recovery vocabulary (delivered/lost accounting and
    time-to-recover over the run's ``fault_log``) plus each control
    model's own costs: retries attributable to faults for the
    reservation protocol, reschedules and degree inflation for the
    compiled model.
    """
    messages = result.messages
    log = getattr(result, "fault_log", None) or []
    out: dict[str, float] = {
        "makespan": float(result.completion_time),
        "messages": float(len(messages)),
        "delivered": float(
            sum(1 for m in messages if m.delivered is not None)
        ),
        "lost": float(sum(1 for m in messages if m.lost is not None)),
        "fault_events": float(len(log)),
    }
    recoveries = [float(e["time_to_recover"]) for e in log]
    if recoveries:
        out["time_to_recover_mean"] = statistics.fmean(recoveries)
        out["time_to_recover_max"] = float(max(recoveries))
    if hasattr(result, "fault_retries"):  # dynamic control
        out["fault_retries"] = float(result.fault_retries)
    if hasattr(result, "degree_inflation"):  # compiled control
        out["degree_inflation"] = float(result.degree_inflation)
        out["reschedules"] = float(result.reschedules)
        out["recompile_slots"] = float(result.recompile_slots)
    if getattr(result, "recovery", None) == "protected":
        out["failovers"] = float(result.failovers)
        out["failover_slots"] = float(result.failover_slots)
        out["uncovered"] = float(result.uncovered)
    return out
