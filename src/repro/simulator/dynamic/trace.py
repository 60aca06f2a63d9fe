"""Protocol event tracing for the dynamic simulator.

A :class:`ProtocolTrace` records the reservation protocol's visible
events -- message arrival, reservation start, per-hop progress,
failures, establishment, delivery, teardown -- as structured entries,
for debugging and for tests that assert protocol ordering ("ACK never
precedes the RES reaching the destination", "every established circuit
is eventually released", ...).

Enable it by passing ``trace=ProtocolTrace()`` to
:func:`repro.simulator.dynamic.simulate_dynamic`; the filled trace is
attached to the result.  Tracing every hop of a dense run is large, so
it is opt-in and the RES per-hop events can be disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TraceEvent:
    """One protocol event."""

    time: int
    kind: str   # arrive | res-start | res-hop | res-park | res-fail
    #             | established | delivered | released | fault-kill
    #             | lost | link-fail | link-restore
    mid: int    # message id; -1 for network-level events (link-fail/-restore)
    detail: str = ""


@dataclass
class ProtocolTrace:
    """Chronological protocol event record."""

    #: record per-hop RES progress (verbose on dense runs).
    record_hops: bool = True
    events: list[TraceEvent] = field(default_factory=list)

    def emit(self, time: int, kind: str, mid: int, detail: str = "") -> None:
        if kind == "res-hop" and not self.record_hops:
            return
        self.events.append(TraceEvent(time=time, kind=kind, mid=mid, detail=detail))

    # -- queries -----------------------------------------------------------
    def of_message(self, mid: int) -> list[TraceEvent]:
        """All events of one message, in order."""
        return [e for e in self.events if e.mid == mid]

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    def check_wellformed(self) -> None:
        """Assert per-message protocol ordering invariants.

        For every message: exactly one ``arrive``; at most one
        ``delivered`` and one ``lost`` (never both); no establishment
        after delivery and no reservation failure after the *final*
        establishment.  A message may establish more than once only
        when a runtime fault killed its circuit mid-transfer (the
        ``fault-kill`` event between the establishments records why).
        Network-level events (``mid == -1``, link fail/restore) are
        exempt from per-message checks.
        """
        by_mid: dict[int, list[TraceEvent]] = {}
        for e in self.events:
            if e.mid >= 0:
                by_mid.setdefault(e.mid, []).append(e)
        mids = {e.mid for e in self.events if e.mid >= 0}
        for mid in mids:
            seq = by_mid[mid]
            kinds = [e.kind for e in seq]
            if kinds.count("arrive") != 1:
                raise AssertionError(f"message {mid}: {kinds.count('arrive')} arrivals")
            if kinds.count("delivered") > 1:
                raise AssertionError(f"message {mid}: delivered twice")
            if kinds.count("lost") > 1:
                raise AssertionError(f"message {mid}: lost twice")
            if "delivered" in kinds and "lost" in kinds:
                raise AssertionError(f"message {mid}: both delivered and lost")
            times = {k: [e.time for e in seq if e.kind == k] for k in set(kinds)}
            if "established" in times:
                if kinds.count("established") > kinds.count("fault-kill") + 1:
                    raise AssertionError(
                        f"message {mid}: re-established without a fault kill"
                    )
                t_est = max(times["established"])
                if any(t > t_est for t in times.get("res-fail", [])):
                    raise AssertionError(f"message {mid}: failure after establishment")
                if "delivered" in times:
                    (t_del,) = times["delivered"]
                    if t_del < t_est:
                        raise AssertionError(f"message {mid}: delivered before established")

    def render(self, *, limit: int = 50) -> str:
        """Human-readable listing (first ``limit`` events)."""
        lines = [f"{e.time:>6}  {e.kind:<12} msg {e.mid:<4} {e.detail}"
                 for e in self.events[:limit]]
        if len(self.events) > limit:
            lines.append(f"... {len(self.events) - limit} more events")
        return "\n".join(lines)
