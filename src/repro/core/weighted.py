"""Size-aware (weighted) TDM schedules -- an extension beyond the paper.

The paper's schedulers minimise the multiplexing degree K and give every
connection exactly one slot per frame.  When message sizes are skewed
that is wasteful: a 256-element transfer shares the frame evenly with a
1-element transfer, so the big message's completion time is
``K * chunks`` while small messages idle their slots after finishing.

The classic fix, implemented here, is **configuration replication**: the
frame cycles through the base configurations ``C_1..C_K`` with
*multiplicities* ``r_1..r_K``, so every connection in ``C_i`` gets
``r_i`` slots per frame of length ``F = sum(r)``.  A connection needing
``n`` chunks then finishes in roughly ``F * n / r_i`` slots.  Validity
is free: each frame slot still holds one conflict-free configuration.

Multiplicities are chosen per candidate frame length up to
``max_frame``: slots go to configurations in proportion to their
transfer demand, leftovers to the running bottleneck.  Slots are laid
out by deficit round-robin so a configuration's ``r_i`` slots spread
evenly through the frame (bunched slots would recreate the long-gap
problem).  Each candidate is scored by its exact makespan -- where its
owned slots fall in the frame, not the ``F * n / r_i`` estimate, which
ignores that phase -- and the flat frame is the baseline, so the chosen
frame is never slower than the flat one.

On a heavy-tailed random pattern the replicated frame beats the flat
one (EXPERIMENTS.md, asserted in ``tests/core/test_weighted.py``); for
uniform sizes the optimiser leaves the schedule untouched
(multiplicities all 1), so this strictly generalises the paper's
model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.configuration import ConfigurationSet
from repro.core.paths import Connection


@dataclass
class WeightedSchedule:
    """A TDM frame with per-configuration multiplicities.

    ``frame[t]`` is the base-configuration index active in slot ``t``;
    the frame repeats with period ``len(frame)``.
    """

    base: ConfigurationSet
    frame: list[int]

    @property
    def frame_length(self) -> int:
        """Slots per frame (the effective multiplexing degree)."""
        return len(self.frame)

    @property
    def multiplicities(self) -> list[int]:
        """Slots per frame owned by each base configuration."""
        counts = [0] * self.base.degree
        for idx in self.frame:
            counts[idx] += 1
        return counts

    def slots_of(self, config_index: int) -> list[int]:
        """Frame positions at which ``config_index`` is active."""
        return [t for t, idx in enumerate(self.frame) if idx == config_index]

    def validate(self, connections: list[Connection]) -> None:
        """Base schedule valid + every configuration appears in the frame."""
        self.base.validate(connections)
        present = set(self.frame)
        if present != set(range(self.base.degree)):
            missing = sorted(set(range(self.base.degree)) - present)
            raise AssertionError(f"configurations {missing} never get a slot")


def _deficit_round_robin(multiplicities: list[int]) -> list[int]:
    """Spread each configuration's slots evenly through the frame.

    Classic deficit scheduling: every slot, credit each configuration
    by its rate and emit the one with the largest accumulated credit.
    """
    total = sum(multiplicities)
    credit = [0.0] * len(multiplicities)
    frame: list[int] = []
    for _ in range(total):
        for i, r in enumerate(multiplicities):
            credit[i] += r / total
        winner = max(range(len(multiplicities)), key=lambda i: credit[i])
        credit[winner] -= 1.0
        frame.append(winner)
    return frame


def _config_chunks(schedule: ConfigurationSet, slot_payload: int) -> list[int]:
    """Owned slots each configuration needs: its largest member's chunk
    count (every message takes at least one slot; an empty configuration
    needs none)."""
    return [
        max((max(1, -(-c.request.size // slot_payload)) for c in cfg), default=0)
        for cfg in schedule
    ]


def _frame_makespan(chunks: list[int], frame: list[int]) -> int:
    """Exact makespan of ``frame`` at startup 0, as :func:`simulate_weighted`
    counts it: the slot after each configuration's last needed owned slot."""
    period = len(frame)
    slots: list[list[int]] = [[] for _ in chunks]
    for t, idx in enumerate(frame):
        slots[idx].append(t)
    makespan = 0
    for need, owned in zip(chunks, slots):
        if need:
            rounds, k = divmod(need - 1, len(owned))
            makespan = max(makespan, rounds * period + owned[k] + 1)
    return makespan


def weighted_schedule(
    schedule: ConfigurationSet,
    *,
    slot_payload: int = 4,
    max_frame: int | None = None,
) -> WeightedSchedule:
    """Replicate configurations to balance completion times.

    Parameters
    ----------
    schedule:
        A valid base schedule (any paper scheduler's output).
    slot_payload:
        Elements per owned slot (must match the simulator's).
    max_frame:
        Frame-length cap; defaults to ``4 * K``.  Hardware registers are
        finite, so unbounded replication is not realistic.

    Returns a :class:`WeightedSchedule`; with uniform message sizes the
    frame degenerates to the base schedule's K slots.
    """
    degree = schedule.degree
    if degree == 0:
        return WeightedSchedule(base=schedule, frame=[])
    cap = max_frame if max_frame is not None else 4 * degree
    if cap < degree:
        raise ValueError(f"max_frame={cap} cannot hold all {degree} configurations")

    chunks = _config_chunks(schedule, slot_payload)
    total_chunks = max(1, sum(chunks))
    best_frame = list(range(degree))
    best = _frame_makespan(chunks, best_frame)
    # For every candidate frame length, allocate slots proportionally to
    # each configuration's transfer demand (min 1), hand leftovers to
    # the running bottleneck, and keep the frame that finishes first.
    for frame_len in range(degree + 1, cap + 1):
        mult = [max(1, (c * frame_len) // total_chunks) for c in chunks]
        spare = frame_len - sum(mult)
        if spare < 0:
            continue
        for _ in range(spare):
            bottleneck = max(range(degree), key=lambda i: chunks[i] / mult[i])
            mult[bottleneck] += 1
        frame = _deficit_round_robin(mult)
        makespan = _frame_makespan(chunks, frame)
        if makespan < best:
            best_frame, best = frame, makespan
    return WeightedSchedule(base=schedule, frame=best_frame)


def simulate_weighted(
    weighted: WeightedSchedule,
    *,
    slot_payload: int = 4,
    startup: int = 0,
) -> int:
    """Slot-stepped makespan of a weighted schedule.

    Walks the repeating frame; every active configuration's connections
    move ``slot_payload`` elements per owned slot.  Returns the slot at
    which the last message completes.
    """
    remaining: dict[int, int] = {}
    config_of: dict[int, int] = {}
    for idx, cfg in enumerate(weighted.base):
        for c in cfg:
            remaining[c.index] = c.request.size
            config_of[c.index] = idx
    if not remaining:
        return startup
    frame = weighted.frame
    period = len(frame)
    t = startup
    completion = startup
    active_by_config: dict[int, list[int]] = {}
    for mid, idx in config_of.items():
        active_by_config.setdefault(idx, []).append(mid)
    while remaining:
        cfg_idx = frame[(t - startup) % period]
        for mid in active_by_config.get(cfg_idx, []):
            if mid in remaining:
                remaining[mid] -= slot_payload
                if remaining[mid] <= 0:
                    del remaining[mid]
                    completion = max(completion, t + 1)
        t += 1
        if t - startup > 10_000_000:
            raise RuntimeError("weighted simulation runaway")
    return completion
