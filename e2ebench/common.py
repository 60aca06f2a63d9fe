"""Small helpers shared by the workloads: percentiles, geomeans, RSS, pace."""

from __future__ import annotations

import gc
import itertools
import math
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

#: Size of the reference kernel, and its duration in seconds at the
#: reference speed (the fast mode of the 2-core box the benchmark was
#: written on).  Changing either changes every scaled timing.
REF_ITERS = 6_000
REF_SECONDS = 0.0031
#: Readings around a sample whose median sets its scale.
PACE_WINDOW = 5


def reference_kernel() -> int:
    """Fixed pure-Python work: dict and set traffic, then integer arithmetic.

    Measured between the box's two modes, the first half slows down 2.0x
    and the second 1.5x; the program's own paths (compile, warm hit,
    simulation, complete exchange) slow down 1.6-1.85x, and this mix
    about 1.75x.
    """
    seen: dict[int, int] = {}
    links: set[tuple[int, int]] = set()
    acc = 0
    for i in range(REF_ITERS):
        key = (i * 2654435761) & 1023
        seen[key] = seen.get(key, 0) + 1
        links.add((key, i & 7))
        acc ^= key
    for i in range(4 * REF_ITERS):
        acc += i * i % 7
    return acc + len(seen) + len(links)


class Pace:
    """How fast the box ran around each timed sample.

    The box's CPUs switch between a fast and a slow mode, 1.5-2x apart,
    for 5-60 s at a time, so a run's raw median depends on how much of it
    fell in the slow mode (README.md, "Pace").  Before a timed operation
    the benchmark calls :meth:`tick`, which runs :func:`reference_kernel`
    and records how long it took.  :meth:`scale` of that reading is
    ``REF_SECONDS`` over the median of the readings around it, and a
    reported time is the measured time times its scale: the time the
    operation takes at the reference speed.
    """

    def __init__(self) -> None:
        self.readings: list[float] = []

    def tick(self) -> int:
        """Take one reading; returns its index for :meth:`scale`."""
        t0 = time.perf_counter()
        reference_kernel()
        self.readings.append(time.perf_counter() - t0)
        return len(self.readings) - 1

    def scale(self, index: int) -> float:
        lo = max(index - PACE_WINDOW // 2, 0)
        return REF_SECONDS / statistics.median(self.readings[lo:lo + PACE_WINDOW])

    def scaled(self, samples: Sequence[tuple[float, int]]) -> list[float]:
        """``(seconds, reading index)`` samples as milliseconds at the
        reference speed."""
        return [seconds * 1e3 * self.scale(i) for seconds, i in samples]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``q`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no samples")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def geomean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("geomean of no values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(values: Sequence[float], q: float, need: int, what: str) -> float:
    """``q``-th percentile, refusing a run too short to support it.

    A p90 needs at least 100 samples and a p99 at least 1,000 (ten
    samples beyond the cut); a shorter run raises instead of reporting
    a tail that is really the maximum of a handful of samples.
    """
    if len(values) < need:
        raise RunTooShort(f"{what}: {len(values)} samples, p{q:g} needs {need}")
    return percentile(values, q)


class RunTooShort(RuntimeError):
    """The run produced fewer samples than a reported tail needs."""


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``.

    ``metrics`` maps end-to-end metric names to values; ``layers`` maps
    per-layer names to values (traced runs only).  ``attempted`` counts
    every operation the run issued, ``failed`` every one that raised, was
    refused, or failed the oracle.  ``samples`` records how many samples
    stand behind each timing, for the report.
    """

    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    samples: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def timing(self, name: str, values: Sequence[float], *, tail_q: float | None = None,
               need: int = 0) -> None:
        """Record ``name.p50`` (and ``name.p<tail_q>``) from ``values`` in ms."""
        self.samples[name] = len(values)
        self.metrics[f"{name}.p50"] = percentile(values, 50)
        if tail_q is not None:
            self.metrics[f"{name}.p{tail_q:g}"] = tail(values, tail_q, need, name)


def freeze_heap() -> None:
    """Collect, then move every live object to the collector's permanent
    generation (frozen objects are still freed when their last reference
    goes).

    The benchmark keeps in one interpreter what a deployment keeps apart:
    the farm's nodes and routers, the clients, the load generator and the
    oracle's references (the 64x64 complete exchange alone is hundreds of
    MB).  Each full collection rescans all of it at once, and on farm-write
    those 50-80 ms pauses landed on whichever requests were in flight.
    Both workloads freeze at the end of set-up, so the collector scans only
    what the measured part allocates.
    """
    gc.collect()
    gc.freeze()


class Roots:
    """Root spans, one request id per operation, when the run is traced."""

    def __init__(self, tracer, first_id: int = 1) -> None:
        self.tracer = tracer
        self.ids = itertools.count(first_id)
        #: request id -> class, for the per-class breakdown.
        self.classes: dict[int, str] = {}

    def next_id(self) -> int:
        return next(self.ids)

    def __call__(self, name: str, rid: int | None = None, cls: str | None = None):
        if rid is None:
            rid = self.next_id()
        if cls is not None:
            self.classes[rid] = cls
        return nullcontext() if self.tracer is None else self.tracer.root(name, rid)


def log(*parts: Any) -> None:
    """Progress and report lines go to stderr; stdout ends with the JSON."""
    print(*parts, file=sys.stderr, flush=True)
