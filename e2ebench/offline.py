"""The ``offline-compile`` workload and the paper probe shared by both.

offline-compile is the paper's own use of the compiler: a closed loop on
one thread, with no server, wire or farm.  Every kind of work is done a
little in every round, so the box's slow spells fall on all of it alike.
See README.md for what each metric means on this workload.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.allpairs import all_to_all_lower_bound, all_to_all_schedule
from repro.core.delta import DeltaScheduler
from repro.core.paths import Connection, route_requests
from repro.core.registry import get_scheduler
from repro.core.requests import Request, RequestSet
from repro.service.cache import ArtifactCache
from repro.service.canonical import translation_group
from repro.service.compile import compile_pattern
from repro.simulator.compiled import compiled_completion_time
from repro.simulator.dynamic.control import simulate_dynamic
from repro.topology.torus import Torus2D

from common import Outcome, Pace, Roots, freeze_heap, geomean, log
from inputs import (
    SERVICE_SIZES,
    Pattern,
    amend_script,
    node_map,
    offline_rounds,
    table5_patterns,
    translate_rows,
    working_set,
)
from oracle import OracleError, check_fastpath, check_schedule, compact, fingerprint, translate

#: Dynamic multiplexing degrees the paper compares against (Table 5).
DYNAMIC_DEGREES = (1, 2, 5, 10)
#: Set-up repetitions; ``setup_s`` reports the median.
SETUP_REPEATS = 5
#: Work of one round, besides one compile of every pattern of the draw
#: and one complete-exchange sweep.
ROUND_SIMULATIONS = 5
ROUND_WARM_HITS = 400
ROUND_AMENDS = 400
#: Operations timed after one pace reading (each keeps its own sample).
WARM_BLOCK = 20
AMEND_BLOCK = 40
#: The in-process amend stream: a 16x16 torus, 256 live connections.
AMEND_WIDTH = 16
AMEND_LIVE = 256


NO_ROOTS = Roots(None)


def _slots_of(schedule) -> tuple:
    """A :class:`ConfigurationSet` in the oracle's nested-tuple form."""
    return tuple(
        tuple((c.request.src, c.request.dst, c.request.size, c.request.tag) for c in cfg)
        for cfg in schedule
    )


def _request_set(pattern: Pattern) -> RequestSet:
    return RequestSet(
        (Request(s, d, size=size, tag=tag) for s, d, size, tag in pattern.rows),
        allow_duplicates=True,
        name=pattern.label,
    )


class PaperProbe:
    """Table 5 simulations and complete-exchange sweeps.

    ``sizes`` and ``patterns`` select the sweep: the full paper sweep on
    offline-compile, a reduced one on farm-write (README).  Simulations
    are run one pattern at a time, in turn, so they can be spread over
    the run; ``simulate_s`` adds up each pattern's median.
    """

    def __init__(self, topology, patterns: list[Pattern], sizes: dict[int, int | None],
                 seed: int, pace: Pace, roots: Roots = NO_ROOTS) -> None:
        self.topology = topology
        self.pace = pace
        self.roots = roots
        self.patterns = patterns
        self.requests = [_request_set(p) for p in patterns]
        #: torus width -> slots whose conflicts are re-checked (None = all).
        self.sizes = sizes
        self.tori = [Torus2D(k) for k in sizes]
        self.rng = np.random.default_rng([seed, 9])
        self.first: list = []
        self.sweeps: list[tuple[float, int]] = []
        self.sims: list[list[tuple[float, int]]] = [[] for _ in patterns]
        self.comm: dict[int, float] = {}
        self.turn = 0

    def alltoall_sweep(self, out: Outcome | None = None) -> None:
        """One sweep.  The first (in set-up, ``out=None``) is kept as the
        reference and checked by :meth:`check_reference`; later sweeps are
        timed and must reproduce it."""
        tick = self.pace.tick()
        t0 = time.perf_counter()
        with self.roots("offline.alltoall"):
            built = [all_to_all_schedule(t, scheduler="fastpath") for t in self.tori]
        seconds = time.perf_counter() - t0
        if out is None:
            self.first = built
            return
        self.sweeps.append((seconds, tick))
        out.attempted += len(built)
        for ref, fast in zip(self.first, built):
            if not np.array_equal(fast.slot_of, ref.slot_of) or fast.degree != ref.degree:
                out.fail(f"alltoall {fast.topology_signature}: changed between sweeps")

    def check_reference(self, out: Outcome) -> None:
        """Oracle pass over the set-up sweep (outside every timed region)."""
        for torus, fast in zip(self.tori, self.first):
            out.attempted += 1
            try:
                check_fastpath(torus, fast, conflict_slots=self.sizes[torus.width], rng=self.rng)
                if fast.degree < all_to_all_lower_bound(torus):
                    raise OracleError("complete exchange below its lower bound")
            except OracleError as exc:
                out.fail(f"alltoall {torus.width}x{torus.width}: {exc}")

    def simulate(self, out: Outcome, count: int) -> None:
        """Compiled vs dynamic time of the next ``count`` patterns."""
        for _ in range(count):
            k = self.turn % len(self.patterns)
            self.turn += 1
            pattern, requests = self.patterns[k], self.requests[k]
            tick = self.pace.tick()
            t0 = time.perf_counter()
            with self.roots("offline.simulate"):
                compiled = compiled_completion_time(self.topology, requests)
                dynamic = [simulate_dynamic(self.topology, requests, d)
                           for d in DYNAMIC_DEGREES]
            self.sims[k].append((time.perf_counter() - t0, tick))
            out.attempted += 1
            try:
                check_schedule(self.topology, _slots_of(compiled.schedule), pattern.rows)
                for result in dynamic:
                    if result.lost or result.delivered != len(result.messages):
                        raise OracleError(f"dynamic run lost {result.lost} messages")
                best = min(r.completion_time for r in dynamic)
                if compiled.completion_time <= 0 or best <= 0:
                    raise OracleError("non-positive completion time")
            except OracleError as exc:
                out.fail(f"table5 {pattern.label}: {exc}")
                continue
            self.comm.setdefault(k, compiled.completion_time / best)

    def enough(self) -> bool:
        return len(self.sweeps) >= 3 and all(len(s) >= 2 for s in self.sims)

    def report(self, out: Outcome) -> None:
        """The four paper metrics, over every sweep and simulation so far."""
        out.metrics["alltoall_s"] = float(np.median(self.pace.scaled(self.sweeps))) / 1e3
        out.metrics["alltoall_ratio"] = geomean(
            [f.degree / all_to_all_lower_bound(t) for t, f in zip(self.tori, self.first)])
        out.metrics["simulate_s"] = sum(
            float(np.median(self.pace.scaled(s))) for s in self.sims) / 1e3
        out.metrics["comm_ratio"] = geomean(list(self.comm.values()))
        out.samples["alltoall_s"] = len(self.sweeps)
        out.samples["simulate_s"] = min(len(s) for s in self.sims)
        out.extra["sweeps"] = self.turn / len(self.patterns)


class WarmLoop:
    """In-process warm hits (and translated hits) through an ArtifactCache."""

    def __init__(self, topology, seed: int, count: int) -> None:
        self.topology = topology
        self.ws = working_set(seed, count, stream=7, sizes=SERVICE_SIZES)
        self.cache = ArtifactCache(None)
        self.reference: list = []
        self.translations = [t for t in translation_group(topology) if any(t)]
        self.sigmas = {t: node_map(topology, t) for t in self.translations}
        self.rng = np.random.default_rng([seed, 8])
        self.expected: dict[tuple, bytes] = {}
        self.samples: list[tuple[float, int]] = []

    def prewarm(self, out: Outcome) -> None:
        for p in self.ws.patterns:
            r = compile_pattern(self.topology, p.rows, cache=self.cache)
            slots = compact(r.schedule_doc)
            try:
                check_schedule(self.topology, slots, p.rows)
            except OracleError as exc:
                out.fail(f"prewarm {p.label}: {exc}")
            self.reference.append(slots)

    def measure(self, out: Outcome, requests: int, pace: Pace, roots: Roots) -> None:
        picks = self.rng.choice(len(self.ws.patterns), size=requests, p=self.ws.weights)
        moves = self.rng.random(requests) < 1 / 3
        which = self.rng.integers(len(self.translations), size=requests)
        for n, (i, move, w) in enumerate(zip(picks.tolist(), moves.tolist(), which.tolist())):
            if n % WARM_BLOCK == 0:
                tick = pace.tick()
            p = self.ws.patterns[i]
            t = self.translations[w] if move else None
            rows = translate_rows(p.rows, self.sigmas[t]) if t else p.rows
            t0 = time.perf_counter()
            with roots("offline.warm", cls="translated_hit" if t else "warm_hit"):
                r = compile_pattern(self.topology, rows, cache=self.cache)
            self.samples.append((time.perf_counter() - t0, tick))
            out.attempted += 1
            key = (i, t)
            if key not in self.expected:
                ref = self.reference[i]
                self.expected[key] = fingerprint(translate(ref, self.sigmas[t]) if t else ref)
            try:
                if r.cache != "hit" or fingerprint(compact(r.schedule_doc)) != self.expected[key]:
                    raise OracleError(f"warm reply differs from the reference ({r.cache})")
            except OracleError as exc:
                out.fail(f"warm {p.label}: {exc}")


class AmendLoop:
    """In-process DeltaScheduler updates on a 16x16 greedy stream."""

    def __init__(self, seed: int) -> None:
        self.torus = Torus2D(AMEND_WIDTH)
        self.script = amend_script(seed, 0, AMEND_WIDTH, AMEND_LIVE)
        requests = RequestSet((Request(s, d) for s, d in self.script.live), name="amend")
        connections = route_requests(self.torus, requests)
        self.engine = DeltaScheduler(get_scheduler("greedy")(connections, self.torus))
        self.index = {(c.request.src, c.request.dst): c.index for c in connections}
        self.next_index = len(connections)
        self.samples: list[tuple[float, int]] = []

    def measure(self, out: Outcome, updates: int, pace: Pace, roots: Roots) -> None:
        torus, script, index = self.torus, self.script, self.index
        for n in range(updates):
            if n % AMEND_BLOCK == 0:
                tick = pace.tick()
            add, remove = script.update()
            conns = []
            for s, d in add:
                conns.append(Connection(self.next_index, Request(s, d), torus.route(s, d)))
                self.next_index += 1
            gone = [index.pop((s, d)) for s, d in remove]
            t0 = time.perf_counter()
            with roots("offline.amend", cls="amend"):
                result = self.engine.amend(add=conns, remove=gone)
            self.samples.append((time.perf_counter() - t0, tick))
            out.attempted += 1
            for c in conns:
                index[(c.request.src, c.request.dst)] = c.index
            try:
                check_schedule(torus, _slots_of(result.schedule),
                               [(s, d, 1, 0) for s, d in script.live])
            except OracleError as exc:
                out.fail(f"amend epoch: {exc}")


def run(seed: int, seconds: float, setup_t0: float, tracer=None) -> Outcome:
    out = Outcome()
    topology = Torus2D(8)
    roots = Roots(tracer)
    pace = Pace()

    # -- set-up: first topology, phase map, product builds, first sweep,
    # first compile, working-set prewarm.  Everything first-call goes here.
    # The probe build and its first sweep are repeated and the median kept.
    rounds = offline_rounds(seed)
    compile_pattern(topology, next(rounds)[0].rows, cache=None, include_registers=True)
    warm = WarmLoop(topology, seed, 24)
    warm.prewarm(out)
    amends = AmendLoop(seed)
    once = time.perf_counter() - setup_t0
    repeats = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        probe = PaperProbe(topology, table5_patterns(), {16: None, 32: 600, 64: 0}, seed,
                           pace, roots)
        probe.alltoall_sweep()
        repeats.append(time.perf_counter() - t0)
    out.metrics["setup_s"] = once + float(np.median(repeats))
    probe.check_reference(out)
    freeze_heap()

    # -- measured part: rounds until the deadline, and until every sample
    # count a metric needs is reached (checked after each step of a round).
    compiles: list[tuple[float, int]] = []
    ratios: list[float] = []

    def compile_batch(batch) -> None:
        for p in batch:
            tick = pace.tick()
            t0 = time.perf_counter()
            with roots("offline.compile", cls="cold_compile"):
                r = compile_pattern(topology, p.rows, cache=None, scheduler="combined",
                                    include_registers=True)
            compiles.append((time.perf_counter() - t0, tick))
            out.attempted += 1
            try:
                if r.registers_doc is None:
                    raise OracleError("no register image returned")
                bound = check_schedule(topology, compact(r.schedule_doc), p.rows)
                ratios.append(r.degree / bound)
            except OracleError as exc:
                out.fail(f"compile {p.label}: {exc}")

    def done() -> bool:
        return (time.perf_counter() >= deadline and probe.enough() and len(compiles) >= 110
                and len(warm.samples) >= 100 and len(amends.samples) >= 100)

    def steps():
        for batch in rounds:
            yield lambda: compile_batch(batch)
            yield lambda: probe.alltoall_sweep(out)
            yield lambda: probe.simulate(out, ROUND_SIMULATIONS)
            yield lambda: warm.measure(out, ROUND_WARM_HITS, pace, roots)
            yield lambda: amends.measure(out, ROUND_AMENDS, pace, roots)

    t_start = time.perf_counter()
    deadline = t_start + seconds
    for step in steps():
        step()
        if done():
            break

    compile_ms = pace.scaled(compiles)
    probe.report(out)
    out.timing("compile_ms", compile_ms, tail_q=90, need=100)
    out.timing("latency_ms", pace.scaled(warm.samples), tail_q=90, need=100)
    out.timing("amend_ms", pace.scaled(amends.samples), tail_q=90, need=100)
    out.metrics["capacity_rps"] = len(compile_ms) / (sum(compile_ms) / 1e3)
    out.metrics["degree_ratio"] = geomean(ratios)
    out.extra["classes"] = roots.classes
    out.extra["pace"] = pace
    log(f"offline-compile: {len(compile_ms)} compiles, measured "
        f"{time.perf_counter() - t_start:.1f}s")
    return out
