"""The ``farm-write`` workload.

It drives an in-process farm from this one process on one asyncio loop,
with at most two requests in flight: one *lane* per client, each lane
sending its next request only when the previous one is answered.  A run
has a closed-loop cold phase, then rounds of a short closed-loop capacity
window, an open-loop window at a fixed rate (Poisson arrivals, latency
timed from each request's due time) and a step of the reduced paper probe
while the farm is idle (README.md).
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable

import numpy as np

from repro.service.client import AsyncCompileClient
from repro.service.farm import Farm
from repro.topology.torus import Torus2D

from common import Outcome, Pace, Roots, freeze_heap, geomean, log, percentile
from inputs import FARM_SIZES, TORUS8, amend_script, table5_patterns, working_set
from offline import PaperProbe
from oracle import OracleError, check_schedule, compact, fingerprint

#: Open-loop rate (requests per second over both lanes), fixed so that a
#: later change is measured at the same offered load (README.md, "Load").
RATE = 54.0
#: Rounds of (capacity window, open-loop window, probe step) after the
#: cold phase, and the length of each window as a share of ``--seconds``.
ROUNDS = 12
CAPACITY_SHARE = 0.008
OPEN_SHARE = 0.075
#: Router lease lifetime in seconds.  The farm shares its event loop with
#: the load generator and the oracle, whose checks between windows block
#: it for 1-3 s; with the default 2-s lease that flipped leadership in
#: some runs and not others (README.md, "Load").
LEASE_TTL = 60.0
#: Cold compiles in the cold phase (the working set, then never-seen ones).
COLD_PHASE = 150
#: Zipf-ranked warm-read working set, and the amend streams:
#: (torus width, live connections) per stream.
WORKING_SET = 24
STREAM = (16, 64)
STREAMS_PER_LANE = 2
#: Probe work in each round.
PROBE_SWEEPS = 2
PROBE_SIMULATIONS = 2
#: Request ids start here, clear of the ids the program uses internally.
RID_BASE = 1_000_000
SETUP_REPEATS = 5
#: Seconds allowed for a shutdown before the run is declared stuck.
SHUTDOWN_TIMEOUT = 30.0


@dataclass
class Record:
    """One request as the load generator saw it."""

    rid: int
    lane: int
    kind: str  # "read", "cold", "amend"
    due: float
    tick: int  # pace reading that scales this request's time
    start: float = 0.0
    done: float = 0.0
    ok: bool = False
    server_seconds: float = 0.0
    cache: str = ""
    check: Any = None  # what the oracle needs after the window


@dataclass
class Lane:
    """One client and the operations it issues."""

    client: Any
    #: next operation: (kind, request, what the oracle needs)
    make_op: Callable[[], tuple[str, dict, Any]]


class LoadGen:
    """Closed- and open-loop request issue over the lanes."""

    def __init__(self, roots: Roots, pace: Pace, rng: np.random.Generator) -> None:
        self.roots = roots
        self.pace = pace
        self.rng = rng
        self.lag_ms: list[float] = []
        self.backlog_max = 0
        self.errors: list[str] = []

    async def issue(self, lane: Lane, index: int, due: float, tick: int) -> Record:
        kind, req, check = lane.make_op()
        rid = self.roots.next_id()
        req["id"] = rid
        rec = Record(rid, index, kind, due, tick, check=check)
        rec.start = time.perf_counter()
        try:
            with self.roots("client", rid):
                reply = await lane.client.request(req)
            rec.done = time.perf_counter()
            rec.ok = True
            rec.server_seconds = float(reply.get("seconds") or 0.0)
            rec.cache = str(reply.get("cache", ""))
            rec.check = (check, compact(reply["schedule"]), reply.get("degree"))
        except Exception as exc:  # noqa: BLE001 - counted as a failed request
            rec.done = time.perf_counter()
            rec.check = None
            if len(self.errors) < 10:
                self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
        return rec

    async def closed(self, lanes: list[Lane], seconds: float = float("inf"),
                     count: int | None = None, *,
                     tick_each: bool = False) -> tuple[float, int, list[Record]]:
        """Each lane back to back for ``seconds`` or until ``count`` requests
        in all; returns (requests per second, pace reading, records).
        ``tick_each`` takes a pace reading before every request."""
        tick = self.pace.tick()
        stop = time.perf_counter() + seconds
        done: list[Record] = []
        issued = [0]

        async def run(lane: Lane, index: int) -> None:
            while time.perf_counter() < stop and (count is None or issued[0] < count):
                issued[0] += 1
                t = self.pace.tick() if tick_each else tick
                done.append(await self.issue(lane, index, time.perf_counter(), t))

        t0 = time.perf_counter()
        await asyncio.gather(*(run(lane, i) for i, lane in enumerate(lanes)))
        return len(done) / (time.perf_counter() - t0), tick, done

    async def open(self, lanes: list[Lane], rate: float, seconds: float) -> list[Record]:
        """Poisson arrivals at ``rate`` split evenly over the lanes.

        Each lane gets exactly ``rate / lanes * seconds`` (rounded) arrivals,
        placed as sorted uniform times over the window: a Poisson process
        conditioned on its count.  A run's sample counts therefore do not
        depend on the seed.
        """
        tick = self.pace.tick()
        t0 = time.perf_counter() + 0.01
        count = round(rate / len(lanes) * seconds)
        schedules = [(t0 + np.sort(self.rng.uniform(0.0, seconds, count))).tolist()
                     for _ in lanes]
        started = [0] * len(lanes)
        done: list[Record] = []

        async def run(lane: Lane, index: int) -> None:
            for k, due in enumerate(schedules[index]):
                now = time.perf_counter()
                if now < due:
                    await asyncio.sleep(due - now)
                    now = time.perf_counter()
                started[index] = k
                backlog = sum(
                    int(np.searchsorted(schedules[j], now, side="right")) - started[j] - 1
                    for j in range(len(lanes))
                )
                self.backlog_max = max(self.backlog_max, backlog)
                self.lag_ms.append((now - due) * 1e3)
                done.append(await self.issue(lane, index, due, tick))

        await asyncio.gather(*(run(lane, i) for i, lane in enumerate(lanes)))
        return done


class ColdOps:
    """The cold phase: the working set first (its cold references), then
    never-seen patterns."""

    def __init__(self, ws) -> None:
        self.ws = ws
        self.next = 0

    def __call__(self):
        i = self.next
        self.next += 1
        if i < len(self.ws.patterns):
            rows = self.ws.patterns[i].rows
            return "cold", _compile_req(rows), ("cold", rows, i)
        rows = self.ws.cold().rows
        return "cold", _compile_req(rows), ("cold", rows, None)


class AmendOps:
    """Amend updates on the streams one lane owns (epochs in order)."""

    def __init__(self, streams: list[dict]) -> None:
        self.streams = streams
        self.turn = 0

    def __call__(self):
        stream = self.streams[self.turn % len(self.streams)]
        self.turn += 1
        add, remove = stream["script"].update()
        req = {"op": "amend", "root": stream["root"], "epoch": stream["epoch"],
               "add": add, "remove": remove}
        stream["epoch"] += 1
        live = tuple(stream["script"].live)
        return "amend", req, ("amend", stream["width"], live)


class FarmOps:
    """The mix of one lane, a fixed cycle of 20 so that every run
    sends the same mix: one cold compile, ten warm reads, nine amend
    updates.  The seed picks the patterns."""

    CYCLE = 20

    def __init__(self, ws, amend_ops: AmendOps, warm_rng: np.random.Generator,
                 offset: int) -> None:
        self.ws = ws
        self.amend_ops = amend_ops
        self.warm_rng = warm_rng  # same seed on both lanes: same warm sequence
        self.turn = offset

    def __call__(self):
        self.turn += 1
        step = self.turn % self.CYCLE
        if step == 0:
            pattern = self.ws.cold()
            return "cold", _compile_req(pattern.rows), ("cold", pattern.rows, None)
        if step % 2 == 0:
            return self.amend_ops()
        i = int(self.warm_rng.choice(len(self.ws.patterns), p=self.ws.weights))
        return "read", _compile_req(self.ws.patterns[i].rows), ("read", i)


def _compile_req(rows) -> dict:
    return {"op": "compile", "topology": TORUS8, "pairs": [list(r) for r in rows]}


async def _open_stream(client, seed: int, index: int, width: int, live: int) -> dict:
    script = amend_script(seed, index, width, live)
    reply = await client.request({
        "op": "amend", "id": RID_BASE - 1 - index,
        "topology": {"kind": "torus", "width": width},
        "pairs": [list(p) for p in script.live], "scheduler": "greedy",
    })
    return {"root": reply["root"], "epoch": int(reply["epoch"]), "script": script,
            "width": width}


class Checker:
    """Runs the oracle over every answered request after a window."""

    def __init__(self, out: Outcome, topology, count: int) -> None:
        self.out = out
        self.topology = topology
        #: cold reply of each working-set pattern.
        self.references: list = [None] * count
        self.tori = {topology.width: topology}
        self.expected: dict[int, bytes] = {}
        self.bounds: list[float] = []

    def torus(self, width: int):
        if width not in self.tori:
            self.tori[width] = Torus2D(width)
        return self.tori[width]

    def __call__(self, records: list[Record]) -> None:
        for rec in records:
            self.out.attempted += 1
            if not rec.ok:
                self.out.fail(f"request {rec.rid} ({rec.kind}) failed")
                continue
            check, slots, degree = rec.check
            rec.check = None
            try:
                if degree is not None and int(degree) != len(slots):
                    raise OracleError("reply degree disagrees with its schedule")
                if check[0] == "read":
                    i = check[1]
                    if i not in self.expected:
                        self.expected[i] = fingerprint(self.references[i])
                    if fingerprint(slots) != self.expected[i]:
                        raise OracleError("warm reply differs from the cold reference")
                elif check[0] == "cold":
                    bound = check_schedule(self.topology, slots, check[1])
                    self.bounds.append(len(slots) / bound)
                    if check[2] is not None:
                        self.references[check[2]] = slots
                else:
                    _, width, live = check
                    check_schedule(self.torus(width), slots, [(s, d, 1, 0) for s, d in live])
            except OracleError as exc:
                self.out.fail(f"request {rec.rid} ({rec.kind}): {exc}")


async def _stop(*closers: Callable[[], Awaitable]) -> None:
    for close in closers:
        await asyncio.wait_for(close(), SHUTDOWN_TIMEOUT)


def _server_layers(out: Outcome, records: list[Record]) -> None:
    hits = [r for r in records if r.ok and r.kind == "read" and r.cache == "hit"]
    misses = [r for r in records if r.ok and r.cache == "miss"]
    if hits:
        out.layers["service.server.handle_ms.hit"] = percentile(
            [r.server_seconds * 1e3 for r in hits], 50)
        out.layers["service.wire_ms"] = percentile(
            [(r.done - r.start - r.server_seconds) * 1e3 for r in hits], 50)
    if misses:
        out.layers["service.server.handle_ms.miss"] = percentile(
            [r.server_seconds * 1e3 for r in misses], 50)


def _cache_layers(out: Outcome, before: list[dict], after: list[dict]) -> None:
    """Memory- and disk-tier hit ratios over the measured rounds."""
    delta = {k: sum(a[k] - b[k] for a, b in zip(after, before))
             for k in ("hits", "misses", "memory_hits", "disk_hits")}
    lookups = delta["hits"] + delta["misses"] or 1
    out.layers["service.cache.memory_hit_ratio"] = delta["memory_hits"] / lookups
    out.layers["service.cache.disk_hit_ratio"] = delta["disk_hits"] / lookups


def _classify(roots: Roots, tracer, records: list[Record]) -> None:
    """Request class of every traced request (per-class breakdown)."""
    if tracer is None:
        return
    verified = {s.rid for s in tracer.spans if s.name == "service.compile.verify"}
    for rec in records:
        if not rec.ok:
            continue
        if rec.kind == "amend":
            cls = "amend"
        elif rec.cache == "miss":
            cls = "farm_compile"
        elif rec.lane == 1:
            cls = "router_hop"
        elif rec.rid in verified:
            cls = "disk_hit"
        else:
            cls = "warm_hit"
        roots.classes[rec.rid] = cls


async def _farm(seed: int, seconds: float, setup_t0: float, tracer) -> Outcome:
    out = Outcome()
    topology = Torus2D(8)
    ws = working_set(seed, WORKING_SET, stream=41, sizes=FARM_SIZES)
    once = time.perf_counter() - setup_t0

    # -- set-up, repeated: farm start (memory-only node caches), worker
    # forks on every node, client connects, amend-stream opens.
    repeats = []
    farm = clients = streams = None
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        farm = await Farm(3, replication=2, workers=1, routers=2,
                          lease_ttl=LEASE_TTL).start()
        direct = await farm.client().connect()
        thin = await AsyncCompileClient(endpoints=farm.router_addresses).connect()
        clients = [direct, thin]
        # Enough cold compiles that every node has forked its worker.
        for j in range(12):
            await direct.request({**_compile_req(ws.cold().rows), "id": RID_BASE - 300 - j})
        streams = [
            [await _open_stream(c, seed, 10 * lane + j, *STREAM)
             for j in range(STREAMS_PER_LANE)]
            for lane, c in enumerate(clients)
        ]
        repeats.append(time.perf_counter() - t0)
        if k < SETUP_REPEATS - 1:
            await _stop(direct.close, thin.close, farm.shutdown)
    out.metrics["setup_s"] = once + float(np.median(repeats))
    freeze_heap()

    pace = Pace()
    roots = Roots(tracer, RID_BASE)
    gen = LoadGen(roots, pace, np.random.default_rng([seed, 40]))
    checker = Checker(out, topology, len(ws.patterns))
    # The reduced paper probe: 16x16 complete exchange, GS and TSCF rows.
    rows = [p for p in table5_patterns() if p.label.startswith(("t5-gs", "t5-tscf"))]
    probe = PaperProbe(topology, rows, {16: None}, seed, pace)
    probe.alltoall_sweep()
    probe.check_reference(out)
    nodes = list(farm.nodes.values())
    pushed0 = sum(n.replicas_pushed for n in nodes)
    t_start = time.perf_counter()

    # -- cold phase, one request in flight: two cold compiles in flight put
    # two worker processes and the event loop on the box's two cores, and
    # the contention set compile_ms more than the compiler did.  The
    # working set's cold replies are the references every warm read must
    # reproduce.
    _, _, cold = await gen.closed([Lane(clients[0], ColdOps(ws))], count=COLD_PHASE,
                                  tick_each=True)
    checker(cold)
    out.timing("compile_ms", pace.scaled([(r.done - r.start, r.tick) for r in cold if r.ok]),
               tail_q=90, need=100)
    out.metrics["degree_ratio"] = geomean(checker.bounds)

    lanes = [
        Lane(c, FarmOps(ws, AmendOps(streams[i]), np.random.default_rng([seed, 60]),
                        offset=10 * i))
        for i, c in enumerate(clients)
    ]
    stats0 = [n.cache.stats.as_dict() for n in nodes]
    rates: list[tuple[float, int]] = []
    closed: list[Record] = []
    opened: list[Record] = []
    for _ in range(ROUNDS):
        # A full collection while the farm is idle.  The shared heap grows
        # enough for the collector's own full pass (~30 ms) every 10-12 s;
        # left alone, whether those passes fell inside a window or between
        # windows moved the tails from run to run (README.md, "Collector").
        gc.collect()
        rate, tick, records = await gen.closed(lanes, CAPACITY_SHARE * seconds)
        rates.append((rate, tick))
        checker(records)
        closed += records
        records = await gen.open(lanes, RATE, OPEN_SHARE * seconds)
        checker(records)
        opened += records
        for _ in range(PROBE_SWEEPS):
            probe.alltoall_sweep(out)
        probe.simulate(out, PROBE_SIMULATIONS)
    _cache_layers(out, stats0, [n.cache.stats.as_dict() for n in nodes])
    measured = time.perf_counter() - t_start

    probe.report(out)
    out.metrics["capacity_rps"] = float(np.median([r / pace.scale(t) for r, t in rates]))
    ok = [r for r in opened if r.ok]
    for metric, kind in (("latency_ms", "read"), ("amend_ms", "amend")):
        out.timing(metric, pace.scaled([(r.done - r.due, r.tick) for r in ok if r.kind == kind]),
                   tail_q=90, need=100)

    warm = {lane: [(r.done - r.start) * 1e3 for r in ok if r.kind == "read" and r.lane == lane]
            for lane in (0, 1)}
    if warm[0] and warm[1]:
        out.layers["service.farm.router_hop_ms"] = (
            percentile(warm[1], 50) - percentile(warm[0], 50))
    out.layers["service.farm.replicas_pushed"] = float(
        sum(n.replicas_pushed for n in nodes) - pushed0)
    out.layers["service.farm.wrong_shard"] = float(sum(n.wrong_shard for n in nodes))
    routed = clients[0].direct + clients[0].via_router
    out.layers["service.farm.direct_ratio"] = clients[0].direct / routed if routed else 0.0
    out.layers["service.client.retries"] = float(clients[1].retries)
    _server_layers(out, closed + opened)
    if gen.lag_ms:
        out.layers["loadgen.lag_ms.p99"] = percentile(gen.lag_ms, 99)
    out.layers["loadgen.backlog.max"] = float(gen.backlog_max)
    for message in gen.errors:
        log(f"request error: {message}")
    _classify(roots, tracer, closed + opened)
    out.extra["classes"] = roots.classes
    out.extra["pace"] = pace
    await _stop(clients[0].close, clients[1].close, farm.shutdown)
    log(f"farm-write: {len(closed)} closed, {len(opened)} open, measured {measured:.1f}s")
    return out


def run_farm(seed: int, seconds: float, setup_t0: float, tracer) -> Outcome:
    return asyncio.run(_farm(seed, seconds, setup_t0, tracer))
