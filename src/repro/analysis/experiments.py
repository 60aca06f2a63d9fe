"""One driver per paper table/figure.

Every driver returns plain dict/list data plus knows the paper's
reference values, so benches can assert *shape* properties (who wins,
monotonicity, saturation at the AAPC bound) and EXPERIMENTS.md can
tabulate paper-vs-measured side by side.

The paper averages Table 1 over 100 random patterns per row and Table 2
over 500 redistributions; the drivers take ``seeds``/``samples``
arguments so benches run quickly by default while
``python -m repro.cli`` reproduces the full protocol.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import fmean

import numpy as np

from repro.core.coloring import coloring_schedule
from repro.core.aapc_ordered import ordered_aapc_schedule
from repro.core.packing import first_fit
from repro.core.paths import route_requests
from repro.core.registry import get_scheduler
from repro.core.requests import RequestSet
from repro.patterns.applications import gs_pattern, p3m_pattern, tscf_pattern
from repro.patterns.classic import (
    all_to_all_pattern,
    hypercube_pattern,
    nearest_neighbour_2d,
    ring_pattern,
    shuffle_exchange_pattern,
)
from repro.patterns.random_patterns import random_pattern
from repro.patterns.redistribution import random_distribution, redistribution_requests
from repro.simulator.compiled import compiled_completion_time
from repro.simulator.dynamic import simulate_dynamic
from repro.simulator.params import SimParams
from repro.topology.torus import Torus2D


def paper_torus() -> Torus2D:
    """The 8x8 torus used throughout the paper's evaluation."""
    return Torus2D(8)


def randomized_greedy_degree(connections, rng: np.random.Generator, orders: int = 5) -> float:
    """Mean greedy degree over random request orders.

    The paper's greedy processes requests "in an arbitrary order"; its
    Table 3 values (ring 3, nearest-neighbour 6, hypercube 9) match the
    random-order average, not any structured order, so the drivers
    report greedy this way.
    """
    degrees = []
    for _ in range(orders):
        order = rng.permutation(len(connections)).tolist()
        degrees.append(first_fit(connections, order, scheduler="greedy").degree)
    return fmean(degrees)


def schedule_degrees(topology, requests: RequestSet, rng: np.random.Generator | None = None,
                     *, greedy_orders: int = 5) -> dict[str, float]:
    """Degrees of the paper's four algorithms on one pattern."""
    connections = route_requests(topology, requests)
    rng = rng if rng is not None else np.random.default_rng(0)
    greedy = randomized_greedy_degree(connections, rng, greedy_orders)
    coloring = coloring_schedule(connections).degree
    aapc = ordered_aapc_schedule(connections, topology).degree
    combined = min(coloring, aapc)
    return {
        "greedy": greedy,
        "coloring": float(coloring),
        "aapc": float(aapc),
        "combined": float(combined),
        "improvement_pct": 100.0 * (greedy - combined) / greedy if greedy else 0.0,
    }


# ----------------------------------------------------------------------
# Table 1: random patterns
# ----------------------------------------------------------------------

#: Paper Table 1 (connections -> greedy, coloring, AAPC, combined).
PAPER_TABLE1 = {
    100: (7.0, 6.7, 6.9, 6.6),
    400: (16.5, 16.1, 16.5, 15.9),
    800: (27.2, 25.9, 26.5, 25.6),
    1200: (36.3, 34.5, 35.3, 34.2),
    1600: (45.0, 43.5, 43.4, 42.8),
    2000: (53.4, 50.4, 50.4, 49.7),
    2400: (60.8, 57.5, 57.4, 56.7),
    2800: (68.8, 64.4, 62.4, 62.4),
    3200: (76.3, 70.8, 64.0, 64.0),
    3600: (83.9, 76.8, 64.0, 64.0),
    4000: (91.6, 83.0, 64.0, 64.0),
}


def _table1_task(task) -> dict[str, float]:
    """One Table 1 pattern: draw it and schedule it (picklable worker)."""
    topo, n, rng = task
    requests = random_pattern(topo.num_nodes, n, seed=rng)
    return schedule_degrees(topo, requests, rng, greedy_orders=1)


def table1(
    *,
    connection_counts: tuple[int, ...] = tuple(PAPER_TABLE1),
    patterns_per_row: int = 10,
    seed: int = 0,
    topology: Torus2D | None = None,
    workers: int | str | None = None,
) -> list[dict[str, float]]:
    """Random-pattern sweep (paper runs 100 patterns per row).

    Each pattern gets an independent spawned RNG, so the results are a
    pure function of ``seed`` -- identical for any ``workers`` value.
    """
    from repro.analysis.parallel import map_tasks, resolve_workers, warm_aapc_cache

    topo = topology or paper_torus()
    tasks = []
    for n in connection_counts:
        rng = np.random.default_rng(seed + n)
        tasks.extend((topo, n, child) for child in rng.spawn(patterns_per_row))
    if (resolve_workers(workers) or 1) > 1:
        warm_aapc_cache(topo)
    results = map_tasks(_table1_task, tasks, workers=workers)

    from repro.analysis.stats import mean_std

    rows = []
    for i, n in enumerate(connection_counts):
        group = results[i * patterns_per_row : (i + 1) * patterns_per_row]
        acc: dict[str, list[float]] = defaultdict(list)
        for degrees in group:
            for key, value in degrees.items():
                acc[key].append(value)
        row: dict[str, float] = {"connections": float(n)}
        for key, values in acc.items():
            row[key] = fmean(values)
        for key in ("greedy", "coloring", "aapc", "combined"):
            row[f"{key}_std"] = mean_std(acc[key])[1]
        row["improvement_pct"] = (
            100.0 * (row["greedy"] - row["combined"]) / row["greedy"]
        )
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Table 2: random data redistributions
# ----------------------------------------------------------------------

#: Paper Table 2 bins: (low, high) -> (count, greedy, coloring, AAPC, combined).
PAPER_TABLE2 = {
    (0, 100): (34, 1.2, 1.2, 1.2, 1.2),
    (101, 200): (50, 5.9, 4.9, 4.8, 4.6),
    (201, 400): (54, 10.6, 9.7, 10.0, 9.5),
    (401, 800): (105, 17.7, 15.9, 16.0, 15.5),
    (801, 1200): (122, 31.7, 28.7, 28.6, 27.6),
    (1601, 2000): (15, 46.3, 42.8, 35.1, 35.1),
    (2001, 2400): (77, 55.5, 51.5, 51.9, 50.4),
    (4032, 4032): (43, 92.0, 83.0, 64.0, 64.0),
}

TABLE2_BINS = (
    (0, 100), (101, 200), (201, 400), (401, 800), (801, 1200),
    (1201, 1600), (1601, 2000), (2001, 2400), (2401, 4031), (4032, 4032),
)


def _table2_task(task) -> tuple[int, dict[str, float]] | None:
    """One Table 2 redistribution sample (picklable worker).

    Returns ``(num_requests, degrees)``, or ``None`` when the two
    distributions coincide and there is nothing to communicate.
    """
    topo, extents, rng = task
    src = random_distribution(extents, topo.num_nodes, seed=rng)
    dst = random_distribution(extents, topo.num_nodes, seed=rng)
    requests = redistribution_requests(src, dst)
    if len(requests) == 0:
        return None
    return len(requests), schedule_degrees(topo, requests, rng, greedy_orders=1)


def table2(
    *,
    samples: int = 100,
    seed: int = 0,
    extents: tuple[int, int, int] = (64, 64, 64),
    topology: Torus2D | None = None,
    workers: int | str | None = None,
) -> list[dict[str, float]]:
    """Random-redistribution sweep (paper runs 500 samples).

    Like :func:`table1`, one spawned RNG per sample keeps the results
    independent of ``workers``.
    """
    from repro.analysis.parallel import map_tasks, resolve_workers, warm_aapc_cache

    topo = topology or paper_torus()
    rng = np.random.default_rng(seed)
    tasks = [(topo, extents, child) for child in rng.spawn(samples)]
    if (resolve_workers(workers) or 1) > 1:
        warm_aapc_cache(topo)
    results = map_tasks(_table2_task, tasks, workers=workers)

    binned: dict[tuple[int, int], list[dict[str, float]]] = defaultdict(list)
    for sample in results:
        if sample is None:
            continue  # identical distributions: no communication
        n, degrees = sample
        for low, high in TABLE2_BINS:
            if low <= n <= high:
                binned[(low, high)].append(degrees)
                break
    rows = []
    for bin_range in TABLE2_BINS:
        group = binned.get(bin_range, [])
        row: dict[str, float] = {
            "bin_low": float(bin_range[0]),
            "bin_high": float(bin_range[1]),
            "patterns": float(len(group)),
        }
        if group:
            for key in ("greedy", "coloring", "aapc", "combined"):
                row[key] = fmean(g[key] for g in group)
            row["improvement_pct"] = (
                100.0 * (row["greedy"] - row["combined"]) / row["greedy"]
                if row["greedy"]
                else 0.0
            )
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Table 3: frequently used patterns
# ----------------------------------------------------------------------

#: Paper Table 3: pattern -> (conns, greedy, coloring, AAPC, combined).
PAPER_TABLE3 = {
    "ring": (128, 3, 2, 2, 2),
    "nearest neighbour": (256, 6, 4, 4, 4),
    "hypercube": (384, 9, 7, 8, 7),
    "shuffle-exchange": (126, 6, 4, 5, 4),
    "all-to-all": (4032, 92, 83, 64, 64),
}


def table3(
    *,
    seed: int = 0,
    greedy_orders: int = 10,
    topology: Torus2D | None = None,
) -> list[dict[str, object]]:
    """Classic-pattern comparison."""
    topo = topology or paper_torus()
    n = topo.num_nodes
    patterns = {
        "ring": ring_pattern(n),
        "nearest neighbour": nearest_neighbour_2d(topo.width, topo.height),
        "hypercube": hypercube_pattern(n),
        "shuffle-exchange": shuffle_exchange_pattern(n),
        "all-to-all": all_to_all_pattern(n),
    }
    rows = []
    for name, requests in patterns.items():
        rng = np.random.default_rng(seed)
        degrees = schedule_degrees(topo, requests, rng, greedy_orders=greedy_orders)
        rows.append({"pattern": name, "connections": len(requests), **degrees})
    return rows


# ----------------------------------------------------------------------
# Tables 4 and 5: application patterns, compiled vs dynamic
# ----------------------------------------------------------------------

#: Paper Table 5: (pattern, problem) -> (compiled, dyn K=1, 2, 5, 10).
PAPER_TABLE5 = {
    ("GS", "64 x 64"): (35, 105, 118, 171, 251),
    ("GS", "128 x 128"): (67, 137, 154, 251, 411),
    ("GS", "256 x 256"): (131, 265, 304, 411, 731),
    ("TSCF", "5120"): (19, 344, 268, 270, 300),
    ("P3M 1", "32 x 32 x 32"): (831, 3905, 3625, 2018, 1861),
    ("P3M 1", "64 x 64 x 64"): (6207, 12471, 10754, 10333, 9619),
    ("P3M 2", "32 x 32 x 32"): (382, 9999, 6094, 4661, 4510),
    ("P3M 2", "64 x 64 x 64"): (2174, 17583, 14223, 10360, 9320),
    ("P3M 4", "32 x 32 x 32"): (457, 3309, 2356, 1766, 1722),
    ("P3M 4", "64 x 64 x 64"): (3369, 9161, 7674, 7805, 7122),
    ("P3M 5", "32 x 32 x 32"): (40, 583, 374, 371, 480),
    ("P3M 5", "64 x 64 x 64"): (68, 673, 457, 445, 505),
}

#: The dynamic multiplexing degrees the paper evaluates.
DYNAMIC_DEGREES = (1, 2, 5, 10)


def table5_workloads(
    *, gs_grids: tuple[int, ...] = (64, 128, 256), p3m_grids: tuple[int, ...] = (32, 64)
) -> list[tuple[str, str, RequestSet]]:
    """(pattern name, problem size label, requests) for every Table 5 row."""
    rows: list[tuple[str, str, RequestSet]] = []
    for g in gs_grids:
        rows.append(("GS", f"{g} x {g}", gs_pattern(g).requests))
    rows.append(("TSCF", "5120", tscf_pattern().requests))
    for which in (1, 2, 4, 5):
        for g in p3m_grids:
            rows.append(
                (f"P3M {which}", f"{g} x {g} x {g}", p3m_pattern(which, g).requests)
            )
    return rows


def table4(*, p3m_grid: int = 64) -> list[dict[str, object]]:
    """Pattern inventory (descriptive, like the paper's Table 4)."""
    from repro.patterns.applications import application_patterns

    rows = []
    for pat in application_patterns(p3m_grid=p3m_grid):
        rows.append(
            {
                "pattern": pat.name,
                "type": pat.kind,
                "description": pat.description,
                "connections": len(pat.requests),
                "elements": pat.requests.total_elements(),
            }
        )
    return rows


def table5(
    *,
    params: SimParams = SimParams(),
    degrees: tuple[int, ...] = DYNAMIC_DEGREES,
    gs_grids: tuple[int, ...] = (64, 128, 256),
    p3m_grids: tuple[int, ...] = (32, 64),
    topology: Torus2D | None = None,
) -> list[dict[str, object]]:
    """Compiled vs dynamic communication time for every workload."""
    topo = topology or paper_torus()
    rows = []
    for name, problem, requests in table5_workloads(
        gs_grids=gs_grids, p3m_grids=p3m_grids
    ):
        compiled = compiled_completion_time(topo, requests, params)
        row: dict[str, object] = {
            "pattern": name,
            "problem": problem,
            "compiled": compiled.completion_time,
            "compiled_degree": compiled.degree,
        }
        for k in degrees:
            row[f"dynamic_{k}"] = simulate_dynamic(
                topo, requests, k, params
            ).completion_time
        rows.append(row)
    return rows


def table5_programs(
    *,
    params: SimParams = SimParams(),
    degrees: tuple[int, ...] = DYNAMIC_DEGREES,
    gs_grid: int = 256,
    p3m_grid: int = 32,
    iterations: int = 1,
    topology: Torus2D | None = None,
) -> list[dict[str, object]]:
    """Whole-program comparison (extension of Table 5).

    Compiles each application *program* (all its phases, each at its
    own degree) and compares its total communication time against a
    dynamic network that must serve every phase at one fixed degree.
    """
    from repro.compiler.program import compile_program
    from repro.patterns.programs import application_programs

    topo = topology or paper_torus()
    rows = []
    for name, phases in application_programs(
        gs_grid=gs_grid, p3m_grid=p3m_grid, iterations=iterations
    ).items():
        program = compile_program(topo, phases)
        row: dict[str, object] = {
            "program": name,
            "phases": len(phases),
            "degrees": tuple(program.degrees().values()),
            "compiled": program.communication_time(params),
        }
        for k in degrees:
            total = 0
            for phase in phases:
                result = simulate_dynamic(topo, phase.requests, k, params)
                total += result.completion_time * phase.repetitions
            row[f"dynamic_{k}"] = total
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Fault campaign: compiled vs dynamic degradation under fiber cuts
# ----------------------------------------------------------------------

#: Patterns the fault campaign can sweep (name -> requests factory).
FAULT_CAMPAIGN_PATTERNS = (
    "all-to-all",
    "ring",
    "nearest neighbour",
    "hypercube",
    "shuffle-exchange",
)


def _campaign_requests(topo: Torus2D, pattern: str, size: int) -> RequestSet:
    n = topo.num_nodes
    factories = {
        "all-to-all": lambda: all_to_all_pattern(n, size=size),
        "ring": lambda: ring_pattern(n, size=size),
        "nearest neighbour": lambda: nearest_neighbour_2d(
            topo.width, topo.height, size=size
        ),
        "hypercube": lambda: hypercube_pattern(n, size=size),
        "shuffle-exchange": lambda: shuffle_exchange_pattern(n, size=size),
    }
    try:
        return factories[pattern]()
    except KeyError:
        raise ValueError(
            f"unknown campaign pattern {pattern!r}; "
            f"choose from {FAULT_CAMPAIGN_PATTERNS}"
        ) from None


def fault_campaign(
    *,
    pattern: str = "all-to-all",
    size: int = 4,
    degree: int = 2,
    fault_counts: tuple[int, ...] = (0, 1, 2, 4),
    repair_after: int | None = None,
    protocol: str = "dropping",
    params: SimParams = SimParams(),
    seed: int = 0,
    topology: Torus2D | None = None,
    cache=None,
    recovery: str = "reactive",
) -> list[dict[str, object]]:
    """Compiled-vs-dynamic degradation sweep over fiber-cut counts.

    For each entry of ``fault_counts`` a random
    :class:`~repro.simulator.faults.FaultSchedule` cuts that many
    distinct transit fibers at uniform slots inside the compiled run's
    fault window (so both control models are hit mid-flight), then the
    same schedule is injected into both simulators.  Row 0 (no faults)
    is the healthy baseline the slowdown percentages are relative to.

    ``degree`` fixes the dynamic network's multiplexing degree;
    ``repair_after`` optionally restores every cut fiber that many
    slots later (intermittent-fault model).  Deterministic in ``seed``.
    ``cache`` (an :class:`repro.service.cache.ArtifactCache`) lets the
    compiled model's reschedules reuse previously compiled artifacts
    for recurring degraded states.

    ``recovery="protected"`` runs the compiled model with compile-time
    protection: single-fiber cuts fail over to precomputed backup
    configurations in ``params.failover_latency`` slots instead of
    recompiling (see :mod:`repro.core.protection`); the
    ``compiled_failovers``/``compiled_uncovered`` columns then separate
    bounded failovers from reactive fallbacks.
    """
    from repro.simulator.compiled import simulate_compiled_faulty
    from repro.simulator.faults import FaultSchedule, random_fault_schedule
    from repro.simulator.metrics import recovery_summary

    topo = topology or paper_torus()
    requests = _campaign_requests(topo, pattern, size)
    compiled_base = compiled_completion_time(topo, requests, params)
    dynamic_base = simulate_dynamic(
        topo, requests, degree, params, protocol=protocol
    )
    horizon = max(1, compiled_base.completion_time - params.compiled_startup)

    rows = []
    for n in fault_counts:
        if n == 0:
            schedule = FaultSchedule()
        else:
            schedule = random_fault_schedule(
                topo, n, horizon, repair_after=repair_after, seed=seed + n
            )
        compiled = simulate_compiled_faulty(
            topo, requests, schedule, params, cache=cache, recovery=recovery
        )
        dynamic = simulate_dynamic(
            topo, requests, degree, params, protocol=protocol, faults=schedule
        )
        crec, drec = recovery_summary(compiled), recovery_summary(dynamic)
        rows.append({
            "faults": n,
            "compiled": compiled.completion_time,
            "compiled_slowdown_pct": 100.0
            * (compiled.completion_time - compiled_base.completion_time)
            / compiled_base.completion_time,
            "compiled_ttr": crec.get("time_to_recover_mean", 0.0),
            "compiled_degree_inflation": compiled.degree_inflation,
            "compiled_reschedules": compiled.reschedules,
            "compiled_failovers": compiled.failovers,
            "compiled_uncovered": compiled.uncovered,
            "compiled_lost": compiled.lost,
            "dynamic": dynamic.completion_time,
            "dynamic_slowdown_pct": 100.0
            * (dynamic.completion_time - dynamic_base.completion_time)
            / dynamic_base.completion_time,
            "dynamic_ttr": drec.get("time_to_recover_mean", 0.0),
            "dynamic_fault_retries": dynamic.fault_retries,
            "dynamic_lost": dynamic.lost,
        })
    return rows


def protection_sweep(
    *,
    pattern: str = "all-to-all",
    size: int = 4,
    scheduler: str = "combined",
    fault_slot: int | None = None,
    compare_reactive: bool = False,
    params: SimParams = SimParams(),
    topology: Torus2D | None = None,
    cache=None,
) -> dict[str, object]:
    """Every single-fiber fault scenario under protected recovery.

    Plans the pattern's protection once (what ``repro-tdm protect``
    emits), then injects each covered scenario's fiber cut at
    ``fault_slot`` (default: one slot after startup, so the whole
    pattern is mid-flight) into a protected compiled run.  The per-
    scenario rows carry the plan's ΔK overhead next to the measured
    makespan, time-to-recover, failover/recompile counts and losses --
    the acceptance evidence that protected recovery of a single-fiber
    cut delivers everything with zero run-time recompiles.

    ``compare_reactive=True`` additionally runs the reactive simulator
    per scenario (expensive: one remainder recompile each) for the
    reactive-vs-protected comparison in EXPERIMENTS.md.
    """
    from repro.core.protection import build_protection
    from repro.simulator.compiled import simulate_compiled_faulty
    from repro.simulator.faults import FaultSchedule

    topo = topology or paper_torus()
    requests = _campaign_requests(topo, pattern, size)
    baseline = compiled_completion_time(topo, requests, params, scheduler=scheduler)
    connections = route_requests(topo, requests)
    schedule = get_scheduler(scheduler)(connections, topo)
    protected = build_protection(topo, connections, schedule)
    report = protected.overhead_report()
    slot = fault_slot if fault_slot is not None else params.compiled_startup + 1

    rows = []
    for link in protected.scenarios:
        plan = protected.plans[link]
        row: dict[str, object] = {
            "link": link,
            "kind": plan.kind,
            "affected": len(plan.affected),
            "delta_k": plan.delta_k,
        }
        faults = FaultSchedule.from_tuples([(slot, "fail", link)])
        run = simulate_compiled_faulty(
            topo, requests, faults, params,
            scheduler=scheduler, recovery="protected", protection=protected,
        )
        row.update({
            "protected": run.completion_time,
            "protected_ttr": max(
                (e["time_to_recover"] for e in run.fault_log), default=0
            ),
            "protected_failovers": run.failovers,
            "protected_recompiles": run.reschedules,
            "protected_lost": run.lost,
        })
        if compare_reactive:
            reactive = simulate_compiled_faulty(
                topo, requests, faults, params, scheduler=scheduler, cache=cache
            )
            row.update({
                "reactive": reactive.completion_time,
                "reactive_ttr": max(
                    (e["time_to_recover"] for e in reactive.fault_log),
                    default=0,
                ),
                "reactive_recompiles": reactive.reschedules,
                "reactive_lost": reactive.lost,
            })
        rows.append(row)

    summary = {k: v for k, v in report.items() if k != "rows"}
    summary.update({
        "baseline": baseline.completion_time,
        "recompiles": sum(r["protected_recompiles"] for r in rows),
        "lost": sum(r["protected_lost"] for r in rows),
        "ttr_max": max((r["protected_ttr"] for r in rows), default=0),
        "protected_makespan_max": max(
            (r["protected"] for r in rows), default=baseline.completion_time
        ),
    })
    if compare_reactive and rows:
        summary["reactive_makespan_max"] = max(r["reactive"] for r in rows)
        summary["reactive_ttr_max"] = max(r["reactive_ttr"] for r in rows)
    return {"pattern": pattern, "summary": summary, "rows": rows}


# ----------------------------------------------------------------------
# Churn campaign: amortized cost of incremental compilation
# ----------------------------------------------------------------------


def churn_campaign(
    *,
    sizes: tuple[int, ...] = (8, 16, 32),
    pattern: str = "ring",
    steps: int = 50,
    update_size: int = 2,
    size: int = 4,
    scheduler: str = "greedy",
    policy=None,
    seed: int = 0,
) -> dict[str, object]:
    """Amortized cost of delta scheduling under sustained churn.

    For each torus width in ``sizes`` the campaign compiles ``pattern``
    once, then drives ``steps`` random updates through one stateful
    :class:`repro.core.delta.DeltaScheduler`: each update removes
    ``update_size`` random live connections and adds ``update_size``
    random new requests, so the pattern's population stays fixed while
    its membership churns completely over the run.  Every epoch is
    re-validated (outside the timed region) and the final degree is
    compared against a from-scratch recompile of the surviving set.

    The claim under test is the tentpole's cost model: amend latency is
    **O(update size), not O(pattern size)** -- the per-update mean
    should stay flat as the pattern grows 8x8 -> 32x32 at fixed update
    size.  ``summary.flatness`` is the largest-to-smallest
    median-latency ratio (a full-recompile baseline would scale with
    the pattern, ~16x here); ``summary.validation_errors`` must be 0.
    Deterministic in ``seed`` (timings aside).
    """
    import random
    from collections import Counter
    from time import perf_counter

    from repro.core.configuration import ScheduleValidationError
    from repro.core.delta import DEFAULT_POLICY, DeltaScheduler
    from repro.core.paths import Connection
    from repro.core.requests import Request

    if policy is None:
        policy = DEFAULT_POLICY
    if update_size < 1:
        raise ValueError("update_size must be >= 1")
    rows: list[dict[str, object]] = []
    for width in sizes:
        topo = Torus2D(width)
        requests = _campaign_requests(topo, pattern, size)
        connections = route_requests(topo, requests)
        schedule = get_scheduler(scheduler)(connections, topo)
        engine = DeltaScheduler(schedule, num_links=topo.num_links, policy=policy)
        rng = random.Random(seed * 1_000_003 + width)
        live = [c.index for c in connections]
        next_index = len(connections)
        n = topo.num_nodes
        latencies: list[float] = []
        actions: Counter[str] = Counter()
        delta_k_max = 0
        validation_errors = 0
        for _ in range(steps):
            removals = rng.sample(live, min(update_size, len(live)))
            adds = []
            for _ in range(update_size):
                src = rng.randrange(n)
                dst = rng.randrange(n - 1)
                if dst >= src:
                    dst += 1
                adds.append(Connection(
                    next_index, Request(src, dst, size=size),
                    topo.route(src, dst),
                ))
                next_index += 1
            t0 = perf_counter()
            result = engine.amend(add=adds, remove=removals)
            latencies.append(perf_counter() - t0)
            actions[result.action] += 1
            delta_k_max = max(delta_k_max, result.delta_k)
            for idx in removals:
                live.remove(idx)
            live.extend(c.index for c in adds)
            try:
                engine.schedule.validate(engine.connections())
            except ScheduleValidationError:
                validation_errors += 1
        full = get_scheduler(scheduler)(engine.connections(), topo)
        latencies.sort()
        rows.append({
            "size": width,
            "nodes": n,
            "connections": len(live),
            "steps": steps,
            "update_size": update_size,
            "amend_mean_us": 1e6 * fmean(latencies),
            "amend_median_us": 1e6 * latencies[len(latencies) // 2],
            "amend_p95_us": 1e6 * latencies[int(0.95 * (len(latencies) - 1))],
            "actions": dict(actions),
            "validation_errors": validation_errors,
            "degree": engine.degree,
            "full_recompile_degree": full.degree,
            "certified_gap": engine.certified_gap,
            "delta_k_max": delta_k_max,
            "bound_ok": engine.degree
            <= full.degree + engine.certified_gap + policy.recompile_slack,
        })
    smallest, largest = rows[0], rows[-1]
    summary = {
        # Median-based: one GC pause in a short CI run must not move
        # the gated ratio; the mean variant is reported alongside.
        "flatness": largest["amend_median_us"] / smallest["amend_median_us"],
        "flatness_mean": largest["amend_mean_us"] / smallest["amend_mean_us"],
        "pattern_growth": largest["nodes"] / smallest["nodes"],
        "validation_errors": sum(r["validation_errors"] for r in rows),
        "bound_ok": all(r["bound_ok"] for r in rows),
        "updates": steps * len(rows),
    }
    return {
        "pattern": pattern,
        "update_size": update_size,
        "summary": summary,
        "rows": rows,
    }


# ----------------------------------------------------------------------
# Farm campaign: sustained-QPS throughput scaling of the compile farm
# ----------------------------------------------------------------------


def _farm_workload(
    rng, *, nodes: int, cold: int, warm: int, pairs: int
) -> tuple[list[list[list[int]]], list[list[list[int]]]]:
    """Seeded (cold, warm) pattern sets: random pair lists on ``nodes``."""
    def one() -> list[list[int]]:
        rows = []
        for _ in range(pairs):
            src = rng.randrange(nodes)
            dst = rng.randrange(nodes - 1)
            if dst >= src:
                dst += 1
            rows.append([src, dst])
        return rows

    return [one() for _ in range(cold)], [one() for _ in range(warm)]


def farm_campaign(
    *,
    farms: tuple[int, ...] = (1, 2, 4),
    requests: int = 128,
    concurrency: int = 12,
    replication: int = 2,
    torus: int = 8,
    pairs: int = 48,
    cold_frac: float = 0.5,
    warm_patterns: int = 6,
    workers: int = 1,
    scheduler: str = "combined",
    registers: bool = False,
    service_floor: float = 0.15,
    seed: int = 0,
) -> dict[str, object]:
    """Sustained-QPS mixed cold/warm throughput of the compile farm.

    For each farm size in ``farms`` the campaign starts a fresh
    in-process farm (:class:`repro.service.farm.Farm`, ``workers``
    compile processes *per node*), prewarms a small warm set, then
    drives the same seeded schedule of ``requests`` compile requests --
    a ``cold_frac`` mix of unique patterns (cold compiles that must fan
    out across the nodes' worker pools) and repeats from the warm set
    (served from the sharded cache) -- through ``concurrency``
    independent shard-map-carrying clients.

    The claim under test is the farm tentpole: cold compiles are the
    bottleneck of one box, and digest sharding spreads them across
    nodes with near-linear throughput scaling.  ``service_floor`` pads
    each cold compile to a fixed service time in the *worker*
    (:attr:`ServerPolicy.simulated_cost`), so the benchmark measures
    the farm's request-level parallelism -- routing, shard ownership,
    worker-pool dispatch -- at a calibrated per-compile cost instead of
    the harness host's core count (CI runners often expose a single
    core, where genuinely CPU-bound work cannot scale no matter how the
    farm behaves).  ``summary.scaling`` is ``qps(largest farm) /
    qps(smallest)``; the committed baseline gates it at >= 2.5x for
    1 -> 4 workers.  Deterministic in ``seed`` (timings aside).
    """
    import asyncio
    import random
    from time import perf_counter

    from repro.service.errors import ServiceError
    from repro.service.farm import Farm
    from repro.service.policy import ServerPolicy

    rng = random.Random(seed)
    n_cold = max(1, int(requests * cold_frac))
    cold, warm = _farm_workload(
        rng, nodes=torus * torus, cold=n_cold, warm=warm_patterns, pairs=pairs
    )
    topology = {"kind": "torus", "width": torus}
    # One shared schedule: every farm size compiles the same work.
    schedule = [("cold", i) for i in range(n_cold)] + [
        ("warm", rng.randrange(len(warm))) for _ in range(requests - n_cold)
    ]
    rng.shuffle(schedule)

    async def drive(nodes: int) -> dict[str, object]:
        farm = Farm(
            nodes,
            replication=min(replication, nodes),
            workers=workers,
            scheduler=scheduler,
            policy=ServerPolicy(
                max_pending=max(64, 4 * concurrency),
                simulated_cost=service_floor,
            ),
        )
        await farm.start()
        clients = [farm.client() for _ in range(concurrency)]
        row: dict[str, object] = {
            "nodes": nodes,
            "workers": nodes * max(1, workers),
            "requests": len(schedule),
        }
        try:
            loop = asyncio.get_running_loop()
            # Fork the worker pools *before* timing starts: pool spawn
            # is a one-time cost, not farm throughput.
            await asyncio.gather(*(
                loop.run_in_executor(node._executor, abs, 1)
                for node in farm.nodes.values()
            ))
            for client in clients:
                await client.connect()
            for pattern in warm:
                await clients[0].compile(
                    topology, pairs=pattern, scheduler=scheduler,
                    registers=registers,
                )
            await farm.settle()

            queue = list(schedule)
            outcomes = {"hit": 0, "miss": 0, "inflight": 0}
            typed_failures: dict[str, int] = {}

            async def worker(client) -> None:
                while queue:
                    kind, idx = queue.pop()
                    pattern = cold[idx] if kind == "cold" else warm[idx]
                    try:
                        reply = await client.compile(
                            topology, pairs=pattern, scheduler=scheduler,
                            registers=registers,
                        )
                    except ServiceError as exc:
                        typed_failures[exc.code] = (
                            typed_failures.get(exc.code, 0) + 1
                        )
                        continue
                    outcome = reply.get("cache", "?")
                    outcomes[outcome] = outcomes.get(outcome, 0) + 1

            t0 = perf_counter()
            await asyncio.gather(*(worker(c) for c in clients))
            elapsed = perf_counter() - t0

            completed = sum(outcomes.values())
            row.update({
                "elapsed_seconds": elapsed,
                "completed": completed,
                "qps": completed / elapsed if elapsed > 0 else 0.0,
                "outcomes": outcomes,
                "typed_failures": typed_failures,
                "direct": sum(c.direct for c in clients),
                "via_router": sum(c.via_router for c in clients),
                "replicas_pushed": sum(
                    n.replicas_pushed for n in farm.nodes.values()
                ),
            })
        finally:
            for client in clients:
                await client.close()
            await farm.shutdown()
        return row

    async def main() -> list[dict[str, object]]:
        return [await drive(n) for n in farms]

    rows = asyncio.run(main())
    first, last = rows[0], rows[-1]
    summary = {
        "scaling": (last["qps"] / first["qps"]) if first["qps"] else 0.0,
        "workers": [r["workers"] for r in rows],
        "qps": [r["qps"] for r in rows],
        "completed": sum(r["completed"] for r in rows),
        "failed": sum(sum(r["typed_failures"].values()) for r in rows),
    }
    return {
        "torus": torus,
        "pairs": pairs,
        "scheduler": scheduler,
        "cold_frac": cold_frac,
        "concurrency": concurrency,
        "service_floor": service_floor,
        "summary": summary,
        "rows": rows,
    }


# ----------------------------------------------------------------------
# Figures 1 and 3
# ----------------------------------------------------------------------

#: The Fig. 1 example configuration on the 4x4 torus.
FIG1_CONFIGURATION = ((4, 1), (5, 3), (6, 10), (8, 9), (11, 2))

#: The Fig. 3 example: requests on 5 linearly connected nodes.
FIG3_REQUESTS = ((0, 2), (1, 3), (3, 4), (2, 4))


def fig1() -> dict[str, object]:
    """Check the paper's example configuration is conflict-free."""
    from repro.core.configuration import Configuration

    topo = Torus2D(4)
    requests = RequestSet.from_pairs(FIG1_CONFIGURATION)
    connections = route_requests(topo, requests)
    cfg = Configuration()
    for c in connections:
        cfg.add(c)  # raises if any pair conflicts
    return {
        "connections": len(cfg),
        "links_used": cfg.total_links_used,
        "conflict_free": True,
    }


def fig3() -> dict[str, object]:
    """Greedy suboptimality example: natural order 3 slots, optimum 2."""
    from repro.topology.linear import LinearArray
    from repro.core.greedy import greedy_schedule

    topo = LinearArray(5)
    requests = RequestSet.from_pairs(FIG3_REQUESTS)
    connections = route_requests(topo, requests)
    natural = greedy_schedule(connections).degree
    # (0,2) and (2,4) first puts the two compatible pairs together.
    optimal = greedy_schedule(connections, order=[0, 3, 1, 2]).degree
    return {"greedy_natural_order": natural, "greedy_best_order": optimal}


# ----------------------------------------------------------------------
# Ablations (beyond the paper)
# ----------------------------------------------------------------------

ABLATION_SCHEDULERS = (
    "greedy",
    "coloring",
    "coloring-ratio",
    "aapc",
    "combined",
    "dsatur",
    "largest-first",
    "longest-first",
    "shortest-first",
    "random-restart",
    "coloring+repack",
    "combined+repack",
)


def ablation_schedulers(
    *,
    connection_counts: tuple[int, ...] = (200, 800),
    patterns_per_row: int = 3,
    seed: int = 0,
    schedulers: tuple[str, ...] = ABLATION_SCHEDULERS,
    topology: Torus2D | None = None,
) -> list[dict[str, float]]:
    """Degree comparison of every registered scheduler on random patterns."""
    topo = topology or paper_torus()
    rows = []
    for n in connection_counts:
        rng = np.random.default_rng(seed + n)
        acc: dict[str, list[int]] = defaultdict(list)
        for _ in range(patterns_per_row):
            requests = random_pattern(topo.num_nodes, n, seed=rng)
            connections = route_requests(topo, requests)
            for name in schedulers:
                schedule = get_scheduler(name)(connections, topo)
                acc[name].append(schedule.degree)
        row: dict[str, float] = {"connections": float(n)}
        row.update({name: fmean(vals) for name, vals in acc.items()})
        rows.append(row)
    return rows
