"""Declarative benchmark suites with committed regression baselines.

One **declarative harness** for the repo's performance surfaces: a
suite is a JSON file of parameterized cases (topology size x pattern x
scheduler), each case runs to a metrics dict, and a two-layer assertion
engine (suite ``defaults.assert`` overridden per case) turns the
metrics into a ``validation`` block CI can gate on with one exit code.
A case or ``defaults`` key that no case runner reads is refused
(:data:`PARAM_KEYS`), so a typo cannot silently fall back to a default.

The case kinds:

``kernel``
    Schedule a pattern on a torus and time it.  All-to-all goes
    through :func:`repro.core.allpairs.all_to_all_schedule`, so the
    same case syntax scales from the paper's 8x8 (generic schedulers
    over routed connections) to the 64x64 structural fast path; other
    patterns route and run the requested scheduler directly.  Metrics:
    best/mean/stddev seconds over ``repeats``, throughput
    (connections/s), degree, optimality ratio vs the closed-form
    lower bound.

``cache``
    :func:`run_cache_case` -- cold/warm/translated compile latency
    and the compile-once-run-many speedup.

``faults``
    :func:`~repro.analysis.experiments.fault_campaign` --
    protected/reactive recovery: worst time-to-recover, losses,
    failover/recompile counts.

``churn``
    :func:`~repro.analysis.experiments.churn_campaign` -- delta
    scheduling under sustained add/remove updates: worst per-size mean
    amend latency, the largest-to-smallest flatness ratio (amortized
    cost must be ~O(update size), not O(pattern size)), per-epoch
    validation errors and degree-bound violations.

``farm``
    :func:`~repro.analysis.experiments.farm_campaign` -- sustained-QPS
    mixed cold/warm throughput of the sharded compile farm across farm
    sizes.  Metrics: per-size QPS, the largest-to-smallest scaling
    ratio (gated ``min_scaling``), typed failures (gated zero).  Cold
    compiles are padded to a fixed service-time floor in the worker so
    the ratio measures the farm's request-level parallelism, not the
    harness host's core count.

Assertion rules (``assert`` maps rule name to a number, or to
``{"value": x, "severity": "error" | "warning"}``):

======================  ==================  =========================
rule                    metric              passes when
======================  ==================  =========================
``max_seconds``         ``seconds``         value <= limit
``min_throughput``      ``throughput``      value >= limit
``max_degree``          ``degree``          value <= limit
``max_optimality_ratio`` ``optimality_ratio`` value <= limit
``min_speedup``         ``speedup``         value >= limit
``max_ttr_slots``       ``ttr``             value <= limit
``max_lost``            ``lost``            value <= limit
``max_amend_us``        ``amend_us``        value <= limit
``max_flatness``        ``flatness``        value <= limit
``max_validation_errors`` ``validation_errors`` value <= limit
``max_bound_violations`` ``bound_violations`` value <= limit
``min_scaling``         ``scaling``         value >= limit
``min_qps``             ``qps``             value >= limit
``max_failed``          ``failed``          value <= limit
``max_regression_pct``  kind-specific       worst drift vs baseline
                                            <= limit percent
======================  ==================  =========================

``max_regression_pct`` compares against the **committed baselines**
(``BENCH_kernel.json`` / ``BENCH_cache.json`` / ``BENCH_faults.json``
/ ``BENCH_churn.json`` / ``BENCH_farm.json``, one file per kind,
``{"schema", "header", "cases": {name: metrics}}``) using each kind's
regression metrics -- kernel: ``seconds`` down / ``throughput`` up is
good; cache: ``warm_seconds`` down / ``speedup`` up; faults: ``ttr``
down; churn: ``amend_us`` down / ``flatness`` down; farm: ``scaling``
up / ``qps`` up.  A case with no baseline entry *passes with a
warning* so new cases can land before their baseline does.

The workflow the CLI (``repro-tdm bench``) wraps:

1. ``bench run --suite s.json --report out.json`` -- run, assert,
   exit 70 on any error-severity failure;
2. ``bench compare --report out.json`` -- re-evaluate a saved report
   against the current baselines (no benchmarks re-run);
3. ``bench update-baseline --report out.json`` -- merge the report's
   metrics into the committed baseline files.

Reports carry :func:`report_header` -- schema version, package version,
git commit + dirty flag, python/numpy versions -- and a baseline keeps
the header of the report it was taken from, so a number can always be
traced to the code that produced it.  ``update-baseline`` refuses a
report measured on a dirty (or unknown) tree.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core import perf

#: Suite-file schema accepted by :func:`load_suite`.
SUITE_SCHEMA = "repro-bench/1"
#: Schema stamped on run reports.
REPORT_SCHEMA = "repro-bench-report/1"
#: Schema stamped on committed baseline files.
BASELINE_SCHEMA = "repro-bench-baseline/1"

#: Committed baseline file per case kind (relative to the baseline dir).
BASELINE_FILES = {
    "kernel": "BENCH_kernel.json",
    "cache": "BENCH_cache.json",
    "faults": "BENCH_faults.json",
    "churn": "BENCH_churn.json",
    "farm": "BENCH_farm.json",
    "ha": "BENCH_ha.json",
}

KINDS = tuple(BASELINE_FILES)
SEVERITIES = ("error", "warning")

#: rule name -> (metric key, comparator); comparator(value, limit).
RULES: dict[str, tuple[str, Callable[[float, float], bool]]] = {
    "max_seconds": ("seconds", lambda v, lim: v <= lim),
    "min_throughput": ("throughput", lambda v, lim: v >= lim),
    "max_degree": ("degree", lambda v, lim: v <= lim),
    "max_optimality_ratio": ("optimality_ratio", lambda v, lim: v <= lim),
    "min_speedup": ("speedup", lambda v, lim: v >= lim),
    "max_ttr_slots": ("ttr", lambda v, lim: v <= lim),
    "max_lost": ("lost", lambda v, lim: v <= lim),
    "max_amend_us": ("amend_us", lambda v, lim: v <= lim),
    "max_flatness": ("flatness", lambda v, lim: v <= lim),
    "max_validation_errors": ("validation_errors", lambda v, lim: v <= lim),
    "max_bound_violations": ("bound_violations", lambda v, lim: v <= lim),
    "min_scaling": ("scaling", lambda v, lim: v >= lim),
    "min_qps": ("qps", lambda v, lim: v >= lim),
    "max_failed": ("failed", lambda v, lim: v <= lim),
    "min_availability": ("availability", lambda v, lim: v >= lim),
    "max_restore_sweeps": ("restore_sweeps", lambda v, lim: v <= lim),
    "max_promote_seconds": ("promote_seconds", lambda v, lim: v <= lim),
    "max_corrupt": ("corrupt", lambda v, lim: v <= lim),
    "max_gates_failed": ("gates_failed", lambda v, lim: v <= lim),
}

#: Every parameter some case runner reads.  A ``defaults`` key must be
#: one of these (or ``assert``); a case key one of these (or ``name``,
#: ``kind``, ``assert``).
PARAM_KEYS = frozenset({
    "amend_steps", "cold_frac", "concurrency", "degree", "drop_rate",
    "failover_latency", "farms", "faults", "max_sweeps", "nodes", "pairs",
    "pattern", "protocol", "recompile_latency", "recovery", "registers",
    "repair_after", "repeats", "replication", "requests", "scheduler",
    "seed", "service_floor", "size", "sizes", "steps", "torus",
    "update_size", "warm_patterns", "workers",
})

#: Per kind: the metrics the regression gate watches, and whether
#: lower is better for each.
REGRESSION_METRICS: dict[str, tuple[tuple[str, bool], ...]] = {
    "kernel": (("seconds", True), ("throughput", False)),
    "cache": (("warm_seconds", True), ("speedup", False)),
    "faults": (("ttr", True),),
    "churn": (("amend_us", True), ("flatness", True)),
    "farm": (("scaling", False), ("qps", False)),
    # restore_sweeps is a small integer, useless as a percentage gate;
    # availability is the one continuously-valued HA metric.
    "ha": (("availability", False),),
}


class SuiteError(ValueError):
    """A malformed suite document (bad schema, case, or assertion)."""


# ----------------------------------------------------------------------
# report header
# ----------------------------------------------------------------------

def _git_metadata() -> dict[str, object]:
    """Best-effort commit + dirty flag of the working tree."""
    def run(*argv: str) -> str | None:
        try:
            out = subprocess.run(
                ["git", *argv], capture_output=True, text=True, timeout=10,
                cwd=os.path.dirname(os.path.abspath(__file__)),
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    commit = run("rev-parse", "HEAD")
    status = run("status", "--porcelain")
    return {
        "commit": commit,
        "dirty": bool(status) if status is not None else None,
    }


def report_header() -> dict[str, object]:
    """Provenance block stamped on every report and baseline."""
    import repro

    return {
        "generator": "repro-tdm bench",
        "version": repro.__version__,
        "git": _git_metadata(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# suite loading / validation
# ----------------------------------------------------------------------

def _check_assert_block(block: Any, where: str) -> None:
    if not isinstance(block, dict):
        raise SuiteError(f"{where}: 'assert' must be an object, got {block!r}")
    for rule, spec in block.items():
        if rule != "max_regression_pct" and rule not in RULES:
            known = (*RULES, "max_regression_pct")
            raise SuiteError(f"{where}: unknown rule {rule!r}; known: {known}")
        if isinstance(spec, dict):
            extra = set(spec) - {"value", "severity"}
            if extra:
                raise SuiteError(f"{where}.{rule}: unknown keys {sorted(extra)}")
            if "value" not in spec:
                raise SuiteError(f"{where}.{rule}: missing 'value'")
            value = spec["value"]
            severity = spec.get("severity", "error")
            if severity not in SEVERITIES:
                raise SuiteError(
                    f"{where}.{rule}: severity must be one of {SEVERITIES}, "
                    f"got {severity!r}"
                )
        else:
            value = spec
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SuiteError(f"{where}.{rule}: limit must be a number, got {value!r}")


def _check_keys(block: dict, allowed: frozenset, where: str) -> None:
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise SuiteError(
            f"{where}: unknown keys {unknown}; no case runner reads them"
        )


def validate_suite(doc: Any) -> dict:
    """Validate a suite document; return it.  Raises :class:`SuiteError`."""
    if not isinstance(doc, dict):
        raise SuiteError(f"suite must be a JSON object, got {type(doc).__name__}")
    if doc.get("schema") != SUITE_SCHEMA:
        raise SuiteError(
            f"suite schema must be {SUITE_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    if not isinstance(doc.get("name"), str) or not doc["name"]:
        raise SuiteError("suite needs a non-empty string 'name'")
    defaults = doc.get("defaults", {})
    if not isinstance(defaults, dict):
        raise SuiteError("'defaults' must be an object")
    _check_keys(defaults, PARAM_KEYS | {"assert"}, "defaults")
    if "assert" in defaults:
        _check_assert_block(defaults["assert"], "defaults")
    cases = doc.get("cases")
    if not isinstance(cases, list) or not cases:
        raise SuiteError("'cases' must be a non-empty list")
    seen: set[str] = set()
    for i, case in enumerate(cases):
        where = f"cases[{i}]"
        if not isinstance(case, dict):
            raise SuiteError(f"{where}: must be an object")
        name = case.get("name")
        if not isinstance(name, str) or not name:
            raise SuiteError(f"{where}: needs a non-empty string 'name'")
        if name in seen:
            raise SuiteError(f"{where}: duplicate case name {name!r}")
        seen.add(name)
        _check_keys(
            case, PARAM_KEYS | {"name", "kind", "assert"}, f"{where} ({name})"
        )
        kind = case.get("kind", "kernel")
        if kind not in KINDS:
            raise SuiteError(
                f"{where} ({name}): kind must be one of {KINDS}, got {kind!r}"
            )
        if "assert" in case:
            _check_assert_block(case["assert"], f"{where} ({name})")
    return doc


def load_suite(path: str) -> dict:
    """Load and validate a suite JSON file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SuiteError(f"cannot read suite {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SuiteError(f"suite {path!r} is not valid JSON: {exc}") from None
    return validate_suite(doc)


def merge_assertions(defaults: dict, case: dict) -> dict[str, dict]:
    """Suite-default rules overridden per case, normalized to
    ``{rule: {"value": x, "severity": s}}``."""
    merged: dict[str, Any] = {}
    merged.update(defaults.get("assert", {}))
    merged.update(case.get("assert", {}))
    out: dict[str, dict] = {}
    for rule, spec in merged.items():
        if isinstance(spec, dict):
            out[rule] = {
                "value": spec["value"],
                "severity": spec.get("severity", "error"),
            }
        else:
            out[rule] = {"value": spec, "severity": "error"}
    return out


# ----------------------------------------------------------------------
# assertion engine
# ----------------------------------------------------------------------

@dataclass
class AssertionResult:
    """One evaluated rule of one case."""

    rule: str
    metric: str
    value: float | None
    limit: float
    severity: str
    passed: bool
    skipped: bool = False
    detail: str = ""

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "metric": self.metric,
            "value": self.value,
            "limit": self.limit,
            "severity": self.severity,
            "passed": self.passed,
            "skipped": self.skipped,
            "detail": self.detail,
        }


def _regression(
    kind: str, metrics: dict, baseline: dict | None, spec: dict
) -> AssertionResult:
    limit, severity = spec["value"], spec["severity"]
    if baseline is None:
        return AssertionResult(
            "max_regression_pct", "-", None, limit, "warning", True,
            skipped=True, detail="no baseline entry for this case",
        )
    worst = None
    worst_metric = "-"
    details = []
    for metric, lower_is_better in REGRESSION_METRICS[kind]:
        cur, base = metrics.get(metric), baseline.get(metric)
        if cur is None or base is None or not base:
            continue
        # Drift in the *bad* direction, as a percentage of the baseline.
        pct = 100.0 * ((cur - base) if lower_is_better else (base - cur)) / base
        details.append(f"{metric}: {base:.6g} -> {cur:.6g} ({pct:+.1f}%)")
        if worst is None or pct > worst:
            worst, worst_metric = pct, metric
    if worst is None:
        return AssertionResult(
            "max_regression_pct", "-", None, limit, "warning", True,
            skipped=True, detail="baseline shares no regression metrics",
        )
    return AssertionResult(
        "max_regression_pct", worst_metric, round(worst, 3), limit, severity,
        passed=worst <= limit, detail="; ".join(details),
    )


def evaluate_case(
    kind: str,
    metrics: dict,
    rules: dict[str, dict],
    baseline: dict | None,
) -> dict[str, object]:
    """The ``validation`` block: every rule evaluated against metrics."""
    results: list[AssertionResult] = []
    for rule, spec in sorted(rules.items()):
        if rule == "max_regression_pct":
            results.append(_regression(kind, metrics, baseline, spec))
            continue
        metric, cmp = RULES[rule]
        value = metrics.get(metric)
        if value is None:
            results.append(AssertionResult(
                rule, metric, None, spec["value"], spec["severity"],
                passed=False,
                detail=f"case produced no {metric!r} metric",
            ))
            continue
        results.append(AssertionResult(
            rule, metric, value, spec["value"], spec["severity"],
            passed=cmp(value, spec["value"]),
        ))
    errors = sum(1 for r in results if not r.passed and r.severity == "error")
    warnings = sum(
        1 for r in results
        if (not r.passed and r.severity == "warning") or r.skipped
    )
    return {
        "assertions": [r.as_dict() for r in results],
        "passed": errors == 0,
        "errors": errors,
        "warnings": warnings,
    }


# ----------------------------------------------------------------------
# case runners
# ----------------------------------------------------------------------

def _topology(params: dict):
    """Case topology: ``"torus": k`` or ``"torus": [w, h]``."""
    from repro.topology.torus import Torus2D

    spec = params.get("torus", 8)
    if isinstance(spec, list):
        return Torus2D(*spec)
    return Torus2D(int(spec))


def _timing_stats(times: list[float]) -> dict[str, float]:
    best = min(times)
    mean = sum(times) / len(times)
    var = sum((t - mean) ** 2 for t in times) / len(times)
    return {
        "seconds": best,
        "mean_seconds": mean,
        "stddev_seconds": math.sqrt(var),
        "repeats": len(times),
    }


def _pattern_requests(topo, pattern: str, size: int):
    from repro.patterns.classic import (
        hypercube_pattern,
        nearest_neighbour_2d,
        ring_pattern,
        shuffle_exchange_pattern,
    )

    n = topo.num_nodes
    factories = {
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
        raise SuiteError(
            f"unknown kernel-case pattern {pattern!r}; "
            f"choose from {('all-to-all', *factories)}"
        ) from None


def run_kernel_case(params: dict) -> dict[str, object]:
    """Time one (topology, pattern, scheduler) combination."""
    from repro.core.allpairs import all_to_all_lower_bound, all_to_all_schedule
    from repro.core.aapc_ordered import ordered_aapc_schedule
    from repro.core.coloring import coloring_schedule
    from repro.core.combined import combined_schedule
    from repro.core.greedy import greedy_schedule
    from repro.core.paths import route_requests

    topo = _topology(params)
    pattern = params.get("pattern", "all-to-all")
    scheduler = params.get("scheduler", "combined")
    repeats = max(1, int(params.get("repeats", 3)))

    if pattern == "all-to-all":
        num_connections = topo.num_nodes * (topo.num_nodes - 1)
        lower_bound = all_to_all_lower_bound(topo)
        times, schedule = [], None
        for _ in range(repeats):
            t0 = perf.perf_timer()
            schedule = all_to_all_schedule(topo, scheduler=scheduler)
            times.append(perf.perf_timer() - t0)
        tag = schedule.scheduler
        degree = schedule.degree
    else:
        requests = _pattern_requests(topo, pattern, int(params.get("size", 1)))
        connections = route_requests(topo, requests)
        num_connections = len(connections)
        lower_bound = None
        runs = {
            "greedy": lambda: greedy_schedule(connections),
            "coloring": lambda: coloring_schedule(connections),
            "aapc": lambda: ordered_aapc_schedule(connections, topo),
            "combined": lambda: combined_schedule(connections, topo),
        }
        if scheduler not in runs:
            raise SuiteError(
                f"kernel case scheduler must be one of {tuple(runs)} for "
                f"pattern {pattern!r}, got {scheduler!r}"
            )
        times, schedule = [], None
        for _ in range(repeats):
            t0 = perf.perf_timer()
            schedule = runs[scheduler]()
            times.append(perf.perf_timer() - t0)
        tag = schedule.scheduler
        degree = schedule.degree

    metrics: dict[str, object] = {
        "topology": topo.signature,
        "pattern": pattern,
        "scheduler": tag,
        "connections": num_connections,
        "degree": int(degree),
        **_timing_stats(times),
    }
    best = metrics["seconds"]
    metrics["throughput"] = num_connections / best if best > 0 else 0.0
    if lower_bound:
        metrics["lower_bound"] = lower_bound
        metrics["optimality_ratio"] = round(degree / lower_bound, 4)
    return metrics


def run_cache_case(params: dict) -> dict[str, object]:
    """Cold vs warm artifact-cache compile of all-to-all.

    Measures three service paths (registers included, the full
    artifact): a **cold** compile into an empty cache, a **warm**
    recompile of the same pattern, and a warm compile of a *translated*
    variant (every endpoint shifted by one admissible torus offset),
    which must also hit thanks to canonicalization.  Every repeat
    starts from a fresh cache; each phase keeps its best time.
    ``speedup`` = cold / warm -- the compile-once-run-many ratio.
    """
    from repro.patterns.classic import all_to_all_pattern
    from repro.service.cache import ArtifactCache
    from repro.service.canonical import node_permutation, translation_group
    from repro.service.compile import compile_pattern

    topo = _topology(params)
    scheduler = params.get("scheduler", "combined")
    repeats = max(1, int(params.get("repeats", 3)))
    requests = all_to_all_pattern(topo.num_nodes)
    group = translation_group(topo)
    shift = next((t for t in group if any(t)), group[0])
    sigma = node_permutation(topo, shift)
    translated = [(sigma[r.src], sigma[r.dst], r.size, r.tag) for r in requests]

    def timed(pattern, cache):
        t0 = perf.perf_timer()
        result = compile_pattern(
            topo, pattern, cache=cache, scheduler=scheduler,
            include_registers=True,
        )
        return perf.perf_timer() - t0, result

    t_start = perf.perf_timer()
    cold = warm = moved = math.inf
    for _ in range(repeats):
        cache = ArtifactCache()  # fresh -> genuinely cold
        elapsed, first = timed(requests, cache)
        assert first.cache == "miss"
        cold = min(cold, elapsed)
        elapsed, again = timed(requests, cache)
        assert again.cache == "hit"
        assert again.schedule_doc == first.schedule_doc
        warm = min(warm, elapsed)
        elapsed, shifted = timed(translated, cache)
        assert shifted.cache == "hit" or not any(shift)
        moved = min(moved, elapsed)
    return {
        "topology": topo.signature,
        "scheduler": scheduler,
        "connections": len(requests),
        "repeats": repeats,
        "cold_seconds": cold,
        "warm_seconds": warm,
        "translated_seconds": moved,
        "speedup": cold / warm if warm else 0.0,
        # the latency the warm-path gate cares about
        "seconds": warm,
        "campaign_seconds": perf.perf_timer() - t_start,
    }


def run_faults_case(params: dict) -> dict[str, object]:
    """Fault-recovery campaign: worst TTR, losses, failover counts."""
    from repro.analysis.experiments import fault_campaign
    from repro.simulator.params import SimParams

    sim = SimParams(seed=int(params.get("seed", 0))).with_(
        recompile_latency=int(params.get("recompile_latency", 3)),
        failover_latency=int(params.get("failover_latency", 1)),
    )
    t0 = perf.perf_timer()
    rows = fault_campaign(
        pattern=params.get("pattern", "all-to-all"),
        size=int(params.get("size", 4)),
        degree=int(params.get("degree", 2)),
        fault_counts=tuple(params.get("faults", [0, 1])),
        repair_after=params.get("repair_after"),
        protocol=params.get("protocol", "dropping"),
        params=sim,
        seed=int(params.get("seed", 0)),
        topology=_topology(params) if "torus" in params else None,
        recovery=params.get("recovery", "protected"),
    )
    elapsed = perf.perf_timer() - t0
    return {
        "pattern": params.get("pattern", "all-to-all"),
        "recovery": params.get("recovery", "protected"),
        "fault_counts": [r["faults"] for r in rows],
        "ttr": max(r["compiled_ttr"] for r in rows),
        "lost": int(sum(r["compiled_lost"] for r in rows)),
        "failovers": int(sum(r["compiled_failovers"] for r in rows)),
        "uncovered": int(sum(r["compiled_uncovered"] for r in rows)),
        "reschedules": int(sum(r["compiled_reschedules"] for r in rows)),
        "worst_slowdown_pct": max(r["compiled_slowdown_pct"] for r in rows),
        "seconds": elapsed,
    }


def run_churn_case(params: dict) -> dict[str, object]:
    """Delta-scheduling churn: amortized amend cost and its flatness.

    ``amend_us`` is the worst per-size mean amend latency (the
    committed cost-per-update bound); ``flatness`` the largest-to-
    smallest median-latency ratio across the size sweep, which a
    full-recompile implementation would blow up linearly with the
    pattern.  ``validation_errors``/``bound_violations`` count epochs
    that failed ``validate()`` or exceeded the recompile-slack degree
    bound -- both gate at zero.
    """
    from repro.analysis.experiments import churn_campaign

    t0 = perf.perf_timer()
    out = churn_campaign(
        sizes=tuple(params.get("sizes", [8, 16, 32])),
        pattern=params.get("pattern", "ring"),
        steps=max(1, int(params.get("steps", 40))),
        update_size=max(1, int(params.get("update_size", 2))),
        size=int(params.get("size", 4)),
        scheduler=params.get("scheduler", "greedy"),
        seed=int(params.get("seed", 0)),
    )
    elapsed = perf.perf_timer() - t0
    rows, summary = out["rows"], out["summary"]
    return {
        "pattern": out["pattern"],
        "sizes": [r["size"] for r in rows],
        "steps": rows[0]["steps"],
        "update_size": out["update_size"],
        "updates": summary["updates"],
        "amend_us": max(r["amend_mean_us"] for r in rows),
        "amend_median_us": max(r["amend_median_us"] for r in rows),
        "flatness": round(summary["flatness"], 3),
        "flatness_mean": round(summary["flatness_mean"], 3),
        "pattern_growth": summary["pattern_growth"],
        "validation_errors": int(summary["validation_errors"]),
        "bound_violations": int(sum(not r["bound_ok"] for r in rows)),
        "actions": {
            r["size"]: r["actions"] for r in rows
        },
        "seconds": elapsed,
    }


def run_farm_case(params: dict) -> dict[str, object]:
    """Compile-farm throughput scaling: sustained mixed cold/warm QPS.

    ``scaling`` is qps(largest farm) / qps(smallest) over the same
    seeded workload (gated ``min_scaling``: the tentpole claim is
    near-linear 1 -> 4 worker scaling); ``qps`` the largest farm's
    throughput; ``failed`` the typed-error count across every size
    (gates at zero -- shedding or timeouts mean the sizing is wrong
    for the harness).
    """
    from repro.analysis.experiments import farm_campaign

    t0 = perf.perf_timer()
    out = farm_campaign(
        farms=tuple(params.get("farms", [1, 2, 4])),
        requests=max(1, int(params.get("requests", 128))),
        concurrency=max(1, int(params.get("concurrency", 12))),
        replication=int(params.get("replication", 2)),
        torus=int(params.get("torus", 8)),
        pairs=int(params.get("pairs", 48)),
        cold_frac=float(params.get("cold_frac", 0.5)),
        warm_patterns=int(params.get("warm_patterns", 6)),
        workers=int(params.get("workers", 1)),
        scheduler=params.get("scheduler", "combined"),
        registers=bool(params.get("registers", False)),
        service_floor=float(params.get("service_floor", 0.15)),
        seed=int(params.get("seed", 0)),
    )
    elapsed = perf.perf_timer() - t0
    rows, summary = out["rows"], out["summary"]
    return {
        "farms": [r["nodes"] for r in rows],
        "workers": summary["workers"],
        "requests": rows[0]["requests"],
        "service_floor": out["service_floor"],
        "scaling": round(summary["scaling"], 3),
        "qps": round(rows[-1]["qps"], 2),
        "qps_per_size": [round(q, 2) for q in summary["qps"]],
        "completed": summary["completed"],
        "failed": int(summary["failed"]),
        "direct": int(sum(r["direct"] for r in rows)),
        "via_router": int(sum(r["via_router"] for r in rows)),
        "replicas_pushed": int(sum(r["replicas_pushed"] for r in rows)),
        "seconds": elapsed,
    }


def run_ha_case(params: dict) -> dict[str, object]:
    """Farm self-healing under a scripted kill/rejoin schedule.

    Runs the seven-phase HA chaos campaign (replica-push loss, one-way
    partition, kill-primary-mid-amend-stream, rejoin, router restart,
    leader-router kill against an HA pair, graceful drain under load)
    and reports ``availability`` (fraction of scored requests answered
    correctly -- a typed refusal of a stale amend counts as correct
    service), ``restore_sweeps`` (worst-case anti-entropy sweeps to
    return every tracked digest to replication factor R), ``corrupt``
    (gates at zero: a wrong-bytes reply is never acceptable),
    ``promote_seconds`` (measured standby-promotion time after the
    leader kill) and ``gates_failed`` (the campaign's own pass/fail
    conjuncts).
    """
    from repro.service.chaos import run_farm_ha_campaign

    t0 = perf.perf_timer()
    report = run_farm_ha_campaign(
        max(1, int(params.get("requests", 48))),
        nodes=int(params.get("nodes", 3)),
        replication=int(params.get("replication", 2)),
        seed=int(params.get("seed", 0)),
        cache_dir=None,
        drop_rate=float(params.get("drop_rate", 0.5)),
        max_restore_sweeps=int(params.get("max_sweeps", 3)),
        amend_steps=int(params.get("amend_steps", 6)),
    )
    elapsed = perf.perf_timer() - t0
    return {
        "attempted": report["attempted"],
        "completed": report["completed"],
        "availability": round(report["availability"], 4),
        "restore_sweeps": int(report["restore_sweeps"]),
        "corrupt": len(report["corrupted"]),
        "untyped": len(report["untyped_failures"]),
        "gates_failed": sum(
            1 for ok in report["gates"].values() if not ok
        ),
        "repaired": report["replication_stats"]["repaired"],
        "amend_takeovers": report["replication_stats"]["amend_takeovers"],
        "rejoins": report["router"]["rejoins"],
        "promote_seconds": report["promote_seconds"],
        "drain_handoffs": report["replication_stats"]["drain_handoffs"],
        "drain_adoptions": report["replication_stats"]["drain_adoptions"],
        "drain_repush_retries": (
            report["replication_stats"]["drain_repush_retries"]
        ),
        "seconds": elapsed,
    }


_RUNNERS = {
    "kernel": run_kernel_case,
    "cache": run_cache_case,
    "faults": run_faults_case,
    "churn": run_churn_case,
    "farm": run_farm_case,
    "ha": run_ha_case,
}


# ----------------------------------------------------------------------
# suite execution and reports
# ----------------------------------------------------------------------

def _merged_params(defaults: dict, case: dict) -> dict:
    params = {
        k: v for k, v in defaults.items() if k not in ("assert",)
    }
    params.update({k: v for k, v in case.items() if k not in ("assert",)})
    return params


def run_suite(
    suite: dict,
    *,
    baselines: dict[str, dict] | None = None,
    only: list[str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict[str, object]:
    """Run every case of a validated suite and assert on the results.

    ``baselines`` maps kind to ``{case_name: metrics}`` (see
    :func:`load_baselines`); ``only`` restricts to the named cases.
    Returns the full report document, with the merged assertion rules
    embedded per case so :func:`reevaluate` can re-gate it later
    without the suite file.
    """
    baselines = baselines or {}
    defaults = suite.get("defaults", {})
    selected = [
        c for c in suite["cases"] if only is None or c["name"] in only
    ]
    if only is not None:
        missing = set(only) - {c["name"] for c in selected}
        if missing:
            raise SuiteError(f"unknown case names: {sorted(missing)}")
    case_docs = []
    for case in selected:
        name = case["name"]
        kind = case.get("kind", "kernel")
        params = _merged_params(defaults, case)
        rules = merge_assertions(defaults, case)
        if progress:
            progress(f"[{kind}] {name} ...")
        metrics = _RUNNERS[kind](params)
        validation = evaluate_case(
            kind, metrics, rules, baselines.get(kind, {}).get(name)
        )
        if progress:
            status = "ok" if validation["passed"] else "FAIL"
            progress(
                f"[{kind}] {name}: {metrics.get('seconds', 0):.3f}s "
                f"({validation['errors']} errors, "
                f"{validation['warnings']} warnings) {status}"
            )
        case_docs.append({
            "name": name,
            "kind": kind,
            "params": {
                k: v for k, v in params.items() if k not in ("name", "kind")
            },
            "assert": rules,
            "metrics": metrics,
            "validation": validation,
        })
    failed = [c for c in case_docs if not c["validation"]["passed"]]
    return {
        "schema": REPORT_SCHEMA,
        "header": report_header(),
        "suite": suite["name"],
        "cases": case_docs,
        "summary": {
            "cases": len(case_docs),
            "passed": len(case_docs) - len(failed),
            "failed": len(failed),
            "errors": sum(c["validation"]["errors"] for c in case_docs),
            "warnings": sum(c["validation"]["warnings"] for c in case_docs),
            "gate_ok": not failed,
        },
    }


def reevaluate(
    report: dict, baselines: dict[str, dict] | None = None
) -> dict[str, object]:
    """Re-run the assertions of a saved report against fresh baselines.

    The benchmarks themselves are *not* re-run -- this is the
    ``bench compare`` path: same metrics, current baseline files.
    """
    if report.get("schema") != REPORT_SCHEMA:
        raise SuiteError(
            f"report schema must be {REPORT_SCHEMA!r}, "
            f"got {report.get('schema')!r}"
        )
    baselines = baselines or {}
    case_docs = []
    for case in report["cases"]:
        kind = case["kind"]
        validation = evaluate_case(
            kind, case["metrics"], case.get("assert", {}),
            baselines.get(kind, {}).get(case["name"]),
        )
        case_docs.append({**case, "validation": validation})
    failed = [c for c in case_docs if not c["validation"]["passed"]]
    return {
        **report,
        "cases": case_docs,
        "summary": {
            "cases": len(case_docs),
            "passed": len(case_docs) - len(failed),
            "failed": len(failed),
            "errors": sum(c["validation"]["errors"] for c in case_docs),
            "warnings": sum(c["validation"]["warnings"] for c in case_docs),
            "gate_ok": not failed,
        },
    }


# ----------------------------------------------------------------------
# baselines
# ----------------------------------------------------------------------

def load_baselines(directory: str = ".") -> dict[str, dict]:
    """Load the committed per-kind baseline files that exist.

    Returns ``{kind: {case_name: metrics}}``; kinds with no file (or
    an unreadable one) are simply absent, which downgrades their
    regression gates to warnings.
    """
    out: dict[str, dict] = {}
    for kind, filename in BASELINE_FILES.items():
        path = os.path.join(directory, filename)
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        cases = doc.get("cases")
        if isinstance(cases, dict):
            out[kind] = cases
    return out


def update_baselines(report: dict, directory: str = ".") -> list[str]:
    """Merge a report's metrics into the committed baseline files.

    Existing entries for other cases are preserved; the touched files
    take the report's own header, so a baseline names the tree that
    measured its numbers.  A report from a dirty or unknown tree is
    refused.  Returns the paths written.
    """
    if report.get("schema") != REPORT_SCHEMA:
        raise SuiteError(
            f"report schema must be {REPORT_SCHEMA!r}, "
            f"got {report.get('schema')!r}"
        )
    header = report.get("header")
    git = header.get("git") if isinstance(header, dict) else None
    if not isinstance(git, dict) or git.get("dirty") is not False:
        raise SuiteError(
            "report was not measured on a clean git tree "
            f"(header.git = {git!r}); re-run the suite from a clean checkout"
        )
    by_kind: dict[str, dict] = {}
    for case in report["cases"]:
        by_kind.setdefault(case["kind"], {})[case["name"]] = case["metrics"]
    written = []
    for kind, cases in sorted(by_kind.items()):
        path = os.path.join(directory, BASELINE_FILES[kind])
        existing: dict = {}
        try:
            with open(path) as fh:
                doc = json.load(fh)
            if isinstance(doc.get("cases"), dict):
                existing = doc["cases"]
        except (OSError, json.JSONDecodeError):
            pass
        existing.update(cases)
        with open(path, "w") as fh:
            json.dump(
                {
                    "schema": BASELINE_SCHEMA,
                    "header": header,
                    "suite": report.get("suite"),
                    "cases": existing,
                },
                fh, indent=1, sort_keys=True,
            )
            fh.write("\n")
        written.append(path)
    return written
