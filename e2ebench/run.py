"""One benchmark for the repository: every end-to-end metric, one command.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload offline-compile --seed 1 --seconds 50 --trace 0
    python3 e2ebench/run.py --self-test
    python3 e2ebench/run.py --workload farm-write --seed 1 --seconds 50 \\
        --trace 0 --record-baseline e2ebench/baselines/farm-write.json

Workloads: ``offline-compile`` and ``farm-write`` (see README.md).  With
``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric; with ``--trace 1`` the layers are
patched for span recording and it holds every per-layer metric instead,
and the spans are written under ``.e2ebench/``.  The run exits non-zero
on any correctness failure, and without a result when the program's
source (``src/repro``) is not next to this directory.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is timed from process start

import argparse
import json
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("offline-compile", "farm-write")

#: End-to-end metrics and their units, in report order.
END_TO_END: list[tuple[str, str]] = [
    ("setup_s", "s"),
    ("compile_ms.p50", "ms"),
    ("compile_ms.p90", "ms"),
    ("alltoall_s", "s"),
    ("degree_ratio", "K/L"),
    ("alltoall_ratio", "K/L"),
    ("comm_ratio", "slots/slots"),
    ("simulate_s", "s"),
    ("peak_rss_mb", "MB"),
    ("capacity_rps", "req/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("amend_ms.p50", "ms"),
    ("amend_ms.p90", "ms"),
]


def commit_stamp() -> dict[str, object]:
    """Commit id and dirty flag of the tree, or ``None``s outside git."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}
    return {"commit": head, "dirty": bool(status.strip())}


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1,
                    help="input seed; keep seeds >= 1000 held out for claims")
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="only check that the oracle catches corrupted output")
    ap.add_argument("--record-baseline", metavar="PATH",
                    help="also write the result to PATH; refused on a dirty tree")
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def run_workload(args: argparse.Namespace, tracer):
    if args.workload == "offline-compile":
        import offline

        return offline.run(args.seed, args.seconds, _T0, tracer)
    import service

    return service.run_farm(args.seed, args.seconds, _T0, tracer)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program source at {SRC}/repro; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    stamp = commit_stamp()
    if args.record_baseline and stamp["dirty"] is not False:
        print("e2ebench: refusing to record a baseline from a dirty or unknown tree",
              file=sys.stderr)
        return 2

    from repro.core import perf
    from repro.topology.torus import Torus2D

    import oracle
    from common import REF_SECONDS, RunTooShort, log, peak_rss_mb

    oracle.self_test(Torus2D(8))
    if args.self_test:
        print("oracle self-test: corrupted schedule and corrupted reply both caught")
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    counters0 = perf.snapshot()
    try:
        out = run_workload(args, tracer)
    except RunTooShort as exc:
        log(f"e2ebench: {exc}; raise --seconds")
        return 1
    except Exception:  # noqa: BLE001 - report, then fail the run
        traceback.print_exc()
        return 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    counters1 = perf.snapshot()
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    wall = time.perf_counter() - _T0
    error_rate = out.failed / max(out.attempted, 1)

    if tracer is not None:
        layers, breakdown = spans.layer_metrics(
            tracer, out.extra.get("classes", {}), wall, out.extra.get("sweeps", 1)
        )
        layers.update(out.layers)
        fits = counters1.get("fit_tests", 0) - counters0.get("fit_tests", 0)
        hits = counters1.get("route_cache_hits", 0) - counters0.get("route_cache_hits", 0)
        miss = counters1.get("route_cache_misses", 0) - counters0.get("route_cache_misses", 0)
        layers["core.kernel.fit_tests"] = float(fits)
        layers["topology.route_cache.hit_ratio"] = hits / (hits + miss) if hits + miss else 0.0
        layers["error_rate"] = error_rate
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit in spans.PER_LAYER}
        trace_path = ROOT / ".e2ebench" / f"trace-{args.workload}-{args.seed}.json"
        tracer.dump(trace_path, {"stamp": stamp, "end_to_end": out.metrics,
                                 "breakdown": breakdown, "samples": out.samples})
        print(f"# per-class breakdown (share of round trip), spans in {trace_path}")
        for cls, shares in breakdown.items():
            top = sorted(((v, k) for k, v in shares.items()
                          if k not in ("requests", "mean_ms", "unattributed")), reverse=True)
            parts = ", ".join(f"{k} {v:.1%}" for v, k in top[:6])
            print(f"#   {cls}: {shares['requests']:.0f} req, {shares['mean_ms']:.2f} ms mean, "
                  f"unattributed {shares['unattributed']:.1%}; {parts}")
    else:
        missing = [name for name, _ in END_TO_END if name not in out.metrics]
        if missing:
            log(f"e2ebench: workload produced no value for {missing}")
            return 1
        metrics = {name: {"value": float(out.metrics[name]), "unit": unit}
                   for name, unit in END_TO_END}

    print(f"# e2ebench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} commit={stamp['commit']} dirty={stamp['dirty']}")
    pace = out.extra.get("pace")
    if pace is not None and pace.readings:
        print(f"# pace: {len(pace.readings)} readings of the reference kernel, median "
              f"{statistics.median(pace.readings) * 1e3:.3f} ms against "
              f"{REF_SECONDS * 1e3:.3f} ms at the reference speed; end-to-end times "
              f"except setup_s are scaled to the reference speed, per-layer times are not")
    for name, m in metrics.items():
        n = out.samples.get(name.split(".p")[0] if ".p" in name else name)
        note = f"  (n={n})" if n else ""
        print(f"#   {name:40s} {m['value']:14.4f} {m['unit']}{note}")
    print(f"#   attempted {out.attempted}, failed {out.failed}, error_rate {error_rate:.4g}")
    for failure in out.failures:
        print(f"#   FAILED: {failure}")
    result = {"correct": out.failed == 0, "attempted": max(out.attempted, 1),
              "failed": out.failed, "metrics": metrics}
    if args.record_baseline:
        path = Path(args.record_baseline)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"stamp": stamp, "workload": args.workload,
                                    "seed": args.seed, "seconds": args.seconds,
                                    "samples": out.samples, **result}, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if out.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
