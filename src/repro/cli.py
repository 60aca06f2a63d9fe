"""Command-line interface: regenerate any paper table or figure.

Examples::

    python -m repro.cli table1 --patterns 100      # the paper's full protocol
    python -m repro.cli table3
    python -m repro.cli table5 --p3m-grids 32 64
    python -m repro.cli fig3
    python -m repro.cli aapc --width 8 --height 8
    python -m repro.cli schedule --spec '{"pattern": "hypercube", "nodes": 64}'
    python -m repro.cli all                        # quick pass over everything
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis import experiments as exp
from repro.analysis.parallel import resolve_workers
from repro.analysis.tables import format_table
from repro.simulator.params import SimParams


def _workers_arg(value: str) -> int:
    try:
        return resolve_workers(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _nonneg_arg(value: str) -> int:
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}") from None
    if parsed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {parsed}")
    return parsed


def _pos_arg(value: str) -> int:
    parsed = _nonneg_arg(value)
    if parsed == 0:
        raise argparse.ArgumentTypeError("must be >= 1, got 0")
    return parsed


def _print_table1(args) -> None:
    rows = exp.table1(
        patterns_per_row=args.patterns, seed=args.seed,
        workers=getattr(args, "workers", None),
    )
    data = [
        (
            int(r["connections"]), r["greedy"], r["coloring"], r["aapc"],
            r["combined"], f"{r['improvement_pct']:.1f}%",
            "/".join(str(v) for v in exp.PAPER_TABLE1[int(r["connections"])]),
        )
        for r in rows
    ]
    print(format_table(
        ["conns", "greedy", "coloring", "aapc", "combined", "improv", "paper(g/c/a/comb)"],
        data,
        title=f"Table 1: random patterns ({args.patterns} patterns/row; paper used 100)",
    ))


def _print_table2(args) -> None:
    rows = exp.table2(
        samples=args.samples, seed=args.seed,
        workers=getattr(args, "workers", None),
    )
    data = []
    for r in rows:
        if r["patterns"] == 0:
            data.append((f"{int(r['bin_low'])}-{int(r['bin_high'])}", 0, "-", "-", "-", "-", "-"))
            continue
        data.append((
            f"{int(r['bin_low'])}-{int(r['bin_high'])}", int(r["patterns"]),
            r["greedy"], r["coloring"], r["aapc"], r["combined"],
            f"{r['improvement_pct']:.1f}%",
        ))
    print(format_table(
        ["conns", "n", "greedy", "coloring", "aapc", "combined", "improv"],
        data,
        title=f"Table 2: random 3-D redistributions ({args.samples} samples; paper used 500)",
    ))


def _print_table3(args) -> None:
    rows = exp.table3(seed=args.seed)
    data = [
        (
            r["pattern"], r["connections"], r["greedy"], r["coloring"],
            r["aapc"], r["combined"],
            "/".join(str(v) for v in exp.PAPER_TABLE3[r["pattern"]][1:]),
        )
        for r in rows
    ]
    print(format_table(
        ["pattern", "conns", "greedy", "coloring", "aapc", "combined", "paper(g/c/a/comb)"],
        data,
        title="Table 3: frequently used patterns (greedy = mean over random orders)",
    ))


def _print_table4(args) -> None:
    rows = exp.table4()
    data = [
        (r["pattern"], r["type"], r["connections"], r["description"])
        for r in rows
    ]
    print(format_table(
        ["pattern", "type", "conns", "description"],
        data,
        title="Table 4: application communication patterns",
    ))


def _print_table5(args) -> None:
    params = SimParams(seed=args.seed)
    rows = exp.table5(
        params=params,
        gs_grids=tuple(args.gs_grids),
        p3m_grids=tuple(args.p3m_grids),
    )
    data = []
    for r in rows:
        paper = exp.PAPER_TABLE5.get((r["pattern"], r["problem"]))
        data.append((
            r["pattern"], r["problem"], r["compiled_degree"], r["compiled"],
            r["dynamic_1"], r["dynamic_2"], r["dynamic_5"], r["dynamic_10"],
            "/".join(str(v) for v in paper) if paper else "-",
        ))
    print(format_table(
        ["pattern", "problem", "K", "compiled", "dyn1", "dyn2", "dyn5", "dyn10",
         "paper(comp/d1/d2/d5/d10)"],
        data,
        title="Table 5: compiled vs dynamic communication time (slots)",
    ))


def _print_fig1(args) -> None:
    print("Fig. 1 example configuration on the 4x4 torus:", exp.fig1())


def _print_fig3(args) -> None:
    print("Fig. 3 greedy order sensitivity:", exp.fig3())


def _print_ablation(args) -> None:
    rows = exp.ablation_schedulers(patterns_per_row=args.patterns, seed=args.seed)
    headers = ["conns", *exp.ABLATION_SCHEDULERS]
    data = [
        (int(r["connections"]), *(r[s] for s in exp.ABLATION_SCHEDULERS))
        for r in rows
    ]
    print(format_table(headers, data, title="Scheduler ablation (mean degree)"))


def _print_aapc(args) -> None:
    from repro.aapc.phases import aapc_decomposition
    from repro.topology.torus import Torus2D

    topo = Torus2D(args.width, args.height)
    dec = aapc_decomposition(topo)
    print(
        f"AAPC decomposition for {topo.signature}: {dec.num_phases} phases "
        f"(lower bound {dec.lower_bound()}), built by {dec.schedule.scheduler}"
    )


def _print_schedule(args) -> None:
    from repro.compiler.recognition import recognize
    from repro.core.paths import route_requests
    from repro.core.registry import get_scheduler
    from repro.topology.torus import Torus2D

    topo = Torus2D(args.width, args.height)
    requests = recognize(json.loads(args.spec))
    connections = route_requests(topo, requests)
    for name in ("greedy", "coloring", "aapc", "combined"):
        schedule = get_scheduler(name)(connections, topo)
        schedule.validate(connections)
        print(f"{name:10s} degree={schedule.degree}")


def _print_programs(args) -> None:
    rows = exp.table5_programs(params=SimParams(seed=args.seed))
    print(format_table(
        ["program", "phases", "per-phase K", "compiled", "dyn1", "dyn2",
         "dyn5", "dyn10"],
        [
            (
                r["program"], r["phases"],
                "/".join(str(k) for k in r["degrees"]), r["compiled"],
                r["dynamic_1"], r["dynamic_2"], r["dynamic_5"], r["dynamic_10"],
            )
            for r in rows
        ],
        title="Whole-program communication time (slots per iteration)",
    ))


def _print_trace(args) -> None:
    from repro.compiler.recognition import recognize
    from repro.simulator.dynamic import ProtocolTrace, simulate_dynamic
    from repro.topology.torus import Torus2D

    topo = Torus2D(args.width, args.height)
    requests = recognize(json.loads(args.spec))
    trace = ProtocolTrace(record_hops=not args.no_hops)
    result = simulate_dynamic(
        topo, requests, args.degree, SimParams(seed=args.seed), trace=trace
    )
    trace.check_wellformed()
    print(trace.render(limit=args.limit))
    print(
        f"\n{len(result.messages)} messages in {result.completion_time} slots, "
        f"{result.total_retries} failed reservations"
    )


def _parse_endpoints(spec: str) -> list[tuple[str, int]]:
    """``host:p1,host:p2`` -> endpoint list (host defaults to loopback)."""
    endpoints = []
    for part in spec.split(","):
        host, _, port = part.strip().rpartition(":")
        endpoints.append((host or "127.0.0.1", int(port)))
    return endpoints


def _compile_artifact(args) -> None:
    from repro.compiler.recognition import recognize
    from repro.compiler.serialize import save_artifact, schedule_from_dict
    from repro.service import ArtifactCache, compile_pattern
    from repro.topology.torus import Torus2D

    topo = Torus2D(args.width, args.height)
    if args.routers:
        # Remote compile through the farm's router endpoint list: the
        # client rotates to a surviving router on any transport failure.
        from repro.service.client import CompileClient

        topology = {"kind": "torus", "width": args.width,
                    "height": args.height}
        with CompileClient(endpoints=_parse_endpoints(args.routers)) as cc:
            reply = cc.compile(
                topology, pattern=json.loads(args.spec),
                scheduler=args.algorithm,
            )
        print(
            f"compiled remotely via {args.routers} "
            f"({args.algorithm}, cache {reply.get('cache', '?')}, "
            f"{cc.failovers} router failover(s))"
        )
        if args.output:
            schedule, _ = schedule_from_dict(topo, reply["schedule"])
            save_artifact(args.output, topo, schedule, name=args.spec)
            print(f"wrote {args.output}")
        return
    requests = recognize(json.loads(args.spec))
    cache = ArtifactCache(args.cache) if args.cache else None
    result = compile_pattern(
        topo, requests, cache=cache, scheduler=args.algorithm
    )
    outcome = f"cache {result.cache}" if cache is not None else "no cache"
    print(
        f"compiled {len(requests)} connections at degree {result.degree} "
        f"({args.algorithm}, {outcome}, {result.seconds * 1e3:.1f} ms)"
    )
    if args.output:
        schedule, _ = schedule_from_dict(topo, result.schedule_doc)
        save_artifact(args.output, topo, schedule, name=args.spec)
        print(f"wrote {args.output}")


def _print_protect(args) -> None:
    from collections import Counter

    from repro.compiler.recognition import recognize
    from repro.core.protection import ProtectionError
    from repro.service import ArtifactCache
    from repro.service.protect import protect_pattern
    from repro.topology.torus import Torus2D

    topo = Torus2D(args.width, args.height)
    requests = recognize(json.loads(args.spec))
    cache = ArtifactCache(args.cache) if args.cache else None
    result = protect_pattern(
        topo, requests, cache=cache, scheduler=args.algorithm
    )
    protected = result.protected
    report = protected.overhead_report()
    outcome = f"cache {result.cache}" if cache is not None else "no cache"
    print(
        f"protected {len(requests)} connections at degree "
        f"{report['base_degree']} ({args.algorithm}, {outcome}, "
        f"{result.seconds * 1e3:.1f} ms)"
    )
    print(format_table(
        ["metric", "value"],
        [
            ("fault scenarios", report["scenarios"]),
            ("covered (failover-capable)", report["covered"]),
            ("uncovered (reactive fallback)", report["uncovered"]),
            ("degree-preserving repairs", report["degree_preserving"]),
            ("max ΔK", report["max_delta_k"]),
            ("mean ΔK", f"{report['mean_delta_k']:.2f}"),
        ],
        title=(
            f"Single-fiber protection of {args.spec} on the "
            f"{args.width}x{args.height} torus"
        ),
    ))
    histogram = Counter(r["delta_k"] for r in report["rows"])
    print(format_table(
        ["ΔK", "scenarios"],
        sorted(histogram.items()),
        title="Backup-frame overhead histogram",
    ))
    worst = sorted(
        report["rows"], key=lambda r: (-r["delta_k"], -r["affected"])
    )[:5]
    if worst and worst[0]["delta_k"]:
        print(format_table(
            ["link", "kind", "affected", "ΔK"],
            [(r["link"], r["kind"], r["affected"], r["delta_k"])
             for r in worst],
            title="Worst scenarios",
        ))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(result.doc, fh, indent=1, sort_keys=True)
        print(f"wrote {args.output}")
    if args.verify:
        from repro.core.configuration import ScheduleValidationError

        try:
            protected.validate()
        except (ProtectionError, ScheduleValidationError) as exc:
            print(f"VERIFY FAILED: {exc}", file=sys.stderr)
            raise SystemExit(70)  # EX_SOFTWARE: an illegal backup plan
        print(
            "verified: every covered backup schedule is conflict-free on "
            "its faulted topology and covers all connections"
        )


def _print_faults(args) -> None:
    params = SimParams(seed=args.seed).with_(
        recompile_latency=args.recompile_latency,
        failover_latency=args.failover_latency,
    )
    cache = None
    if args.cache:
        from repro.service import ArtifactCache

        cache = ArtifactCache(args.cache)
    rows = exp.fault_campaign(
        pattern=args.pattern,
        size=args.size,
        degree=args.degree,
        fault_counts=tuple(args.faults),
        repair_after=args.repair_after,
        protocol=args.protocol,
        params=params,
        seed=args.seed,
        cache=cache,
        recovery=args.recovery,
    )
    data = [
        (
            r["faults"], r["compiled"], f"{r['compiled_slowdown_pct']:+.1f}%",
            r["compiled_ttr"], int(r["compiled_degree_inflation"]),
            int(r["compiled_failovers"]), int(r["compiled_reschedules"]),
            int(r["compiled_lost"]), r["dynamic"],
            f"{r['dynamic_slowdown_pct']:+.1f}%", r["dynamic_ttr"],
            int(r["dynamic_fault_retries"]), int(r["dynamic_lost"]),
        )
        for r in rows
    ]
    recovery_note = (
        f"failover latency {args.failover_latency}"
        if args.recovery == "protected"
        else f"recompile latency {args.recompile_latency}"
    )
    print(format_table(
        ["faults", "comp", "comp%", "comp-ttr", "comp-K+", "comp-fo",
         "comp-rs", "comp-lost", "dyn", "dyn%", "dyn-ttr", "dyn-fretry",
         "dyn-lost"],
        data,
        title=(
            f"Fault campaign: {args.pattern} on the "
            f"{args.size}x{args.size} torus "
            f"(dynamic K={args.degree}, {args.protocol} protocol, "
            f"{args.recovery} recovery, {recovery_note})"
        ),
    ))
    if cache is not None:
        s = cache.stats
        print(
            f"\nartifact cache: {s.hits} hits / {s.misses} misses "
            f"({s.stores} stored)"
        )
    if args.output:
        from repro.analysis.benchsuite import report_header

        payload = {
            "schema": "repro-tdm-faults/2",
            "header": report_header(),
            "rows": rows,
        }
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"\nwrote {args.output}")


def _serve(args) -> None:
    import asyncio

    from repro.service.policy import ServerPolicy
    from repro.service.server import CompileServer

    async def run() -> None:
        server = CompileServer(
            cache=args.cache,
            workers=args.workers if args.workers is not None else 0,
            host=args.host,
            port=args.port,
            socket_path=args.socket,
            scheduler=args.algorithm,
            policy=ServerPolicy(
                request_deadline=args.deadline,
                max_pending=args.max_pending,
            ),
            amend_streams=args.amend_streams,
        )
        await server.start()
        where = server.address
        if isinstance(where, tuple):
            where = f"{where[0]}:{where[1]}"
        cache_where = args.cache or "memory only"
        print(f"compile server on {where} (cache: {cache_where})", flush=True)
        try:
            await server.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            await server.shutdown()

    asyncio.run(run())


def _print_chaos(args) -> None:
    import tempfile

    from repro.service.chaos import ChaosConfig, run_chaos_campaign

    config = ChaosConfig(
        drop_rate=args.drop,
        delay_rate=args.delay,
        delay_seconds=args.delay_seconds,
        truncate_rate=args.truncate,
        garble_rate=args.garble,
        seed=args.seed,
    )
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as fallback:
        report = run_chaos_campaign(
            args.requests,
            config=config,
            cache_dir=args.cache or fallback,
            kill_writer=not args.no_kill_writer,
            seed=args.seed,
            deadline=args.deadline,
        )
    typed = sum(report["typed_failures"].values())
    rows = [
        ("requests", report["requests"], ""),
        ("completed byte-identical", report["completed"], ""),
        ("typed failures", typed,
         ", ".join(f"{k}={v}" for k, v in
                   sorted(report["typed_failures"].items())) or "-"),
        ("UNTYPED failures", len(report["untyped_failures"]),
         "; ".join(report["untyped_failures"][:3]) or "-"),
        ("CORRUPTED replies", len(report["corrupted"]), ""),
        ("client retries", report["client_retries"], ""),
        ("frames mauled", report["proxy"]["frames"],
         f"drop={report['proxy']['dropped']} "
         f"delay={report['proxy']['delayed']} "
         f"trunc={report['proxy']['truncated']} "
         f"garble={report['proxy']['garbled']}"),
        ("server shed / deadline", report["server"]["shed"],
         f"cancels={report['server']['deadline_cancels']}"),
        ("cache verify scan", report["verify_scan"]["ok"],
         f"of {report['verify_scan']['checked']} "
         f"(quarantined: {len(report['verify_scan']['quarantined'])})"),
    ]
    if "kill_mid_write" in report:
        k = report["kill_mid_write"]
        rows.append((
            "kill-mid-write recovery", k["stats"]["recovered"],
            f"quarantined={k['stats']['quarantined']} "
            f"torn-served={k['torn_digest_served']}",
        ))
    print(format_table(
        ["check", "count", "detail"],
        rows,
        title=(
            f"Chaos campaign: {args.requests} requests through "
            f"drop/delay/truncate/garble proxy (seed {args.seed}) -- "
            + ("INVARIANT HOLDS" if report["ok"] else "INVARIANT VIOLATED")
        ),
    ))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"\nwrote {args.output}")
    if not report["ok"]:
        raise SystemExit(70)  # EX_SOFTWARE: the service corrupted data


def _print_farm_ha(args) -> None:
    from repro.service.chaos import run_farm_ha_campaign

    report = run_farm_ha_campaign(
        args.requests,
        nodes=args.nodes,
        replication=args.replication,
        seed=args.seed,
        cache_dir=args.cache,
        drop_rate=args.drop_rate,
        max_restore_sweeps=args.max_sweeps,
        amend_steps=args.amend_steps,
    )
    typed = sum(report["typed_failures"].values())
    phases = report["phases"]
    repl = report["replication_stats"]
    rows = [
        ("scored requests", report["attempted"],
         f"{report['nodes']} nodes, replication {report['replication']}"),
        ("completed", report["completed"],
         f"availability {report['availability']:.3f}"),
        ("typed failures", typed,
         ", ".join(f"{k}={v}" for k, v in
                   sorted(report["typed_failures"].items())) or "-"),
        ("UNTYPED failures", len(report["untyped_failures"]),
         "; ".join(report["untyped_failures"][:3]) or "-"),
        ("CORRUPTED replies", len(report["corrupted"]), ""),
        ("replica pushes dropped", phases["drop"]["pushes_dropped"],
         f"restored in {phases['drop']['restore_sweeps']} sweep(s)"),
        ("partition", "->".join(phases["partition"]["pair"]),
         f"restored in {phases['partition']['restore_sweeps']} sweep(s)"),
        ("amend failover", phases["amend_failover"]["killed"],
         f"epoch {phases['amend_failover']['epoch']}, "
         f"takeovers {phases['amend_failover']['takeovers']}"),
        ("rejoin", phases["rejoin"]["node"],
         f"{phases['rejoin']['owned_digests']} owned digests, "
         f"{phases['rejoin']['missing_after']} still missing"),
        ("leader promote", phases["promote"]["promoted_router"],
         f"{phases['promote']['promote_seconds']:.2f}s to epoch "
         f"{phases['promote']['epoch']}, stale pushes fenced "
         f"{phases['promote']['node_stale_epoch_rejections']}x"),
        ("graceful drain", phases["drain"]["node"],
         f"{phases['drain']['streams_handed_off']} streams handed off, "
         f"{phases['drain']['adoptions']} adopted, "
         f"{phases['drain']['replicas_repushed']} replicas repushed "
         f"({phases['drain']['repush_retries']} retries), "
         f"{len(phases['drain']['under_replicated'])} under-replicated"),
        ("anti-entropy", repl["repaired"],
         f"repaired over {repl['anti_entropy_rounds']} rounds; "
         f"push retries {repl['retries']}"),
        ("gates failed", sum(1 for ok in report["gates"].values() if not ok),
         ", ".join(sorted(k for k, ok in report["gates"].items()
                          if not ok)) or "-"),
    ]
    print(format_table(
        ["check", "count", "detail"],
        rows,
        title=(
            f"Farm HA campaign: drop/partition/kill-primary/rejoin/"
            f"router-restart/leader-kill/drain (seed {args.seed}) -- "
            + ("ALL GATES HOLD" if report["ok"] else "GATE VIOLATED")
        ),
    ))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"\nwrote {args.output}")
    if not report["ok"]:
        raise SystemExit(70)  # EX_SOFTWARE: the farm failed to self-heal


def _print_farm(args) -> None:
    from repro.service.chaos import run_farm_chaos_campaign

    if args.ha:
        _print_farm_ha(args)
        return

    report = run_farm_chaos_campaign(
        args.requests,
        nodes=args.nodes,
        replication=args.replication,
        kill_after=args.kill_after,
        seed=args.seed,
        cache_dir=args.cache,
    )
    typed = sum(report["typed_failures"].values())
    reb = report["rebalance"]
    rows = [
        ("requests", report["requests"],
         f"{report['nodes']} nodes, replication {report['replication']}"),
        ("completed byte-identical", report["completed"], ""),
        ("typed failures", typed,
         ", ".join(f"{k}={v}" for k, v in
                   sorted(report["typed_failures"].items())) or "-"),
        ("UNTYPED failures", len(report["untyped_failures"]),
         "; ".join(report["untyped_failures"][:3]) or "-"),
        ("CORRUPTED replies", len(report["corrupted"]), ""),
        ("node killed", reb["killed"],
         f"at request {report.get('killed_at', '-')}"),
        ("router failovers", reb["failovers"],
         f"map v{reb['map_version']}, {reb['live_nodes']} live"),
        ("victim demoted", int(reb["victim_removed"]),
         f"survivors adopted: {reb['survivors_adopted']}"),
        ("client routing", report["client"]["direct"],
         f"direct; via router: {report['client']['via_router']}, "
         f"map refreshes: {report['client']['map_refreshes']}"),
        ("replication", report["farm"]["replicas_pushed"],
         f"pushed; read repairs: {report['farm']['read_repairs']}, "
         f"wrong-shard redirects: {report['farm']['wrong_shard']}"),
    ]
    print(format_table(
        ["check", "count", "detail"],
        rows,
        title=(
            f"Farm chaos campaign: {args.requests} requests, "
            f"shard killed mid-run (seed {args.seed}) -- "
            + ("INVARIANT HOLDS" if report["ok"] else "INVARIANT VIOLATED")
        ),
    ))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"\nwrote {args.output}")
    if not report["ok"]:
        raise SystemExit(70)  # EX_SOFTWARE: the farm corrupted data


def _amend_service_campaign(args) -> dict:
    """Random churn pushed through a live server's ``amend`` verb.

    Spins up an in-process compile server on a unix socket, opens an
    amend stream, and drives ``--steps`` add/remove updates through the
    wire protocol.  Every epoch's returned schedule document is rebuilt
    and re-validated client-side (``schedule_from_dict`` re-routes and
    re-checks conflict-freeness, so a bad schedule cannot hide), and
    one deliberately stale epoch checks the conflict path.
    """
    import asyncio
    import random
    import tempfile
    from time import perf_counter

    from repro.compiler.serialize import ArtifactError, schedule_from_dict
    from repro.core.configuration import ScheduleValidationError
    from repro.service.errors import EpochConflict
    from repro.service.server import CompileServer
    from repro.service.client import AsyncCompileClient
    from repro.service.specs import topology_to_spec
    from repro.topology.torus import Torus2D

    topo = Torus2D(args.width)
    spec = topology_to_spec(topo)
    n = topo.num_nodes
    rng = random.Random(args.seed)
    pairs = [[i, (i + 1) % n] for i in range(n)]

    async def run() -> dict:
        validation_errors = 0
        conflicts = 0
        actions: dict[str, int] = {}
        latencies: list[float] = []
        with tempfile.TemporaryDirectory(prefix="repro-amend-") as tmp:
            server = CompileServer(
                cache=tmp, socket_path=f"{tmp}/amend.sock",
                scheduler=args.algorithm,
            )
            await server.start()
            client = AsyncCompileClient(socket_path=f"{tmp}/amend.sock")
            try:
                reply = await client.amend(spec, pairs=pairs)
                root, epoch = reply["root"], reply["epoch"]
                live = [list(p) for p in pairs]
                for _ in range(args.steps):
                    removal = live.pop(rng.randrange(len(live)))
                    src = rng.randrange(n)
                    dst = rng.randrange(n - 1)
                    if dst >= src:
                        dst += 1
                    t0 = perf_counter()
                    reply = await client.amend(
                        spec, root=root, epoch=epoch,
                        add=[[src, dst]], remove=[removal[:2]],
                    )
                    latencies.append(perf_counter() - t0)
                    epoch = reply["epoch"]
                    live.append([src, dst])
                    actions[reply["action"]] = actions.get(reply["action"], 0) + 1
                    try:
                        schedule_from_dict(topo, reply["schedule"])
                    except (ArtifactError, ScheduleValidationError):
                        validation_errors += 1
                # The conflict path: a stale epoch must be refused with
                # the current epoch attached, not silently fork.
                try:
                    await client.amend(
                        spec, root=root, epoch=0, add=[[0, 1]]
                    )
                except EpochConflict as exc:
                    conflicts = 1
                    assert exc.current_epoch == epoch
            finally:
                await client.close()
                await server.shutdown()
        latencies.sort()
        return {
            "width": args.width,
            "steps": args.steps,
            "epochs": epoch,
            "validation_errors": validation_errors,
            "conflict_detected": conflicts,
            "actions": actions,
            "amend_mean_us": 1e6 * sum(latencies) / len(latencies),
            "amend_median_us": 1e6 * latencies[len(latencies) // 2],
        }

    return asyncio.run(run())


def _print_amend(args) -> None:
    if args.via_service:
        report = _amend_service_campaign(args)
        print(format_table(
            ["metric", "value"],
            [
                ("epochs", report["epochs"]),
                ("validation errors", report["validation_errors"]),
                ("stale epoch refused", "yes" if report["conflict_detected"]
                 else "NO"),
                ("actions", ", ".join(
                    f"{k}={v}" for k, v in sorted(report["actions"].items()))),
                ("amend mean", f"{report['amend_mean_us']:.0f} us"),
                ("amend median", f"{report['amend_median_us']:.0f} us"),
            ],
            title=(
                f"Service churn: {args.steps} updates through the amend "
                f"verb on a {args.width}x{args.width} torus (seed {args.seed})"
            ),
        ))
        ok = (report["validation_errors"] == 0
              and report["conflict_detected"] == 1)
    else:
        report = exp.churn_campaign(
            sizes=tuple(args.sizes),
            pattern=args.pattern,
            steps=args.steps,
            update_size=args.update_size,
            scheduler=args.algorithm,
            seed=args.seed,
        )
        rows = [
            (
                f"{r['size']}x{r['size']}", r["connections"],
                f"{r['amend_mean_us']:.0f}", f"{r['amend_median_us']:.0f}",
                ", ".join(f"{k}={v}" for k, v in sorted(r["actions"].items())),
                r["degree"], r["full_recompile_degree"],
                r["validation_errors"],
            )
            for r in report["rows"]
        ]
        s = report["summary"]
        print(format_table(
            ["torus", "conns", "mean us", "median us", "actions", "K",
             "K full", "bad"],
            rows,
            title=(
                f"Churn campaign: {args.steps} x{args.update_size} updates "
                f"per size, pattern {report['pattern']!r} -- flatness "
                f"{s['flatness']:.2f}x over {s['pattern_growth']:.0f}x "
                f"pattern growth"
            ),
        ))
        ok = s["validation_errors"] == 0 and s["bound_ok"]
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
        print(f"\nwrote {args.output}")
    if not ok:
        print("repro-tdm amend: campaign invariants FAILED", file=sys.stderr)
        raise SystemExit(70)  # EX_SOFTWARE: an invariant was breached


def _print_bench(args) -> None:
    from repro.analysis import benchsuite as bs

    try:
        report = bs.run_suite(
            bs.load_suite(args.suite),
            only=args.only or None,
            progress=lambda msg: print(msg, flush=True),
        )
    except bs.SuiteError as exc:
        print(f"repro-tdm bench: {exc}", file=sys.stderr)
        raise SystemExit(65)  # EX_DATAERR: malformed suite

    data = []
    for case in report["cases"]:
        m, v = case["metrics"], case["validation"]
        data.append((
            case["name"], case["kind"],
            f"{m.get('seconds', 0.0):.3f}s",
            f"{m['first_seconds']:.3f}s" if "first_seconds" in m else "-",
            f"{m['throughput']:,.0f}" if "throughput" in m else "-",
            int(m["degree"]) if "degree" in m else "-",
            v["errors"], v["warnings"],
            "pass" if v["passed"] else "FAIL",
        ))
    s = report["summary"]
    print(format_table(
        ["case", "kind", "best", "first", "conns/s", "K", "err", "warn",
         "result"],
        data,
        title=(
            f"Bench suite {report['suite']!r}: {s['passed']}/{s['cases']} "
            f"cases passed ({s['errors']} errors, {s['warnings']} warnings)"
        ),
    ))
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
        print(f"\nwrote {args.report}")
    if not s["gate_ok"] and not args.no_gate:
        print("repro-tdm bench: assertion gate FAILED", file=sys.stderr)
        raise SystemExit(70)  # EX_SOFTWARE: a perf gate was breached


def _print_all(args) -> None:
    for fn in (_print_table1, _print_table2, _print_table3, _print_table4,
               _print_table5, _print_fig1, _print_fig3):
        fn(args)
        print()


def main(argv: list[str] | None = None) -> int:
    """Entry point (installed as ``repro-tdm``)."""
    parser = argparse.ArgumentParser(
        prog="repro-tdm",
        description="Reproduce the tables and figures of 'Compiled "
        "Communication for All-optical TDM Networks' (SC'96).",
    )
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("table1", help="random patterns")
    p1.add_argument("--patterns", type=int, default=20, help="patterns per row (paper: 100)")
    p1.add_argument("--workers", type=_workers_arg, default=None,
                    help="worker processes (an int, or 'auto' = one per CPU)")
    p1.set_defaults(fn=_print_table1)

    p2 = sub.add_parser("table2", help="random redistributions")
    p2.add_argument("--samples", type=int, default=100, help="redistributions (paper: 500)")
    p2.add_argument("--workers", type=_workers_arg, default=None,
                    help="worker processes (an int, or 'auto' = one per CPU)")
    p2.set_defaults(fn=_print_table2)

    p3 = sub.add_parser("table3", help="frequently used patterns")
    p3.set_defaults(fn=_print_table3)

    p4 = sub.add_parser("table4", help="application pattern inventory")
    p4.set_defaults(fn=_print_table4)

    p5 = sub.add_parser("table5", help="compiled vs dynamic simulation")
    p5.add_argument("--gs-grids", type=int, nargs="+", default=[64, 128, 256])
    p5.add_argument("--p3m-grids", type=int, nargs="+", default=[32, 64])
    p5.set_defaults(fn=_print_table5)

    sub.add_parser("fig1", help="Fig. 1 configuration check").set_defaults(fn=_print_fig1)
    sub.add_parser("fig3", help="Fig. 3 order sensitivity").set_defaults(fn=_print_fig3)

    pa = sub.add_parser("ablation", help="extra-scheduler comparison")
    pa.add_argument("--patterns", type=int, default=3)
    pa.set_defaults(fn=_print_ablation)

    pq = sub.add_parser("aapc", help="AAPC decomposition stats")
    pq.add_argument("--width", type=int, default=8)
    pq.add_argument("--height", type=int, default=8)
    pq.set_defaults(fn=_print_aapc)

    ps = sub.add_parser("schedule", help="schedule a JSON pattern spec")
    ps.add_argument("--spec", required=True, help='e.g. {"pattern": "ring", "nodes": 64}')
    ps.add_argument("--width", type=int, default=8)
    ps.add_argument("--height", type=int, default=8)
    ps.set_defaults(fn=_print_schedule)

    sub.add_parser(
        "programs", help="whole-program compiled vs dynamic comparison"
    ).set_defaults(fn=_print_programs)

    pt = sub.add_parser("trace", help="protocol trace of a dynamic run")
    pt.add_argument("--spec", required=True)
    pt.add_argument("--degree", type=int, default=1)
    pt.add_argument("--limit", type=int, default=60)
    pt.add_argument("--no-hops", action="store_true")
    pt.add_argument("--width", type=int, default=8)
    pt.add_argument("--height", type=int, default=8)
    pt.set_defaults(fn=_print_trace)

    pc = sub.add_parser("compile", help="compile a pattern spec to an artifact file")
    pc.add_argument("--spec", required=True)
    pc.add_argument("--output", default=None, help="artifact JSON path")
    pc.add_argument("--algorithm", default="combined")
    pc.add_argument("--cache", default=None,
                    help="artifact cache directory (reused across runs)")
    pc.add_argument("--width", type=int, default=8)
    pc.add_argument("--height", type=int, default=8)
    pc.add_argument("--routers", default=None, metavar="HOST:P1,HOST:P2",
                    help="compile remotely via a farm router endpoint "
                         "list (fails over to a surviving router)")
    pc.set_defaults(fn=_compile_artifact)

    pv = sub.add_parser("serve", help="run the batch compile server")
    pv.add_argument("--socket", default=None, help="unix socket path")
    pv.add_argument("--host", default="127.0.0.1")
    pv.add_argument("--port", type=int, default=7853)
    pv.add_argument("--cache", default=None, help="artifact cache directory")
    pv.add_argument("--workers", type=_workers_arg, default=None,
                    help="compile worker processes (default: in-process)")
    pv.add_argument("--algorithm", default="combined")
    pv.add_argument("--deadline", type=float, default=60.0,
                    help="per-request compile budget in seconds")
    pv.add_argument("--max-pending", type=_pos_arg, default=64,
                    help="admission high-water mark before load shedding")
    pv.add_argument("--amend-streams", type=_pos_arg, default=None,
                    help="LRU cap on live amend streams (default 256)")
    pv.set_defaults(fn=_serve)

    px = sub.add_parser(
        "chaos",
        help="fault-injection campaign against the compile service",
    )
    px.add_argument("--requests", type=_pos_arg, default=200)
    px.add_argument("--drop", type=float, default=0.05,
                    help="per-frame probability of drop + connection cut")
    px.add_argument("--delay", type=float, default=0.10,
                    help="per-frame probability of an injected delay")
    px.add_argument("--delay-seconds", type=float, default=0.05,
                    help="max injected delay per frame")
    px.add_argument("--truncate", type=float, default=0.05,
                    help="per-frame probability of truncation + cut")
    px.add_argument("--garble", type=float, default=0.05,
                    help="per-frame probability of byte corruption")
    px.add_argument("--deadline", type=float, default=30.0,
                    help="server-side per-request budget")
    px.add_argument("--cache", default=None,
                    help="artifact cache dir (default: fresh temp dir)")
    px.add_argument("--no-kill-writer", action="store_true",
                    help="skip the kill-mid-write cache crash test")
    px.add_argument("--output", default=None, help="write the report as JSON")
    px.set_defaults(fn=_print_chaos)

    pfm = sub.add_parser(
        "farm",
        help="node-kill chaos campaign against the sharded compile farm",
    )
    pfm.add_argument("--requests", type=_pos_arg, default=100)
    pfm.add_argument("--nodes", type=_pos_arg, default=3,
                     help="farm nodes behind the shard router")
    pfm.add_argument("--replication", type=_pos_arg, default=2,
                     help="replicas per artifact")
    pfm.add_argument("--kill-after", type=float, default=0.5,
                     help="fraction of the campaign before the shard kill")
    pfm.add_argument("--seed", type=int, default=0)
    pfm.add_argument("--cache", default=None,
                     help="per-node artifact cache root (default: memory)")
    pfm.add_argument("--ha", action="store_true",
                     help="run the high-availability campaign instead: "
                          "replica-push loss, partition, kill-primary-"
                          "mid-amend, rejoin, router restart")
    pfm.add_argument("--drop-rate", type=float, default=0.5,
                     help="[--ha] per-push replica drop probability")
    pfm.add_argument("--max-sweeps", type=_pos_arg, default=3,
                     help="[--ha] anti-entropy sweeps allowed to restore R")
    pfm.add_argument("--amend-steps", type=_pos_arg, default=6,
                     help="[--ha] epoch updates before the primary kill")
    pfm.add_argument("--output", default=None, help="write the report as JSON")
    pfm.set_defaults(fn=_print_farm)

    pf = sub.add_parser(
        "faults",
        help="runtime fiber-cut campaign: compiled vs dynamic degradation",
    )
    pf.add_argument(
        "--pattern", default="all-to-all",
        choices=list(exp.FAULT_CAMPAIGN_PATTERNS),
    )
    pf.add_argument("--size", type=int, default=4, help="elements per message")
    pf.add_argument("--degree", type=int, default=2,
                    help="dynamic network's multiplexing degree")
    pf.add_argument("--faults", type=int, nargs="+", default=[0, 1, 2, 4],
                    help="fiber-cut counts to sweep (0 = healthy baseline)")
    pf.add_argument("--repair-after", type=_pos_arg, default=None,
                    help="restore each cut fiber after this many slots")
    pf.add_argument("--protocol", choices=["dropping", "holding"],
                    default="dropping")
    pf.add_argument("--recompile-latency", type=_nonneg_arg, default=3,
                    help="slots the compiled model pays per reschedule")
    pf.add_argument("--recovery", choices=["reactive", "protected"],
                    default="reactive",
                    help="compiled fault recovery: recompile at run time, "
                    "or fail over to precomputed backup configurations")
    pf.add_argument("--failover-latency", type=_nonneg_arg, default=1,
                    help="slots a protected failover pays to swap register "
                    "images")
    pf.add_argument("--cache", default=None,
                    help="artifact cache directory for recompilations")
    pf.add_argument("--output", default=None, help="write rows as JSON")
    pf.set_defaults(fn=_print_faults)

    pr = sub.add_parser(
        "protect",
        help="plan single-fiber backup configurations for a pattern spec",
    )
    pr.add_argument("--spec", required=True,
                    help='e.g. {"pattern": "all-to-all", "nodes": 64}')
    pr.add_argument("--algorithm", default="combined")
    pr.add_argument("--cache", default=None,
                    help="artifact cache directory (protection artifacts)")
    pr.add_argument("--verify", action="store_true",
                    help="deep-validate every backup schedule "
                    "(exit 70 on violation)")
    pr.add_argument("--output", default=None,
                    help="write the protection document as JSON")
    pr.add_argument("--width", type=int, default=8)
    pr.add_argument("--height", type=int, default=8)
    pr.set_defaults(fn=_print_protect)

    pm = sub.add_parser(
        "amend",
        help="incremental-compilation churn campaign (delta scheduling)",
    )
    pm.add_argument("--sizes", type=_pos_arg, nargs="+", default=[8, 16, 32],
                    help="torus widths to sweep (in-process campaign)")
    pm.add_argument("--pattern", default="ring",
                    choices=list(exp.FAULT_CAMPAIGN_PATTERNS),
                    help="initial pattern each stream compiles")
    pm.add_argument("--steps", type=_pos_arg, default=50,
                    help="updates per stream")
    pm.add_argument("--update-size", type=_pos_arg, default=2,
                    help="connections added and removed per update")
    pm.add_argument("--algorithm", default="greedy")
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--via-service", action="store_true",
                    help="drive the updates through a live server's "
                    "amend verb instead of the in-process engine")
    pm.add_argument("--width", type=_pos_arg, default=8,
                    help="torus width for --via-service")
    pm.add_argument("--output", default=None, help="write the report as JSON")
    pm.set_defaults(fn=_print_amend)

    pb = sub.add_parser(
        "bench",
        help="run a declarative benchmark suite gated on absolute limits",
    )
    pb.add_argument("action", choices=["run"], help="run a suite")
    pb.add_argument("--suite", required=True,
                    help="suite JSON (see benchmarks/suites/)")
    pb.add_argument("--report", default=None,
                    help="write the run report as JSON")
    pb.add_argument("--only", action="append", default=None, metavar="CASE",
                    help="restrict to the named case (repeatable)")
    pb.add_argument("--no-gate", action="store_true",
                    help="report failures but exit 0 anyway")
    pb.set_defaults(fn=_print_bench)

    pall = sub.add_parser("all", help="run every table and figure (quick settings)")
    pall.add_argument("--patterns", type=int, default=5)
    pall.add_argument("--samples", type=int, default=30)
    pall.add_argument("--gs-grids", type=int, nargs="+", default=[64, 128, 256])
    pall.add_argument("--p3m-grids", type=int, nargs="+", default=[32, 64])
    pall.set_defaults(fn=_print_all)

    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except Exception as exc:
        # Typed service failures become their conventional exit codes
        # (65 protocol, 69 unavailable, 75 overloaded/breaker, 124
        # timeout) so scripts can branch without parsing stderr.
        from repro.service.errors import ServiceError

        if isinstance(exc, ServiceError):
            print(f"repro-tdm: {exc.code}: {exc}", file=sys.stderr)
            return exc.exit_code
        raise
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
