"""Outside-in span recording around the layers' public functions.

Nothing under ``src/`` knows about this module.  With ``--trace 1`` the
benchmark replaces each traced function at every place the program binds
it (module attributes, class attributes) with a thin wrapper, runs the
workload, and puts the originals back.  With ``--trace 0`` nothing is
patched, so the end-to-end numbers carry no tracing cost.

A span records its name, start, end, parent and request id.  Request ids
flow with :mod:`contextvars`: the benchmark opens a root span per
operation it issues, and the server side opens one per request frame,
keyed by the frame's ``id`` (the router forwards frames unchanged, so a
farm node sees the client's id).  Self time is a span's duration minus
the time its children cover.  Functions called thousands of times per
request (``Topology.route``) are aggregated instead of recorded one by
one, but still count as children of their caller.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import re
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

_now = time.perf_counter_ns


class Span:
    __slots__ = ("name", "rid", "start", "end", "parent", "child_ns")

    def __init__(self, name: str, rid: int | None, parent: "Span | None") -> None:
        self.name = name
        self.rid = rid
        self.parent = parent
        self.child_ns = 0
        self.start = _now()
        self.end = 0

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns

    def ancestors(self):
        node = self.parent
        while node is not None:
            yield node
            node = node.parent


_ID_RE = re.compile(rb'"id":\s*(-?\d+)')


class Tracer:
    """In-memory span store plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: (rid, name, parent name) -> [calls, ns] for aggregated hot spans.
        self.hot: dict[tuple, list[int]] = defaultdict(lambda: [0, 0])
        self.current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "e2ebench_span", default=None
        )
        self._undo: list[tuple[Any, str, Any]] = []
        self.server_active = 0
        self.server_active_max = 0
        self.results: dict[str, list] = defaultdict(list)

    # -- recording ---------------------------------------------------------
    def open(self, name: str, rid: int | None = None) -> tuple[Span, contextvars.Token]:
        parent = self.current.get()
        if rid is None and parent is not None:
            rid = parent.rid
        span = Span(name, rid, parent)
        return span, self.current.set(span)

    def close(self, span: Span, token: contextvars.Token) -> None:
        span.end = _now()
        self.current.reset(token)
        if span.parent is not None:
            span.parent.child_ns += span.duration_ns
        self.spans.append(span)

    def root(self, name: str, rid: int):
        """Context manager for one operation the benchmark issues."""
        tracer = self

        class _Root:
            def __enter__(self_inner):
                self_inner.span, self_inner.token = tracer.open(name, rid)
                # A root never inherits a parent: it starts a new request.
                self_inner.span.parent = None
                return self_inner.span

            def __exit__(self_inner, *exc):
                tracer.close(self_inner.span, self_inner.token)

        return _Root()

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, fn: Callable, name: str, *, hot: bool = False,
              on_result: Callable[[Any], None] | None = None) -> Callable:
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def awrapper(*args, **kwargs):
                span, token = tracer.open(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.close(span, token)
            return awrapper
        if hot:
            @functools.wraps(fn)
            def hwrapper(*args, **kwargs):
                t0 = _now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = _now() - t0
                    parent = tracer.current.get()
                    if parent is not None:
                        parent.child_ns += dt
                        key = (parent.rid, name, parent.name)
                    else:
                        key = (None, name, None)
                    slot = tracer.hot[key]
                    slot[0] += 1
                    slot[1] += dt
            return hwrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, token = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span, token)
            if on_result is not None:
                on_result(out)
            return out
        return wrapper

    def _replace(self, owner: Any, attr: str, new: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch_function(self, fn: Callable, name: str, **kw) -> None:
        """Replace every binding of ``fn`` in the program's loaded modules."""
        wrapped = self._wrap(fn, name, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._replace(mod, attr, wrapped)

    def patch_method(self, cls: type, attr: str, name: str, **kw) -> None:
        self._replace(cls, attr, self._wrap(cls.__dict__[attr], name, **kw))

    def patch_server_dispatch(self, cls: type) -> None:
        """One root span per request frame, keyed by the frame's ``id``."""
        orig = cls.__dict__["_dispatch"]
        tracer = self

        @functools.wraps(orig)
        async def dispatch(server, line: bytes):
            match = _ID_RE.search(line)
            rid = int(match.group(1)) if match else None
            span, token = tracer.open("service.server", rid)
            span.parent = None
            tracer.server_active += 1
            tracer.server_active_max = max(tracer.server_active_max, tracer.server_active)
            try:
                return await orig(server, line)
            finally:
                tracer.server_active -= 1
                tracer.close(span, token)

        self._replace(cls, "_dispatch", dispatch)

    def install(self) -> None:
        """Patch every traced layer boundary (see README's layer table)."""
        from repro.aapc import phases as aapc_phases
        from repro.aapc import product as aapc_product
        from repro.compiler import codegen, serialize
        from repro.core import allpairs, coloring, aapc_ordered, packing, registry
        from repro.core.configuration import ConfigurationSet
        from repro.core.delta import DeltaScheduler
        from repro.service import canonical, client, compile as service_compile, farm
        from repro.service.amend import AmendStream
        from repro.service.cache import ArtifactCache
        from repro.service.server import CompileServer
        from repro.simulator import compiled
        from repro.simulator.dynamic import control
        from repro.topology.base import Topology

        self.patch_method(Topology, "route", "topology.route", hot=True)
        self.patch_function(aapc_phases.aapc_phase_map, "aapc.build")
        self.patch_function(aapc_product.product_decomposition, "aapc.build")

        get_scheduler = registry.get_scheduler
        tracer = self

        @functools.wraps(get_scheduler)
        def traced_get_scheduler(name: str):
            return tracer._wrap(get_scheduler(name), "core.schedule")

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("repro") and mod is not None:
                for attr, value in list(vars(mod).items()):
                    if value is get_scheduler:
                        self._replace(mod, attr, traced_get_scheduler)

        self.patch_function(coloring.coloring_schedule, "core.coloring")
        self.patch_function(aapc_ordered.ordered_aapc_schedule, "core.aapc_ordered")
        self.patch_function(packing.first_fit, "core.kernel")
        self.patch_method(ConfigurationSet, "validate", "core.validate")
        self.patch_function(allpairs.all_to_all_fast_schedule, "core.fastpath")
        self.patch_method(
            DeltaScheduler, "amend", "core.delta.amend",
            on_result=lambda r: self.results["delta_actions"].append(r.action),
        )
        self.patch_function(codegen.generate_registers, "compiler.codegen")
        for fn in (serialize.schedule_to_dict, serialize.registers_to_dict,
                   serialize.schedule_from_dict):
            self.patch_function(fn, "compiler.serialize")
        self.patch_function(serialize.artifact_digest, "compiler.digest")
        self.patch_function(compiled.compiled_completion_time, "simulator.compiled")
        self.patch_function(control.simulate_dynamic, "simulator.dynamic")
        self.patch_function(canonical.canonicalize, "service.canonical")
        for fn in (canonical.permute_schedule_dict, canonical.permute_registers_dict):
            self.patch_function(fn, "service.canonical.permute")
        self.patch_method(ArtifactCache, "get", "service.cache.get")
        self.patch_method(ArtifactCache, "put", "service.cache.put")
        self.patch_function(service_compile.verify_artifact, "service.compile.verify")
        self.patch_function(client._verify_reply, "service.client.verify")
        self.patch_method(AmendStream, "amend", "service.amend.apply")
        self.patch_function(farm.route_digest, "service.farm.route_digest")
        self.patch_server_dispatch(CompileServer)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis ------------------------------------------------------------
    def self_by_rid(self) -> dict[int | None, dict[str, int]]:
        """Per request id: layer name -> self ns (roots excluded)."""
        out: dict[int | None, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for span in self.spans:
            if span.parent is None and span.name != "service.server":
                continue
            out[span.rid][span.name] += span.self_ns
        for (rid, name, _parent), (_calls, ns) in self.hot.items():
            out[rid][name] += ns
        return out

    def roots(self) -> dict[int, Span]:
        return {
            s.rid: s for s in self.spans
            if s.parent is None and s.name != "service.server" and s.rid is not None
        }

    def caller(self, span: Span) -> str:
        """Which side called a compiler function: disk, client or server."""
        for node in span.ancestors():
            if node.name.startswith("service.cache"):
                return "disk"
            if node.name == "service.client.verify":
                return "client"
            if node.name == "service.server":
                return "server"
        return "inprocess"

    def dump(self, path: Path, summary: dict[str, Any]) -> None:
        """Write every span (and the hot aggregates) out once, at the end."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            [s.name, s.rid, s.start, s.end,
             index.get(id(s.parent)) if s.parent is not None else None]
            for s in self.spans
        ]
        hot = [[rid, name, parent, calls, ns]
               for (rid, name, parent), (calls, ns) in self.hot.items()]
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"fields": ["name", "rid", "start_ns", "end_ns", "parent"],
                       "spans": rows, "hot": hot, "summary": summary}, fh)


def calibrate_overhead(tracer_cls=Tracer, calls: int = 20000) -> float:
    """Seconds one recorded span costs, measured on a no-op function."""
    def noop():
        return None

    t = tracer_cls()
    wrapped = t._wrap(noop, "calibrate")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - t0
    return max(traced - bare, 0.0) / calls


#: Layers whose self time is reported per request that touched them (ms).
SELF_MS = (
    "topology.route", "core.schedule", "core.coloring", "core.aapc_ordered",
    "core.kernel", "core.validate", "core.fastpath", "core.delta.amend",
    "compiler.codegen", "compiler.serialize", "compiler.digest",
    "service.canonical", "service.canonical.permute", "service.cache.get",
    "service.cache.put", "service.compile.verify", "service.client.verify",
    "service.amend.apply", "service.farm.route_digest",
)
#: Compiler layers also split by caller.
CALLER_SPLIT = ("compiler.serialize", "compiler.digest")
CALLERS = ("server", "client", "disk")
#: Request classes of the per-class breakdown.
CLASSES = ("cold_compile", "warm_hit", "translated_hit", "disk_hit",
           "amend", "farm_compile", "router_hop")

#: Every per-layer metric, with its unit, in report order.
PER_LAYER: list[tuple[str, str]] = (
    [(f"{name}.self_ms", "ms") for name in SELF_MS]
    + [(f"{name}.self_ms.{c}", "ms") for name in CALLER_SPLIT for c in CALLERS]
    + [
        ("topology.route_cache.hit_ratio", "ratio"),
        ("aapc.build.self_s", "s"),
        ("core.kernel.fit_tests", "count"),
        ("core.delta.recompile_ratio", "ratio"),
        ("simulator.compiled.self_s", "s"),
        ("simulator.dynamic.self_s", "s"),
        ("service.cache.memory_hit_ratio", "ratio"),
        ("service.cache.disk_hit_ratio", "ratio"),
        ("service.server.handle_ms.hit", "ms"),
        ("service.server.handle_ms.miss", "ms"),
        ("service.server.queue_depth.max", "count"),
        ("service.wire_ms", "ms"),
        ("service.client.retries", "count"),
        ("service.farm.router_hop_ms", "ms"),
        ("service.farm.replicas_pushed", "count"),
        ("service.farm.direct_ratio", "ratio"),
        ("service.farm.wrong_shard", "count"),
        ("loadgen.lag_ms.p99", "ms"),
        ("loadgen.backlog.max", "count"),
    ]
    + [(f"class.{c}.unattributed", "share") for c in CLASSES]
    + [
        ("trace.spans", "count"),
        ("trace.overhead_share", "share"),
        ("error_rate", "fraction"),
    ]
)


def layer_metrics(tracer: Tracer, classes: dict[int, str], wall_s: float,
                  sweeps: int) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
    """Per-layer metrics and the per-class breakdown from the spans.

    ``X.self_ms`` is X's total self time divided by the number of
    requests (root operations) that touched X.  ``classes`` maps request
    ids to their class; a class's ``unattributed`` share is the part of
    its round trips that no traced layer covers (wire, JSON framing,
    event-loop waits, glue code), summed over the class's requests.
    """
    total: dict[str, int] = defaultdict(int)
    rids: dict[str, set] = defaultdict(set)
    split: dict[tuple[str, str], int] = defaultdict(int)
    split_rids: dict[tuple[str, str], set] = defaultdict(set)
    for span in tracer.spans:
        total[span.name] += span.self_ns
        rids[span.name].add(span.rid)
        if span.name in CALLER_SPLIT:
            who = tracer.caller(span)
            split[(span.name, who)] += span.self_ns
            split_rids[(span.name, who)].add(span.rid)
    hot_calls = 0
    for (rid, name, _parent), (calls, ns) in tracer.hot.items():
        total[name] += ns
        rids[name].add(rid)
        hot_calls += calls

    out: dict[str, float] = {}
    for name in SELF_MS:
        out[f"{name}.self_ms"] = total[name] / 1e6 / max(len(rids[name]), 1)
    for name in CALLER_SPLIT:
        for who in CALLERS:
            out[f"{name}.self_ms.{who}"] = (
                split[(name, who)] / 1e6 / max(len(split_rids[(name, who)]), 1)
            )
    out["aapc.build.self_s"] = total["aapc.build"] / 1e9
    out["simulator.compiled.self_s"] = total["simulator.compiled"] / 1e9 / max(sweeps, 1)
    out["simulator.dynamic.self_s"] = total["simulator.dynamic"] / 1e9 / max(sweeps, 1)
    actions = tracer.results["delta_actions"]
    out["core.delta.recompile_ratio"] = (
        sum(a.startswith("recompile") for a in actions) / len(actions) if actions else 0.0
    )
    out["service.server.queue_depth.max"] = float(tracer.server_active_max)

    by_rid = tracer.self_by_rid()
    roots = tracer.roots()
    breakdown: dict[str, dict[str, float]] = {}
    for cls in CLASSES:
        members = [rid for rid, c in classes.items() if c == cls and rid in roots]
        rtt = sum(roots[rid].duration_ns for rid in members)
        layers: dict[str, int] = defaultdict(int)
        for rid in members:
            for name, ns in by_rid.get(rid, {}).items():
                layers[name] += ns
        attributed = sum(layers.values())
        unattributed = (rtt - attributed) / rtt if rtt else 0.0
        out[f"class.{cls}.unattributed"] = unattributed
        if members:
            shares = {name: ns / rtt for name, ns in sorted(layers.items())}
            shares["unattributed"] = unattributed
            shares["requests"] = float(len(members))
            shares["mean_ms"] = rtt / 1e6 / len(members)
            breakdown[cls] = shares

    per_span = calibrate_overhead()
    out["trace.spans"] = float(len(tracer.spans) + hot_calls)
    out["trace.overhead_share"] = per_span * out["trace.spans"] / wall_s if wall_s else 0.0
    return out, breakdown
