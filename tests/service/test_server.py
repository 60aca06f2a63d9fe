"""Tests for the asyncio compile server and its clients."""

import asyncio
import json
import threading
import time

import pytest

from repro.service import compile as compile_mod
from repro.service.cache import ArtifactCache
from repro.service.client import AsyncCompileClient, ServerError
from repro.service.compile import compile_pattern
from repro.service.errors import ProtocolError, TransportError
from repro.service.server import (
    TOPOLOGY_MEMO_ENTRIES,
    CompileServer,
    _parse_pattern,
)
from repro.service.specs import TopologySpecError
from repro.topology.base import Topology
from repro.topology.torus import Torus2D

TORUS4 = {"kind": "torus", "width": 4}
TRANSPOSE4 = {"pattern": "transpose", "width": 4}


def run(coro):
    return asyncio.run(coro)


async def with_server(fn, **server_kwargs):
    """Start a TCP server on an ephemeral port, run ``fn``, drain."""
    server = CompileServer(**server_kwargs)
    await server.start()
    host, port = server.address
    try:
        return await fn(server, host, port)
    finally:
        await server.shutdown()


class TestProtocol:
    def test_ping_and_stats(self):
        async def go(server, host, port):
            async with AsyncCompileClient(host, port) as c:
                assert (await c.ping())["ok"]
                stats = await c.stats()
                assert stats["cache"]["hits"] == 0
                assert stats["workers"] == 0

        run(with_server(go))

    def test_compile_miss_then_hit(self):
        async def go(server, host, port):
            async with AsyncCompileClient(host, port) as c:
                first = await c.compile(TORUS4, pattern=TRANSPOSE4)
                second = await c.compile(TORUS4, pattern=TRANSPOSE4)
            assert first["cache"] == "miss" and second["cache"] == "hit"
            assert second["schedule"] == first["schedule"]
            assert first["degree"] >= 1
            assert len(first["digest"]) == 64

        run(with_server(go))

    def test_legacy_kernel_field_ignored(self):
        """Requests from clients that still send the retired ``kernel``
        field compile to the same digest and schedule as requests
        without it, and share one cache entry."""
        async def go(server, host, port):
            req = {"op": "compile", "topology": TORUS4, "pattern": TRANSPOSE4}
            async with AsyncCompileClient(host, port) as c:
                legacy = await c.request({**req, "kernel": "set"})
                plain = await c.request(dict(req))
            assert legacy["cache"] == "miss" and plain["cache"] == "hit"
            assert plain["digest"] == legacy["digest"]
            assert plain["schedule"] == legacy["schedule"]

        run(with_server(go))

    def test_pairs_request_and_registers(self):
        async def go(server, host, port):
            async with AsyncCompileClient(host, port) as c:
                reply = await c.compile(
                    TORUS4, pairs=[[0, 1], [2, 3, 4], [5, 6, 1, 7]],
                    registers=True,
                )
            assert reply["ok"] and "registers" in reply
            entries = [e for slot in reply["schedule"]["slots"] for e in slot]
            assert {(e["src"], e["dst"]) for e in entries} == {(0, 1), (2, 3), (5, 6)}
            assert {e["tag"] for e in entries} == {0, 7}

        run(with_server(go))

    def test_errors_are_replies_not_disconnects(self):
        async def go(server, host, port):
            async with AsyncCompileClient(host, port) as c:
                for bad in (
                    {"op": "warp"},
                    {"op": "compile", "topology": {"kind": "moebius"}, "pairs": [[0, 1]]},
                    {"op": "compile", "topology": TORUS4},
                    {"op": "compile", "topology": TORUS4, "pattern": {"pattern": "nope"}},
                ):
                    with pytest.raises(ServerError):
                        await c.request(bad)
                # The connection survived all four errors.
                assert (await c.ping())["ok"]

        run(with_server(go))

    def test_malformed_json_line(self):
        async def go(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"this is not json\n")
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert reply["ok"] is False
            writer.close()
            await writer.wait_closed()

        run(with_server(go))

    def test_unix_socket_endpoint(self, tmp_path):
        sock = str(tmp_path / "compile.sock")

        async def go():
            server = CompileServer(socket_path=sock)
            await server.start()
            assert server.address == sock
            try:
                async with AsyncCompileClient(socket_path=sock) as c:
                    reply = await c.compile(TORUS4, pattern=TRANSPOSE4)
                    assert reply["cache"] == "miss"
            finally:
                await server.shutdown()

        run(go())


class TestStats:
    def test_latency_buckets(self):
        async def go(server, host, port):
            async with AsyncCompileClient(host, port) as c:
                for _ in range(2):  # a miss, then a hit
                    await c.compile(TORUS4, pattern=TRANSPOSE4)
                stats = await c.stats()
            assert stats["latency"]["miss"]["count"] == 1
            assert stats["latency"]["hit"]["count"] == 1
            assert stats["latency"]["hit"]["mean_seconds"] > 0.0
            assert stats["cache"]["hits"] == 1

        run(with_server(go))


class TestPerfCounters:
    def test_thread_mode_compiles_keep_the_cache_counters(self):
        """With ``workers=0`` a cold compile runs on a pool thread of the
        server's own process: the process counters must move exactly as
        the cache's own stats do over a miss, a hit and a miss."""
        async def go(server, host, port):
            def snapshot(stats):
                counters, cache = stats["counters"], stats["cache"]
                return (counters["artifact_cache_hits"],
                        counters["artifact_cache_misses"],
                        cache["hits"], cache["misses"])

            async with AsyncCompileClient(host, port) as c:
                before = snapshot(await c.stats())
                for pattern in (TRANSPOSE4, TRANSPOSE4, {"pattern": "ring", "nodes": 16}):
                    await c.compile(TORUS4, pattern=pattern)
                after = snapshot(await c.stats())
            hits, misses, cache_hits, cache_misses = (
                b - a for a, b in zip(before, after)
            )
            assert (cache_hits, cache_misses) == (1, 2)
            assert (hits, misses) == (cache_hits, cache_misses)

        run(with_server(go, workers=0))


class TestTopologyMemo:
    def test_same_spec_same_topology(self):
        server = CompileServer()
        first = server._topology(TORUS4)
        assert server._topology(dict(TORUS4)) is first
        # Another spelling of one topology is a second key, built once.
        full = server._topology({"kind": "torus", "width": 4, "height": 4})
        assert full is not first and full.signature == first.signature
        assert len(server._topologies) == 2

    def test_faulty_specs_with_different_failures_differ(self):
        server = CompileServer()
        a = server._topology({"kind": "faulty", "base": TORUS4, "failed": [32]})
        b = server._topology({"kind": "faulty", "base": TORUS4, "failed": [33]})
        assert a is not b and a.signature != b.signature
        assert a.failed_links == {32} and b.failed_links == {33}

    def test_memo_is_bounded_lru(self):
        server = CompileServer()
        specs = [
            {"kind": "ring", "nodes": n}
            for n in range(3, 5 + TOPOLOGY_MEMO_ENTRIES)
        ]
        oldest = server._topology(specs[0])
        kept = server._topology(specs[1])
        for spec in specs[2:]:
            server._topology(spec)
            server._topology(specs[1])  # recently used: never evicted
        assert len(server._topologies) == TOPOLOGY_MEMO_ENTRIES
        assert server._topology(specs[1]) is kept
        assert server._topology(specs[0]) is not oldest  # evicted, rebuilt

    @pytest.mark.parametrize("spec", [
        {"kind": "bogus"},
        {"kind": "torus"},
        {"kind": "torus", "width": 4, "tie_break": "sideways"},
        {"width": 4},
        "torus",
        None,
    ])
    def test_malformed_spec_raises_and_leaves_no_entry(self, spec):
        server = CompileServer()
        with pytest.raises(TopologySpecError):
            server._topology(spec)
        assert len(server._topologies) == 0

    def test_requests_share_the_memoised_topology(self):
        async def go(server, host, port):
            async with AsyncCompileClient(host, port) as c:
                await c.compile(TORUS4, pattern=TRANSPOSE4)
                opened = await c.amend(TORUS4, pairs=[[0, 1], [2, 3]])
                await c.amend(
                    root=opened["root"], epoch=0, add=[[4, 5]],
                    topology=TORUS4,
                )
            (memoised,) = server._topologies.values()
            (stream,) = server.amends._streams.values()
            assert stream.topology is memoised

        run(with_server(go))

    def test_worker_thread_never_routes_on_a_memo_entry(self, monkeypatch):
        routed = []  # (thread id, topology) of every route call
        real, real_many = Topology.route, Topology.route_many

        def spy(self, src, dst):
            routed.append((threading.get_ident(), self))
            return real(self, src, dst)

        def spy_many(self, pairs):
            routed.append((threading.get_ident(), self))
            return real_many(self, pairs)

        monkeypatch.setattr(Topology, "route", spy)
        monkeypatch.setattr(Topology, "route_many", spy_many)

        async def go(server, host, port):
            async with AsyncCompileClient(host, port) as c:
                reply = await c.compile(TORUS4, pattern=TRANSPOSE4)
            assert reply["cache"] == "miss"
            return list(server._topologies.values())

        memo = run(with_server(go))  # workers=0: one compile thread
        loop_thread = threading.get_ident()
        on_worker = [t for ident, t in routed if ident != loop_thread]
        assert on_worker, "the cold compile routes on the pool thread"
        assert memo and not any(t is m for t in on_worker for m in memo)


class TestDedupAndConcurrency:
    def test_concurrent_identical_requests_compile_once(self, monkeypatch):
        calls = []
        real = compile_mod.build_canonical_artifact

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        # workers=0 runs compiles on an in-process thread, so the
        # monkeypatch is visible to the worker.
        monkeypatch.setattr(compile_mod, "build_canonical_artifact", counting)

        async def go(server, host, port):
            async def one():
                async with AsyncCompileClient(host, port) as c:
                    return await c.compile(TORUS4, pattern=TRANSPOSE4)

            replies = await asyncio.gather(*[one() for _ in range(8)])
            outcomes = sorted(r["cache"] for r in replies)
            assert outcomes.count("miss") == 1
            assert all(o in ("miss", "inflight", "hit") for o in outcomes)
            assert len({json.dumps(r["schedule"], sort_keys=True) for r in replies}) == 1
            stats = await (await AsyncCompileClient(host, port).connect()).stats()
            assert stats["inflight"] == 0
            return replies

        run(with_server(go))
        assert len(calls) == 1  # exactly one scheduler run for 8 clients

    def test_distinct_requests_not_coalesced(self):
        async def go(server, host, port):
            async with AsyncCompileClient(host, port) as c:
                a = await c.compile(TORUS4, pairs=[[0, 1]])
                b = await c.compile(TORUS4, pairs=[[0, 2]])
            assert a["digest"] != b["digest"]
            assert a["cache"] == b["cache"] == "miss"

        run(with_server(go))

    def test_failed_leader_reported_to_all(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("scheduler exploded")

        monkeypatch.setattr(compile_mod, "build_canonical_artifact", boom)

        async def go(server, host, port):
            async def one():
                async with AsyncCompileClient(host, port) as c:
                    try:
                        await c.compile(TORUS4, pattern=TRANSPOSE4)
                        return None
                    except ServerError as exc:
                        return str(exc)

            errors = await asyncio.gather(*[one() for _ in range(4)])
            assert all(e is not None for e in errors)
            assert server._inflight == {}

        run(with_server(go))


class TestLifecycle:
    def test_shutdown_verb_drains(self, tmp_path):
        async def go():
            server = CompileServer(cache=ArtifactCache(tmp_path))
            await server.start()
            host, port = server.address
            serve = asyncio.ensure_future(server.serve_forever())
            async with AsyncCompileClient(host, port) as c:
                await c.compile(TORUS4, pattern=TRANSPOSE4)
                reply = await c.shutdown()
                assert reply["ok"]
            await asyncio.wait_for(serve, timeout=10)
            # New connections are refused after drain.
            with pytest.raises(OSError):
                await asyncio.open_connection(host, port)

        run(go())

    def test_shutdown_closes_idle_connections(self):
        """A connection idle when the server shut down is closed, not
        served: its next request fails instead of compiling."""
        async def go():
            server = CompileServer(workers=0)
            await server.start()
            async with AsyncCompileClient(*server.address, retry=None) as c:
                await c.ping()
                await server.shutdown()
                with pytest.raises(TransportError):
                    await c.compile(TORUS4, pattern=TRANSPOSE4)
            assert server.requests_served == 1

        run(go())

    def test_shutdown_answers_the_request_in_hand_then_closes(
        self, monkeypatch
    ):
        real = compile_mod.build_canonical_artifact
        started = threading.Event()

        def slow(*args, **kwargs):
            started.set()
            time.sleep(0.2)
            return real(*args, **kwargs)

        monkeypatch.setattr(compile_mod, "build_canonical_artifact", slow)

        async def go():
            server = CompileServer(workers=0)
            await server.start()
            async with AsyncCompileClient(*server.address, retry=None) as c:
                pending = asyncio.ensure_future(
                    c.compile(TORUS4, pattern=TRANSPOSE4)
                )
                while not started.is_set():
                    await asyncio.sleep(0.005)
                await server.shutdown()
                reply = await pending
                assert reply["ok"] and reply["cache"] == "miss"
                with pytest.raises(TransportError):
                    await c.ping()

        run(go())

    def test_cache_shared_across_restarts(self, tmp_path):
        async def round_trip():
            server = CompileServer(cache=str(tmp_path))
            await server.start()
            host, port = server.address
            try:
                async with AsyncCompileClient(host, port) as c:
                    return (await c.compile(TORUS4, pattern=TRANSPOSE4))["cache"]
            finally:
                await server.shutdown()

        assert run(round_trip()) == "miss"
        assert run(round_trip()) == "hit"  # served from the disk tier


class TestParsePattern:
    def test_bad_pair_row_rejected(self):
        with pytest.raises(ValueError, match="bad pair row"):
            _parse_pattern({"pairs": [[1]]})

    def test_needs_pattern_or_pairs(self):
        with pytest.raises(ValueError, match="needs 'pattern' or 'pairs'"):
            _parse_pattern({})


class TestNodeRange:
    """Endpoints outside the topology are typed protocol errors: a
    negative id must not wrap onto another node, a large one must not
    leak an untyped IndexError."""

    TORUS8 = {"kind": "torus", "width": 8}

    @pytest.mark.parametrize("pairs", [[[-1, 5]], [[64, 5]], [[0, 1], [5, 70, 2]]])
    def test_compile_refuses_out_of_range_ids(self, pairs):
        async def go(server, host, port):
            async with AsyncCompileClient(host, port, retry=None) as c:
                with pytest.raises(ProtocolError, match="out of range"):
                    await c.compile(self.TORUS8, pairs=pairs)
                assert (await c.ping())["ok"]

        run(with_server(go))

    def test_compile_pattern_raises_value_error(self):
        with pytest.raises(ValueError, match=r"node -1 out of range \[0, 64\)"):
            compile_pattern(Torus2D(8), [(-1, 5)])
        with pytest.raises(ValueError, match="node 64 out of range"):
            compile_pattern(Torus2D(8), [(64, 5, 1, 0)])


class TestArrayParse:
    def test_uniform_pairs_parse_as_one_array(self):
        rows = _parse_pattern({"pairs": [[0, 1], [2, 3]]})
        assert rows.dtype.kind == "i" and rows.tolist() == [[0, 1, 1, 0], [2, 3, 1, 0]]

    def test_ragged_and_coerced_rows_keep_the_row_path(self):
        assert _parse_pattern({"pairs": [[0, 1], [2, 3, 4]]}) == [
            (0, 1, 1, 0), (2, 3, 4, 0)
        ]
        assert _parse_pattern({"pairs": [[0.0, 1.9], [True, "3"]]}) == [
            (0, 1, 1, 0), (1, 3, 1, 0)
        ]


class TestSpecMemo:
    def test_warm_spec_regenerates_no_requests(self, monkeypatch):
        from repro.compiler import recognition
        from repro.service import server as server_mod

        calls = []
        original = recognition.recognize

        def counting(spec):
            calls.append(spec)
            return original(spec)

        monkeypatch.setattr(recognition, "recognize", counting)
        monkeypatch.setattr(server_mod, "_spec_memo", type(server_mod._spec_memo)())

        async def go(server, host, port):
            async with AsyncCompileClient(host, port) as c:
                first = await c.compile(TORUS4, pattern=TRANSPOSE4)
                for _ in range(3):
                    again = await c.compile(TORUS4, pattern=TRANSPOSE4)
                    assert again["digest"] == first["digest"]
                    assert again["schedule"] == first["schedule"]
                positive = {"kind": "torus", "width": 4, "tie_break": "positive"}
                await c.compile(positive, pattern=TRANSPOSE4)

        run(with_server(go))
        assert len(calls) == 2  # once per topology signature

    def test_memo_is_bounded(self, monkeypatch):
        from repro.service import server as server_mod

        monkeypatch.setattr(server_mod, "_spec_memo", type(server_mod._spec_memo)())
        topo = Torus2D(4)
        for size in range(1, server_mod.SPEC_MEMO_ENTRIES + 6):
            server_mod.canonical_pattern(
                topo, {"pattern": {"pattern": "ring", "nodes": 16, "size": size}}
            )
        assert len(server_mod._spec_memo) == server_mod.SPEC_MEMO_ENTRIES
