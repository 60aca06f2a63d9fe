"""Robustness tests: malformed input, deadlines, shedding, resilience.

The first half hammers the server with the inputs production clients
never send on purpose (oversized frames, invalid UTF-8, torn requests);
the second half exercises the client-side retry/breaker machinery
against a scripted flaky server.
"""

import asyncio
import json
import multiprocessing
import time

import pytest

from repro.service import compile as compile_mod
from repro.service.client import AsyncCompileClient, CompileClient
from repro.service.errors import (
    CircuitOpen,
    Overloaded,
    ProtocolError,
    ServiceTimeout,
    TransportError,
)
from repro.service.policy import (
    CircuitBreaker,
    RetryPolicy,
    ServerPolicy,
    request_digest,
)
from repro.service.server import CompileServer

TORUS4 = {"kind": "torus", "width": 4}
TRANSPOSE4 = {"pattern": "transpose", "width": 4}


def run(coro):
    return asyncio.run(coro)


async def with_server(fn, **server_kwargs):
    server = CompileServer(**server_kwargs)
    await server.start()
    host, port = server.address
    try:
        return await fn(server, host, port)
    finally:
        await server.shutdown()


class TestMalformedInput:
    def test_oversized_frame_typed_error_then_close(self):
        policy = ServerPolicy(max_frame_bytes=1024)

        async def go(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"op": "ping", "junk": "' + b"x" * 4096 + b'"}\n')
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert reply["ok"] is False
            assert reply["error_type"] == "protocol"
            # The stream cannot be resynchronized: connection closes.
            assert await reader.read() == b""
            writer.close()
            await writer.wait_closed()
            # ...but the accept loop is fine.
            async with AsyncCompileClient(host, port) as c:
                assert (await c.ping())["ok"]

        run(with_server(go, policy=policy))

    def test_invalid_utf8_typed_error(self):
        async def go(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b'\xff\xfe{"op": "ping"}\n')
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert reply["ok"] is False
            assert reply["error_type"] == "protocol"
            # Same connection still serves well-formed requests.
            writer.write(b'{"op": "ping", "id": 2}\n')
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert reply["ok"] and reply["id"] == 2
            writer.close()
            await writer.wait_closed()

        run(with_server(go))

    def test_non_object_json_typed_error(self):
        async def go(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            for frame in (b"[1, 2, 3]\n", b'"ping"\n', b"42\n"):
                writer.write(frame)
                await writer.drain()
                reply = json.loads(await reader.readline())
                assert reply["ok"] is False
                assert reply["error_type"] == "protocol"
            writer.close()
            await writer.wait_closed()

        run(with_server(go))

    def test_unknown_op_typed_error(self):
        async def go(server, host, port):
            async with AsyncCompileClient(host, port, retry=None) as c:
                with pytest.raises(ProtocolError, match="unknown op"):
                    await c.request({"op": "warp"})
                assert (await c.ping())["ok"]

        run(with_server(go))

    def test_mid_frame_disconnect_absorbed(self):
        async def go(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"op": "compile", "topolo')  # no newline
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            # Accept loop untouched; next client is served normally.
            async with AsyncCompileClient(host, port) as c:
                assert (await c.ping())["ok"]

        run(with_server(go))

    def test_accept_loop_survives_a_barrage(self):
        frames = [
            b"\n",
            b"not json\n",
            b"\x00\x01\x02\n",
            b'{"op": "compile"}\n',
            b'{"op": "compile", "topology": {"kind": "klein-bottle"}}\n',
            b'{"op": "compile", "topology": {"kind": "torus", "width": 4}, '
            b'"pairs": [[0]]}\n',
            b'{"deadline": -1, "topology": {"kind": "torus", "width": 4}, '
            b'"pairs": [[0, 1]]}\n',
        ]

        async def go(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            for frame in frames:
                writer.write(frame)
                await writer.drain()
                reply = json.loads(await reader.readline())
                assert reply["ok"] is False
                assert "error_type" in reply
            writer.close()
            await writer.wait_closed()
            async with AsyncCompileClient(host, port) as c:
                reply = await c.compile(TORUS4, pattern=TRANSPOSE4)
                assert reply["ok"]

        run(with_server(go))


class TestHealthAndReady:
    def test_health_reports_state(self):
        async def go(server, host, port):
            async with AsyncCompileClient(host, port) as c:
                await c.compile(TORUS4, pattern=TRANSPOSE4)
                health = await c.health()
            assert health["ready"] is True
            assert health["queue_depth"] == 0
            assert health["inflight"] == 0
            assert health["max_pending"] == server.policy.max_pending
            assert health["shed"] == 0
            assert health["uptime_seconds"] > 0
            assert health["cache"]["entries"] == 1

        run(with_server(go))

    def test_ready_verb(self):
        async def go(server, host, port):
            async with AsyncCompileClient(host, port) as c:
                assert await c.ready() is True

        run(with_server(go))

    def test_not_ready_when_saturated(self):
        # max_pending=0 means the admission gate is always full.
        policy = ServerPolicy(max_pending=0)

        async def go(server, host, port):
            async with AsyncCompileClient(host, port) as c:
                assert await c.ready() is False

        run(with_server(go, policy=policy))


class TestAdmissionControl:
    def test_saturated_server_sheds_with_retry_after(self):
        policy = ServerPolicy(max_pending=0, retry_after=0.123)

        async def go(server, host, port):
            async with AsyncCompileClient(host, port, retry=None) as c:
                with pytest.raises(Overloaded) as excinfo:
                    await c.compile(TORUS4, pattern=TRANSPOSE4)
            assert excinfo.value.retry_after == 0.123
            assert server.shed == 1

        run(with_server(go, policy=policy))

    def test_shed_requests_counted_in_health(self):
        policy = ServerPolicy(max_pending=0, retry_after=0.01)

        async def go(server, host, port):
            async with AsyncCompileClient(host, port, retry=None) as c:
                for _ in range(3):
                    with pytest.raises(Overloaded):
                        await c.compile(TORUS4, pattern=TRANSPOSE4)
                health = await c.health()
            assert health["shed"] == 3

        run(with_server(go, policy=policy))

    def test_client_retries_shed_request_until_give_up(self):
        policy = ServerPolicy(max_pending=0, retry_after=0.001)
        retry = RetryPolicy(attempts=3, base_delay=0.001, max_delay=0.01)

        async def go(server, host, port):
            async with AsyncCompileClient(host, port, retry=retry) as c:
                with pytest.raises(Overloaded):
                    await c.compile(TORUS4, pattern=TRANSPOSE4)
                assert c.retries == 2  # 3 attempts = 2 retries
            assert server.shed == 3

        run(with_server(go, policy=policy))


class TestDeadlines:
    def test_hung_compile_times_out_and_pool_restarts(self, monkeypatch):
        def hang(*args, **kwargs):
            time.sleep(0.8)
            raise AssertionError("unreachable: the reply beat the hang")

        monkeypatch.setattr(compile_mod, "build_canonical_artifact", hang)
        policy = ServerPolicy(request_deadline=0.05)

        async def go(server, host, port):
            async with AsyncCompileClient(host, port, retry=None) as c:
                with pytest.raises(ServiceTimeout, match="deadline"):
                    await c.compile(TORUS4, pattern=TRANSPOSE4)
            assert server.deadline_cancels == 1
            assert server.worker_restarts == 1
            assert server._inflight == {}

        run(with_server(go, policy=policy))

    def test_server_recovers_after_deadline_cancel(self, monkeypatch):
        real = compile_mod.build_canonical_artifact
        hangs = [True]

        def flaky(*args, **kwargs):
            if hangs.pop(0) if hangs else False:
                time.sleep(0.8)
            return real(*args, **kwargs)

        monkeypatch.setattr(compile_mod, "build_canonical_artifact", flaky)
        policy = ServerPolicy(request_deadline=0.05)

        async def go(server, host, port):
            async with AsyncCompileClient(host, port, retry=None) as c:
                with pytest.raises(ServiceTimeout):
                    await c.compile(TORUS4, pattern=TRANSPOSE4)
            # Fresh pool, same request: compiles fine now.
            async with AsyncCompileClient(host, port, retry=None) as c:
                reply = await c.compile(TORUS4, pairs=[[0, 1]], deadline=30)
                assert reply["ok"]

        run(with_server(go, policy=policy))

    def test_per_request_deadline_tightens_policy(self, monkeypatch):
        def hang(*args, **kwargs):
            time.sleep(0.8)

        monkeypatch.setattr(compile_mod, "build_canonical_artifact", hang)

        async def go(server, host, port):  # policy default is 60s
            async with AsyncCompileClient(host, port, retry=None) as c:
                with pytest.raises(ServiceTimeout):
                    await c.compile(TORUS4, pattern=TRANSPOSE4, deadline=0.05)

        run(with_server(go))

    def test_bad_deadline_rejected(self):
        async def go(server, host, port):
            async with AsyncCompileClient(host, port, retry=None) as c:
                with pytest.raises(ProtocolError, match="bad deadline"):
                    await c.compile(TORUS4, pattern=TRANSPOSE4, deadline=-1)

        run(with_server(go))


class TestWorkerPoolFailures:
    """A broken worker pool costs no other request its reply."""

    def test_dead_worker_does_not_end_cold_compiles(self):
        async def go(server, host, port):
            async with AsyncCompileClient(host, port, retry=None) as c:
                assert (await c.compile(TORUS4, pairs=[[0, 1]]))["cache"] == "miss"
                pool = server._executor
                for proc in list(pool._processes.values()):
                    proc.kill()
                for _ in range(1000):  # until the pool sees its worker gone
                    if pool._broken:
                        break
                    await asyncio.sleep(0.01)
                assert pool._broken
                replies = [
                    await c.compile(TORUS4, pairs=[[i, i + 1] for i in range(k)])
                    for k in (2, 3, 4)
                ]
            assert [r["cache"] for r in replies] == ["miss"] * 3
            assert server.worker_restarts == 1

        run(with_server(go, workers=1))

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the scripted compile times reach the workers by fork",
    )
    def test_deadline_restart_spares_the_other_compiles(self, monkeypatch):
        real = compile_mod.build_canonical_artifact

        def scripted(topology, requests, *args, **kwargs):
            # One pair hangs past its deadline; two pairs take a second.
            time.sleep(30 if len(requests) == 1 else 1.0)
            return real(topology, requests, *args, **kwargs)

        monkeypatch.setattr(compile_mod, "build_canonical_artifact", scripted)

        async def go(server, host, port):
            async def compile(pairs, deadline):
                async with AsyncCompileClient(host, port, retry=None) as c:
                    return await c.compile(TORUS4, pairs=pairs, deadline=deadline)

            hung, slow = await asyncio.gather(
                compile([[0, 1]], 0.5), compile([[0, 1], [2, 3]], 30),
                return_exceptions=True,
            )
            assert isinstance(hung, ServiceTimeout)
            assert not isinstance(slow, BaseException), slow
            assert slow["cache"] == "miss"
            assert server.worker_restarts == 1

        run(with_server(go, workers=2))

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the scripted compile times reach the workers by fork",
    )
    def test_compiles_queued_behind_a_hung_one_are_answered(self, monkeypatch):
        real = compile_mod.build_canonical_artifact

        def scripted(topology, requests, *args, **kwargs):
            time.sleep(30 if len(requests) == 1 else 0.2)
            return real(topology, requests, *args, **kwargs)

        monkeypatch.setattr(compile_mod, "build_canonical_artifact", scripted)

        async def go(server, host, port):
            async def compile(pairs, deadline):
                async with AsyncCompileClient(
                    host, port, retry=None, timeout=20
                ) as c:
                    return await c.compile(TORUS4, pairs=pairs, deadline=deadline)

            # One worker: the restart finds one compile running beside
            # the hung one's slot and the rest still queued.
            replies = await asyncio.gather(
                compile([[0, 1]], 0.5),
                *(compile([[i, i + 1] for i in range(k)], 30) for k in (2, 3, 4, 5)),
                return_exceptions=True,
            )
            assert isinstance(replies[0], ServiceTimeout)
            for reply in replies[1:]:
                assert not isinstance(reply, BaseException), reply
                assert reply["cache"] == "miss"
            assert server.worker_restarts == 1

        run(with_server(go, workers=1))


class TestShutdownRace:
    def test_listener_closed_before_ack(self):
        async def go():
            server = CompileServer()
            await server.start()
            host, port = server.address
            serve = asyncio.ensure_future(server.serve_forever())
            async with AsyncCompileClient(host, port) as c:
                await c.shutdown()
                # The ack is the fence: no new connection can have been
                # accepted once the client has seen it.
                with pytest.raises(OSError):
                    await asyncio.open_connection(host, port)
            await asyncio.wait_for(serve, timeout=10)

        run(go())

    def test_drain_failure_surfaces_in_serve_forever(self, monkeypatch):
        async def go():
            server = CompileServer()
            await server.start()
            host, port = server.address
            serve = asyncio.ensure_future(server.serve_forever())

            def boom(*args, **kwargs):
                raise RuntimeError("drain exploded")

            monkeypatch.setattr(server._executor, "shutdown", boom)
            async with AsyncCompileClient(host, port) as c:
                await c.shutdown()
            # The drain task's failure is kept (satellite: no swallowed
            # shutdown exceptions) and re-raised at the await point.
            with pytest.raises(RuntimeError, match="drain exploded"):
                await asyncio.wait_for(serve, timeout=10)
            monkeypatch.undo()
            server._shutdown_task = None
            await server.shutdown()  # real cleanup

        run(go())


class _ScriptedServer:
    """A fake compile server answering from a list of behaviours.

    Each behaviour handles one request *line*: ``"close"`` cuts the
    connection without replying, a dict is sent as the reply (with the
    request's ``id``/``idem`` merged in unless overridden), and a
    callable gets the parsed request and returns the reply dict.
    """

    def __init__(self, behaviors):
        self.behaviors = list(behaviors)
        self._server = None

    async def __aenter__(self):
        self._server = await asyncio.start_server(
            self._handle, host="127.0.0.1", port=0
        )
        return self

    async def __aexit__(self, *exc):
        self._server.close()
        await self._server.wait_closed()

    @property
    def address(self):
        return self._server.sockets[0].getsockname()[:2]

    async def _handle(self, reader, writer):
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                req = json.loads(line)
                behavior = self.behaviors.pop(0)
                if behavior == "close":
                    return
                if callable(behavior):
                    reply = behavior(req)
                else:
                    reply = {"id": req.get("id"), "ok": True}
                    if "idem" in req:
                        reply["idem"] = request_digest(req)
                    reply.update(behavior)
                writer.write(json.dumps(reply).encode() + b"\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()


class TestClientResilience:
    def test_retry_after_connection_cut(self):
        async def go():
            retry = RetryPolicy(attempts=3, base_delay=0.001, max_delay=0.01)
            async with _ScriptedServer(["close", {"op": "ping"}]) as fake:
                client = AsyncCompileClient(*fake.address, retry=retry)
                reply = await client.request({"op": "ping"})
                assert reply["ok"]
                assert client.retries == 1
                await client.close()

        run(go())

    def test_overloaded_reply_retried(self):
        async def go():
            shed = {"ok": False, "error": "overloaded",
                    "error_type": "overloaded", "retry_after": 0.001}
            retry = RetryPolicy(attempts=3, base_delay=0.001, max_delay=0.01)
            async with _ScriptedServer([shed, shed, {"op": "ping"}]) as fake:
                client = AsyncCompileClient(*fake.address, retry=retry)
                reply = await client.request({"op": "ping"})
                assert reply["ok"]
                assert client.retries == 2
                await client.close()

        run(go())

    def test_shutdown_is_never_retried(self):
        async def go():
            retry = RetryPolicy(attempts=5, base_delay=0.001)
            async with _ScriptedServer(["close"]) as fake:
                client = AsyncCompileClient(*fake.address, retry=retry)
                with pytest.raises(TransportError):
                    await client.request({"op": "shutdown"})
                assert client.retries == 0
                await client.close()

        run(go())

    def test_idem_echo_mismatch_detected(self):
        def lie(req):
            return {"id": req.get("id"), "ok": True,
                    "idem": "0" * 16}  # wrong digest: garbled request

        async def go():
            async with _ScriptedServer([lie]) as fake:
                client = AsyncCompileClient(*fake.address, retry=None)
                # retry=None skips the idem tag, so tag by hand.
                req = {"op": "ping"}
                req["idem"] = request_digest(req)
                with pytest.raises(TransportError, match="integrity mismatch"):
                    await client.request(req)
                await client.close()

        run(go())

    def test_payload_digest_mismatch_detected(self):
        tampered = {
            "op": "compile",
            "schedule": {"degree": 1, "slots": []},
            "payload_sha256": "0" * 64,
        }

        async def go():
            async with _ScriptedServer([tampered]) as fake:
                client = AsyncCompileClient(*fake.address, retry=None)
                with pytest.raises(TransportError, match="integrity"):
                    await client.request({"op": "compile"})
                await client.close()

        run(go())

    @pytest.mark.parametrize("reply", [
        # The ``schedule`` key lost a byte: nothing left to hash.
        {"op": "compile", "schedul": {"degree": 1, "slots": []},
         "payload_sha256": "0" * 64},
        # The payload fields themselves lost a byte.
        {"op": "compile", "digest": "d" * 64, "cache": "hit",
         "payload_sh256": "0" * 64, "schedule": {"degree": 1, "slots": []}},
        {"op": "amend", "root": "r", "epoch": 1},
    ])
    def test_ok_reply_without_verified_payload_rejected(self, reply):
        async def go():
            async with _ScriptedServer([reply]) as fake:
                client = AsyncCompileClient(*fake.address, retry=None)
                with pytest.raises(TransportError, match="integrity"):
                    await client.request({"op": reply["op"]})
                await client.close()

        run(go())

    def test_breaker_fast_fails_after_threshold(self):
        async def go():
            breaker = CircuitBreaker(failure_threshold=2, reset_timeout=60.0)
            behaviors = ["close"] * 2
            async with _ScriptedServer(behaviors) as fake:
                client = AsyncCompileClient(
                    *fake.address, retry=None, breaker=breaker
                )
                for _ in range(2):
                    with pytest.raises(TransportError):
                        await client.request({"op": "ping"})
                    await client.close()
                # Third request never touches the socket.
                with pytest.raises(CircuitOpen):
                    await client.request({"op": "ping"})
            assert breaker.trips == 1
            assert breaker.rejected == 1

        run(go())

    def test_breaker_half_open_probe_recovers(self):
        async def go():
            clock = [0.0]
            breaker = CircuitBreaker(
                failure_threshold=1, reset_timeout=5.0,
                clock=lambda: clock[0],
            )
            async with _ScriptedServer(["close", {"op": "ping"}]) as fake:
                client = AsyncCompileClient(
                    *fake.address, retry=None, breaker=breaker
                )
                with pytest.raises(TransportError):
                    await client.request({"op": "ping"})
                await client.close()
                clock[0] = 5.0  # reset timer expires: probe admitted
                reply = await client.request({"op": "ping"})
                assert reply["ok"]
                assert breaker.state == "closed"
                await client.close()

        run(go())

    def test_deterministic_failures_do_not_trip_breaker(self):
        bad = {"ok": False, "error": "unknown pattern",
               "error_type": "server_error"}

        async def go():
            breaker = CircuitBreaker(failure_threshold=1, reset_timeout=60.0)
            async with _ScriptedServer([bad, {"op": "ping"}]) as fake:
                client = AsyncCompileClient(
                    *fake.address, retry=None, breaker=breaker
                )
                with pytest.raises(Exception):
                    await client.request({"op": "ping"})
                # An ok:false answer proves the server is *up*.
                assert breaker.state == "closed"
                assert (await client.request({"op": "ping"}))["ok"]
                await client.close()

        run(go())


class TestConnectTimeout:
    """``timeout`` bounds each connect attempt, like each round trip.

    ``asyncio.open_connection`` is patched so one endpoint never
    completes its connect; the outer ``wait_for`` turns an unbounded
    connect into a failure instead of a hung test.
    """

    HUNG = ("127.0.0.1", 9)

    @pytest.fixture(autouse=True)
    def hung_connect(self, monkeypatch):
        real = asyncio.open_connection

        async def open_connection(host, port, **kwargs):
            if (host, port) == self.HUNG:
                await asyncio.Event().wait()
            return await real(host, port, **kwargs)

        monkeypatch.setattr(asyncio, "open_connection", open_connection)

    def test_hung_connect_is_typed_within_timeout(self):
        async def go():
            client = AsyncCompileClient(*self.HUNG, timeout=0.2, retry=None)
            t0 = time.monotonic()
            with pytest.raises(ServiceTimeout, match="connect timed out"):
                await client.request({"op": "ping"})
            assert time.monotonic() - t0 < 1.0

        run(asyncio.wait_for(go(), timeout=3.0))

    def test_hung_endpoint_rotates_to_the_live_one(self):
        async def go(server, host, port):
            client = AsyncCompileClient(
                timeout=0.2, retry=None, endpoints=[self.HUNG, (host, port)]
            )
            assert (await client.request({"op": "ping"}))["ok"]
            assert client.failovers == 1
            await client.close()

        run(asyncio.wait_for(with_server(go), timeout=3.0))


class TestBlockingClientResilience:
    def test_blocking_client_full_loop_against_real_server(self, tmp_path):
        sock = str(tmp_path / "compile.sock")

        async def serve():
            server = CompileServer(socket_path=sock)
            await server.start()
            serve_task = asyncio.ensure_future(server.serve_forever())

            def blocking_session():
                retry = RetryPolicy(attempts=3, base_delay=0.001)
                with CompileClient(
                    socket_path=sock, retry=retry,
                    breaker=CircuitBreaker(failure_threshold=5),
                ) as c:
                    assert c.ping()["ok"]
                    assert c.ready() is True
                    health = c.health()
                    assert health["ready"] is True
                    reply = c.compile(TORUS4, pattern=TRANSPOSE4)
                    assert reply["ok"] and reply["cache"] == "miss"
                    assert c.shutdown()["ok"]

            await asyncio.get_running_loop().run_in_executor(
                None, blocking_session
            )
            await asyncio.wait_for(serve_task, timeout=10)

        run(serve())

    def test_blocking_client_connect_refused_is_typed(self, tmp_path):
        with pytest.raises(TransportError):
            CompileClient(socket_path=str(tmp_path / "nope.sock"),
                          retry=None).connect()

    def test_blocking_client_reuse_after_close(self, tmp_path):
        sock = str(tmp_path / "compile.sock")

        def blocking_session():
            client = CompileClient(socket_path=sock + ".nope", retry=None)
            with pytest.raises(TransportError):
                client.connect()
            assert client._runner is None  # a failed connect closes its loop
            client = CompileClient(socket_path=sock, retry=None)
            assert client.ping()["ok"]
            first = client._runner.get_loop()
            client.close()
            assert first.is_closed()
            # Reuse reconnects on a fresh private loop and answers.
            assert client.compile(TORUS4, pattern=TRANSPOSE4)["ok"]
            second = client._runner.get_loop()
            client.close()
            client.close()  # a second close is a no-op
            assert second.is_closed() and client._runner is None

        async def go():
            server = CompileServer(socket_path=sock)
            await server.start()
            try:
                await asyncio.to_thread(blocking_session)
            finally:
                await server.shutdown()

        run(go())

    def test_blocking_client_refuses_a_running_loop(self):
        # A blocking socket client would stall the loop serving its own
        # server until ``timeout``; the driver refuses at once.
        async def go(server, host, port):
            client = CompileClient(host, port, timeout=2.0, retry=None)
            t0 = time.monotonic()
            with pytest.raises(RuntimeError, match="use AsyncCompileClient"):
                client.ping()
            assert time.monotonic() - t0 < 0.5
            client.close()

        run(asyncio.wait_for(with_server(go), timeout=5.0))
