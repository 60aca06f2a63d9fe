"""Tests for the wire frame: the codec, frame faults on the direct and
routed paths, golden digests and the byte identity of cached payloads."""

import asyncio
import hashlib
import json
import random

import pytest

from repro.compiler.serialize import artifact_digest, canonical_dumps
from repro.service import wire
from repro.service.cache import ArtifactCache, CachedArtifact
from repro.service.chaos import ChaosConfig, ChaosProxy
from repro.service.canonical import canonicalize, node_permutation, translation_group
from repro.service.client import AsyncCompileClient, CompileClient
from repro.service.errors import TransportError
from repro.service.farm import Farm, FarmNodeServer
from repro.service.server import CompileServer
from repro.topology.torus import Torus2D

TORUS4 = {"kind": "torus", "width": 4}
TORUS8 = {"kind": "torus", "width": 8}
A2A64 = {"pattern": "all-to-all", "nodes": 64}
TRANSPOSE4 = {"pattern": "transpose", "width": 4}


def run(coro):
    return asyncio.run(coro)


async def with_server(fn, **kwargs):
    server = await CompileServer(**kwargs).start()
    try:
        return await fn(server)
    finally:
        await server.shutdown()


# ----------------------------------------------------------------------
# the codec
# ----------------------------------------------------------------------

class TestCodec:
    def test_one_line_message_round_trip(self):
        frame = wire.encode({"op": "ping", "id": 3})
        assert frame.count(b"\n") == 1
        assert wire.decode(frame) == {"op": "ping", "id": 3}

    def test_payload_fields_join_the_message(self):
        sched = {"degree": 1, "slots": [[{"src": 0, "dst": 1}]]}
        frame = wire.encode({
            "ok": True, "op": "compile", "registers": True,
            "payload": wire.Payload.of({"schedule": sched}),
        })
        head, payload = frame[:-1].split(b"\n")
        assert head.startswith(wire.PAYLOAD_MARK)
        assert payload == canonical_dumps({"schedule": sched}).encode()
        header = wire.decode_header(frame)
        assert header["registers"] is True and "schedule" not in header
        assert header["payload_sha256"] == artifact_digest({"schedule": sched})
        assert wire.decode(frame) == {**header, "schedule": sched}

    def test_artifact_ops_carry_the_artifact(self):
        doc = {"version": 1, "schedule": {"degree": 0, "slots": []}}
        frame = wire.encode({"op": "store", "digest": "d", "artifact": doc})
        header = wire.decode_header(frame)
        assert "artifact" not in header
        assert header["payload_sha256"] == artifact_digest(doc)
        assert wire.decode(frame)["artifact"] == doc
        cached = wire.encode({
            "op": "store", "digest": "d", "payload": wire.Payload.of(doc),
        })
        assert cached == frame

    def test_cached_payload_is_written_verbatim(self):
        payload = wire.Payload(b'{"schedule":{}}', "ab" * 32)
        frame = wire.encode({"op": "compile", "payload": payload})
        assert frame.endswith(b'\n{"schedule":{}}\n')
        header = wire.decode_header(frame)
        assert header["payload_sha256"] == "ab" * 32 and "payload" not in header
        with pytest.raises(wire.FrameError, match="integrity"):
            wire.decode(frame)

    @pytest.mark.parametrize("frame, match", [
        (b"not json\n", "bad JSON"),
        (b"[1]\n", "JSON object"),
        (b'{"ok":true,"payload_sha256":"00"}\n', "lacks"),
        (b'{"payload_len":5,"payload_sha256":"00"}\n{}\n', "length"),
    ])
    def test_undecodable_frames(self, frame, match):
        for decoder in (wire.decode, wire.decode_header):
            with pytest.raises(wire.FrameError, match=match):
                decoder(frame)

    @pytest.mark.parametrize("doc", [{"x": 1}, {"x": "y" * 500}])
    def test_reader_never_waits_for_a_payload_a_broken_header_announced(self, doc):
        async def go():
            reader = asyncio.StreamReader()
            merged = wire.encode({"op": "compile", "payload": wire.Payload.of(doc)})
            merged = merged.replace(b"}\n{", b"} {", 1)  # lost separator
            reader.feed_data(merged)
            reader.feed_eof()
            frame = await asyncio.wait_for(wire.read_frame(reader), 1.0)
            assert frame == merged
            with pytest.raises(wire.FrameError):
                wire.decode(frame)

        run(go())

    def test_torn_frame_arrives_whole(self):
        async def go():
            frame = wire.encode({"op": "compile", "payload": wire.Payload.of({"x": 1})})
            for cut in (len(frame) - 3, frame.index(b"\n") - 2):
                reader = asyncio.StreamReader()
                reader.feed_data(frame[:cut])
                reader.feed_eof()
                assert await wire.read_frame(reader) == frame[:cut]
                assert await wire.read_frame(reader) == b""

        run(go())


# ----------------------------------------------------------------------
# frame faults: direct and routed, async and blocking clients
# ----------------------------------------------------------------------

def _nl(frame):
    """Index of the newline between header and payload."""
    return frame.index(b"\n")


#: name -> (transform of one reply frame, cut the connection after it)
FAULTS = {
    "truncate-header": (lambda f: f[: _nl(f) // 2], True),
    "garble-header": (lambda f: b"[" + f[1:], False),
    "garble-header-key": (lambda f: f.replace(b'"ok":', b'"oK":', 1), False),
    "truncate-payload": (lambda f: f[: (_nl(f) + len(f)) // 2], True),
    "short-payload": (lambda f: f[: (_nl(f) + len(f)) // 2] + b"\n", False),
    "garble-payload": (
        lambda f: f[:-8] + bytes([f[-8] ^ 0x01]) + f[-7:], False
    ),
    "truncate-at-newline": (lambda f: f[: _nl(f)], True),
    "garble-newline": (lambda f: f[: _nl(f)] + b" " + f[_nl(f) + 1:], False),
}


class _FaultyRelay:
    """Relays frames to ``upstream``; mauls the first payload-carrying
    reply with one fault, relays every later frame untouched."""

    def __init__(self, upstream, fault):
        self.upstream = upstream
        self.transform, self.cut = FAULTS[fault]
        self.pending = True
        self._server = None

    async def __aenter__(self):
        self._server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0, limit=1 << 24
        )
        return self

    async def __aexit__(self, *exc):
        self._server.close()
        await self._server.wait_closed()

    @property
    def address(self):
        return self._server.sockets[0].getsockname()[:2]

    async def _handle(self, reader, writer):
        up_reader, up_writer = await asyncio.open_connection(
            *self.upstream, limit=1 << 24
        )
        try:
            while True:
                frame = await wire.read_frame(reader)
                if not frame:
                    return
                up_writer.write(frame)
                reply = await wire.read_frame(up_reader)
                if self.pending and reply.startswith(wire.PAYLOAD_MARK):
                    self.pending = False
                    writer.write(self.transform(reply))
                    await writer.drain()
                    if self.cut:
                        return
                    continue
                writer.write(reply)
                await writer.drain()
        except ConnectionError:
            pass
        finally:
            for w in (writer, up_writer):
                w.close()


async def _fault_then_recover(upstream, fault, reference):
    async with _FaultyRelay(upstream, fault) as relay:
        client = AsyncCompileClient(*relay.address, retry=None, timeout=5.0)
        try:
            with pytest.raises(TransportError):
                await client.compile(TORUS4, pattern=TRANSPOSE4)
            reply = await client.compile(TORUS4, pattern=TRANSPOSE4)
        finally:
            await client.close()
    assert relay.pending is False
    assert reply["id"] == 2  # its own reply, not a leftover line
    assert reply["schedule"] == reference


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_direct_frame_fault_is_typed_and_does_not_desync(fault):
    async def go(server):
        async with AsyncCompileClient(*server.address) as c:
            reference = (await c.compile(TORUS4, pattern=TRANSPOSE4))["schedule"]
        await _fault_then_recover(server.address, fault, reference)

    run(with_server(go))


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_routed_frame_fault_is_typed_and_does_not_desync(fault):
    async def go():
        farm = await Farm(2, replication=2, workers=0).start()
        try:
            async with AsyncCompileClient(*farm.router_address) as c:
                reference = (
                    await c.compile(TORUS4, pattern=TRANSPOSE4)
                )["schedule"]
            await _fault_then_recover(farm.router_address, fault, reference)
        finally:
            await farm.shutdown()

    run(go())


@pytest.mark.parametrize("fault", ["garble-newline", "garble-payload"])
def test_blocking_client_frame_fault(fault):
    async def go(server):
        async with _FaultyRelay(server.address, fault) as relay:
            loop = asyncio.get_running_loop()

            def blocking():
                with CompileClient(*relay.address, retry=None, timeout=5.0) as c:
                    with pytest.raises(TransportError):
                        c.compile(TORUS4, pattern=TRANSPOSE4)
                    return c.compile(TORUS4, pattern=TRANSPOSE4)

            reply = await loop.run_in_executor(None, blocking)
        assert reply["ok"] and reply["id"] == 2

    run(with_server(go))


async def _raw_exchange(address, data, *, half_close=True):
    """Send ``data`` (then half-close) and read every reply frame to EOF."""
    reader, writer = await asyncio.open_connection(*address, limit=1 << 24)
    writer.write(data)
    await writer.drain()
    if half_close:
        writer.write_eof()
    frames = []
    while frame := await asyncio.wait_for(wire.read_frame(reader), 10.0):
        frames.append(frame)
    writer.close()
    return frames


LAST_REQUEST = (
    b'{"op":"compile","id":7,"topology":{"kind":"torus","width":4},'
    b'"pattern":{"pattern":"transpose","width":4}}'
)


@pytest.mark.parametrize("routed", [False, True])
def test_last_request_without_newline_is_answered(routed):
    async def go():
        if routed:
            farm = await Farm(2, replication=2, workers=0).start()
            address, stop = farm.router_address, farm.shutdown
        else:
            server = await CompileServer().start()
            address, stop = server.address, server.shutdown
        try:
            frames = await _raw_exchange(address, LAST_REQUEST)
        finally:
            await stop()
        assert len(frames) == 1
        reply = wire.decode(frames[0])
        assert reply["ok"] and reply["id"] == 7 and reply["schedule"]["slots"]

    run(go())


def test_chaos_proxy_passes_a_torn_frame_on_whole():
    frame = wire.encode({"op": "compile", "payload": wire.Payload.of({"x": 1})})
    torn = frame[: frame.index(b"\n") + 4]  # header plus part of the payload

    async def upstream(reader, writer):
        await reader.readline()
        writer.write(torn)
        await writer.drain()
        writer.close()

    async def go():
        server = await asyncio.start_server(upstream, "127.0.0.1", 0)
        proxy = await ChaosProxy(
            server.sockets[0].getsockname()[:2], ChaosConfig()
        ).start()
        try:
            # No half-close: a pump that sees EOF tears both directions down.
            frames = await _raw_exchange(
                proxy.address, b'{"op":"ping"}\n', half_close=False
            )
        finally:
            await proxy.stop()
            server.close()
            await server.wait_closed()
        assert frames == [torn]
        assert proxy.stats.frames == 2

    run(go())


# ----------------------------------------------------------------------
# golden pins: digests and payload hashes are byte-identical to the
# JSON-lines protocol this frame replaced
# ----------------------------------------------------------------------

def _translated_pairs():
    rng = random.Random(16)
    pairs = []
    while len(pairs) < 64:
        s, d = rng.randrange(64), rng.randrange(64)
        if s != d:
            pairs.append([s, d])
    return pairs


PINS = {
    ("a2a", False): (
        "77811af0d36cef608bc08760e5de9cac4086284b13e043f0f69ff505d00e8f2d",
        "1495037814ecf6bfa4a2093a1daee57b27eafd9e1d709ff0dc023e2c56f577db",
    ),
    ("a2a", True): (
        "77811af0d36cef608bc08760e5de9cac4086284b13e043f0f69ff505d00e8f2d",
        "20718aeb7d51ce9bd88d20e8ba7838401c51d7f9b21546318d6c94843b04c697",
    ),
    ("translated", False): (
        "a3349de2359ae82361f027385e0045cc817971ac42ec7036c65cb1fe92881936",
        "9810ebc12c0bb5e3752265382f8e41a1400cbbb4829bc584fdbe38afe1e20a16",
    ),
    ("translated", True): (
        "a3349de2359ae82361f027385e0045cc817971ac42ec7036c65cb1fe92881936",
        "6d18c7528cb40e3ad1944944a0a0000c92badffc3ad152378af67434d883c617",
    ),
}
AMEND_PINS = [
    (0, "dc0cd38b7359745110c8daa16bbc98438184ab717949a5ece6e2c54d6c9a3b36",
     "e9da0f26750c1297141c98d457321ab59a091a3291df7b83f2bff5fa27db04ad"),
    (1, "a02da74fee29f9e6102cee56dd5adb974d364316c311e3e02f99c5f0afb6a8cd",
     "0c2f6725a8ff401fec8a8605e5932b5b606f6899f156539d72940cd71cf4a617"),
    (2, "74cf0fba3e80b59a999413d64c6325c93c94956b20ea8e355bdf40bc299d2cec",
     "63b631f0354c0175e56b79ea2e41f52e11da98f0fe759dd2706586852591380b"),
    (3, "b8078743e0407ae41b2758fec922348f6486175ad1ab076b41489c93630c4707",
     "2e2dca773866623f935ab7b16f5d0d2bdfe1cef184c114dce9f007ca75605d0b"),
]
STORE_PIN = (
    "815e2d6dad1d418aba50fb3bb9b94808a76c39dbbaf969a9dfd6f4437025f28f",
    "ca9d6584799550694ba8bfe5bc49d58ee703e57d094c8eb45145cf1aa307208d",
)
#: sha256 of the disk shard file of STORE_PIN's artifact with registers.
SHARD_PIN = "5ec6af3d67fdd3c0811971812208b5d4c4e0401e023771e7741797f44a75adee"


class TestGoldenPins:
    def test_compile_digests_and_payload_hashes(self):
        pairs = _translated_pairs()
        assert not canonicalize(Torus2D(8), [tuple(p) for p in pairs]).is_identity

        async def go(server):
            async with AsyncCompileClient(*server.address) as c:
                for registers in (False, True):
                    for _ in range(2):  # cold, then the cached bytes
                        a2a = await c.compile(
                            TORUS8, pattern=A2A64, registers=registers
                        )
                        assert (a2a["digest"], a2a["payload_sha256"]) == \
                            PINS[("a2a", registers)]
                        moved = await c.compile(
                            TORUS8, pairs=pairs, registers=registers
                        )
                        assert (moved["digest"], moved["payload_sha256"]) == \
                            PINS[("translated", registers)]
                    assert a2a["cache"] == moved["cache"] == "hit"

        run(with_server(go))

    def test_amend_epoch_chain(self):
        async def go(server):
            async with AsyncCompileClient(*server.address) as c:
                r = await c.amend(
                    TORUS4, pairs=[[0, 5], [5, 10], [10, 15], [3, 12], [7, 1]],
                    scheduler="greedy",
                )
                chain = [(r["epoch"], r["digest"], r["payload_sha256"])]
                for add, remove in (
                    ([[1, 2], [2, 3]], []), ([[8, 9]], [[0, 5]]), ([], [[3, 12]]),
                ):
                    r = await c.amend(root=r["root"], epoch=r["epoch"],
                                      add=add, remove=remove)
                    chain.append((r["epoch"], r["digest"], r["payload_sha256"]))
            assert chain == AMEND_PINS

        run(with_server(go))

    def test_store_push_and_disk_shard(self, tmp_path, monkeypatch):
        seen = []
        original = FarmNodeServer._store_replica

        def spy(self, req):
            seen.append((req.get("digest"), req.get("payload_sha256")))
            return original(self, req)

        monkeypatch.setattr(FarmNodeServer, "_store_replica", spy)

        async def go():
            farm = await Farm(2, replication=2, workers=0).start()
            try:
                async with farm.client() as c:
                    await c.compile(TORUS4, pattern=TRANSPOSE4)
                    for _ in range(200):
                        if seen:
                            break
                        await asyncio.sleep(0.01)
            finally:
                await farm.shutdown()

        run(go())
        assert seen == [STORE_PIN]

        async def disk(server):
            async with AsyncCompileClient(*server.address) as c:
                await c.compile(TORUS4, pattern=TRANSPOSE4, registers=True)

        run(with_server(disk, cache=str(tmp_path)))
        digest = STORE_PIN[0]
        shard = (tmp_path / digest[:2] / f"{digest}.json").read_bytes()
        assert hashlib.sha256(shard).hexdigest() == SHARD_PIN


# ----------------------------------------------------------------------
# byte identity of cached payloads
# ----------------------------------------------------------------------

def test_cached_bytes_and_reply_hashes_match_the_canonical_encoding():
    topo = Torus2D(4)
    group = translation_group(topo)
    rng = random.Random(5)
    cases = []
    for _ in range(12):
        rows, count = set(), rng.randrange(2, 12)
        while len(rows) < count:
            s, d = rng.sample(range(16), 2)
            rows.add((s, d, rng.randrange(1, 4), rng.randrange(0, 3)))
        sigma = node_permutation(topo, rng.choice(group))
        pairs = [[sigma[s], sigma[d], size, tag] for s, d, size, tag in rows]
        cases.append((pairs, rng.random() < 0.5))

    async def go(server):
        async with AsyncCompileClient(*server.address) as c:
            for pairs, registers in cases:
                reply = await c.compile(TORUS4, pairs=pairs, registers=registers)
                sub = {"schedule": reply["schedule"]}
                if registers:
                    sub["registers"] = reply["registers"]
                assert reply["payload_sha256"] == artifact_digest(sub)
                entry = server.cache.encoded(reply["digest"])
                keys = ("registers", "schedule") if registers else ("schedule",)
                cached = {k: entry.doc[k] for k in keys}
                assert entry.payload(*keys).data == canonical_dumps(cached).encode()
                assert entry.whole().data == canonical_dumps(entry.doc).encode()
                assert entry.sha256 == artifact_digest(entry.doc)
                assert entry.payload(*keys).sha256 == artifact_digest(cached)

    run(with_server(go))


def test_cached_artifact_survives_the_disk_tier(tmp_path):
    doc = {"version": 1, "topology": "t", "schedule": {"degree": 2.0, "slots": []}}
    ArtifactCache(tmp_path).put("ab" + "0" * 62, doc)
    entry = ArtifactCache(tmp_path).encoded("ab" + "0" * 62)
    assert entry is not None and entry.sha256 == artifact_digest(doc)
    assert entry.payload("schedule").data == b'{"schedule":{"degree":2,"slots":[]}}'
    assert CachedArtifact(doc).fields == entry.fields
    json.loads(entry.whole().data)
