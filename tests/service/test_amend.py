"""Tests for the service's epoch-numbered amend streams."""

import asyncio

import pytest

from repro.compiler.serialize import schedule_from_dict
from repro.core.configuration import ScheduleValidationError
from repro.service.amend import (
    AmendRegistry,
    AmendStream,
    amend_epoch_digest,
    amend_root_digest,
    parse_rows,
)
from repro.service.cache import ArtifactCache
from repro.service.client import AsyncCompileClient, ServerError
from repro.service.errors import EpochConflict, ProtocolError
from repro.service.server import CompileServer
from repro.topology.torus import Torus2D

TORUS4_SPEC = {"kind": "torus", "width": 4}
RING8 = [(i, (i + 1) % 8, 1, 0) for i in range(8)]


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


class TestParseRows:
    def test_accepts_2_to_4_columns(self):
        assert parse_rows([[0, 1], [2, 3, 5], [4, 5, 1, 7]], what="add") == [
            (0, 1, 1, 0), (2, 3, 5, 0), (4, 5, 1, 7),
        ]

    @pytest.mark.parametrize("bad", [[[0]], [[0, 1, 2, 3, 4]], [0], ["xy"]])
    def test_malformed_rows_rejected(self, bad):
        with pytest.raises(ProtocolError):
            parse_rows(bad, what="add")


class TestDigests:
    def test_root_keyed_by_pattern_and_scheduler(self, torus4):
        a = amend_root_digest(torus4, RING8, "greedy")
        assert a == amend_root_digest(torus4, RING8, "greedy")
        assert a != amend_root_digest(torus4, RING8[:-1], "greedy")
        assert a != amend_root_digest(torus4, RING8, "coloring")

    def test_golden_root_pinned(self, torus4):
        # Pins the root preimage, including its constant ``bitmask``
        # field: a change here orphans every live stream and cached
        # epoch -- bump AMEND_VERSION when intended.
        assert amend_root_digest(torus4, [(0, 1, 1, 0), (2, 3, 4, 5)], "greedy") == (
            "3fe35c5abd9900668346f2a36fe7be91ca84c123a549a93e0c154ef4d106e4d1"
        )

    def test_root_not_translation_canonicalised(self, torus4):
        """An amend stream lives in the caller's node ids: a shifted
        pattern is a different stream, unlike plain compile digests."""
        shifted = [(s + 1, (d + 1) % 16, size, tag)
                   for s, d, size, tag in [(0, 1, 1, 0)]]
        assert amend_root_digest(torus4, [(0, 1, 1, 0)], "greedy") != \
            amend_root_digest(torus4, shifted, "greedy")

    def test_epoch_digest_chains_history(self):
        d1 = amend_epoch_digest("root", [(0, 1, 1, 0)], [])
        d2 = amend_epoch_digest(d1, [], [(0, 1, 1, 0)])
        assert d1 != d2
        assert amend_epoch_digest("root", [(0, 1, 1, 0)], []) == d1
        assert amend_epoch_digest("other", [(0, 1, 1, 0)], []) != d1


class TestAmendStream:
    def make(self, tmp_path, torus4, pattern=RING8):
        cache = ArtifactCache(tmp_path)
        return AmendStream(torus4, pattern, cache=cache), cache

    def test_epoch_zero_state(self, tmp_path, torus4):
        stream, cache = self.make(tmp_path, torus4)
        assert stream.epoch == 0
        assert stream.digest == stream.root
        assert stream.action == "compile"
        assert cache.get(stream.root)["lineage"]["parent"] is None

    def test_amend_bumps_epoch_and_stores_lineage(self, tmp_path, torus4):
        stream, cache = self.make(tmp_path, torus4)
        root = stream.digest
        stream.amend(epoch=0, add=[(0, 2, 1, 0)], remove=[(0, 1, 1, 0)])
        assert stream.epoch == 1
        doc = cache.get(stream.digest)
        lineage = doc["lineage"]
        assert lineage["root"] == stream.root
        assert lineage["parent"] == root
        assert lineage["epoch"] == 1
        assert lineage["add"] == [[0, 2, 1, 0]]
        assert lineage["remove"] == [[0, 1, 1, 0]]
        assert lineage["action"] in ("amend", "amend+repack", "recompile")
        # The stored schedule materialises and validates.
        schedule_from_dict(torus4, doc["schedule"])

    def test_stale_epoch_refused_with_current(self, tmp_path, torus4):
        stream, _ = self.make(tmp_path, torus4)
        stream.amend(epoch=0, add=[(0, 2, 1, 0)])
        with pytest.raises(EpochConflict) as exc:
            stream.amend(epoch=0, add=[(0, 5, 1, 0)])
        assert exc.value.current_epoch == 1
        assert stream.epoch == 1  # state untouched

    def test_unknown_remove_row_leaves_state(self, tmp_path, torus4):
        stream, _ = self.make(tmp_path, torus4)
        with pytest.raises(ProtocolError):
            stream.amend(epoch=0, remove=[(9, 9, 1, 0)])
        assert stream.epoch == 0
        # The key map rolled back: the legitimate removal still works.
        stream.amend(epoch=0, remove=[(0, 1, 1, 0)])
        assert stream.epoch == 1

    def test_partial_bad_update_rolls_back_resolved_rows(self, tmp_path, torus4):
        stream, _ = self.make(tmp_path, torus4)
        with pytest.raises(ProtocolError):
            # First row resolves, second does not; both must roll back.
            stream.amend(epoch=0, remove=[(0, 1, 1, 0), (9, 9, 1, 0)])
        assert stream.epoch == 0
        stream.amend(epoch=0, remove=[(0, 1, 1, 0)])

    def test_duplicate_pairs_removed_oldest_first(self, tmp_path, torus4):
        pattern = [(0, 1, 1, 0), (0, 1, 1, 0), (2, 3, 1, 0)]
        stream, _ = self.make(tmp_path, torus4, pattern=pattern)
        stream.amend(epoch=0, remove=[(0, 1, 1, 0)])
        left = {c.index for c in stream.engine.connections()}
        assert left == {1, 2}  # index 0 (oldest) went first
        stream.amend(epoch=1, remove=[(0, 1, 1, 0)])
        assert {c.index for c in stream.engine.connections()} == {2}

    def test_schedule_valid_after_every_epoch(self, tmp_path, torus4):
        stream, _ = self.make(tmp_path, torus4)
        for epoch in range(6):
            stream.amend(
                epoch=epoch,
                add=[(epoch, (epoch + 4) % 16, 1, 7)],
                remove=[RING8[epoch][:4]] if epoch < len(RING8) else [],
            )
            stream.engine.schedule.validate(stream.engine.connections())


class TestAmendRegistry:
    def test_open_is_idempotent(self, torus4):
        reg = AmendRegistry()
        s1, created1 = reg.open(torus4, RING8)
        s1.amend(epoch=0, add=[(0, 2, 1, 0)])
        s2, created2 = reg.open(torus4, RING8)
        assert created1 and not created2
        assert s2 is s1 and s2.epoch == 1  # resume, not reset
        assert reg.opened == 1 and len(reg) == 1

    def test_unknown_root_rejected(self):
        with pytest.raises(ProtocolError):
            AmendRegistry().get("no-such-root")

    def test_stats_count_amends_and_conflicts(self, torus4):
        reg = AmendRegistry()
        stream, _ = reg.open(torus4, RING8)
        reg.amend(stream.root, epoch=0, add=[(0, 2, 1, 0)])
        with pytest.raises(EpochConflict):
            reg.amend(stream.root, epoch=0, add=[(0, 5, 1, 0)])
        assert reg.stats() == {
            "streams": 1, "max_streams": reg.max_streams,
            "opened": 1, "amends": 1, "conflicts": 1,
            "evictions": 0, "resumes": 0, "resets": 0, "takeovers": 0,
        }


class TestRegistryBound:
    """LRU eviction + resume-from-cache of the bounded registry."""

    def patterns(self, n):
        """n distinct patterns (distinct roots) on a 4x4 torus."""
        return [
            [(i, (i + k + 1) % 16, 1, 0) for i in range(8)]
            for k in range(n)
        ]

    def test_cap_evicts_lru(self, torus4):
        reg = AmendRegistry(max_streams=2)
        p = self.patterns(3)
        s0, _ = reg.open(torus4, p[0])
        s1, _ = reg.open(torus4, p[1])
        reg.get(s0.root)  # touch: s1 becomes LRU
        reg.open(torus4, p[2])
        assert len(reg) == 2 and reg.evictions == 1
        assert s0.root in reg._streams and s1.root not in reg._streams

    def test_evicted_stream_resumes_from_cache(self, torus4, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        reg = AmendRegistry(cache, max_streams=1)
        p = self.patterns(2)
        s0, _ = reg.open(torus4, p[0])
        reg.amend(s0.root, epoch=0, add=[(0, 2, 1, 9)])
        root, epoch, digest = s0.root, s0.epoch, s0.digest
        reg.open(torus4, p[1])  # evicts s0
        assert reg.evictions == 1 and root not in reg._streams
        # get() resumes the evicted stream at its stored epoch/digest...
        resumed = reg.get(root)
        assert resumed is not s0
        assert (resumed.root, resumed.epoch, resumed.digest) == (
            root, epoch, digest
        )
        assert reg.resumes == 1
        # ...and the lineage continues: the next amend chains onto the
        # stored digest exactly as the live stream would have.
        after = reg.amend(root, epoch=epoch, add=[(1, 3, 1, 9)])
        assert after.epoch == epoch + 1
        assert after.digest == amend_epoch_digest(digest, [(1, 3, 1, 9)], [])

    def test_idempotent_open_resumes_not_resets(self, torus4, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        reg = AmendRegistry(cache, max_streams=1)
        p = self.patterns(2)
        s0, _ = reg.open(torus4, p[0])
        reg.amend(s0.root, epoch=0, add=[(0, 2, 1, 9)])
        reg.open(torus4, p[1])  # evicts s0 at epoch 1
        reopened, created = reg.open(torus4, p[0])
        assert not created and reopened.epoch == 1  # resume, not reset
        assert reg.resumes == 1 and reg.resets == 0

    def test_artifact_gone_get_raises_open_resets(self, torus4, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        reg = AmendRegistry(cache, max_streams=1)
        p = self.patterns(2)
        s0, _ = reg.open(torus4, p[0])
        reg.open(torus4, p[1])  # evicts s0
        reg.cache = ArtifactCache()  # the epoch artifact is gone
        with pytest.raises(ProtocolError, match="evicted"):
            reg.get(s0.root)
        fresh, created = reg.open(torus4, p[0])
        assert created and fresh.epoch == 0 and reg.resets == 1


class TestHeadTable:
    """Heads a peer replicated, next to the registry's own evictions."""

    def pair(self, torus4):
        """This server and a peer on one cache, both holding RING8 at
        epoch 0: the peer's epoch artifacts are readable here, as
        replicated ones are on a farm node."""
        cache = ArtifactCache()
        here, peer = AmendRegistry(cache), AmendRegistry(cache)
        live, _ = here.open(torus4, RING8)
        other, _ = peer.open(torus4, RING8)
        return here, peer, live, other

    def test_head_no_newer_than_live_engine_is_ignored(self, torus4):
        here, peer, live, other = self.pair(torus4)
        here.note(other.head())  # epoch 0, as live as ours
        assert here.peek(live.root) is live
        assert not here.take_over(live.root)
        assert here.takeovers == 0

    def test_newer_head_retires_engine_and_get_resumes(self, torus4):
        here, peer, live, other = self.pair(torus4)
        for e in range(2):
            peer.amend(other.root, epoch=e, add=[(e, e + 3, 1, 4)])
        here.note(other.head())
        assert here.peek(live.root) is None  # retired: the peer moved on
        resumed = here.get(live.root)
        assert (resumed.root, resumed.epoch, resumed.digest) == (
            other.root, 2, other.digest
        )
        assert here.takeovers == 1 and here.resumes == 0
        after = here.amend(live.root, epoch=2, add=[(5, 1, 1, 4)])
        assert after.digest == amend_epoch_digest(
            other.digest, [(5, 1, 1, 4)], []
        )

    def test_older_head_than_held_is_ignored(self, torus4):
        here, peer, live, other = self.pair(torus4)
        peer.amend(other.root, epoch=0, add=[(0, 3, 1, 4)])
        old = other.head()
        peer.amend(other.root, epoch=1, add=[(1, 4, 1, 4)])
        here.note(other.head())
        here.note(old)
        assert here.get(live.root).epoch == 2

    def test_eviction_counts_resumes_noted_head_counts_takeovers(
        self, torus4
    ):
        p0, p1, p2 = (
            [(i, (i + k) % 16, 1, 0) for i in range(8)] for k in (1, 2, 5)
        )
        cache = ArtifactCache()
        here, peer = AmendRegistry(cache, max_streams=1), AmendRegistry(cache)
        evicted, _ = here.open(torus4, p0)
        here.open(torus4, p1)  # evicts the first
        assert not here.take_over(evicted.root)  # only a peer's head
        assert here.get(evicted.root).epoch == 0
        assert (here.resumes, here.takeovers) == (1, 0)
        replicated, _ = peer.open(torus4, p2)
        peer.amend(replicated.root, epoch=0, add=[(0, 9, 1, 0)])
        here.note(replicated.head())
        assert here.take_over(replicated.root)
        assert here.peek(replicated.root).epoch == 1
        assert (here.resumes, here.takeovers) == (1, 1)
        assert here.stats()["takeovers"] == 1

    def test_head_without_artifact_get_raises_open_resets(self, torus4):
        here, peer, live, other = self.pair(torus4)
        peer.amend(other.root, epoch=0, add=[(0, 3, 1, 4)])
        here.note({**other.head(), "digest": "f" * 64})  # never stored
        assert not here.take_over(live.root)
        with pytest.raises(ProtocolError, match="no longer cached"):
            here.get(live.root)
        fresh, created = here.open(torus4, RING8)
        assert created and fresh.epoch == 0 and here.resets == 1

    def test_heads_list_live_and_held(self, torus4):
        here, peer, live, other = self.pair(torus4)
        assert here.heads() == [live.head()]
        peer.amend(other.root, epoch=0, add=[(0, 3, 1, 4)])
        here.note(other.head())
        assert here.heads() == [{**other.head(), "replicated": True}]


class TestHeadTableBound:
    """Held heads whose epoch artifacts the cache dropped are pruned."""

    def test_held_heads_stay_bounded_and_cached_ones_resume(self, torus4):
        cache = ArtifactCache(memory_entries=8)
        here, peer = AmendRegistry(cache, max_streams=2), AmendRegistry(cache)
        most = 0
        for k in range(60):
            pattern = [
                (i, (i + 1 + k % 15) % 16, 1, 0) for i in range(8 + k // 15)
            ]
            if k % 2:
                here.open(torus4, pattern)  # evicts past max_streams
            else:
                stream, _ = peer.open(torus4, pattern)
                peer.amend(stream.root, epoch=0, add=[(0, 5, 1, 7)])
                here.note(stream.head())
            most = max(most, len(here.heads()) - len(here))
        # At most twice the heads a prune can keep: those on cached
        # artifacts, which the memory tier bounds.
        assert most <= 2 * max(here.max_streams, cache.memory_entries)
        held = [h for h in here.heads()[len(here):] if h["digest"] in cache]
        assert held
        for head in held:
            resumed = here.get(head["root"])
            assert (resumed.root, resumed.epoch, resumed.digest) == (
                head["root"], head["epoch"], head["digest"]
            )


class TestAmendVerb:
    """The wire-level amend verb end to end."""

    def test_open_then_amend_then_conflict(self):
        async def go(server, host, port):
            async with AsyncCompileClient(host, port) as c:
                opened = await c.amend(
                    TORUS4_SPEC, pairs=[[i, (i + 1) % 8] for i in range(8)]
                )
                assert opened["epoch"] == 0 and opened["cache"] == "open"
                root = opened["root"]

                amended = await c.amend(
                    root=root, epoch=0, add=[[0, 5]], remove=[[0, 1]],
                )
                assert amended["epoch"] == 1
                assert amended["root"] == root
                assert amended["digest"] != root
                assert amended["lineage"]["parent"] == opened["digest"]
                assert amended["action"] in ("amend", "amend+repack", "recompile")

                # The returned schedule materialises and validates
                # client-side against the amended pattern.
                topo = Torus2D(4)
                schedule_from_dict(topo, amended["schedule"])

                with pytest.raises(EpochConflict) as exc:
                    await c.amend(root=root, epoch=0, add=[[1, 6]])
                assert exc.value.current_epoch == 1
            stats = server.amends.stats()
            assert stats["amends"] == 1 and stats["conflicts"] == 1

        run(with_server(go))

    def test_reopen_resumes_current_epoch(self):
        async def go(server, host, port):
            async with AsyncCompileClient(host, port) as c:
                pairs = [[i, (i + 1) % 8] for i in range(8)]
                opened = await c.amend(TORUS4_SPEC, pairs=pairs)
                await c.amend(root=opened["root"], epoch=0, add=[[0, 5]])
                again = await c.amend(TORUS4_SPEC, pairs=pairs)
            assert again["cache"] == "resume"
            assert again["epoch"] == 1

        run(with_server(go))

    def test_epoch_artifacts_are_cache_entries(self, tmp_path):
        async def go(server, host, port):
            async with AsyncCompileClient(host, port) as c:
                opened = await c.amend(TORUS4_SPEC, pairs=[[0, 1], [2, 3]])
                amended = await c.amend(
                    root=opened["root"], epoch=0, add=[[4, 5]],
                )
            for digest in (opened["digest"], amended["digest"]):
                doc = server.cache.get(digest)
                assert doc["lineage"]["root"] == opened["root"]

        run(with_server(go, cache=ArtifactCache(tmp_path)))

    def test_malformed_amend_requests_are_replies(self):
        async def go(server, host, port):
            async with AsyncCompileClient(host, port) as c:
                for bad in (
                    {"op": "amend"},  # neither topology nor root
                    {"op": "amend", "root": "nope", "epoch": 0,
                     "add": [[0, 1]]},  # unknown root
                    {"op": "amend", "topology": TORUS4_SPEC},  # no pattern
                ):
                    with pytest.raises(ServerError):
                        await c.request(bad)
                opened = await c.amend(TORUS4_SPEC, pairs=[[0, 1]])
                for bad in (
                    {"op": "amend", "root": opened["root"],
                     "add": [[0, 2]]},  # missing epoch
                    {"op": "amend", "root": opened["root"], "epoch": 0},
                    {"op": "amend", "root": opened["root"], "epoch": 0,
                     "add": [[0]]},  # malformed row
                    {"op": "amend", "root": opened["root"], "epoch": 0,
                     "remove": [[9, 9]]},  # matches nothing
                ):
                    with pytest.raises(ServerError):
                        await c.request(bad)
                # Stream survived all of it at epoch 0.
                ok = await c.amend(root=opened["root"], epoch=0, add=[[0, 2]])
                assert ok["epoch"] == 1

        run(with_server(go))
