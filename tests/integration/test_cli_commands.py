"""Integration tests for the remaining CLI subcommands."""

import json

import pytest

from repro.cli import main


class TestTables:
    def test_table1_quick(self, capsys):
        assert main(["table1", "--patterns", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "4000" in out

    def test_table2_quick(self, capsys):
        assert main(["table2", "--samples", "10"]) == 0
        out = capsys.readouterr().out
        assert "redistributions" in out

    def test_table1_workers_flag(self, capsys):
        assert main(["table1", "--patterns", "1", "--workers", "2"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_table4(self, capsys):
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "P3M 5" in out

    def test_table5_small(self, capsys):
        assert main(["table5", "--gs-grids", "64", "--p3m-grids", "32"]) == 0
        out = capsys.readouterr().out
        assert "TSCF" in out and "compiled" in out

    def test_programs(self, capsys):
        assert main(["programs"]) == 0
        out = capsys.readouterr().out
        assert "P3M" in out and "per-phase K" in out

    def test_ablation_quick(self, capsys):
        assert main(["ablation", "--patterns", "1"]) == 0
        out = capsys.readouterr().out
        assert "dsatur" in out


class TestTools:
    def test_trace(self, capsys):
        assert main([
            "trace", "--spec", '{"pattern": "pairs", "pairs": [[0, 1], [0, 2]], "size": 8}',
            "--degree", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "established" in out
        assert "failed reservations" in out

    def test_trace_no_hops(self, capsys):
        assert main([
            "trace", "--spec", '{"pattern": "pairs", "pairs": [[0, 9]]}',
            "--no-hops",
        ]) == 0
        assert "res-hop" not in capsys.readouterr().out

    def test_compile_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "artifact.json"
        assert main([
            "compile", "--spec", '{"pattern": "ring", "nodes": 64, "size": 8}',
            "--output", str(out_file),
        ]) == 0
        assert "degree 2" in capsys.readouterr().out
        doc = json.loads(out_file.read_text())
        assert doc["topology"].startswith("torus2d:8x8")
        from repro.compiler.serialize import load_artifact
        from repro.topology.torus import Torus2D

        schedule, _ = load_artifact(out_file, Torus2D(8))
        assert schedule.degree == 2

    def test_compile_with_algorithm(self, tmp_path, capsys):
        out_file = tmp_path / "g.json"
        assert main([
            "compile", "--spec", '{"pattern": "pairs", "pairs": [[0, 1]]}',
            "--output", str(out_file), "--algorithm", "greedy",
        ]) == 0
        assert "greedy" in capsys.readouterr().out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestServiceCommands:
    def test_compile_with_cache_hits_second_time(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        spec = '{"pattern": "transpose", "width": 8}'
        assert main(["compile", "--spec", spec, "--cache", cache_dir]) == 0
        assert "cache miss" in capsys.readouterr().out
        assert main(["compile", "--spec", spec, "--cache", cache_dir]) == 0
        assert "cache hit" in capsys.readouterr().out

    def test_compile_without_output_or_cache(self, capsys):
        assert main([
            "compile", "--spec", '{"pattern": "pairs", "pairs": [[0, 1]]}',
        ]) == 0
        assert "no cache" in capsys.readouterr().out

    def test_faults_with_cache(self, tmp_path, capsys):
        assert main([
            "faults", "--faults", "0", "--cache", str(tmp_path / "cache"),
        ]) == 0
        assert "artifact cache:" in capsys.readouterr().out

    def test_serve_client_roundtrip(self, tmp_path):
        # The CI smoke flow in-process: server on a unix socket, two
        # identical compiles, second must be a cache hit.
        import asyncio

        from repro.service.client import AsyncCompileClient
        from repro.service.server import CompileServer

        sock = str(tmp_path / "compile.sock")

        async def go():
            server = CompileServer(
                cache=str(tmp_path / "cache"), socket_path=sock
            )
            await server.start()
            try:
                async with AsyncCompileClient(socket_path=sock) as c:
                    first = await c.compile(
                        {"kind": "torus", "width": 8},
                        pattern={"pattern": "all-to-all", "nodes": 64},
                    )
                    second = await c.compile(
                        {"kind": "torus", "width": 8},
                        pattern={"pattern": "all-to-all", "nodes": 64},
                    )
                return first["cache"], second["cache"]
            finally:
                await server.shutdown()

        assert asyncio.run(go()) == ("miss", "hit")
