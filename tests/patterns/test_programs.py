"""Tests for whole application programs."""

import pytest

from repro.compiler.program import compile_program
from repro.patterns.programs import (
    application_programs,
    gs_program,
    p3m_program,
    tscf_program,
)
from repro.simulator.params import SimParams


class TestProgramStructure:
    def test_gs_single_phase(self):
        phases = gs_program(256, iterations=10)
        assert len(phases) == 1
        assert phases[0].repetitions == 10
        assert len(phases[0].requests) == 126

    def test_p3m_five_phases_in_order(self):
        phases = p3m_program(32)
        assert [p.name for p in phases] == [
            "p3m-1", "p3m-2", "p3m-3", "p3m-4", "p3m-5",
        ]

    def test_tscf(self):
        phases = tscf_program(timesteps=3)
        assert phases[0].repetitions == 3

    def test_inventory(self):
        programs = application_programs()
        assert set(programs) == {"GS", "TSCF", "P3M"}


class TestCompiledPrograms:
    def test_p3m_uses_varied_degrees(self, torus8):
        """The paper's fourth advantage: each phase gets its own degree
        (a fixed-degree dynamic network cannot do this)."""
        program = compile_program(torus8, p3m_program(32))
        degrees = set(program.degrees().values())
        assert len(degrees) >= 3

    def test_gs_program_time_scales_with_iterations(self, torus8):
        params = SimParams()
        once = compile_program(torus8, gs_program(64, iterations=1))
        many = compile_program(torus8, gs_program(64, iterations=7))
        assert many.communication_time(params) == 7 * once.communication_time(params)

    def test_program_driver_shapes(self, torus8):
        from repro.analysis.experiments import table5_programs

        rows = table5_programs(
            gs_grid=64, p3m_grid=32, degrees=(1, 10), topology=torus8
        )
        assert {r["program"] for r in rows} == {"GS", "TSCF", "P3M"}
        for r in rows:
            assert r["compiled"] < r["dynamic_1"]
            assert r["compiled"] < r["dynamic_10"]
        # GS at 256 x 256 against every dynamic degree of Table 5
        rows = table5_programs(
            params=SimParams(), gs_grid=256, p3m_grid=32, topology=torus8
        )
        for r in rows:
            for k in (1, 2, 5, 10):
                assert r["compiled"] < r[f"dynamic_{k}"]
        p3m = next(r for r in rows if r["program"] == "P3M")
        assert len(set(p3m["degrees"])) >= 3  # per-phase degree adaptation
