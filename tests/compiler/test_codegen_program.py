"""Tests for switch-register code generation and compiled programs."""

import pytest

from repro.compiler.codegen import decode_registers, generate_registers
from repro.compiler.program import CommPhase, compile_program
from repro.compiler.serialize import artifact_digest, registers_to_dict
from repro.core.combined import combined_schedule
from repro.core.configuration import Configuration, ConfigurationSet
from repro.core.paths import route_requests
from repro.core.registry import get_scheduler
from repro.core.requests import RequestSet
from repro.patterns.classic import (
    all_to_all_pattern,
    nearest_neighbour_2d,
    ring_pattern,
)
from repro.patterns.random_patterns import random_pattern
from repro.simulator.params import SimParams
from repro.topology.kary_ncube import KAryNCube
from repro.topology.mesh import Mesh2D
from repro.topology.ring import Ring
from repro.topology.switch import SwitchConfigError
from repro.topology.torus import Torus2D


def roundtrip(topology, requests):
    connections = route_requests(topology, requests)
    schedule = combined_schedule(connections, topology)
    regs = generate_registers(topology, schedule)
    traced = decode_registers(regs)
    scheduled = [
        {c.pair for c in cfg} for cfg in schedule
    ]
    return scheduled, traced


class TestRoundTrip:
    """schedule -> registers -> traced circuits must be the identity."""

    def test_ring(self, torus8):
        scheduled, traced = roundtrip(torus8, ring_pattern(64))
        assert scheduled == traced

    def test_nearest_neighbour(self, torus8):
        scheduled, traced = roundtrip(torus8, nearest_neighbour_2d(8, 8))
        assert scheduled == traced

    def test_random(self, torus8):
        scheduled, traced = roundtrip(torus8, random_pattern(64, 400, seed=12))
        assert scheduled == traced

    def test_fig1_configuration(self, torus4):
        requests = RequestSet.from_pairs([(4, 1), (5, 3), (6, 10), (8, 9), (11, 2)])
        scheduled, traced = roundtrip(torus4, requests)
        assert traced == [{(4, 1), (5, 3), (6, 10), (8, 9), (11, 2)}]

    def test_register_word_count_is_degree(self, torus8):
        connections = route_requests(torus8, ring_pattern(64))
        schedule = combined_schedule(connections, torus8)
        regs = generate_registers(torus8, schedule)
        assert all(len(w) == schedule.degree for w in regs.words.values())
        assert len(regs.words) == 64


class TestGoldenRegisterImages:
    """Register images pinned byte for byte (all-to-all on each substrate).

    A change here changes every served register image and every cached
    artifact that carries one.
    """

    @pytest.mark.parametrize("topology, scheduler, digest", [
        (Torus2D(8), "combined",
         "2c8e5472459dc2007115853f613b713174ad3fc44548b3ffe5626360f72f516f"),
        # Switches with different port counts.
        (Mesh2D(4), "greedy",
         "62fb04d30e9acd4db3a184e2eb948c24137b324d6c02f418cbf37991e36fc414"),
        # A radix-2 dimension has parallel fibers.
        (KAryNCube((3, 3, 2)), "coloring",
         "52c259c7226d9182350e538910e7a1b06e4ce1b16bbf4fb173995f3cd255f7df"),
        (Ring(8), "greedy",
         "85552d8fc0b89090393aef5f50eb66ff64f7b189d82c9bba73ca20e5f046516e"),
    ], ids=["torus8-combined", "mesh4-greedy", "kary332-coloring", "ring8-greedy"])
    def test_all_to_all_image_digest(self, topology, scheduler, digest):
        connections = route_requests(topology, all_to_all_pattern(topology.num_nodes))
        schedule = get_scheduler(scheduler)(connections, topology)
        regs = generate_registers(topology, schedule)
        assert artifact_digest(registers_to_dict(regs)) == digest


class TestConflicts:
    """A schedule that is not conflict-free cannot be written to registers."""

    @staticmethod
    def one_slot(topology, pairs):
        connections = route_requests(topology, RequestSet.from_pairs(pairs))
        return ConfigurationSet([Configuration._trusted(list(connections))])

    def test_repeated_input_rejected(self, torus4):
        # 0 -> 1 (+x) and 0 -> 4 (+y) share switch 0's PE input only.
        schedule = self.one_slot(torus4, [(0, 1), (0, 4)])
        with pytest.raises(SwitchConfigError, match="input"):
            generate_registers(torus4, schedule)

    def test_repeated_output_rejected(self, torus4):
        # 0 -> 1 (+x) and 2 -> 1 (-x) share switch 1's PE output only.
        schedule = self.one_slot(torus4, [(0, 1), (2, 1)])
        with pytest.raises(SwitchConfigError, match="output"):
            generate_registers(torus4, schedule)


class TestCompiledProgram:
    def test_per_phase_degrees(self, torus8):
        program = compile_program(torus8, [
            CommPhase("ring", ring_pattern(64, size=16)),
            CommPhase("stencil", nearest_neighbour_2d(8, 8, size=16)),
        ])
        degrees = program.degrees()
        assert degrees["ring"] == 2
        assert degrees["stencil"] == 4

    def test_communication_time_sums_phases(self, torus8):
        params = SimParams()
        single = compile_program(torus8, [CommPhase("ring", ring_pattern(64, size=16))])
        double = compile_program(torus8, [
            CommPhase("ring", ring_pattern(64, size=16)),
            CommPhase("ring2", ring_pattern(64, size=16)),
        ])
        assert double.communication_time(params) == 2 * single.communication_time(params)

    def test_repetitions_scale(self, torus8):
        params = SimParams()
        once = compile_program(torus8, [CommPhase("p", ring_pattern(64, size=8))])
        thrice = compile_program(torus8, [
            CommPhase("p", ring_pattern(64, size=8), repetitions=3)
        ])
        assert thrice.communication_time(params) == 3 * once.communication_time(params)

    def test_phase_makespan_matches_simulator(self, torus8):
        """The program-level makespan must agree with the compiled
        simulator for the same pattern and scheduler."""
        from repro.simulator.compiled import compiled_completion_time

        params = SimParams()
        requests = ring_pattern(64, size=16)
        program = compile_program(torus8, [CommPhase("ring", requests)])
        direct = compiled_completion_time(torus8, requests, params)
        assert program.phases[0].makespan(params) == direct.completion_time

    def test_scheduler_selectable(self, torus8):
        program = compile_program(
            torus8, [CommPhase("p", random_pattern(64, 200, seed=1))],
            scheduler="greedy",
        )
        assert program.scheduler == "greedy"
