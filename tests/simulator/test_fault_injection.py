"""Tests for runtime fault injection and circuit recovery."""

import pytest

from repro.core.requests import RequestSet
from repro.patterns.classic import all_to_all_pattern, nearest_neighbour_2d
from repro.simulator.compiled import (
    chunks_in_window,
    compiled_completion_time,
    simulate_compiled_faulty,
)
from repro.simulator.dynamic import simulate_dynamic
from repro.simulator.dynamic.control import _DynamicSimulator
from repro.simulator.dynamic.trace import ProtocolTrace
from repro.simulator.faults import (
    FaultEvent,
    FaultSchedule,
    random_fault_schedule,
)
from repro.simulator.metrics import recovery_summary, summarize
from repro.simulator.params import SimParams
from repro.topology.faults import FaultyTopology
from repro.topology.linear import LinearArray
from repro.topology.torus import Torus2D


class TestFaultSchedule:
    def test_events_sorted_by_slot(self):
        fs = FaultSchedule.from_tuples([(30, "fail", 200), (10, "fail", 150)])
        assert [e.slot for e in fs] == [10, 30]

    def test_same_slot_restore_applies_first(self):
        # Within one slot, restores deterministically precede failures
        # regardless of input order.
        fs = FaultSchedule.from_tuples(
            [(2, "fail", 150), (5, "fail", 160), (5, "restore", 150)]
        )
        assert [(e.slot, e.action) for e in fs] == [
            (2, "fail"), (5, "restore"), (5, "fail")
        ]
        assert fs.failed_at(5) == {160}

    def test_same_slot_fail_restore_of_one_link_rejected(self):
        # Restore-first ordering makes a same-slot fail+restore of one
        # fiber a restore without a preceding failure.
        with pytest.raises(ValueError, match="preceding"):
            FaultSchedule.from_tuples([(5, "fail", 150), (5, "restore", 150)])

    def test_random_schedule_rejects_zero_repair(self, torus8):
        with pytest.raises(ValueError, match="repair_after"):
            random_fault_schedule(torus8, 1, 50, repair_after=0)

    def test_bad_action_rejected(self):
        with pytest.raises(ValueError, match="action"):
            FaultEvent(slot=1, action="explode", link=150)

    def test_double_fail_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            FaultSchedule.from_tuples([(1, "fail", 150), (9, "fail", 150)])

    def test_restore_without_fail_rejected(self):
        with pytest.raises(ValueError, match="preceding"):
            FaultSchedule.from_tuples([(4, "restore", 150)])

    def test_failed_at(self):
        fs = FaultSchedule.from_tuples(
            [(5, "fail", 150), (10, "fail", 160), (20, "restore", 150)]
        )
        assert fs.failed_at(4) == frozenset()
        assert fs.failed_at(7) == {150}
        assert fs.failed_at(15) == {150, 160}
        assert fs.failed_at(25) == {160}

    def test_validate_rejects_pe_fibers(self, torus8):
        fs = FaultSchedule.from_tuples([(1, "fail", torus8.inject_link(0))])
        with pytest.raises(ValueError, match="transit"):
            fs.validate_for(torus8)

    def test_random_schedule_deterministic(self, torus8):
        a = random_fault_schedule(torus8, 4, 100, seed=7)
        b = random_fault_schedule(torus8, 4, 100, seed=7)
        assert a.events == b.events
        assert len(a.links()) == 4

    def test_random_schedule_repairs(self, torus8):
        fs = random_fault_schedule(torus8, 2, 50, repair_after=10, seed=1)
        assert len(fs) == 4
        assert fs.failed_at(10_000) == frozenset()


def _run_with_net(topology, requests, degree, params, faults, protocol="dropping"):
    """Run the dynamic simulator and return it (exposing the TDM net)."""
    sim = _DynamicSimulator(
        topology, requests, degree, params, None, None, protocol, faults
    )
    sim.run()
    return sim


class TestDynamicFaultRecovery:
    def test_midrun_cut_all_to_all_drains_clean(self, torus8, params):
        """The acceptance scenario: a mid-run single-link failure on the
        8x8 torus all-to-all completes with zero orphaned channels."""
        requests = all_to_all_pattern(64)
        link = torus8.route(0, 1)[1]
        faults = FaultSchedule.from_tuples([(1500, "fail", link)])
        sim = _run_with_net(torus8, requests, 2, params, faults)
        assert sim.net.orphans() == []
        assert sim.delivered_count == len(requests)
        assert sim.lost_count == 0

    def test_cut_established_circuit_recovers(self, torus8, params):
        """Cut the only circuit mid-stream: the message re-reserves on a
        detour and still delivers."""
        requests = RequestSet.from_pairs([(0, 2)], size=400)
        link = torus8.route(0, 2)[1]
        healthy = simulate_dynamic(torus8, requests, 1, params)
        cut_at = healthy.messages[0].established + 5
        faults = FaultSchedule.from_tuples([(cut_at, "fail", link)])
        result = simulate_dynamic(torus8, requests, 1, params, faults=faults)
        m = result.messages[0]
        assert m.delivered is not None
        assert result.fault_retries >= 1
        assert result.completion_time > healthy.completion_time
        assert result.fault_log[0]["requeued"] == [0]
        assert result.fault_log[0]["time_to_recover"] > 0

    def test_cut_during_release_requeues_nothing(self, torus8, params):
        """Cut a delivered message's circuit while its REL still walks
        the path: the teardown finishes in the fault handler, and the
        REL packets left in flight evaporate."""
        requests = RequestSet.from_pairs([(0, 1)], size=4)
        link = torus8.route(0, 1)[1]
        healthy = simulate_dynamic(torus8, requests, 1, params)
        delivered = healthy.messages[0].delivered
        # REL reaches hop 0 one hop latency after delivery, hop 1 one later.
        cut_at = delivered + params.control_hop_latency + 1
        faults = FaultSchedule.from_tuples([(cut_at, "fail", link)])
        sim = _run_with_net(torus8, requests, 1, params, faults)
        assert sim.fault_log == [
            {"slot": cut_at, "link": link, "torn": 1, "requeued": []}
        ]
        assert sim.messages[0].delivered == delivered
        assert sim.fault_retries == 0
        assert sim.reservations == {}
        assert sim.net.orphans() == []

    def test_cut_unused_link_costs_nothing(self, torus8, params):
        """A fiber no route crosses tears down nothing."""
        requests = RequestSet.from_pairs([(0, 1)], size=4)
        far_link = torus8.route(36, 37)[1]
        faults = FaultSchedule.from_tuples([(2, "fail", far_link)])
        healthy = simulate_dynamic(torus8, requests, 1, params)
        faulted = simulate_dynamic(torus8, requests, 1, params, faults=faults)
        assert faulted.completion_time == healthy.completion_time
        assert faulted.fault_retries == 0
        assert faulted.fault_log[0]["torn"] == 0

    def test_restore_reopens_the_short_route(self, torus8, params):
        """After a restore, new attempts use the repaired fiber again."""
        requests = RequestSet.from_pairs([(0, 1)], size=4)
        link = torus8.route(0, 1)[1]
        faults = FaultSchedule.from_tuples(
            [(0, "fail", link), (1000, "restore", link)]
        )
        arrivals = [2000]  # arrives long after the repair
        healthy = simulate_dynamic(torus8, requests, 1, params)
        result = simulate_dynamic(
            torus8, requests, 1, params, faults=faults, arrivals=arrivals
        )
        assert result.messages[0].latency == healthy.messages[0].latency

    def test_partitioned_message_declared_lost(self):
        """A 2-node linear array with both forward fibers cut can never
        deliver 0 -> 1: the message must be declared lost, the network
        must still drain clean."""
        lin = LinearArray(2)
        requests = RequestSet.from_pairs([(0, 1)], size=4)
        faults = FaultSchedule.from_tuples([(0, "fail", lin.forward_link(0))])
        params = SimParams(fault_retry_limit=5)
        sim = _run_with_net(lin, requests, 1, params, faults)
        m = sim.messages[0]
        assert m.delivered is None and m.lost is not None
        assert sim.lost_count == 1
        assert sim.net.orphans() == []

    def test_prerun_fault_equals_faulty_topology(self, torus8, params):
        """A fail event at slot 0 is bit-identical to handing the
        simulator a pre-degraded FaultyTopology."""
        requests = nearest_neighbour_2d(8, 8, size=16)
        link = torus8.route(0, 1)[1]
        via_schedule = simulate_dynamic(
            torus8, requests, 2, params,
            faults=FaultSchedule.from_tuples([(0, "fail", link)]),
        )
        via_topology = simulate_dynamic(
            FaultyTopology(Torus2D(8), [link]), requests, 2, params
        )
        assert via_schedule.completion_time == via_topology.completion_time
        assert via_schedule.total_retries == via_topology.total_retries
        assert [m.delivered for m in via_schedule.messages] == [
            m.delivered for m in via_topology.messages
        ]

    def test_holding_protocol_recovers_too(self, torus8, params):
        requests = nearest_neighbour_2d(8, 8, size=32)
        link = torus8.route(0, 1)[1]
        faults = FaultSchedule.from_tuples([(20, "fail", link)])
        sim = _run_with_net(torus8, requests, 2, params, faults, "holding")
        assert sim.net.orphans() == []
        assert sim.delivered_count == len(requests)

    def test_trace_records_fault_events(self, torus8, params):
        requests = RequestSet.from_pairs([(0, 2)], size=400)
        link = torus8.route(0, 2)[1]
        trace = ProtocolTrace()
        result = simulate_dynamic(
            torus8, requests, 1, params, trace=trace,
            faults=FaultSchedule.from_tuples(
                [(20, "fail", link), (5000, "restore", link)]
            ),
        )
        assert result.messages[0].delivered is not None
        assert trace.count("link-fail") == 1
        assert trace.count("link-restore") == 1
        assert trace.count("fault-kill") == 1
        assert trace.count("established") == 2
        trace.check_wellformed()

    def test_caller_topology_never_mutated(self, torus8, params):
        """The simulator reroutes on its own wrapper; a FaultyTopology
        passed in keeps its failure set."""
        faulty = FaultyTopology(Torus2D(8))
        requests = RequestSet.from_pairs([(0, 1)], size=4)
        link = torus8.route(5, 6)[1]
        simulate_dynamic(
            faulty, requests, 1, params,
            faults=FaultSchedule.from_tuples([(2, "fail", link)]),
        )
        assert faulty.failed_links == frozenset()


class TestCompiledFaultRecovery:
    def test_no_faults_reduces_to_closed_form(self, torus8, params):
        requests = all_to_all_pattern(64)
        base = compiled_completion_time(torus8, requests, params)
        faulted = simulate_compiled_faulty(
            torus8, requests, FaultSchedule(), params
        )
        assert faulted.completion_time == base.completion_time
        assert faulted.reschedules == 0
        assert faulted.initial_degree == base.degree
        assert [m.delivered for m in faulted.messages] == [
            m.delivered for m in base.messages
        ]

    def test_midrun_cut_all_to_all_recovers(self, torus8, params):
        """Acceptance scenario, compiled side: reschedule on the
        degraded torus, pay the recompile latency, deliver everything."""
        requests = all_to_all_pattern(64)
        base = compiled_completion_time(torus8, requests, params)
        link = torus8.route(0, 1)[1]
        faults = FaultSchedule.from_tuples(
            [(base.completion_time // 2, "fail", link)]
        )
        result = simulate_compiled_faulty(torus8, requests, faults, params)
        assert all(m.delivered is not None for m in result.messages)
        assert result.lost == 0
        assert result.reschedules == 1
        assert result.completion_time > base.completion_time
        assert result.fault_log[0]["time_to_recover"] == params.recompile_latency

    def test_prerun_fault_equals_faulty_topology(self, torus8, params):
        requests = nearest_neighbour_2d(8, 8, size=16)
        link = torus8.route(0, 1)[1]
        via_schedule = simulate_compiled_faulty(
            torus8, requests,
            FaultSchedule.from_tuples([(0, "fail", link)]), params,
        )
        via_topology = compiled_completion_time(
            FaultyTopology(Torus2D(8), [link]), requests, params
        )
        assert via_schedule.completion_time == via_topology.completion_time

    def test_missed_cut_is_free(self, torus8, params):
        """A cut that touches no remaining route does not reschedule."""
        requests = RequestSet.from_pairs([(0, 1)], size=16)
        far_link = torus8.route(36, 37)[1]
        base = compiled_completion_time(torus8, requests, params)
        result = simulate_compiled_faulty(
            torus8, requests,
            FaultSchedule.from_tuples([(4, "fail", far_link)]), params,
        )
        assert result.completion_time == base.completion_time
        assert result.reschedules == 0

    def test_recompile_latency_knob(self, torus8):
        requests = all_to_all_pattern(64)
        link = torus8.route(0, 1)[1]
        faults = FaultSchedule.from_tuples([(30, "fail", link)])
        cheap = simulate_compiled_faulty(
            torus8, requests, faults, SimParams(recompile_latency=0)
        )
        slow = simulate_compiled_faulty(
            torus8, requests, faults, SimParams(recompile_latency=50)
        )
        assert slow.completion_time > cheap.completion_time
        assert slow.recompile_slots == 50

    def test_partitioned_message_lost(self):
        lin = LinearArray(2)
        requests = RequestSet.from_pairs([(0, 1), (1, 0)], size=8)
        faults = FaultSchedule.from_tuples([(4, "fail", lin.forward_link(0))])
        result = simulate_compiled_faulty(lin, requests, faults, SimParams())
        assert result.lost == 1
        delivered = [m for m in result.messages if m.delivered is not None]
        assert len(delivered) == 1  # 1 -> 0 still flows on the back fiber


class TestRecoveryMetrics:
    def test_summarize_rejects_silent_drops(self, torus8, params):
        result = simulate_dynamic(
            torus8, RequestSet.from_pairs([(0, 1)]), 1, params
        )
        result.messages[0].delivered = None
        with pytest.raises(ValueError, match="never delivered"):
            summarize(result.messages, allow_lost=True)

    def test_summarize_allows_declared_losses(self):
        lin = LinearArray(2)
        requests = RequestSet.from_pairs([(0, 1)], size=4)
        result = simulate_dynamic(
            lin, requests, 1, SimParams(fault_retry_limit=3),
            faults=FaultSchedule.from_tuples([(0, "fail", lin.forward_link(0))]),
        )
        stats = summarize(result.messages, allow_lost=True)
        assert stats["lost"] == 1.0
        assert stats["makespan"] == 0.0

    def test_recovery_summary_both_simulators(self, torus8, params):
        requests = nearest_neighbour_2d(8, 8, size=32)
        link = torus8.route(0, 1)[1]
        faults = FaultSchedule.from_tuples([(20, "fail", link)])
        dyn = recovery_summary(
            simulate_dynamic(torus8, requests, 2, params, faults=faults)
        )
        comp = recovery_summary(
            simulate_compiled_faulty(torus8, requests, faults, params)
        )
        for rec in (dyn, comp):
            assert rec["delivered"] == len(requests)
            assert rec["lost"] == 0.0
            assert rec["fault_events"] == 1.0
        assert "fault_retries" in dyn
        assert "degree_inflation" in comp and "reschedules" in comp

    def test_chunks_in_window_matches_transfer_finish(self):
        from repro.simulator.compiled import transfer_finish

        for start in range(0, 12):
            for slot in range(4):
                for chunks in (1, 2, 7):
                    finish = transfer_finish(start, slot, 4, chunks)
                    assert chunks_in_window(start, finish, slot, 4) == chunks
                    assert chunks_in_window(start, finish - 1, slot, 4) == chunks - 1


class TestFaultCampaign:
    def test_degradation_table_shape(self, torus8):
        from repro.analysis.experiments import fault_campaign

        rows = fault_campaign(
            pattern="nearest neighbour", size=8, degree=2,
            fault_counts=(0, 1), seed=3,
        )
        assert [r["faults"] for r in rows] == [0, 1]
        baseline = rows[0]
        assert baseline["compiled_slowdown_pct"] == 0.0
        assert baseline["dynamic_slowdown_pct"] == 0.0
        for row in rows:
            for col in ("compiled_ttr", "compiled_degree_inflation",
                        "dynamic_ttr", "dynamic_fault_retries",
                        "compiled_lost", "dynamic_lost"):
                assert col in row
