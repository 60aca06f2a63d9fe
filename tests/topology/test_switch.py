"""Tests for the crossbar switch model."""

import pytest

from repro.topology.switch import (
    CrossbarSwitch,
    SwitchConfigError,
    SwitchState,
    build_switches,
    port_tables,
)


class TestSwitchState:
    def test_connect_and_query(self):
        st = SwitchState(0)
        st.connect(10, 20)
        assert st.output_of(10) == 20
        assert st.output_of(11) is None

    def test_input_reuse_rejected(self):
        st = SwitchState(0)
        st.connect(10, 20)
        with pytest.raises(SwitchConfigError):
            st.connect(10, 21)

    def test_output_reuse_rejected(self):
        st = SwitchState(0)
        st.connect(10, 20)
        with pytest.raises(SwitchConfigError):
            st.connect(11, 20)


class TestBuildSwitches:
    def test_torus_switch_ports(self, torus8):
        switches = build_switches(torus8)
        assert len(switches) == 64
        sw = switches[0]
        assert sw.radix == 5
        assert sw.in_links[0] == torus8.inject_link(0)
        assert sw.out_links[0] == torus8.eject_link(0)

    def test_every_transit_link_appears_twice(self, torus8):
        """Each transit fiber is an output of one switch and an input of
        another."""
        switches = build_switches(torus8)
        as_input = [l for sw in switches.values() for l in sw.in_links[1:]]
        as_output = [l for sw in switches.values() for l in sw.out_links[1:]]
        assert sorted(as_input) == sorted(as_output)
        assert len(as_input) == torus8.num_transit_links


class TestEncodeDecode:
    def test_roundtrip(self, torus8):
        switches = build_switches(torus8)
        sw = switches[9]
        st = SwitchState(9)
        st.connect(sw.in_links[1], sw.out_links[0])  # transit -> PE
        st.connect(sw.in_links[0], sw.out_links[2])  # PE -> transit
        word = sw.encode(st)
        back = sw.decode(word)
        assert back.mapping == st.mapping

    def test_dark_switch_word(self, torus8):
        switches = build_switches(torus8)
        sw = switches[3]
        word = sw.encode(SwitchState(3))
        assert word == (-1,) * 5

    def test_wrong_node_rejected(self, torus8):
        switches = build_switches(torus8)
        with pytest.raises(SwitchConfigError):
            switches[0].encode(SwitchState(1))

    def test_foreign_link_rejected(self, torus8):
        switches = build_switches(torus8)
        st = SwitchState(0)
        st.connect(999999, torus8.eject_link(0))
        with pytest.raises(SwitchConfigError):
            switches[0].encode(st)


class TestPortTables:
    def test_one_entry_per_signature(self, torus8):
        from repro.topology.torus import Torus2D

        assert port_tables(Torus2D(8)) is port_tables(torus8)

    def test_lookups_agree_with_port_lists(self, torus8):
        tables = port_tables(torus8)
        for v, (ins, outs) in enumerate(zip(tables.in_links, tables.out_links)):
            assert [tables.in_switch[l] for l in ins] == [v] * len(ins)
            assert [tables.in_port[l] for l in ins] == list(range(len(ins)))
            assert [tables.out_switch[l] for l in outs] == [v] * len(outs)
            assert [tables.out_port[l] for l in outs] == list(range(len(outs)))

    def test_tables_are_read_only(self, torus8):
        tables = port_tables(torus8)
        with pytest.raises(ValueError):
            tables.in_port[0] = 3
        with pytest.raises(ValueError):
            tables.sigmas[0, 0] = 1

    def test_sigmas_match_node_translation(self):
        from repro.service.canonical import node_permutation
        from repro.topology.kary_ncube import KAryNCube

        topo = KAryNCube((3, 4, 2))
        tables = port_tables(topo)
        assert [list(row) for row in tables.sigmas] == [
            node_permutation(topo, t) for t in tables.group
        ]

    def test_cache_is_bounded_under_concurrent_use(self):
        import sys
        import threading

        from repro.topology.ring import Ring
        from repro.topology.switch import _TABLES, PORT_TABLES_CACHE_SIZE

        rings = [Ring(n) for n in range(3, 3 + 2 * PORT_TABLES_CACHE_SIZE)]
        errors = []

        def work(offset):
            try:
                for i in range(200):
                    ring = rings[(offset + i) % len(rings)]
                    assert len(port_tables(ring).in_links) == ring.num_nodes
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(_TABLES) <= PORT_TABLES_CACHE_SIZE
