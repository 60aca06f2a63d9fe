"""Hypothesis suites for delta scheduling and repack.

Two invariants carry the incremental path:

* after *any* sequence of add/remove updates the live schedule still
  validates, and its degree never exceeds the full-recompile (first-fit)
  degree by more than the engine's certified packing gap plus the
  policy's ``recompile_slack`` -- the provable form of the "bounded
  drift" guarantee (see :mod:`repro.core.delta`);
* ``repack``'s incremental position map and bitmask dissolver are
  optimisations, not behaviour changes: its output is byte-identical to
  the straightforward hash-set reference (``tests/set_reference.py``),
  which re-sorts the candidates every round and re-derives every victim
  position with an O(K) ``configs.index`` scan.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.serialize import canonical_dumps, schedule_to_dict
from repro.core.configuration import Configuration, ConfigurationSet
from repro.core.delta import DEFAULT_POLICY, DeltaScheduler, amend_schedule
from repro.core.packing import first_fit, repack
from repro.core.paths import Connection, route_requests
from repro.core.requests import Request, RequestSet
from repro.topology.torus import Torus2D
from tests import set_reference as ref

TORUS = Torus2D(4)
N = TORUS.num_nodes

pairs = st.tuples(
    st.integers(min_value=0, max_value=N - 1),
    st.integers(min_value=0, max_value=N - 1),
).filter(lambda p: p[0] != p[1])

#: One op: add a (src, dst) connection, or remove the k-th live index.
ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), pairs),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=10 ** 6)),
    ),
    max_size=25,
)

initial_patterns = st.lists(pairs, min_size=1, max_size=20, unique=True)


def build_engine(pattern):
    conns = route_requests(TORUS, RequestSet.from_pairs(pattern))
    return DeltaScheduler(first_fit(conns), num_links=TORUS.num_links)


class TestAmendInvariants:
    @settings(max_examples=60, deadline=None)
    @given(pattern=initial_patterns, sequence=ops)
    def test_validity_and_bounded_drift(self, pattern, sequence):
        engine = build_engine(pattern)
        next_index = engine.num_connections
        for op, payload in sequence:
            if op == "remove":
                live = sorted(c.index for c in engine.connections())
                if not live:
                    continue
                res = engine.amend(remove=[live[payload % len(live)]])
            else:
                src, dst = payload
                conn = Connection(
                    next_index, Request(src, dst), TORUS.route(src, dst)
                )
                next_index += 1
                res = engine.amend(add=[conn])
            # 1. The live schedule always validates against the live set.
            engine.schedule.validate(engine.connections())
            # 2. Bounded drift: K never exceeds what a full recompile
            # would give by more than certified gap + recompile slack.
            full = first_fit(engine.connections(), num_links=TORUS.num_links)
            assert res.degree <= (
                full.degree
                + engine.certified_gap
                + DEFAULT_POLICY.recompile_slack
            )
            # 3. A local repair opens at most max_delta_k fresh slots.
            if res.action != "recompile":
                assert res.delta_k <= DEFAULT_POLICY.max_delta_k

    @settings(max_examples=40, deadline=None)
    @given(pattern=initial_patterns, sequence=ops)
    def test_engine_matches_mirror_of_live_connections(self, pattern, sequence):
        """The engine's connection view is exactly the applied updates."""
        engine = build_engine(pattern)
        mirror = {c.index: c for c in engine.connections()}
        next_index = len(mirror)
        for op, payload in sequence:
            if op == "remove":
                if not mirror:
                    continue
                victim = sorted(mirror)[payload % len(mirror)]
                del mirror[victim]
                engine.amend(remove=[victim])
            else:
                src, dst = payload
                conn = Connection(
                    next_index, Request(src, dst), TORUS.route(src, dst)
                )
                mirror[next_index] = conn
                next_index += 1
                engine.amend(add=[conn])
            assert {c.index for c in engine.connections()} == set(mirror)
            assert engine.num_connections == len(mirror)

    @settings(max_examples=40, deadline=None)
    @given(pattern=initial_patterns, update=st.tuples(pairs, pairs))
    def test_amend_schedule_copy_on_write(self, pattern, update):
        conns = route_requests(TORUS, RequestSet.from_pairs(pattern))
        schedule = first_fit(conns)
        snapshot = canonical_dumps(schedule_to_dict(schedule))
        add = [
            Connection(
                len(conns) + i, Request(s, d), TORUS.route(s, d)
            )
            for i, (s, d) in enumerate(update)
        ]
        res = amend_schedule(schedule, add=add, remove=[conns[0].index])
        res.schedule.validate(
            [c for c in conns[1:]] + add
        )
        assert canonical_dumps(schedule_to_dict(schedule)) == snapshot


class TestRepackProperties:
    @settings(max_examples=40, deadline=None)
    @given(pattern=st.lists(pairs, min_size=1, max_size=16, unique=True))
    def test_position_map_output_unchanged(self, pattern):
        """repack == the reference O(K)-scan implementation, byte for byte."""
        conns = route_requests(TORUS, RequestSet.from_pairs(pattern))
        # Pad into singletons so there is real dissolution work to do.
        padded = ConfigurationSet(
            [Configuration([c]) for c in conns], scheduler="padded"
        )
        fast = repack(padded)
        slow = ref.repack(padded)
        assert canonical_dumps(schedule_to_dict(fast)) == canonical_dumps(
            schedule_to_dict(slow)
        )
        fast.validate(conns)

    @settings(max_examples=40, deadline=None)
    @given(pattern=st.lists(pairs, min_size=1, max_size=16, unique=True))
    def test_repack_input_byte_identical(self, pattern):
        conns = route_requests(TORUS, RequestSet.from_pairs(pattern))
        schedule = first_fit(conns)
        snapshot = canonical_dumps(schedule_to_dict(schedule))
        repacked = repack(schedule)
        assert canonical_dumps(schedule_to_dict(schedule)) == snapshot
        assert repacked.degree <= schedule.degree
        repacked.validate(conns)
