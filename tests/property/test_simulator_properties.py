"""Property-based tests for the TDM transfer model and simulators."""

from hypothesis import given, settings, strategies as st

from repro.core.requests import RequestSet
from repro.simulator.compiled import (
    compiled_completion_time,
    transfer_chunks,
    transfer_finish,
)
from repro.simulator.dynamic import simulate_dynamic
from repro.simulator.params import SimParams
from repro.topology.torus import Torus2D
from tests.compiled_reference import simulate_compiled

TORUS = Torus2D(4)


@st.composite
def sized_request_sets(draw):
    n = TORUS.num_nodes
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ),
            min_size=1,
            max_size=20,
            unique=True,
        )
    )
    sizes = draw(
        st.lists(st.integers(1, 40), min_size=len(pairs), max_size=len(pairs))
    )
    return RequestSet.from_sized_pairs(
        [(s, d, z) for (s, d), z in zip(pairs, sizes)]
    )


class TestTransferModel:
    @given(st.integers(1, 10_000), st.integers(1, 64))
    def test_chunks_cover_exactly(self, size, payload):
        chunks = transfer_chunks(size, payload)
        assert (chunks - 1) * payload < size <= chunks * payload

    @given(
        st.integers(0, 1000), st.integers(0, 63), st.integers(1, 64),
        st.integers(1, 50),
    )
    def test_finish_properties(self, start, slot, degree, chunks):
        slot %= degree
        finish = transfer_finish(start, slot, degree, chunks)
        first = finish - 1 - (chunks - 1) * degree
        assert first >= start
        assert first % degree == slot
        assert first - start < degree  # no full frame wasted waiting


class TestCompiledProperties:
    @given(sized_request_sets())
    @settings(max_examples=40, deadline=None)
    def test_analytic_equals_cycle_level(self, rs):
        params = SimParams()
        fast = compiled_completion_time(TORUS, rs, params)
        slow = simulate_compiled(TORUS, rs, params)
        assert fast.completion_time == slow.completion_time

    @given(sized_request_sets())
    @settings(max_examples=40, deadline=None)
    def test_makespan_lower_bound(self, rs):
        """Compiled time is at least startup + the largest message's
        serial transfer time."""
        params = SimParams()
        result = compiled_completion_time(TORUS, rs, params)
        longest = max(transfer_chunks(r.size, params.slot_payload) for r in rs)
        assert result.completion_time >= params.compiled_startup + longest


class TestDynamicProperties:
    @given(sized_request_sets(), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_everything_delivered_and_timestamped(self, rs, degree):
        result = simulate_dynamic(TORUS, rs, degree, SimParams())
        for m in result.messages:
            assert m.delivered is not None
            assert m.first_attempt is not None
            assert m.established is not None
            assert m.first_attempt <= m.established < m.delivered

    @given(sized_request_sets(), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_compiled_never_loses(self, rs, degree):
        """The paper's global claim holds on arbitrary patterns, not
        just the evaluation workloads."""
        params = SimParams()
        compiled = compiled_completion_time(TORUS, rs, params).completion_time
        dynamic = simulate_dynamic(TORUS, rs, degree, params).completion_time
        assert compiled <= dynamic
