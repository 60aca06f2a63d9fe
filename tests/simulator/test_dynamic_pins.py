"""Golden pins of the dynamic reservation simulator.

Completion times and retry counts of the paper's Table 5 patterns at
K = 1, 2, 5, 10 on the 8x8 torus, plus a holding run, a runtime-fault
run and dynamic WDM.  The simulator is deterministic in
``SimParams.seed``, so any change to event order, channel selection or
the backoff stream moves at least one of these numbers.
"""

import pytest

from repro.patterns.applications import gs_pattern, p3m_pattern, tscf_pattern
from repro.patterns.random_patterns import random_pattern
from repro.simulator.dynamic import simulate_dynamic
from repro.simulator.faults import random_fault_schedule
from repro.simulator.params import SimParams
from repro.simulator.wdm import simulate_dynamic_wdm

DEGREES = (1, 2, 5, 10)


@pytest.mark.parametrize("pattern,slots,retries", [
    (lambda: gs_pattern(64), (102, 105, 128, 203), (129, 2, 1, 1)),
    (lambda: gs_pattern(256), (250, 283, 368, 683), (411, 7, 1, 1)),
    (tscf_pattern, (450, 249, 216, 221), (687, 212, 121, 108)),
    (lambda: p3m_pattern(1, 32), (2778, 1769, 1359, 1276),
     (3839, 1986, 1275, 960)),
], ids=["gs64", "gs256", "tscf", "p3m1-32"])
def test_table5_pins(torus8, pattern, slots, retries):
    requests = pattern().requests
    results = [simulate_dynamic(torus8, requests, k) for k in DEGREES]
    assert tuple(r.completion_time for r in results) == slots
    assert tuple(r.total_retries for r in results) == retries


def _random_run():
    return random_pattern(64, 400, seed=5, size=8), SimParams(seed=5)


def test_holding_pin(torus8):
    requests, params = _random_run()
    result = simulate_dynamic(torus8, requests, 2, params, protocol="holding")
    assert (result.completion_time, result.total_retries) == (550, 37)


def test_fault_pin(torus8):
    requests, params = _random_run()
    faults = random_fault_schedule(torus8, 3, 200, seed=5)
    result = simulate_dynamic(torus8, requests, 2, params, faults=faults)
    assert (
        result.completion_time, result.total_retries,
        result.fault_retries, result.lost,
    ) == (712, 536, 1, 0)


def test_wdm_pin(torus8):
    requests = gs_pattern(128).requests
    results = [simulate_dynamic_wdm(torus8, requests, w) for w in (1, 2, 5)]
    assert [(r.completion_time, r.total_retries) for r in results] == [
        (141, 226), (105, 2), (82, 1),
    ]
