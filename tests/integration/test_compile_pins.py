"""Golden sha256 pins of compiled schedules, register images and routes.

Cold compiles take two shortcuts that claim byte-identical output:
``combined`` returns coloring's schedule without running ordered AAPC
once coloring meets the link-load bound, and ``route_requests``
computes a batch of route-cache misses in one vectorized pass.  These
fingerprints were taken with neither shortcut in the code, so any
schedule, register image, digest or route they change moves a pin.
"""

import hashlib
import json

import numpy as np

from repro.aapc.bounds import all_pairs_requests
from repro.core.paths import route_requests
from repro.patterns import (
    all_to_all_pattern,
    gs_pattern,
    hypercube_pattern,
    nearest_neighbour_2d,
    p3m_pattern,
    random_distribution,
    random_pattern,
    redistribution_requests,
    ring_pattern,
    shuffle_exchange_pattern,
    tscf_pattern,
)
from repro.service.canonical import canonicalize
from repro.service.compile import build_canonical_artifact, compile_pattern
from repro.topology.kary_ncube import KAryNCube, TieBreak
from repro.topology.torus import Torus2D

TABLE1_SIZES = (100, 200, 400, 700, 1000, 1500, 2000, 3000, 4000)
WORKER_SIZES = (32, 48, 64, 96, 128)


def _sha(documents) -> str:
    h = hashlib.sha256()
    for doc in documents:
        h.update(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
    return h.hexdigest()


def _paper_patterns():
    """Tables 1, 2, 3 and 5 on the 8x8 torus, drawn from seed 3."""
    rng = np.random.default_rng(3)
    patterns = [random_pattern(64, n, seed=rng) for n in TABLE1_SIZES]
    for _ in range(3):
        src = random_distribution((64, 64, 64), 64, seed=rng)
        dst = random_distribution((64, 64, 64), 64, seed=rng)
        patterns.append(redistribution_requests(src, dst))
    patterns += [
        ring_pattern(64),
        nearest_neighbour_2d(8, 8),
        hypercube_pattern(64),
        shuffle_exchange_pattern(64),
        all_to_all_pattern(64),
    ]
    patterns += [gs_pattern(g).requests for g in (64, 128, 256)]
    patterns.append(tscf_pattern().requests)
    patterns += [p3m_pattern(w, g).requests for w in (1, 2, 4, 5) for g in (32, 64)]
    return patterns


def test_paper_patterns_compile_pin():
    topo = Torus2D(8)
    results = [
        compile_pattern(topo, p, scheduler="combined", include_registers=True)
        for p in _paper_patterns()
    ]
    assert [r.degree for r in results] == PAPER_DEGREES
    assert _sha(
        {"digest": r.digest, "schedule": r.schedule_doc,
         "registers": r.registers_doc}
        for r in results
    ) == PAPER_SHA


def test_worker_compiles_pin():
    """Worker-style cold compiles: canonical rows, a fresh topology each."""
    rng = np.random.default_rng(5)
    docs = []
    for i in range(50):
        pattern = random_pattern(64, WORKER_SIZES[i % len(WORKER_SIZES)], seed=rng)
        canonical = canonicalize(Torus2D(8), pattern)
        docs.append(build_canonical_artifact(Torus2D(8), canonical.requests))
    assert _sha(docs) == WORKER_SHA


def test_all_pairs_routes_pin():
    shas = {}
    for tie in TieBreak:
        for topo in (Torus2D(8, tie_break=tie), Torus2D(16, tie_break=tie),
                     KAryNCube((3, 4, 2), tie_break=tie)):
            conns = route_requests(topo, all_pairs_requests(topo))
            shas[topo.signature] = _sha([[c.pair, c.links] for c in conns])
    assert shas == ROUTE_SHAS


PAPER_DEGREES = [
    6, 10, 15, 23, 30, 37, 46, 63, 64,   # Table 1, 100 .. 4,000 connections
    4, 45, 48,                           # Table 2
    2, 4, 8, 4, 64,                      # Table 3
    2, 2, 2, 8, 32, 19, 64, 64, 64, 64, 40, 40,  # Table 5
]
PAPER_SHA = "3b1f3eec8cff6599e4a1c4f15e0033519058809880766ac5032ddb9538b94e62"
WORKER_SHA = "30ecae555a98da11e794e9b09977a97e9abc1152b7b3993d78b215b90aaa41b5"
ROUTE_SHAS = {
    "torus2d:8x8:tie=positive":
        "91cb42a77d2c491552d130fa4a2c43d1fc9bcaa050c93abb28b2bb0bea443e44",
    "torus2d:16x16:tie=positive":
        "72b9e5cbd0ead5b890e9b440f840e199ed6516745b4e70171c8eba411ed7b022",
    "kary-ncube:3x4x2:tie=positive":
        "36754fc0bcce3723faf5d32286888e8fe9929392ad257782d34f5130ad45135c",
    "torus2d:8x8:tie=balanced":
        "0e4e89791859f6ee0f0985f45fb3f9226f4371ceca29e748b104c5e4fde398bd",
    "torus2d:16x16:tie=balanced":
        "1bf78265de4097e2c2f740affcac26c644e4617c309ce81652d625e67f77d21b",
    "kary-ncube:3x4x2:tie=balanced":
        "b15c15e6a671fc9706eaf2429240c46035ceaf736658c5c7519626e47f3f9f01",
}
