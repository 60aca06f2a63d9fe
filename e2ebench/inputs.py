"""Seeded inputs for every workload.

Everything the program sees is generated here from the run's seed, using
only the pattern generators of :mod:`repro.patterns`.  Sizes are drawn
from fixed grids (stratified) rather than freely, so two seeds give the
same *distribution* of work and differ only in which pairs are drawn:
that keeps the spread between seeds small without hiding anything a
seed could expose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.patterns import (
    gs_pattern,
    hypercube_pattern,
    nearest_neighbour_2d,
    p3m_pattern,
    random_distribution,
    random_pattern,
    redistribution_requests,
    ring_pattern,
    shuffle_exchange_pattern,
    all_to_all_pattern,
    tscf_pattern,
)

#: The paper's machine: an 8x8 torus of 64 PEs.
WIDTH = 8
NODES = WIDTH * WIDTH
TORUS8 = {"kind": "torus", "width": WIDTH}

#: Table 1 densities, one of each per round (the paper sweeps 100-4,000).
TABLE1_SIZES = (100, 200, 400, 700, 1000, 1500, 2000, 3000, 4000)
#: Table 2 redistributions are accepted one per size band per round.
TABLE2_BANDS = ((100, 700), (700, 1500), (1500, 2600))
#: Working-set sizes: request-sized 8x8 patterns.  The farm's are smaller,
#: so that its event loop (five servers in one process) stays lightly
#: loaded at the open-loop rate (README.md, "Load").
SERVICE_SIZES = (32, 48, 64, 96, 128, 192, 256, 384, 512)
FARM_SIZES = (32, 48, 64, 96, 128)


Row = tuple[int, int, int, int]  # (src, dst, size, tag)


@dataclass
class Pattern:
    """One 8x8 compile input: a label and its request rows."""

    label: str
    rows: list[Row]


def _rows(requests) -> list[Row]:
    return [(int(r.src), int(r.dst), int(r.size), int(r.tag)) for r in requests]


def table3_patterns() -> list[Pattern]:
    """The paper's frequently used patterns on 64 PEs (Table 3)."""
    return [
        Pattern("t3-ring", _rows(ring_pattern(NODES))),
        Pattern("t3-nn", _rows(nearest_neighbour_2d(WIDTH, WIDTH))),
        Pattern("t3-hypercube", _rows(hypercube_pattern(NODES))),
        Pattern("t3-shuffle", _rows(shuffle_exchange_pattern(NODES))),
        Pattern("t3-all-to-all", _rows(all_to_all_pattern(NODES))),
    ]


def table5_patterns() -> list[Pattern]:
    """The 12 application patterns of the paper's Table 5."""
    out = [Pattern(f"t5-gs-{g}", _rows(gs_pattern(g).requests)) for g in (64, 128, 256)]
    out.append(Pattern("t5-tscf", _rows(tscf_pattern().requests)))
    for which in (1, 2, 4, 5):
        for g in (32, 64):
            out.append(Pattern(f"t5-p3m{which}-{g}", _rows(p3m_pattern(which, g).requests)))
    return out


def _random(rng: np.random.Generator, size: int, label: str) -> Pattern:
    return Pattern(label, _rows(random_pattern(NODES, size, seed=rng)))


def _redistribution(rng: np.random.Generator, low: int, high: int) -> Pattern:
    """A Table 2 redistribution whose connection count lies in [low, high)."""
    while True:
        src = random_distribution((64, 64, 64), NODES, seed=rng)
        dst = random_distribution((64, 64, 64), NODES, seed=rng)
        rows = _rows(redistribution_requests(src, dst))
        if low <= len(rows) < high:
            return Pattern(f"t2-{len(rows)}", rows)


def offline_rounds(seed: int) -> Iterator[list[Pattern]]:
    """Endless rounds of the offline draw: Tables 1, 2, 3 and 5.

    One round holds one Table 1 pattern per density, one Table 2
    redistribution per size band (fresh draws every round), the five
    Table 3 patterns and the twelve Table 5 patterns, in a seeded order.
    """
    rng = np.random.default_rng([seed, 1])
    fixed = table3_patterns() + table5_patterns()
    while True:
        batch = [_random(rng, n, f"t1-{n}") for n in TABLE1_SIZES]
        batch += [_redistribution(rng, lo, hi) for lo, hi in TABLE2_BANDS]
        batch += fixed
        order = rng.permutation(len(batch))
        yield [batch[i] for i in order]


@dataclass
class WorkingSet:
    """A Zipf-ranked set of service patterns plus a stream of cold ones."""

    patterns: list[Pattern]
    weights: np.ndarray
    rng: np.random.Generator
    sizes: tuple[int, ...]
    cold_count: int = field(default=0)

    def cold(self) -> Pattern:
        """A never-seen pattern from the same size grid."""
        size = self.sizes[self.cold_count % len(self.sizes)]
        self.cold_count += 1
        return _random(self.rng, size, f"cold-{size}")


def working_set(seed: int, count: int, *, stream: int, sizes: tuple[int, ...],
                zipf_s: float = 0.9) -> WorkingSet:
    """``count`` patterns; rank ``i`` has weight ``1 / (i+1)**s``.

    Sizes go round-robin over ``sizes`` by rank, so the popularity-weighted
    size mix is the same for every seed.
    """
    rng = np.random.default_rng([seed, stream])
    patterns = [
        _random(rng, sizes[i % len(sizes)], f"ws-{i}")
        for i in range(count)
    ]
    weights = 1.0 / np.arange(1, count + 1, dtype=np.float64) ** zipf_s
    return WorkingSet(patterns, weights / weights.sum(), rng, sizes)


def translate_rows(rows: list[Row], sigma: list[int]) -> list[Row]:
    return [(sigma[s], sigma[d], size, tag) for s, d, size, tag in rows]


def node_map(topology, translation: tuple[int, ...]) -> list[int]:
    """Node permutation of a torus translation, from the coordinates."""
    return [
        topology.node_at([c + t for c, t in zip(topology.coords(v), translation)])
        for v in range(topology.num_nodes)
    ]


@dataclass
class AmendScript:
    """A deterministic amend stream: the open set and a source of updates."""

    width: int
    live: list[tuple[int, int]]
    rng: np.random.Generator

    def update(self, adds: int = 2, removes: int = 2) -> tuple[list, list]:
        """Next update: ``removes`` live pairs out, ``adds`` new pairs in."""
        n = self.width * self.width
        out = [self.live.pop(int(self.rng.integers(len(self.live)))) for _ in range(removes)]
        present = set(self.live)
        new: list[tuple[int, int]] = []
        while len(new) < adds:
            s, d = (int(x) for x in self.rng.integers(n, size=2))
            if s != d and (s, d) not in present and (s, d) not in new and (s, d) not in out:
                new.append((s, d))
        self.live.extend(new)
        return [list(p) for p in new], [list(p) for p in out]


def amend_script(seed: int, stream: int, width: int, live: int) -> AmendScript:
    rng = np.random.default_rng([seed, 100 + stream])
    pairs = [(int(r.src), int(r.dst)) for r in random_pattern(width * width, live, seed=rng)]
    return AmendScript(width, pairs, rng)
