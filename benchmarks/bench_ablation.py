"""Ablations beyond the paper's tables.

Design choices DESIGN.md calls out, quantified:

* **scheduler zoo** -- the paper's four algorithms against DSATUR,
  largest-first, random-restart greedy, order heuristics and the
  repack-polished variants;
* **coloring priority rule** -- the paper's literal links/degree ratio
  vs the most-constrained-first default (the documented discrepancy);
* **routing tie-break** -- balanced vs always-positive half-ring
  routing (balanced is what makes the optimal AAPC product possible);
* **embedding** -- identity vs Gray-code placement of the hypercube
  pattern.
"""

from __future__ import annotations

import pytest

from conftest import full_protocol, once

from repro.analysis import experiments as exp
from repro.analysis.tables import format_table
from repro.core.coloring import coloring_schedule
from repro.core.paths import route_requests
from repro.patterns.classic import hypercube_pattern
from repro.patterns.embeddings import gray_embedding
from repro.patterns.random_patterns import random_pattern
from repro.topology.torus import TieBreak, Torus2D


def test_scheduler_zoo(benchmark, torus8, aapc_warm):
    # The networkx colorers and random-restart greedy get expensive on
    # dense instances; the full protocol adds the 2400-connection point.
    patterns = 3 if full_protocol() else 2
    counts = (200, 800, 2400) if full_protocol() else (200, 800)
    rows = once(
        benchmark, exp.ablation_schedulers,
        connection_counts=counts, patterns_per_row=patterns, seed=0,
    )

    print()
    print(format_table(
        ["conns", *exp.ABLATION_SCHEDULERS],
        [(int(r["connections"]), *(r[s] for s in exp.ABLATION_SCHEDULERS)) for r in rows],
        title=f"Scheduler ablation (mean degree over {patterns} patterns)",
    ))

    for r in rows:
        # Polished variants can only help.
        assert r["coloring+repack"] <= r["coloring"]
        assert r["combined+repack"] <= r["combined"]
        # The documented priority-rule finding: the literal paper-ratio
        # rule does not beat the most-constrained default.
        assert r["coloring"] <= r["coloring-ratio"]
        # Nothing beats combined by much (it is the paper's choice).
        best = min(r[s] for s in exp.ABLATION_SCHEDULERS)
        assert r["combined"] <= best + max(3, 0.15 * best)


def test_coloring_priority_rules(benchmark, torus8):
    """Head-to-head of the two priority readings at three densities."""
    def run():
        out = []
        for n in (400, 1600, 4000):
            conns = route_requests(torus8, random_pattern(64, n, seed=n))
            out.append((
                n,
                coloring_schedule(conns).degree,
                coloring_schedule(conns, priority="paper-ratio").degree,
            ))
        return out

    rows = once(benchmark, run)
    print()
    print(format_table(
        ["conns", "most-constrained", "paper-ratio"],
        rows,
        title="Coloring priority-rule ablation",
    ))
    for _, constrained, ratio in rows:
        assert constrained <= ratio


def test_routing_tie_break(benchmark, aapc_warm):
    """Balanced half-ring routing lowers dense-pattern degrees (and is
    required for the 64-phase AAPC product)."""
    from repro.patterns.classic import all_to_all_pattern

    balanced = Torus2D(8, tie_break=TieBreak.BALANCED)
    positive = Torus2D(8, tie_break=TieBreak.POSITIVE)
    requests = all_to_all_pattern(64)

    def degrees():
        return (
            coloring_schedule(route_requests(balanced, requests)).degree,
            coloring_schedule(route_requests(positive, requests)).degree,
        )

    bal, pos = once(benchmark, degrees)
    print(f"\nall-to-all coloring degree: balanced={bal} positive={pos}")
    assert bal <= pos


def test_torus_vs_omega_substrate(benchmark, torus8):
    """Substrate ablation: the same patterns on the multistage network
    of the paper's ref [13].  A finding worth keeping: the omega's
    uniform stage structure makes its all-to-all conflict graph *easy*
    -- coloring lands on the N-1 = 63 injection bound exactly, while on
    the torus the same heuristic needs 82 against the 64 optimum (which
    only the ordered-AAPC construction reaches).  Per-fiber counts
    differ, of course: the omega offers N wires per stage versus the
    torus's 4N transit fibers."""
    from repro.patterns.classic import (
        all_to_all_pattern,
        hypercube_pattern,
        ring_pattern,
    )
    from repro.topology.omega import OmegaNetwork

    omega = OmegaNetwork(64)

    def run():
        rows = []
        for name, requests in (
            ("ring", ring_pattern(64)),
            ("hypercube", hypercube_pattern(64)),
            ("all-to-all", all_to_all_pattern(64)),
        ):
            torus_deg = coloring_schedule(route_requests(torus8, requests)).degree
            omega_deg = coloring_schedule(route_requests(omega, requests)).degree
            rows.append((name, torus_deg, omega_deg))
        return rows

    rows = once(benchmark, run)
    print()
    print(format_table(
        ["pattern", "torus degree", "omega degree"],
        rows,
        title="Substrate ablation: 8x8 torus vs omega-64 MIN",
    ))
    by_name = {name: (t, o) for name, t, o in rows}
    # The ring permutation passes the omega in very few configurations.
    assert by_name["ring"][1] <= 4
    # On the omega, coloring reaches the all-to-all injection bound.
    assert by_name["all-to-all"][1] == 63


def test_embedding_ablation(benchmark, torus8, aapc_warm):
    """Gray-code placement shortens hypercube paths; the schedulers
    should translate that into an equal or lower degree."""
    from repro.core.combined import combined_schedule

    def degrees():
        ident = combined_schedule(
            route_requests(torus8, hypercube_pattern(64)), torus8
        ).degree
        gray = combined_schedule(
            route_requests(torus8, hypercube_pattern(64, embedding=gray_embedding(8, 8))),
            torus8,
        ).degree
        return ident, gray

    ident, gray = once(benchmark, degrees)
    print(f"\nhypercube combined degree: identity={ident} gray={gray}")
    assert gray <= ident
