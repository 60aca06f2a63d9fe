"""Code generation: schedules -> switch register contents.

The run-time artifact of compiled communication is, per switch, the
contents of a circular shift register with one word per time slot; word
``k`` sets the crossbar for configuration ``C_k``.  This module

* **generates** those words from a :class:`ConfigurationSet`: every
  consecutive link pair of a connection's path crosses one switch, and
  the topology's port tables (:func:`repro.topology.switch.port_tables`)
  turn all pairs of all slots into one scatter into the image
  (:func:`generate_registers`), and
* **decodes** them back into per-slot connection sets by tracing light
  paths from every injection fiber (:func:`decode_registers`),

so tests can assert the full round trip: schedule -> registers ->
traced circuits == scheduled requests.  Decoding is also how one audits
that a register image establishes *exactly* the intended circuits and
nothing else.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.configuration import ConfigurationSet
from repro.topology.base import Topology
from repro.topology.links import LinkKind
from repro.topology.switch import (
    CrossbarSwitch,
    SwitchConfigError,
    SwitchState,
    build_switches,
    port_tables,
)


@dataclass
class RegisterSchedule:
    """Register images for every switch: ``words[node][slot]``.

    Each word is the tuple encoding of
    :meth:`repro.topology.switch.CrossbarSwitch.encode`: one output-port
    index (or -1) per input port.
    """

    topology: Topology
    degree: int
    words: dict[int, list[tuple[int, ...]]]

    @cached_property
    def switches(self) -> dict[int, CrossbarSwitch]:
        """Each node's crossbar, to decode its words (built on first use)."""
        return build_switches(self.topology)


def generate_registers(
    topology: Topology, schedule: ConfigurationSet
) -> RegisterSchedule:
    """Emit per-switch circular register contents for ``schedule``.

    Raises :class:`SwitchConfigError` if two connections of one slot
    drive the same switch input or the same switch output, or if a path
    enters a switch on a link that is not one of its inputs.
    """
    tables = port_tables(topology)
    degree = max(schedule.degree, 1)
    paths = [conn.links for cfg in schedule for conn in cfg]
    lengths = np.fromiter(map(len, paths), dtype=np.intp, count=len(paths))
    links = np.fromiter(
        itertools.chain.from_iterable(paths), dtype=np.intp, count=int(lengths.sum())
    )
    slots = np.repeat(
        np.repeat(np.arange(len(schedule)), [len(cfg) for cfg in schedule]), lengths
    )
    # Consecutive links (a, b) of one path cross the switch ``b`` leaves.
    same_path = np.ones(max(len(links) - 1, 0), dtype=bool)
    same_path[np.cumsum(lengths)[:-1] - 1] = False
    a, b, slot = links[:-1][same_path], links[1:][same_path], slots[1:][same_path]
    switch = tables.out_switch[b]
    bad = np.flatnonzero((switch < 0) | (tables.in_switch[a] != switch))
    if bad.size:
        i = bad[0]
        raise SwitchConfigError(f"links {a[i]} -> {b[i]} do not meet at a switch")
    where = tables.image_index(degree, switch, slot, tables.in_port[a])
    _check_unique(where, "input", a, switch, slot)
    _check_unique(
        (switch * degree + slot) * int(tables.n_out.max()) + tables.out_port[b],
        "output", b, switch, slot,
    )
    image = np.full(degree * int(tables.n_in.sum()), -1, dtype=np.intp)
    image[where] = tables.out_port[b]
    words = {
        node: list(map(tuple, node_words))
        for node, node_words in enumerate(tables.words(image, degree))
    }
    return RegisterSchedule(topology=topology, degree=degree, words=words)


def _check_unique(keys: np.ndarray, what: str, links: np.ndarray,
                  switch: np.ndarray, slot: np.ndarray) -> None:
    """Raise if two link pairs claim one switch port in one slot."""
    if not keys.size:
        return
    clash = np.flatnonzero(np.bincount(keys)[keys] > 1)
    if clash.size:
        i = clash[-1]
        raise SwitchConfigError(
            f"switch {switch[i]}: {what} link {links[i]} used twice in slot {slot[i]}"
        )


def decode_registers(regs: RegisterSchedule) -> list[set[tuple[int, int]]]:
    """Trace the circuits a register image establishes, per slot.

    For every slot and every switch whose PE input is lit, follow the
    light path switch by switch until it ejects at a PE.  Raises if a
    path dead-ends (an input lit into an unconfigured switch) or loops
    -- both indicate a corrupt register image.
    """
    topo = regs.topology
    out: list[set[tuple[int, int]]] = []
    for slot in range(regs.degree):
        decoded: dict[int, SwitchState] = {
            node: regs.switches[node].decode(words[slot])
            for node, words in regs.words.items()
        }
        circuits: set[tuple[int, int]] = set()
        for src in topo.iter_nodes():
            link = decoded[src].output_of(topo.inject_link(src))
            if link is None:
                continue
            hops = 0
            while True:
                info = topo.link_info(link)
                if info.kind is LinkKind.EJECT:
                    circuits.add((src, info.dst))
                    break
                nxt = decoded[info.dst].output_of(link)
                if nxt is None:
                    raise AssertionError(
                        f"slot {slot}: path from {src} dead-ends at "
                        f"switch {info.dst}"
                    )
                link = nxt
                hops += 1
                if hops > topo.num_links:
                    raise AssertionError(
                        f"slot {slot}: path from {src} loops"
                    )
        out.append(circuits)
    return out
