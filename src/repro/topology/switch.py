"""Electro-optical crossbar switch model.

Each node of the paper's machine carries a 5x5 electro-optical switch:
one input/output port pair to the local PE and one pair per neighbouring
switch.  A network *state* is the set of all switch states; writing the
electronic control registers selects which input drives which output.
Under TDM the registers are circular shift registers holding one word
per time slot, so the network cycles through K configurations with no
run-time control traffic -- this is exactly the artifact the compiler
emits (:mod:`repro.compiler.codegen`).

The model here is deliberately topology-agnostic: a port is identified
by the *link id* attached to it, so a switch state is a partial mapping
``input link id -> output link id``.  :class:`CrossbarSwitch` also
assigns dense local port indices (PE port = 0, transit ports sorted by
link id) so states can be encoded as small register words, mimicking the
hardware.

The port inventory is static per topology, so :func:`port_tables`
builds it once per topology signature, together with the link -> port
lookup arrays that make register codegen and detranslation a few numpy
scatters, and the translation group's node-permutation matrix.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.topology.base import Topology
from repro.topology.kary_ncube import translation_group
from repro.topology.links import LinkKind

#: Local port index of the PE input/output on every switch.
PortName = int
PE_PORT: PortName = 0


class SwitchConfigError(ValueError):
    """Raised when a switch state is not a legal crossbar setting."""


@dataclass
class SwitchState:
    """State of one crossbar for one time slot.

    ``mapping`` sends input link ids to output link ids.  A legal
    crossbar state uses each input at most once (guaranteed by the dict)
    and each output at most once (validated).
    """

    node: int
    mapping: dict[int, int] = field(default_factory=dict)

    def connect(self, in_link: int, out_link: int) -> None:
        """Route ``in_link`` to ``out_link``; both must be free."""
        if in_link in self.mapping:
            raise SwitchConfigError(
                f"switch {self.node}: input link {in_link} already driven "
                f"(to {self.mapping[in_link]})"
            )
        if out_link in self.mapping.values():
            raise SwitchConfigError(
                f"switch {self.node}: output link {out_link} already in use"
            )
        self.mapping[in_link] = out_link

    def output_of(self, in_link: int) -> int | None:
        """Output link driven by ``in_link``, or None if unconnected."""
        return self.mapping.get(in_link)


class CrossbarSwitch:
    """Port inventory and register encoding for one node's crossbar."""

    def __init__(self, topology: Topology, node: int, *,
                 in_links: tuple[int, ...], out_links: tuple[int, ...]) -> None:
        self.topology = topology
        self.node = node
        # PE port first, then transit ports in link-id order.
        self.in_links = in_links
        self.out_links = out_links
        self._in_index = {link: i for i, link in enumerate(in_links)}
        self._out_index = {link: i for i, link in enumerate(out_links)}

    @property
    def radix(self) -> int:
        """Number of input (== output) ports; 5 on the paper's torus."""
        return max(len(self.in_links), len(self.out_links))

    def encode(self, state: SwitchState) -> tuple[int, ...]:
        """Encode a state as a register word.

        The word is a tuple with one entry per input port: the local
        output-port index it drives, or -1 when the input is dark.  This
        is the value a circular shift register would hold for one slot.
        """
        if state.node != self.node:
            raise SwitchConfigError(
                f"state for node {state.node} given to switch {self.node}"
            )
        word = [-1] * len(self.in_links)
        for in_link, out_link in state.mapping.items():
            try:
                i = self._in_index[in_link]
            except KeyError:
                raise SwitchConfigError(
                    f"link {in_link} is not an input of switch {self.node}"
                ) from None
            try:
                o = self._out_index[out_link]
            except KeyError:
                raise SwitchConfigError(
                    f"link {out_link} is not an output of switch {self.node}"
                ) from None
            word[i] = o
        used = [w for w in word if w >= 0]
        if len(set(used)) != len(used):
            raise SwitchConfigError(f"switch {self.node}: output used twice")
        return tuple(word)

    def decode(self, word: tuple[int, ...]) -> SwitchState:
        """Inverse of :meth:`encode` (used to round-trip-test codegen)."""
        state = SwitchState(self.node)
        for i, o in enumerate(word):
            if o >= 0:
                state.connect(self.in_links[i], self.out_links[o])
        return state


def build_switches(topology: Topology) -> dict[int, CrossbarSwitch]:
    """Construct the crossbar inventory for every node of ``topology``.

    The port lists come from :func:`port_tables`.  The PE port is always
    local port 0.
    """
    tables = port_tables(topology)
    return {
        v: CrossbarSwitch(topology, v, in_links=ins, out_links=outs)
        for v, (ins, outs) in enumerate(zip(tables.in_links, tables.out_links))
    }


@dataclass(frozen=True, eq=False)
class PortTables:
    """Static port and translation tables of one topology (read-only).

    Per switch ``v``, ``in_links[v]`` / ``out_links[v]`` list its ports:
    the PE port first, then transit ports in link-id order (the order
    :class:`CrossbarSwitch` encodes against); ``n_in`` / ``n_out`` count
    them.  Per link id ``l``, ``in_switch[l]`` / ``in_port[l]`` name the
    switch ``l`` enters and its input port there, ``out_switch[l]`` /
    ``out_port[l]`` the switch it leaves and its output port; -1 where a
    link has no such end.

    A register image is laid out flat, switch by switch, each switch's
    ``degree`` words back to back: the entry of input port ``i`` of
    switch ``v`` in slot ``k`` sits at ``image_index(degree, v, k, i)``.
    """

    in_links: tuple[tuple[int, ...], ...]
    out_links: tuple[tuple[int, ...], ...]
    n_in: np.ndarray
    n_out: np.ndarray
    #: input ports of all switches before switch ``v``.
    port_base: np.ndarray
    in_switch: np.ndarray
    in_port: np.ndarray
    out_switch: np.ndarray
    out_port: np.ndarray
    #: admissible translation vectors (identity first), see
    #: :func:`repro.topology.kary_ncube.translation_group`.
    group: tuple[tuple[int, ...], ...]
    #: per-dimension radices the translations act on (``()`` if none).
    radices: tuple[int, ...]

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def image_index(self, degree: int, switch, slot, port):
        """Flat register-image position of (switch, slot, input port)."""
        return degree * self.port_base[switch] + slot * self.n_in[switch] + port

    def image_elements(self, degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(switch, slot, port)`` of every flat register-image position."""
        counts = self.n_in * degree
        switch = np.repeat(np.arange(len(counts)), counts)
        start = np.repeat(degree * self.port_base, counts)
        offset = np.arange(int(counts.sum())) - start
        slot, port = np.divmod(offset, self.n_in[switch])
        return switch, slot, port

    def words(self, image: np.ndarray, degree: int) -> list[list[list[int]]]:
        """Per switch, the ``degree`` words of a flat register image."""
        if (self.n_in == self.n_in[0]).all():
            return image.reshape(len(self.n_in), degree, -1).tolist()
        bounds = np.cumsum(self.n_in * degree)[:-1]
        return [block.reshape(degree, -1).tolist() for block in np.split(image, bounds)]

    @cached_property
    def sigmas(self) -> np.ndarray:
        """The translation group as a node-permutation matrix:
        ``sigmas[g, v]`` is the image of node ``v`` under ``group[g]``."""
        num_nodes = len(self.in_links)
        if not self.radices:
            out = np.arange(num_nodes, dtype=np.intp)[None, :]
        else:
            coords = np.stack(
                np.unravel_index(np.arange(num_nodes), self.radices, order="F"), axis=-1
            )
            moved = (coords[None] + np.asarray(self.group)[:, None]) % self.radices
            out = np.ravel_multi_index(
                tuple(np.moveaxis(moved, -1, 0)), self.radices, order="F"
            ).astype(np.intp)
        out.flags.writeable = False
        return out


#: How many topologies' tables :func:`port_tables` keeps (LRU).
PORT_TABLES_CACHE_SIZE = 16

_TABLES: OrderedDict[str, PortTables] = OrderedDict()
_TABLES_LOCK = threading.Lock()


def port_tables(topology: Topology) -> PortTables:
    """The :class:`PortTables` of ``topology``, built once per signature.

    The signature names the topology and its routing policy, and a
    switch's ports depend on neither routing nor fiber faults, so every
    instance with the same signature shares one entry.
    """
    key = topology.signature
    with _TABLES_LOCK:
        tables = _TABLES.get(key)
        if tables is not None:
            _TABLES.move_to_end(key)
            return tables
    tables = _build_tables(topology)
    with _TABLES_LOCK:
        _TABLES[key] = tables
        while len(_TABLES) > PORT_TABLES_CACHE_SIZE:
            _TABLES.popitem(last=False)
    return tables


def _build_tables(topology: Topology) -> PortTables:
    """Scan the transit links once to recover the switch adjacency."""
    ins: dict[int, list[int]] = {v: [] for v in topology.iter_nodes()}
    outs: dict[int, list[int]] = {v: [] for v in topology.iter_nodes()}
    for link_id in range(topology.transit_link_base, topology.num_links):
        info = topology.link_info(link_id)
        assert info.kind is LinkKind.TRANSIT
        if info.dst >= 0:  # boundary fibers on a mesh have dst == -1
            outs[info.src].append(link_id)
            ins[info.dst].append(link_id)
    in_links = tuple(
        (topology.inject_link(v), *sorted(ins[v])) for v in topology.iter_nodes()
    )
    out_links = tuple(
        (topology.eject_link(v), *sorted(outs[v])) for v in topology.iter_nodes()
    )

    def lookup(ports_of: tuple[tuple[int, ...], ...]) -> tuple[np.ndarray, np.ndarray]:
        switch = np.full(topology.num_links, -1, dtype=np.intp)
        port = np.full(topology.num_links, -1, dtype=np.intp)
        for v, ports in enumerate(ports_of):
            switch[list(ports)] = v
            port[list(ports)] = np.arange(len(ports))
        return switch, port

    n_in = np.array([len(ports) for ports in in_links], dtype=np.intp)
    in_switch, in_port = lookup(in_links)
    out_switch, out_port = lookup(out_links)
    group = tuple(translation_group(topology))
    return PortTables(
        in_links=in_links,
        out_links=out_links,
        n_in=n_in,
        n_out=np.array([len(ports) for ports in out_links], dtype=np.intp),
        port_base=np.cumsum(n_in) - n_in,
        in_switch=in_switch,
        in_port=in_port,
        out_switch=out_switch,
        out_port=out_port,
        group=group,
        radices=tuple(topology.dims) if group[0] else (),
    )
