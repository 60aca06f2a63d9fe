"""Pattern canonicalization under torus translation symmetry.

A k-ary n-cube is vertex-transitive under coordinate translation: the
map ``sigma_t(v) = v + t`` (per-dimension, mod the radix) permutes the
nodes, carries every link onto a link of the same dimension/direction,
and therefore carries any conflict-free schedule onto a conflict-free
schedule of the translated pattern with the same multiplexing degree.
Two patterns that differ only by such a translation -- e.g. the
transpose pattern started from any grid offset, or a shift pattern
rebased at another node -- are the *same* compilation problem, so the
compile service collapses them onto one canonical representative and
one cache entry.

Admissible translations
-----------------------
Degree preservation needs the translation to be a **routing**
symmetry, not merely a graph symmetry: the scheduler sees routed link
sets, so ``route(sigma(s), sigma(d))`` must equal the link-translated
``route(s, d)``.  Dimension-order routing chooses, per dimension, the
signed offset ``signed_offset(src_c, dst_c)`` which depends only on
``(dst_c - src_c) mod k`` -- translation-invariant -- *except* at
half-ring ties (offset exactly ``k/2`` on an even radix), where the
``BALANCED`` tie-break consults the source coordinate's parity.  Hence:

* ``TieBreak.POSITIVE``: every translation is admissible;
* ``TieBreak.BALANCED``: a translation is admissible iff its component
  is even in every even-radix dimension (parity-preserving, so every
  tie resolves identically).  Odd radices never tie and are
  unrestricted.

Topologies without translation symmetry (mesh, linear array, omega,
fault-degraded wrappers) get the trivial group ``{identity}`` --
canonicalization then only sorts the request list into a deterministic
order.

Canonical form
--------------
Requests are packed as integers ``((src * N + dst) << 36) | (size <<
16) | tag`` (a numpy int64 fast path over ``(n, 4)`` row arrays;
arbitrary sizes fall back to tuples), translated by every admissible
``sigma``, sorted, and the lexicographically smallest image wins.
Ties between translations are broken by group enumeration order, so
every process picks the same ``sigma`` -- which matters because cache
*responses* are translated back through ``sigma^-1`` and must be
byte-identical across processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Sequence

import numpy as np

from repro.compiler.serialize import register_array
from repro.service.errors import ProtocolError
from repro.topology.kary_ncube import translation_group  # noqa: F401 (re-export)
from repro.topology.switch import port_tables

#: Packing limits of the int64 fast path: (src*N+dst) < 2**24 needs
#: N <= 4096 nodes; sizes below 2**20 and tags below 2**16 then fit in
#: the low 36 bits with no overlap (total < 2**61).
_MAX_PACK_NODES = 4096
_MAX_PACK_SIZE = 1 << 20
_MAX_PACK_TAG = 1 << 16

RequestTuple = tuple[int, int, int, int]  # (src, dst, size, tag)


def node_permutation(topology: Any, translation: tuple[int, ...]) -> list[int]:
    """``sigma`` as a dense list: ``sigma[v]`` = image of node ``v``."""
    if not translation or not any(translation):
        return list(range(topology.num_nodes))
    return [
        topology.node_at([c + t for c, t in zip(topology.coords(v), translation)])
        for v in range(topology.num_nodes)
    ]


def invert_permutation(sigma: Sequence[int]) -> list[int]:
    """The inverse of a node permutation."""
    inv = [0] * len(sigma)
    for v, image in enumerate(sigma):
        inv[image] = v
    return inv


def translate_link(topology: Any, link_id: int, sigma: Sequence[int]) -> int:
    """Image of ``link_id`` under the node permutation ``sigma``.

    Injection/ejection fibers follow their node; a transit fiber keeps
    its dimension and direction but moves to the translated source
    switch.  Only valid for permutations induced by translations (which
    preserve per-node transit fan-out).
    """
    n = topology.num_nodes
    if link_id < n:  # injection
        return sigma[link_id]
    if link_id < 2 * n:  # ejection
        return n + sigma[link_id - n]
    offset = link_id - topology.transit_link_base
    fanout = 2 * len(topology.dims)
    node, rest = divmod(offset, fanout)
    return topology.transit_link_base + sigma[node] * fanout + rest


@dataclass(eq=False)
class CanonicalPattern:
    """The canonical representative of a pattern's translation class.

    Attributes
    ----------
    key_bytes:
        Deterministic byte encoding of ``requests`` -- the pattern
        component of the cache digest.
    sigma:
        Node permutation mapping the *submitted* pattern onto the
        canonical one (``canonical request = sigma applied to original``).
    translation:
        The winning translation vector (``()`` for the identity on
        asymmetric topologies).
    rows:
        The canonical pattern as computed: the winning packed int64
        image, or the sorted tuples of the fallback path.
    requests:
        The canonical request tuples ``(src, dst, size, tag)``, sorted
        (unpacked on first use: only a cold compile needs them).
    sigma_inv:
        The inverse of ``sigma`` -- applied to cached artifacts before
        they are served, so the caller gets a schedule in its own node
        ids.
    """

    key_bytes: bytes
    sigma: list[int]
    translation: tuple[int, ...]
    rows: np.ndarray | list[RequestTuple]
    num_nodes: int

    @cached_property
    def requests(self) -> list[RequestTuple]:
        if isinstance(self.rows, np.ndarray):
            return _unpack(self.rows, self.num_nodes)
        return self.rows

    @cached_property
    def sigma_inv(self) -> list[int]:
        return invert_permutation(self.sigma)

    @property
    def is_identity(self) -> bool:
        return not any(self.translation)


def _as_tuples(requests: Sequence) -> list[RequestTuple]:
    out = []
    for r in requests:
        if isinstance(r, tuple):
            s, d, size, tag = (*r, 1, 0)[:4] if len(r) < 4 else r
        else:
            s, d, size, tag = r.src, r.dst, r.size, r.tag
        out.append((int(s), int(d), int(size), int(tag)))
    return out


def _as_rows(requests: Any) -> np.ndarray | list[RequestTuple]:
    """``(n, 4)`` int64 rows, or tuples when a value overflows int64."""
    if isinstance(requests, np.ndarray):
        return requests
    tuples = _as_tuples(requests)
    try:
        return np.array(tuples, dtype=np.int64).reshape(len(tuples), 4)
    except OverflowError:
        return tuples


def _check_nodes(rows: np.ndarray | list[RequestTuple], n_nodes: int) -> None:
    """Refuse endpoints outside ``[0, n_nodes)`` (fancy indexing would
    wrap a negative id onto another node)."""
    if isinstance(rows, np.ndarray):
        ends = rows[:, :2]
        bad = ends[(ends < 0) | (ends >= n_nodes)]
        bad = bad.tolist()
    else:
        bad = [v for s, d, _, _ in rows for v in (s, d) if not 0 <= v < n_nodes]
    if bad:
        raise ProtocolError(f"node {bad[0]} out of range [0, {n_nodes})")


def _packable(n_nodes: int, rows: np.ndarray | list[RequestTuple]) -> bool:
    if not isinstance(rows, np.ndarray) or n_nodes > _MAX_PACK_NODES:
        return False
    sizes, tags = rows[:, 2], rows[:, 3]
    return bool(
        ((sizes > 0) & (sizes < _MAX_PACK_SIZE)).all()
        and ((tags >= 0) & (tags < _MAX_PACK_TAG)).all()
    )


def _unpack(packed: np.ndarray, n_nodes: int) -> list[RequestTuple]:
    src, dst = np.divmod(packed >> 36, n_nodes)
    sizes = (packed >> 16) & (_MAX_PACK_SIZE - 1)
    tags = packed & (_MAX_PACK_TAG - 1)
    return list(zip(src.tolist(), dst.tolist(), sizes.tolist(), tags.tolist()))


def canonicalize(topology: Any, requests: Any) -> CanonicalPattern:
    """Canonical representative of ``requests`` on ``topology``.

    ``requests`` may be a :class:`RequestSet`, a sequence of
    :class:`Request`, of ``(src, dst[, size[, tag]])`` tuples, or an
    ``(n, 4)`` int64 array of ``(src, dst, size, tag)`` rows.  The
    result is independent of the submitted request *order* and, on
    translation-symmetric topologies, of any admissible translation of
    the whole pattern.  An endpoint outside the topology is a
    :class:`~repro.service.errors.ProtocolError` (a ``ValueError``).
    """
    rows = _as_rows(requests)
    n = topology.num_nodes
    _check_nodes(rows, n)
    group = port_tables(topology).group
    if _packable(n, rows):
        return _canonicalize_packed(topology, rows, group)
    if isinstance(rows, np.ndarray):
        rows = [tuple(r) for r in rows.tolist()]
    return _canonicalize_tuples(topology, rows, group)


def _canonicalize_packed(
    topology: Any, rows: np.ndarray, group: Sequence[tuple[int, ...]]
) -> CanonicalPattern:
    """int64 fast path: one vectorised sort per admissible translation."""
    n = topology.num_nodes
    rest = (rows[:, 2] << 16) | rows[:, 3]
    # sigmas: (|group|, N) matrix of node images.
    sigmas = port_tables(topology).sigmas
    images = np.sort(
        (sigmas[:, rows[:, 0]] * n + sigmas[:, rows[:, 1]]) << 36 | rest, axis=1
    )
    # Every packed value is non-negative, so big-endian bytes order like
    # the integer rows: the smallest image is the lexicographic minimum,
    # and min() keeps the first of equal images (group order breaks ties).
    keys = [row.tobytes() for row in images.astype(">i8")]
    best = min(range(len(keys)), key=keys.__getitem__)
    return CanonicalPattern(
        key_bytes=b"packed\0" + images[best].astype("<i8").tobytes(),
        sigma=sigmas[best].tolist(),
        translation=group[best],
        rows=images[best],
        num_nodes=n,
    )


def _canonicalize_tuples(
    topology: Any, tuples: list[RequestTuple], group: Sequence[tuple[int, ...]]
) -> CanonicalPattern:
    """Fallback for huge node counts / sizes: plain tuple sorting."""
    best_key: list[RequestTuple] | None = None
    best_t: tuple[int, ...] = group[0]
    best_sigma: list[int] = []
    for t, sigma in zip(group, port_tables(topology).sigmas.tolist()):
        key = sorted((sigma[s], sigma[d], size, tag) for s, d, size, tag in tuples)
        if best_key is None or key < best_key:
            best_key, best_t, best_sigma = key, t, sigma
    assert best_key is not None
    encoded = ";".join(f"{s},{d},{size},{tag}" for s, d, size, tag in best_key)
    return CanonicalPattern(
        key_bytes=b"tuples\0" + encoded.encode("ascii"),
        sigma=best_sigma,
        translation=best_t,
        rows=best_key,
        num_nodes=topology.num_nodes,
    )


# ----------------------------------------------------------------------
# applying permutations to serialized artifacts
# ----------------------------------------------------------------------

def permute_schedule_dict(doc: dict, sigma: Sequence[int]) -> dict:
    """A schedule document with every endpoint mapped through ``sigma``.

    Slot structure, sizes and tags are untouched; used to translate a
    canonical cached schedule back into the caller's node ids.
    """
    return {
        **doc,
        "slots": [
            [
                {**e, "src": sigma[e["src"]], "dst": sigma[e["dst"]]}
                for e in slot
            ]
            for slot in doc["slots"]
        ],
    }


def permute_registers_dict(topology: Any, doc: dict, sigma: Sequence[int]) -> dict:
    """A register-image document translated through ``sigma``.

    A translation carries switch ``v`` onto ``sigma[v]`` and every fiber
    onto the fiber of the same dimension and direction (or the PE fiber)
    there, so output ports keep their index and the words their values;
    only each switch's input positions move, because input ports are
    ordered by incoming link id, which depends on the neighbours'
    absolute node ids.  The image is one scatter through that input-port
    map.  Malformed words raise
    :class:`~repro.compiler.serialize.ArtifactError`.
    """
    tables = port_tables(topology)
    image = register_array(topology, doc)
    degree = doc["degree"]
    sigma = np.asarray(sigma, dtype=np.intp)
    moved = np.array([
        translate_link(topology, link, sigma)
        for ports in tables.in_links for link in ports
    ])
    if (tables.in_switch[moved] != np.repeat(sigma, tables.n_in)).any():
        raise ValueError("sigma is not a translation of the topology")
    ports = tables.in_port[moved]
    switch, slot, port = tables.image_elements(degree)
    out = np.empty_like(image)
    out[tables.image_index(
        degree, sigma[switch], slot, ports[tables.port_base[switch] + port]
    )] = image
    words = tables.words(out, degree)
    return {
        **doc,
        "words": {str(sigma[int(v)]): words[sigma[int(v)]] for v in doc["words"]},
    }
