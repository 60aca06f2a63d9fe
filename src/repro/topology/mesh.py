"""2-D mesh (torus without wrap-around links) -- ablation topology.

The paper evaluates only the torus; the mesh asks how much of the
schedulers' behaviour depends on wrap-around bandwidth (the compile
service accepts it as a ``{"kind": "mesh"}`` topology).
"""

from __future__ import annotations

from repro.topology.base import Topology
from repro.topology.links import Link, LinkKind


class Mesh2D(Topology):
    """``width x height`` mesh with XY dimension-order routing.

    Node ids are ``x + width * y`` as on the torus.  Each node notionally
    drives four transit fibers (+x, -x, +y, -y) but fibers that would
    leave the mesh boundary are never routed over; the id space keeps
    the dense ``4 * num_nodes`` layout of the torus for uniformity.
    """

    def __init__(self, width: int, height: int | None = None) -> None:
        if height is None:
            height = width
        if width < 1 or height < 1:
            raise ValueError(f"bad mesh dimensions {width}x{height}")
        self.width = width
        self.height = height
        self.num_nodes = width * height
        self.num_transit_links = 4 * self.num_nodes

    def xy(self, node: int) -> tuple[int, int]:
        self._check_node(node)
        return node % self.width, node // self.width

    def node(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"({x},{y}) outside {self.width}x{self.height} mesh")
        return x + self.width * y

    _DIRS = ("+x", "-x", "+y", "-y")

    def transit_link(self, node: int, direction: int) -> int:
        """Fiber leaving ``node``; ``direction`` indexes ``(+x,-x,+y,-y)``."""
        self._check_node(node)
        x, y = self.xy(node)
        if direction == 0 and x == self.width - 1:
            raise ValueError(f"node {node} has no +x neighbour")
        if direction == 1 and x == 0:
            raise ValueError(f"node {node} has no -x neighbour")
        if direction == 2 and y == self.height - 1:
            raise ValueError(f"node {node} has no +y neighbour")
        if direction == 3 and y == 0:
            raise ValueError(f"node {node} has no -y neighbour")
        return self.transit_link_base + node * 4 + direction

    def _transit_route(self, src: int, dst: int) -> tuple[int, ...]:
        sx, sy = self.xy(src)
        dx, dy = self.xy(dst)
        links: list[int] = []
        while sx != dx:
            direction = 0 if dx > sx else 1
            links.append(self.transit_link(self.node(sx, sy), direction))
            sx += 1 if dx > sx else -1
        while sy != dy:
            direction = 2 if dy > sy else 3
            links.append(self.transit_link(self.node(sx, sy), direction))
            sy += 1 if dy > sy else -1
        return tuple(links)

    def transit_link_info(self, offset: int) -> Link:
        node, direction = divmod(offset, 4)
        x, y = self.xy(node)
        step = {0: (1, 0), 1: (-1, 0), 2: (0, 1), 3: (0, -1)}[direction]
        nx, ny = x + step[0], y + step[1]
        dst = self.node(nx, ny) if 0 <= nx < self.width and 0 <= ny < self.height else -1
        return Link(LinkKind.TRANSIT, node, dst, direction=self._DIRS[direction])

    @property
    def signature(self) -> str:
        return f"mesh2d:{self.width}x{self.height}"
