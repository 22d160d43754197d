"""2D torus with dimension-order (X-then-Y) routing.

Each host owns a 5-port router (``+X, -X, +Y, -Y, eject``); packets hop
router to router, taking the shorter wrap-around direction per dimension
(ties go to the positive direction) and always finishing X before
starting Y.  Dimension-order routing is deterministic per (src, dst), so
every pair keeps a single path and the fabric's per-pair FIFO guarantee
holds (see :mod:`repro.topo.base`).

``NetParams.torus_width`` picks the X extent; 0 auto-factors the node
count into the most-square W×H grid (falling back toward a ring when the
count is prime).
"""

from __future__ import annotations

from math import isqrt

from ..network.switch import CrossbarSwitch
from .base import Topology, register_topology

_POS_X, _NEG_X, _POS_Y, _NEG_Y, _EJECT = range(5)


def _auto_width(nodes: int) -> int:
    w = isqrt(nodes)
    while w > 1 and nodes % w:
        w -= 1
    return w


def _signed_step(delta: int, dim: int) -> int:
    """Shorter wrap direction for ``delta`` hops around a ``dim`` ring
    (+1/-1 per hop); ties prefer the positive direction."""
    d = delta % dim
    return d if d <= dim - d else d - dim


@register_topology("torus")
class TorusTopology(Topology):
    """W×H torus of per-host routers (see module docstring)."""

    def __init__(self, params, nodes: int):
        super().__init__(params, nodes)
        w = params.torus_width or _auto_width(nodes)
        if w < 1 or nodes % w:
            raise ValueError(
                f"torus_width {w} does not divide node count {nodes}")
        self.width = w
        self.height = nodes // w
        self.routers = [CrossbarSwitch(5) for _ in range(nodes)]
        self.switches = list(self.routers)

    def _coords(self, node: int) -> tuple[int, int]:
        return node % self.width, node // self.width

    def _compute_route(self, src: int, dst: int):
        sx, sy = self._coords(src)
        dx, dy = self._coords(dst)
        hops = []
        cur_x, cur_y = sx, sy
        step = _signed_step(dx - sx, self.width)
        while cur_x != dx:
            port = _POS_X if step > 0 else _NEG_X
            hops.append(self.routers[cur_y * self.width + cur_x].out(port))
            cur_x = (cur_x + (1 if step > 0 else -1)) % self.width
        step = _signed_step(dy - sy, self.height)
        while cur_y != dy:
            port = _POS_Y if step > 0 else _NEG_Y
            hops.append(self.routers[cur_y * self.width + cur_x].out(port))
            cur_y = (cur_y + (1 if step > 0 else -1)) % self.height
        hops.append(self.routers[dst].out(_EJECT))
        return hops
