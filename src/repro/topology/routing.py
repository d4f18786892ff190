"""Dimension-ordered (X-then-Y) minimal routing on the 2-D torus.

The paper's switches route messages hop by hop; a message from PE ``i`` to PE
``j`` enters the network through the *outbound* switch at ``i`` and then
traverses the *inbound* switch of every subsequent node on its path, including
the destination (Section 2, "IN Switch").  The concrete path matters because
the visit ratios ``ei[i, j]`` of the inbound switches are sums over routed
paths.

Dimension-ordered routing is deterministic and minimal, matching the
non-adaptive switches the paper assumes.  On even rings, distance-``k/2`` ties
break toward the positive direction (see :func:`repro.topology.torus.signed_hop`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .torus import Torus2D, signed_hop

__all__ = ["route", "route_nodes", "path_length", "inbound_transit_counts"]


def route(topology, src: int, dst: int) -> tuple[int, ...]:
    """Full node sequence of the X-then-Y minimal route, endpoints included.

    ``route(t, a, a) == (a,)``; consecutive nodes are neighbors and the
    sequence length is ``distance(src, dst) + 1``.  Works for any topology
    that either exposes a ``route`` method (mesh) or is a :class:`Torus2D`.
    """
    if not isinstance(topology, Torus2D):
        return topology.route(src, dst)
    torus = topology
    torus._check_node(src)
    torus._check_node(dst)
    x, y = torus.coords(src)
    dx, dy = torus.coords(dst)
    path = [src]
    step = signed_hop(x, dx, torus.kx)
    while x != dx:
        x = (x + step) % torus.kx
        path.append(torus.node_at(x, y))
    step = signed_hop(y, dy, torus.ky)
    while y != dy:
        y = (y + step) % torus.ky
        path.append(torus.node_at(x, y))
    return tuple(path)


def route_nodes(topology, src: int, dst: int) -> tuple[int, ...]:
    """Nodes whose *inbound switch* the message traverses: the route minus
    the source (the message leaves ``src`` via its outbound switch instead).

    The destination's inbound switch *is* included -- the message exits the
    network through it (paper, Section 2).
    """
    return route(topology, src, dst)[1:]


def path_length(topology, src: int, dst: int) -> int:
    """Number of hops of the dimension-ordered route (== minimal distance)."""
    return len(route(topology, src, dst)) - 1


@lru_cache(maxsize=64)
def _inbound_counts_cached(kind: type, kx: int, ky: int) -> np.ndarray:
    topology = kind(kx, ky)
    p = topology.num_nodes
    counts = np.zeros((p, p, p))
    for s in range(p):
        for d in range(p):
            if s == d:
                continue
            for n in route_nodes(topology, s, d):
                counts[s, d, n] += 1
    counts.setflags(write=False)
    return counts


def inbound_transit_counts(topology) -> np.ndarray:
    """``(P, P, P)`` tensor ``c[s, d, n]``: how many times a message routed
    ``s -> d`` visits the inbound switch of node ``n`` (0 or 1 for minimal
    dimension-ordered routes).

    Cached per topology type and shape; this tensor is the kernel from which
    all inbound switch visit ratios are contracted, so it is kept as
    ``float64`` (the counts are small integers, exact in a double).  Every
    caller shares the one cached array, which is therefore read-only:
    copy it before editing.
    """
    return _inbound_counts_cached(type(topology), topology.kx, topology.ky)
