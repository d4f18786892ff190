"""Visit ratios of the closed queueing network (paper, Section 2).

For a class-``i`` thread (threads never migrate, so class ``i`` = threads of
processor ``i``) one *cycle* is: execute on processor ``i``, issue a memory
access, receive the response.  Per cycle the thread visits:

* processor ``i`` exactly once,
* memory ``j`` with ratio ``em[i, j]`` -- ``1 - p_remote`` locally, and
  ``p_remote * q_i(j)`` remotely, where ``q_i`` is the access pattern,
* the *outbound* switch of node ``j``:

  - ``eo[i, i] = p_remote`` (every remote *request* leaves through the source's
    outbound switch), and
  - ``eo[i, j] = em[i, j]`` for ``j != i`` (every remote *response* leaves
    through the destination's outbound switch -- the paper's statement that
    "the visit ratio for the outbound switch is the same as ``em[i,j]``"),

* the *inbound* switch of node ``n`` with ratio ``ei[i, n]``: the sum over all
  routed request paths ``i -> j`` and response paths ``j -> i`` that traverse
  ``n``'s inbound switch (a message entering a node hop-by-hop is accepted by
  that node's inbound switch; the source's own inbound switch is bypassed).

Invariant (tested): ``ei[i, :].sum() == 2 * p_remote * d_avg`` -- a remote
round trip crosses ``2h`` inbound switches at distance ``h`` -- and
``eo[i, :].sum() == 2 * p_remote``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..params import MMSParams
from ..topology import Torus2D, inbound_transit_counts
from .access_patterns import AccessPattern, pattern_for, shared_probability_matrix

__all__ = ["VisitRatios", "build_visit_ratios"]


@dataclass(frozen=True)
class VisitRatios:
    """Per-cycle visit ratios of every class at every station.

    All arrays are ``(P, P)``, indexed ``[class, node]``.  The processor visit
    ratio is identically 1 at the class's own node and 0 elsewhere, so it is
    not stored.
    """

    memory: np.ndarray  #: ``em[i, j]``
    inbound: np.ndarray  #: ``ei[i, n]``
    outbound: np.ndarray  #: ``eo[i, n]``

    @property
    def num_nodes(self) -> int:
        return self.memory.shape[0]

    def total_network_visits(self, cls: int) -> float:
        """Total switch visits per cycle for class ``cls`` (in + out)."""
        return float(self.inbound[cls].sum() + self.outbound[cls].sum())


def build_visit_ratios(
    torus: Torus2D,
    p_remote: float,
    pattern: AccessPattern,
) -> VisitRatios:
    """Construct the visit-ratio matrices for an SPMD workload.

    Fully vectorized: the inbound ratios contract the routed transit tensor
    ``c[s, d, n]`` with the remote-access matrix (requests use ``c[i, j, n]``,
    responses ``c[j, i, n]``).  Both inputs come from per-topology caches,
    so only ``p_remote`` is applied afresh on each call.
    """
    if not 0.0 <= p_remote <= 1.0:
        raise ValueError(f"p_remote must be in [0, 1], got {p_remote}")
    p = torus.num_nodes

    if p == 1 or p_remote == 0.0:
        em = np.zeros((p, p))
        np.fill_diagonal(em, 1.0)
        zeros = np.zeros((p, p))
        return VisitRatios(memory=em, inbound=zeros, outbound=zeros.copy())

    q = shared_probability_matrix(pattern, torus)  # (P, P), zero diagonal
    em = p_remote * q
    np.fill_diagonal(em, 1.0 - p_remote)

    remote = p_remote * q  # em restricted to j != i

    eo = remote.copy()
    np.fill_diagonal(eo, p_remote)

    c = inbound_transit_counts(torus)  # c[s, d, n], float64
    ei = np.einsum("ij,ijn->in", remote, c)  # request paths i -> j
    ei += np.einsum("ij,jin->in", remote, c)  # response paths j -> i
    return VisitRatios(memory=em, inbound=ei, outbound=eo)


def visit_ratios_for(params: MMSParams) -> VisitRatios:
    """Convenience wrapper resolving the pattern from :class:`MMSParams`."""
    wl = params.workload
    return build_visit_ratios(params.arch.torus, wl.p_remote, pattern_for(wl))
