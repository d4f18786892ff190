"""The pure-numpy reference kernels: masked, vectorized fixed points.

These are the arbiter of the numeric contract.  Per-point arithmetic uses
only elementwise operations and reductions along the class/station axes of
C-contiguous operands, whose evaluation order does not depend on the batch
size, so per-point results are bitwise independent of the batch
composition.  Any other kernel (see :mod:`.compiled`) must reproduce these
results bit for bit.

Convergence is **masked**: a point whose queue-length change drops below
``tol`` leaves the active set.  The active points' inputs and iterates
live in compact arrays that are gathered again only when the set shrinks,
and a point's final ``q``/``w``/``x``/``iterations``/``residual`` are
written back to its batch row only when it leaves the set (or at
``max_iter``).  Points never interact, so masking changes which rows are
touched but never any point's iterate sequence.
"""

from __future__ import annotations

import numpy as np

from .soa import FixedPointResult, MulticlassSoA, SymmetricSoA

__all__ = ["multiclass_fixed_point", "symmetric_fixed_point"]

#: selection-registry name of this kernel
NAME = "numpy"


def _retire(out, rows, leave, it, q_a, w_a, x_a, delta) -> None:
    """Write the leaving compact rows' final iterates back to the batch."""
    q, w, x, iterations, residual = out
    q[rows] = q_a[leave]
    w[rows] = w_a[leave]
    x[rows] = x_a[leave]
    iterations[rows] = it
    residual[rows] = delta[leave]


def multiclass_fixed_point(
    soa: MulticlassSoA, tol: float, max_iter: int
) -> FixedPointResult:
    """Batched Bard-Schweitzer on a ``(B, C, M)`` multi-class stack."""
    b_total = soa.batch
    c, m = soa.shape

    q = soa.initial_queues()
    w = np.zeros((b_total, c, m))
    x = np.zeros((b_total, c))
    iterations = np.zeros(b_total, dtype=np.int64)
    residual = np.full(b_total, np.inf)
    converged = np.zeros(b_total, dtype=bool)
    out = (q, w, x, iterations, residual)
    active = np.arange(b_total)
    trajectory: list[int] = []

    keep = active
    v_a, s_a, e_a = soa.visits, soa.service, soa.extra
    pops_a, queueing_a, q_a = soa.populations, soa.queueing, q
    for it in range(1, max_iter + 1):
        if active.size == 0:
            break
        if keep is not None:  # the active set changed: gather it afresh
            v_a, s_a, e_a = v_a[keep], s_a[keep], e_a[keep]
            pops_a, queueing_a, q_a = pops_a[keep], queueing_a[keep], q_a[keep]
            pop_col = pops_a[:, :, None]
            has_pop = pop_col > 0.0
            qmask = queueing_a[:, None, :]
            unqueued = s_a + e_a
            keep = None
        trajectory.append(int(active.size))
        # step 2: arrival-theorem waiting times for the active points
        q_total = q_a.sum(axis=1, keepdims=True)  # (b, 1, M)
        own = np.zeros(q_a.shape)
        np.divide(q_a, pop_col, out=own, where=has_pop)
        seen = q_total - own
        w_a = np.where(qmask, s_a * (1.0 + seen) + e_a, unqueued)
        # steps 3-4: throughputs and new queue lengths
        denom = (v_a * w_a).sum(axis=2)  # (b, C)
        x_a = np.zeros(denom.shape)
        np.divide(pops_a, denom, out=x_a, where=denom > 0.0)
        q_new = x_a[:, :, None] * v_a * w_a
        delta = np.abs(q_new - q_a).reshape(active.size, -1).max(axis=1)
        q_a = q_new

        # step 5, masked: converged points leave the active set
        done = delta <= tol
        if it == max_iter:
            _retire(out, active, slice(None), it, q_a, w_a, x_a, delta)
            converged[active[done]] = True
        elif done.any():
            _retire(out, active[done], done, it, q_a, w_a, x_a, delta)
            converged[active[done]] = True
            keep = ~done
            active = active[keep]

    return FixedPointResult(
        q=q,
        w=w,
        x=x,
        iterations=iterations,
        residual=residual,
        converged=converged,
        trajectory=tuple(trajectory),
    )


def symmetric_fixed_point(
    soa: SymmetricSoA, tol: float, max_iter: int
) -> FixedPointResult:
    """Batched Bard-Schweitzer on the ``(B, M)`` symmetric manifold."""
    b_total, m = soa.visits.shape

    q = soa.initial_queues()
    w = np.zeros((b_total, m))
    x = np.zeros(b_total)
    iterations = np.zeros(b_total, dtype=np.int64)
    residual = np.zeros(b_total)
    converged = soa.initial_converged()
    residual[~converged] = np.inf
    out = (q, w, x, iterations, residual)
    active = np.flatnonzero(~converged)
    trajectory: list[int] = []

    keep = active
    v_a, s_a, e_a, pop_a, q_a = soa.visits, soa.service, soa.extra, soa.popf, q
    for it in range(1, max_iter + 1):
        if active.size == 0:
            break
        if keep is not None:  # the active set changed: gather it afresh
            v_a, s_a, e_a = v_a[keep], s_a[keep], e_a[keep]
            pop_a, q_a = pop_a[keep], q_a[keep]
            pop_col = pop_a[:, None]
            keep = None
        trajectory.append(int(active.size))
        t_total = soa.pooled_totals(q_a)
        seen = t_total - q_a / pop_col  # arriving customer's view (BS)
        w_a = s_a * (1.0 + seen) + e_a
        denom = (v_a * w_a).sum(axis=1)
        x_a = np.zeros(active.size)
        np.divide(pop_a, denom, out=x_a, where=denom > 0.0)
        q_new = x_a[:, None] * v_a * w_a
        delta = np.abs(q_new - q_a).max(axis=1)
        q_a = q_new

        done = delta <= tol
        if it == max_iter:
            _retire(out, active, slice(None), it, q_a, w_a, x_a, delta)
            converged[active[done]] = True
        elif done.any():
            _retire(out, active[done], done, it, q_a, w_a, x_a, delta)
            converged[active[done]] = True
            keep = ~done
            active = active[keep]

    return FixedPointResult(
        q=q,
        w=w,
        x=x,
        iterations=iterations,
        residual=residual,
        converged=converged,
        trajectory=tuple(trajectory),
    )
