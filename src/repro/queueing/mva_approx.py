"""Approximate MVA: the Bard-Schweitzer fixed point (paper's Figure 3).

The paper's AMVA algorithm estimates the queue length a newly arriving
class-``i`` customer sees at population ``N`` by the proportional reduction

    Q_m(N - e_i)  ~=  (N_i - 1)/N_i * Q_{i,m}(N)  +  sum_{j != i} Q_{j,m}(N)

and iterates steps 2-5 of Figure 3 until the queue lengths are stable.  The
iteration has one implementation, the batched kernel behind
:func:`~repro.queueing.mva_batch.solve_batch`; :func:`bard_schweitzer` is its
``B = 1`` case, so zero-service (ideal) stations, delay stations and the
Seidmann multi-server split behave exactly as in a batched sweep.

An optional Linearizer-style refinement (:func:`linearizer`) is provided as a
higher-accuracy alternative (Chandy & Neuse's scheme, simplified to the
standard three-pass core); the paper's results use plain Bard-Schweitzer.
"""

from __future__ import annotations

import warnings

import numpy as np

from .mva_batch import solve_batch
from .network import ClosedNetwork
from .solution import ConvergenceWarning, QNSolution

__all__ = ["bard_schweitzer", "linearizer"]


def bard_schweitzer(
    network: ClosedNetwork,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    strict: bool = False,
) -> QNSolution:
    """Solve a closed multi-class network with the Bard-Schweitzer AMVA.

    This is the ``B = 1`` case of :func:`~repro.queueing.mva_batch.solve_batch`,
    so a network solved alone and the same network solved inside a
    sweep-sized batch give bitwise-identical results.

    Parameters
    ----------
    network:
        Specification (zero service times allowed: such stations contribute
        no waiting -- the paper's "ideal subsystem").
    tol:
        Convergence threshold on the max absolute queue-length change
        (the paper's ``difference(n_im_new, n_im_old) > tolerance`` test).
    max_iter:
        Iteration cap; the fixed point is a contraction in practice and
        converges in tens of iterations for the paper's configurations.
        Exhausting it emits a :class:`ConvergenceWarning` (the result is
        still returned, flagged ``converged=False`` with its residual).
    strict:
        Raise :class:`ConvergenceError` instead of warning when the cap is
        exhausted.
    """
    return solve_batch([network], tol=tol, max_iter=max_iter, strict=strict)[0]


def linearizer(
    network: ClosedNetwork,
    tol: float = 1e-8,
    max_outer: int = 50,
    inner_tol: float = 1e-10,
) -> QNSolution:
    """Linearizer-refined AMVA (Chandy-Neuse core scheme).

    Estimates the *fractional deviation* ``F[c, m] = Q[c, m]/N_c`` change
    between populations ``N`` and ``N - e_j`` by actually solving the reduced
    populations with Bard-Schweitzer-style cores, then correcting the arrival
    queue estimates.  Typically ~10x closer to exact MVA than plain
    Bard-Schweitzer at a few times the cost.

    ``iterations`` counts outer passes and ``residual`` is the last pass's
    max queue-length change; hitting ``max_outer`` first emits a
    :class:`ConvergenceWarning` and flags the result ``converged=False``.
    """
    c, m = network.num_classes, network.num_stations
    v = network.visits
    s, extra = network.seidmann_split()
    pops = network.populations.astype(np.float64)
    queueing = network.queueing_mask()

    def one_removed(pop_vec: np.ndarray, j: int) -> np.ndarray:
        reduced = pop_vec.copy()
        if reduced[j] > 0:
            reduced[j] -= 1
        return reduced

    def update(
        pop_vec: np.ndarray, q: np.ndarray, delta: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One corrected BS update at population ``pop_vec``: ``(W, X, Q)``.

        ``delta[j, c, m]`` corrects class-``c``'s fraction at station ``m`` as
        seen when one class-``j`` customer is removed.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(pop_vec[:, None] > 0, q / pop_vec[:, None], 0.0)
        # population seen by an arriving class-j customer
        seen = np.empty((c, m))
        for j in range(c):
            est = (frac + delta[j]) * one_removed(pop_vec, j)[:, None]
            seen[j] = est.sum(axis=0)
        w_ = np.where(queueing[None, :], s * (1.0 + seen) + extra, s + extra)
        denom = np.einsum("cm,cm->c", v, w_)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_ = np.where(denom > 0, pop_vec / denom, 0.0)
        return w_, x_, x_[:, None] * v * w_

    def core(pop_vec: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """BS core at population ``pop_vec``; returns (C, M) queues."""
        visited = v > 0
        n_vis = np.maximum(visited.sum(axis=1, keepdims=True), 1)
        q = np.where(visited, pop_vec[:, None] / n_vis, 0.0)
        for _ in range(100_000):
            q_new = update(pop_vec, q, delta)[2]
            if float(np.max(np.abs(q_new - q), initial=0.0)) <= inner_tol:
                return q_new
            q = q_new
        return q

    delta = np.zeros((c, c, m))
    q_full = core(pops, delta)
    outer, moved = 0, np.inf
    for outer in range(1, max_outer + 1):
        # Solve each one-customer-removed population with current deltas.
        fracs_reduced = np.empty((c, c, m))
        for j in range(c):
            reduced = one_removed(pops, j)
            q_red = core(reduced, delta)
            with np.errstate(divide="ignore", invalid="ignore"):
                fracs_reduced[j] = np.where(
                    reduced[:, None] > 0, q_red / reduced[:, None], 0.0
                )
        with np.errstate(divide="ignore", invalid="ignore"):
            frac_full = np.where(pops[:, None] > 0, q_full / pops[:, None], 0.0)
        delta_new = fracs_reduced - frac_full[None, :, :]
        q_new = core(pops, delta_new)
        moved = float(np.max(np.abs(q_new - q_full), initial=0.0))
        delta, q_full = delta_new, q_new
        if moved <= tol:
            break
    converged = moved <= tol
    if not converged:
        warnings.warn(
            f"linearizer did not converge within {max_outer} outer iterations "
            f"(residual {moved:.3e} > tol {tol:.1e})",
            ConvergenceWarning,
            stacklevel=2,
        )

    # Final consistent measures: waiting via the linearizer's own arrival
    # estimate at the converged queues.
    w, x, q_final = update(pops, q_full, delta)
    return QNSolution(
        network=network,
        throughput=x,
        waiting=w,
        queue_length=q_final,
        iterations=outer,
        converged=converged,
        residual=moved,
    )
