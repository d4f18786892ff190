"""The tolerance index -- the paper's contribution (Section 4).

    tol_subsystem = U_p(real subsystem) / U_p(ideal subsystem)

An *ideal subsystem* offers **zero delay** (Definition 4.1).  The paper
prefers zero delay over "contention-less with finite delay" because a
zero-delay ideal is invariant under machine scaling and data placement; we
implement the zero-delay ideal as the default and also the paper's
"modify application parameters" alternative (``p_remote = 0`` for the
network), which is what one would use on a real machine.

Zones (Section 4):

* ``tol >= 0.8``       -- latency **tolerated**
* ``0.5 <= tol < 0.8`` -- **partially** tolerated
* ``tol < 0.5``        -- **not** tolerated

A tolerance index slightly above 1 is possible and meaningful (Section 7):
with good locality a finite network stages remote accesses like a pipeline and
relieves memory contention relative to the zero-delay ideal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..params import MMSParams
from .metrics import MMSPerformance
from .model import MMSModel

__all__ = [
    "ToleranceZone",
    "ToleranceResult",
    "classify",
    "network_tolerance",
    "memory_tolerance",
    "tolerance_report",
    "TOLERATED_THRESHOLD",
    "PARTIAL_THRESHOLD",
]

TOLERATED_THRESHOLD = 0.8
PARTIAL_THRESHOLD = 0.5


class ToleranceZone(enum.Enum):
    """The paper's three operating regions."""

    TOLERATED = "tolerated"
    PARTIAL = "partially tolerated"
    NOT_TOLERATED = "not tolerated"


def classify(tol: float) -> ToleranceZone:
    """Zone of a tolerance-index value."""
    if tol >= TOLERATED_THRESHOLD:
        return ToleranceZone.TOLERATED
    if tol >= PARTIAL_THRESHOLD:
        return ToleranceZone.PARTIAL
    return ToleranceZone.NOT_TOLERATED


@dataclass(frozen=True)
class ToleranceResult:
    """A tolerance index together with both systems' performance."""

    subsystem: str
    ideal_method: str
    index: float
    actual: MMSPerformance
    ideal: MMSPerformance

    @property
    def zone(self) -> ToleranceZone:
        return classify(self.index)

    def __float__(self) -> float:
        return self.index


def _ratio(actual: MMSPerformance, ideal: MMSPerformance) -> float:
    if ideal.processor_utilization <= 0:
        return 1.0 if actual.processor_utilization <= 0 else float("inf")
    return actual.processor_utilization / ideal.processor_utilization


def network_tolerance(
    params: MMSParams,
    ideal: str = "zero_delay",
    method: str = "auto",
    actual: MMSPerformance | None = None,
) -> ToleranceResult:
    """``tol_network`` for a parameter point.

    Parameters
    ----------
    ideal:
        ``"zero_delay"`` -- the ideal system has ``S = 0`` (paper's preferred
        definition; keeps the remote access pattern intact).
        ``"local_only"`` -- the ideal system has ``p_remote = 0`` (the paper's
        measurable alternative for existing machines).
    actual:
        Optionally pass an already-solved performance to avoid re-solving.
    """
    model = MMSModel(params)
    if ideal == "zero_delay":
        # S does not enter the visit ratios: the ideal reuses the actual's
        ideal_model = MMSModel(
            params.with_(switch_delay=0.0), visit_ratios=model.visit_ratios
        )
    elif ideal == "local_only":
        ideal_model = MMSModel(params.with_(p_remote=0.0))
    else:
        raise ValueError(f"unknown ideal-system definition {ideal!r}")
    actual_perf = actual or model.solve(method=method)
    ideal_perf = ideal_model.solve(method=method)
    return ToleranceResult(
        subsystem="network",
        ideal_method=ideal,
        index=_ratio(actual_perf, ideal_perf),
        actual=actual_perf,
        ideal=ideal_perf,
    )


def memory_tolerance(
    params: MMSParams,
    method: str = "auto",
    actual: MMSPerformance | None = None,
) -> ToleranceResult:
    """``tol_memory``: ideal system has a zero-delay memory (``L = 0``)."""
    model = MMSModel(params)
    actual_perf = actual or model.solve(method=method)
    # L does not enter the visit ratios: the ideal reuses the actual's
    ideal_perf = MMSModel(
        params.with_(memory_latency=0.0), visit_ratios=model.visit_ratios
    ).solve(method=method)
    return ToleranceResult(
        subsystem="memory",
        ideal_method="zero_delay",
        index=_ratio(actual_perf, ideal_perf),
        actual=actual_perf,
        ideal=ideal_perf,
    )


def tolerance_report(
    params: MMSParams, method: str = "auto"
) -> dict[str, ToleranceResult]:
    """Both tolerance indices for a point, sharing one actual-system solve.

    The paper's Section 6 observation -- high performance requires *both*
    latencies tolerated (``U_p ~ tol_memory * tol_network`` when ``R <~ L``) --
    falls out of comparing the two entries.
    """
    actual = MMSModel(params).solve(method=method)
    return {
        "network": network_tolerance(params, method=method, actual=actual),
        "memory": memory_tolerance(params, method=method, actual=actual),
    }
