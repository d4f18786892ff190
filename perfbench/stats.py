"""Pure arithmetic of the benchmark: percentiles, spreads, tiling, names.

Nothing here imports the program under test, so the self-tests in
``perfbench/tests`` exercise these rules without solving anything.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Iterable, Mapping, Sequence

#: a metric name: starts with a letter or digit, then letters, digits, ``_.-``
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: a unit: letters, digits and ``_/%.-``
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: a reported percentile must leave at least this many samples above it
MIN_BEYOND = 10
#: the percentile ladder the tail rule walks, lowest first
LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def valid_name(name: str) -> bool:
    """Whether ``name`` fits the metric-name charset and length."""
    return bool(NAME_RE.match(name))


def valid_unit(unit: str) -> bool:
    """Whether ``unit`` fits the unit charset and length."""
    return bool(UNIT_RE.match(unit))


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``pct``
    per cent of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    # round first: 99.9 / 100 * 10000 is 9990.000000000002 in floating point
    rank = max(1, math.ceil(round(pct / 100.0 * len(ordered), 9)))
    return float(ordered[rank - 1])


def beyond(samples: Sequence[float], pct: float) -> int:
    """How many samples lie strictly above the ``pct`` percentile."""
    cut = percentile(samples, pct)
    return sum(1 for s in samples if s > cut)


def highest_percentile(samples: Sequence[float], min_beyond: int = MIN_BEYOND) -> float | None:
    """The highest ladder percentile with at least ``min_beyond`` samples
    strictly above it, or ``None`` when even the median has too few."""
    best = None
    for pct in LADDER:
        if beyond(samples, pct) >= min_beyond:
            best = pct
    return best


def tail(samples: Sequence[float], pct: float, min_beyond: int = MIN_BEYOND) -> float:
    """The ``pct`` percentile, refusing when fewer than ``min_beyond``
    samples lie above it (the run was too short to resolve that tail)."""
    n_beyond = beyond(samples, pct)
    if n_beyond < min_beyond:
        raise ValueError(
            f"p{pct:g} of {len(samples)} samples leaves {n_beyond} above it; "
            f"need {min_beyond} (run longer)"
        )
    return percentile(samples, pct)


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the stability
    figure the acceptance rule uses)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def self_times(spans: Sequence[Sequence]) -> list[int]:
    """Self time of every span: its duration minus its children's.

    ``spans`` holds ``(name, parent_index, duration, ...)`` rows, where
    ``parent_index`` is ``-1`` for a root.  Children of one span never
    overlap in time (they ran on the parent's thread, one after another),
    so subtracting their durations removes exactly the covered interval.
    """
    child = [0] * len(spans)
    for span in spans:
        if span[1] >= 0:
            child[span[1]] += span[2]
    return [span[2] - child[i] for i, span in enumerate(spans)]


def layer_totals(spans: Sequence[Sequence], phase: str | None = None) -> dict[str, dict[str, int]]:
    """Per span name: ``count``, total duration and total self time.

    With ``phase``, only spans whose fourth field equals it are summed
    (self times still subtract children of any phase).
    """
    out: dict[str, dict[str, int]] = {}
    for span, own in zip(spans, self_times(spans)):
        if phase is not None and span[3] != phase:
            continue
        name, dur = span[0], span[2]
        row = out.setdefault(name, {"count": 0, "total": 0, "self": 0})
        row["count"] += 1
        row["total"] += dur
        row["self"] += own
    return out


def unattributed_share(end_to_end: float, layer_self: Mapping[str, float]) -> float:
    """Share of the end-to-end time that no layer's self time covers.

    Self times of spans that nest partition their roots' durations, so
    this is the time the caller spent outside every traced call.
    """
    if end_to_end <= 0:
        raise ValueError("end-to-end time must be positive")
    return 1.0 - sum(layer_self.values()) / end_to_end


def tiles(end_to_end: float, layer_self: Mapping[str, float], bound: float) -> bool:
    """Whether the layer self times add up to ``end_to_end`` within
    ``bound`` (as a share), never exceeding it by more than rounding."""
    share = unattributed_share(end_to_end, layer_self)
    return -1e-6 <= share <= bound
