"""What the three workloads share: the run record and per-layer arithmetic."""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field

import stats
from catalog import PER_LAYER, ROOT_LAYERS, SELF_TIME_LAYERS, TILING_BOUND, UNITS

#: at most this many problems are kept verbatim in the run detail
MAX_PROBLEMS = 20


@dataclass
class Run:
    """Operations attempted and failed, metrics, and what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)

    def check(self, problems: list[str]) -> None:
        """Count one failed operation when ``problems`` is not empty."""
        if problems:
            self.fail("; ".join(problems))

    def put(self, name: str, value: float) -> None:
        """Report a catalogued metric (its unit comes from the catalogue)."""
        self.metrics[name] = {"value": float(value), "unit": UNITS[name]}

    def result(self) -> dict:
        correct = self.failed == 0 and self.attempted > 0
        self.detail["problems"] = self.problems
        return {
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
            "detail": self.detail,
        }


class Deadline:
    """Wall-clock budget of one timed phase."""

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def __bool__(self) -> bool:
        return time.perf_counter() < self.end


def peak_rss_mb() -> float:
    """Peak resident set of this process, MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def put_latencies(run: Run, samples_s: list[float], hit_s: list[float], miss_s: list[float]) -> None:
    """The latency metrics of one run (samples in seconds)."""
    ms = [s * 1e3 for s in samples_s]
    run.put("latency_p50_ms", stats.percentile(ms, 50))
    run.put("latency_p99_ms", stats.tail(ms, 99))
    run.put("hit_p50_ms", stats.percentile([s * 1e3 for s in hit_s], 50))
    run.put("miss_p50_ms", stats.percentile([s * 1e3 for s in miss_s], 50))
    run.detail["samples"] = {"latency": len(ms), "hit": len(hit_s), "miss": len(miss_s)}
    run.detail["tail_percentile"] = stats.highest_percentile(ms)


def put_common(run: Run, rss_mb: float) -> None:
    run.put("ok_frac", (run.attempted - run.failed) / max(1, run.attempted))
    run.put("peak_rss_mb", rss_mb)


def layer_metrics(totals: dict, counts: dict, ops: int) -> dict[str, float]:
    """Per-layer metrics from span totals (ns) and counters of ``ops``
    operations; every catalogue metric is present, 0 where no span ran."""
    layer_self: dict[str, int] = {}
    layer_count: dict[str, int] = {}
    for span, row in totals.items():
        layer = span.split(":", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0) + row["self"]
        layer_count[span] = row["count"]
    out = dict.fromkeys(PER_LAYER, 0.0)
    for metric, layers in SELF_TIME_LAYERS.items():
        layers = (layers,) if isinstance(layers, str) else layers
        out[metric] = sum(layer_self.get(layer, 0) for layer in layers) / 1e3 / ops
    iterations = counts.get("queueing.kernels.iterations", 0)
    fixed_ns = layer_self.get("queueing.kernels.fixed_point", 0)
    out["queueing.kernels.iterations"] = iterations / ops
    out["queueing.kernels.point_iterations"] = (
        counts.get("queueing.kernels.point_iterations", 0) / ops
    )
    out["queueing.kernels.us_per_iteration"] = fixed_ns / 1e3 / iterations if iterations else 0.0
    out["queueing.kernels.batches"] = sum(
        n for span, n in layer_count.items() if span.startswith("queueing.kernels.fixed_point:")
    ) / ops
    out["workload.visit_ratio_builds"] = (
        layer_count.get("workload.visit_ratios:build_visit_ratios", 0) / ops
    )
    out["params.to_dict_calls"] = sum(
        n for span, n in layer_count.items() if span.startswith("params.to_dict:")
    ) / ops
    out["params.from_dict_calls"] = sum(
        n for span, n in layer_count.items() if span.startswith("params.from_dict:")
    ) / ops
    out["scenarios.hier.batched_points"] = float(counts.get("scenarios.hier.batched_points", 0))
    out["trace.ops"] = float(ops)
    return out


def covered(totals: dict) -> dict[str, int]:
    """Self time (ns) of every span below the roots (:data:`ROOT_LAYERS`).

    A root's self time is its duration minus its children's, so it takes
    in whatever no named layer covers: counting it would make the tiling
    hold by construction.
    """
    return {
        span: row["self"]
        for span, row in totals.items()
        if span.split(":", 1)[0] not in ROOT_LAYERS
    }


def check_tiling(run: Run, end_to_end_ns: float, totals: dict) -> float:
    """Share of ``end_to_end_ns`` (the traced operations, timed by the
    caller) that the named layers below the roots do not cover; a share
    beyond :data:`TILING_BOUND` (or a negative one) fails the run."""
    layer_self = covered(totals)
    share = stats.unattributed_share(end_to_end_ns, layer_self)
    if not stats.tiles(end_to_end_ns, layer_self, TILING_BOUND):
        run.fail(f"named layers leave {share:.1%} of the end-to-end time "
                 f"uncovered; the bound is {TILING_BOUND:.0%}")
    return share


def put_layers(run: Run, values: dict[str, float]) -> None:
    for name in PER_LAYER:
        run.put(name, values.get(name, 0.0))
