"""``point``: one in-process caller asking single queries in a closed loop.

Half the queries are ``repro.solve``, half ``repro.tolerance_index``
(network subsystem), over torus geometric/uniform patterns at k = 4, 6, 8,
the asymmetric torus ``hotspot`` (multi-class AMVA) and ``hier``.  Golden
points from ``tests/goldens`` take every tenth slot until they run out.

Untraced, the run spends 70% of its time on distinct queries (``ops_per_s``,
latencies, ``miss_p50_ms``) and 30% replaying the first of them
(``warm_ops_per_s``, ``hit_p50_ms``): nothing caches a repeated query
today, so the replay figures match the distinct ones until a change does.
Queries are asked in blocks of one per kind, each block followed by the
reference job of :mod:`speed`; times are scaled to the reference speed.
"""

from __future__ import annotations

import hashlib
import time
from array import array
from itertools import islice

import speed
import stats
import streams
from common import (
    Deadline,
    Run,
    check_tiling,
    layer_metrics,
    peak_rss_mb,
    put_latencies,
    put_layers,
)
from golden import compare, golden_points, invariants

#: share of the untraced run spent replaying already-asked queries
REPLAY_SHARE = 0.3
#: queries of the warm-up stream: one block of every kind, twice
WARMUP_QUERIES = 2 * len(streams.POINT_KINDS)


def _queries(root, seed: int):
    gold = golden_points(root)
    goldens = gold["torus_solve"] + gold["torus_tolerance"] + gold["hier_solve"]
    for i, q in enumerate(streams.point_stream(seed)):
        g = streams.golden_slot(i, len(goldens))
        yield goldens[g] if g is not None else q


def _ask(repro, q: dict):
    """One query; returns ``(summary, converged, tolerance or None)``."""
    if q["op"] == "solve":
        perf = repro.solve(scenario=q["scenario"], **q["overrides"])
        return perf.summary(), perf.converged, None
    res = repro.tolerance_index(scenario=q["scenario"], **q["overrides"])
    converged = res.actual.converged and res.ideal.converged
    return res.actual.summary(), converged, res.index


def _check(run: Run, q: dict, answer) -> None:
    summary, converged, tol = answer
    what = f"{q['op']} {q['scenario']} {q['overrides']}"
    problems = invariants(summary, converged, what, tol)
    if "expect" in q:
        actual = dict(summary) if tol is None else {"tol": tol}
        problems += compare(q["expect"], actual, f"golden {what}")
    run.check(problems)


def _digest(answer) -> int:
    """A 64-bit fingerprint of an answer, for the replay comparison."""
    return int.from_bytes(hashlib.blake2b(repr(answer).encode(), digest_size=8).digest(), "big")


class Blocks:
    """What a pass over the queries keeps: per query its latency and an
    answer digest (8 bytes each), per block its size and speed factor, so
    that the worker's peak resident set is the program's, not a growing log
    of the answers (a faster program asks more queries in the same time)."""

    def __init__(self) -> None:
        self.latencies = array("d")  # s, as measured
        self.digests = array("Q")
        self.sizes = array("B")  # answered queries of each block
        self.factors = array("d")  # speed factor measured after each block

    def block_factors(self) -> list[float]:
        """Per block, the median factor of the reference jobs run right
        before it, right after it and after the next block.  One 2 ms
        reference job reads 20% off now and then; the median of three drops
        such a reading (over ten seeds it halved the spread of every point
        timing against scaling each block by the job right after it)."""
        f = self.factors
        return [stats.median(f[max(0, i - 1):i + 2]) for i in range(len(f))]

    def scaled(self) -> tuple[list[float], list[float]]:
        """Latencies, and times of the complete blocks (one query of every
        kind), at the reference speed."""
        latencies, full = [], []
        start = 0
        for size, f in zip(self.sizes, self.block_factors()):
            block = self.latencies[start:start + size]
            start += size
            latencies += [t * f for t in block]
            if size == len(streams.POINT_KINDS):
                full.append(sum(block) * f)
        return latencies, full

    def rate(self) -> float:
        """Queries per second at the reference speed, from the median
        complete block: complete blocks compare, and the median shrugs off
        what is left of the machine's bursts."""
        return len(streams.POINT_KINDS) / stats.median(self.scaled()[1])


class PointWorkload:
    def __init__(self, root, seed: int):
        self.root = root
        self.seed = seed

    def setup(self) -> None:
        import repro

        self.repro = repro
        self.stream = _queries(self.root, self.seed)
        t0 = time.perf_counter()
        for q in islice(streams.point_stream(self.seed, "warmup"), WARMUP_QUERIES):
            _ask(repro, q)
        self.warmup_s = time.perf_counter() - t0

    def verify(self, run: Run) -> None:
        """Nothing left to check: every answer was checked as it came."""

    def close(self) -> None:
        pass

    def _blocks(self, run: Run, queries, deadline: Deadline | None = None) -> Blocks:
        """Ask ``queries`` (until ``deadline``) in blocks of one query per
        kind, each block followed by one reference job (:mod:`speed`).
        Checks happen off the clock."""
        out = Blocks()
        queries = iter(queries)
        while deadline is None or deadline:
            block = list(islice(queries, len(streams.POINT_KINDS)))
            if not block:
                break
            latencies = []
            for q in block:
                run.attempted += 1
                t0 = time.perf_counter()
                try:
                    answer = _ask(self.repro, q)
                except Exception as exc:  # noqa: BLE001 - a failed query is a result
                    run.fail(f"{q['op']} {q['overrides']}: {type(exc).__name__}: {exc}")
                    answer = exc
                else:
                    latencies.append(time.perf_counter() - t0)
                    _check(run, q, answer)
                out.digests.append(_digest(answer))
            out.factors.append(speed.factor(speed.reference_time()))
            out.latencies.extend(latencies)
            out.sizes.append(len(latencies))
        return out

    def _again(self, run: Run, label: str, first: Blocks, deadline: Deadline | None = None):
        """Ask the first queries of the stream again, in the same order (up
        to those ``first`` asked); each must answer exactly as before."""
        again = self._blocks(run, islice(_queries(self.root, self.seed), len(first.digests)),
                             deadline)
        differ = sum(1 for a, b in zip(first.digests, again.digests) if a != b)
        if differ:
            run.fail(f"{differ} {label} queries answered differently", differ)
        return again

    def measure(self, run: Run, seconds: float) -> None:
        first = self._blocks(run, self.stream, Deadline(seconds * (1 - REPLAY_SHARE)))
        replay = self._again(run, "replayed", first, Deadline(seconds * REPLAY_SHARE))
        self.rss_mb = peak_rss_mb()
        latencies, _full = first.scaled()
        run.put("ops_per_s", first.rate())
        run.put("warm_ops_per_s", replay.rate())
        put_latencies(run, latencies, replay.scaled()[0], latencies)
        run.detail["raw_ops_per_s"] = len(first.latencies) / sum(first.latencies)
        run.detail["speed_factor"] = stats.median(first.factors)

    def trace(self, run: Run, seconds: float, recorder) -> None:
        """An untraced then a traced pass over the same queries."""
        import layers

        untraced = self._blocks(run, self.stream, Deadline(seconds / 2))
        layers.install(recorder)
        recorder.active = True
        traced = self._again(run, "traced", untraced)
        recorder.active = False
        totals = recorder.totals()
        values = layer_metrics(totals, recorder.phase_counts(), len(untraced.digests))
        values["trace.unattributed_frac"] = check_tiling(run, sum(traced.latencies) * 1e9, totals)
        values["trace.overhead_frac"] = (
            sum(traced.scaled()[0]) / sum(untraced.scaled()[0]) - 1.0
        )
        put_layers(run, values)
