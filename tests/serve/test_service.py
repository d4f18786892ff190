"""The coalescing solve service: correctness, caching, and guard rails.

The acceptance bar (ISSUE 5): service responses **bitwise identical** to
scalar ``MMSModel.solve`` for the same params, explicit backpressure
(``QueueFullError``, never a hang), single-flight dedup, two-tier cache
interop with the sweep store, deadlines, and drain-on-close semantics.
"""

import asyncio
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.model import MMSModel, solve
from repro.params import paper_defaults
from repro.runner.spec import JobSpec
from repro.runner.store import ResultStore
from repro.scenarios.hier import HierParams
from repro.serve import (
    DeadlineExceededError,
    QueueFullError,
    ServiceClosedError,
    ServiceConfig,
    SolveService,
)

#: generous coalescing window so tests control flush timing deterministically
SLOW = dict(min_linger_s=0.02, max_linger_s=0.1, adaptive=False)


def unique_points(n, start=0.01, step=0.001):
    return [paper_defaults(p_remote=start + step * i) for i in range(n)]


class TestBitwiseIdentity:
    def test_batched_burst_matches_scalar_exactly(self):
        points = unique_points(12)
        with SolveService(ServiceConfig(max_batch=32, **SLOW)) as svc:
            futures = [svc.submit(p) for p in points]
            results = [f.result(timeout=30) for f in futures]
        assert max(r.batch_width for r in results) >= 2, "burst never coalesced"
        for r, p in zip(results, points):
            assert r.perf.to_dict() == solve(p).to_dict()

    def test_non_symmetric_method_degrades_to_scalar_and_matches(self):
        p = paper_defaults(p_remote=0.3)
        with SolveService(ServiceConfig(**SLOW)) as svc:
            r = svc.solve(p, method="amva", timeout=30)
        assert r.source == "scalar"
        assert r.perf.to_dict() == MMSModel(p).solve(method="amva").to_dict()

    @pytest.mark.parametrize(
        "points",
        [
            [
                paper_defaults(pattern="hotspot", p_remote=0.1 + 0.05 * i)
                for i in range(8)
            ],
            [HierParams(num_threads=1 + i, p_remote=0.3) for i in range(8)],
        ],
        ids=["hotspot", "hier"],
    )
    def test_amva_burst_coalesces_and_matches_solve(self, points):
        """``amva`` points batch under the runner's rule
        (``Scenario.batch_key``) and still answer bitwise like a single
        ``repro.solve``."""
        with SolveService(ServiceConfig(max_batch=32, **SLOW)) as svc:
            futures = [svc.submit(p) for p in points]
            results = [f.result(timeout=30) for f in futures]
        assert all(r.source == "batched" for r in results)
        assert max(r.batch_width for r in results) >= 2, "burst never coalesced"
        for r, p in zip(results, points):
            assert r.perf.to_dict() == repro.solve(p).to_dict()

    @settings(max_examples=20, deadline=None)
    @given(
        num_threads=st.integers(min_value=1, max_value=16),
        p_remote=st.floats(min_value=0.01, max_value=0.75),
        runlength=st.floats(min_value=1.0, max_value=40.0),
        width=st.integers(min_value=1, max_value=6),
    )
    def test_property_any_batch_composition_is_bitwise(
        self, num_threads, p_remote, runlength, width
    ):
        """The probe point's answer never depends on its batch-mates."""
        probe = paper_defaults(
            num_threads=num_threads, p_remote=p_remote, runlength=runlength
        )
        mates = unique_points(width, start=0.02, step=0.003)
        with SolveService(ServiceConfig(max_batch=16, **SLOW)) as svc:
            futures = [svc.submit(p) for p in [probe, *mates]]
            got = futures[0].result(timeout=30)
        assert got.perf.to_dict() == solve(probe).to_dict()


class TestCoalescing:
    def test_flush_on_max_batch_without_waiting_linger(self):
        cfg = ServiceConfig(max_batch=4, min_linger_s=5.0, max_linger_s=10.0,
                            adaptive=False)
        with SolveService(cfg) as svc:
            t0 = time.monotonic()
            futures = [svc.submit(p) for p in unique_points(4)]
            results = [f.result(timeout=30) for f in futures]
            elapsed = time.monotonic() - t0
        assert elapsed < 5.0, "full bucket must flush before the linger"
        assert all(r.batch_width == 4 for r in results)

    def test_flush_on_linger_for_partial_bucket(self):
        cfg = ServiceConfig(max_batch=64, min_linger_s=0.01, max_linger_s=0.05,
                            adaptive=False)
        with SolveService(cfg) as svc:
            results = [f.result(timeout=30)
                       for f in [svc.submit(p) for p in unique_points(3)]]
        assert all(r.batch_width == 3 for r in results)

    def test_adaptive_sparse_traffic_answers_immediately(self):
        cfg = ServiceConfig(max_batch=64, min_linger_s=0.0,
                            max_linger_s=0.02, adaptive=True)
        with SolveService(cfg) as svc:
            svc.solve(paper_defaults(p_remote=0.11), timeout=30)
            time.sleep(0.08)  # gap >> max_linger -> EWMA says don't wait
            t0 = time.monotonic()
            svc.solve(paper_defaults(p_remote=0.12), timeout=30)
            elapsed = time.monotonic() - t0
        # no-signal/sparse traffic should not pay the full linger window
        assert elapsed < 0.5

    def test_stats_record_batches_and_widths(self):
        with SolveService(ServiceConfig(max_batch=8, **SLOW)) as svc:
            for f in [svc.submit(p) for p in unique_points(8)]:
                f.result(timeout=30)
            stats = svc.stats()
        assert stats["batches"] >= 1
        assert stats["batch_width"]["max"] >= 2
        assert stats["latency_s"]["count"] == 8
        assert stats["latency_s"]["p99"] >= stats["latency_s"]["p50"] > 0


class TestTwoTierCache:
    def test_memory_hit_on_repeat(self):
        p = paper_defaults(p_remote=0.2)
        with SolveService(ServiceConfig(**SLOW)) as svc:
            first = svc.solve(p, timeout=30)
            second = svc.solve(p, timeout=30)
        assert second.source == "memory"
        assert second.perf.to_dict() == first.perf.to_dict()

    def test_single_flight_joins_inflight_key(self):
        p = paper_defaults(p_remote=0.33)
        with SolveService(ServiceConfig(**SLOW)) as svc:
            futures = [svc.submit(p) for _ in range(5)]
            results = [f.result(timeout=30) for f in futures]
            stats = svc.stats()
        assert stats["singleflight_hits"] == 4
        assert len({r.perf.to_dict()["processor_utilization"]
                    for r in results}) == 1
        assert sorted(r.source for r in results)[:4] == ["coalesced"] * 4

    def test_store_hit_and_record_interop_with_sweep_store(self, tmp_path):
        p = paper_defaults(p_remote=0.27)
        store_dir = str(tmp_path / "cache")
        cfg = ServiceConfig(store_dir=store_dir, **SLOW)
        with SolveService(cfg) as svc:
            svc.solve(p, timeout=30)
        # a *sweep* store opened on the same dir serves the served record
        store = ResultStore(store_dir)
        rec = store.get(JobSpec(params=p, method="auto").key())
        assert rec is not None
        assert rec["perf"] == solve(p).to_dict()
        assert rec["method"] == "symmetric"

    def test_fresh_service_reads_store_written_by_previous_one(self, tmp_path):
        p = paper_defaults(p_remote=0.41)
        store_dir = str(tmp_path / "cache")
        with SolveService(ServiceConfig(store_dir=store_dir, **SLOW)) as svc:
            svc.solve(p, timeout=30)
        with SolveService(ServiceConfig(store_dir=store_dir, **SLOW)) as svc:
            r = svc.solve(p, timeout=30)
        assert r.source == "store"
        assert r.perf.to_dict() == solve(p).to_dict()

    def test_memory_cache_lru_eviction(self):
        cfg = ServiceConfig(memory_cache=2, **SLOW)
        points = unique_points(3)
        with SolveService(cfg) as svc:
            for p in points:
                svc.solve(p, timeout=30)
            # oldest evicted -> re-solved, newest still cached
            assert svc.solve(points[-1], timeout=30).source == "memory"
            assert svc.solve(points[0], timeout=30).source != "memory"


class TestBackpressure:
    def test_queue_full_raises_structured_error(self):
        cfg = ServiceConfig(max_queue=3, memory_cache=0,
                            min_linger_s=5.0, max_linger_s=10.0,
                            adaptive=False, max_batch=64)
        svc = SolveService(cfg)
        try:
            accepted, rejected = 0, 0
            for p in unique_points(8):
                try:
                    svc.submit(p)
                    accepted += 1
                except QueueFullError:
                    rejected += 1
            assert accepted == 3
            assert rejected == 5
            assert svc.stats()["rejected"] == 5
        finally:
            svc.close(drain=True)

    def test_rejection_does_not_block_or_hang(self):
        cfg = ServiceConfig(max_queue=1, memory_cache=0,
                            min_linger_s=5.0, max_linger_s=10.0,
                            adaptive=False, max_batch=64)
        svc = SolveService(cfg)
        try:
            svc.submit(paper_defaults(p_remote=0.1))
            t0 = time.monotonic()
            with pytest.raises(QueueFullError):
                svc.submit(paper_defaults(p_remote=0.2))
            assert time.monotonic() - t0 < 1.0
        finally:
            svc.close(drain=True)

    def test_capacity_frees_after_flush(self):
        cfg = ServiceConfig(max_queue=2, memory_cache=0,
                            min_linger_s=0.0, max_linger_s=0.0,
                            adaptive=False)
        with SolveService(cfg) as svc:
            for p in unique_points(6):
                svc.submit(p).result(timeout=30)  # serialized: always room


class TestDeadlines:
    def test_expired_deadline_fails_without_solving(self):
        with SolveService(ServiceConfig(memory_cache=0, **SLOW)) as svc:
            future = svc.submit(paper_defaults(p_remote=0.5), deadline_s=0.0)
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=30)
            assert svc.stats()["deadline_exceeded"] == 1

    def test_default_deadline_from_config(self):
        cfg = ServiceConfig(memory_cache=0, default_deadline_s=0.0,
                            min_linger_s=0.05, max_linger_s=0.1,
                            adaptive=False)
        with SolveService(cfg) as svc:
            with pytest.raises(DeadlineExceededError):
                svc.submit(paper_defaults(p_remote=0.5)).result(timeout=30)

    def test_generous_deadline_still_answers(self):
        with SolveService(ServiceConfig(**SLOW)) as svc:
            r = svc.solve(paper_defaults(p_remote=0.2), deadline_s=30.0,
                          timeout=30)
        assert r.perf.converged


class TestLifecycle:
    def test_close_drains_pending_requests(self):
        cfg = ServiceConfig(memory_cache=0, min_linger_s=5.0,
                            max_linger_s=10.0, adaptive=False, max_batch=64)
        svc = SolveService(cfg)
        futures = [svc.submit(p) for p in unique_points(3)]
        svc.close(drain=True)  # must flush the lingering bucket, not strand it
        for f, p in zip(futures, unique_points(3)):
            assert f.result(timeout=5).perf.to_dict() == solve(p).to_dict()

    def test_close_without_drain_fails_pending(self):
        cfg = ServiceConfig(memory_cache=0, min_linger_s=5.0,
                            max_linger_s=10.0, adaptive=False, max_batch=64)
        svc = SolveService(cfg)
        future = svc.submit(paper_defaults(p_remote=0.6))
        svc.close(drain=False)
        with pytest.raises(ServiceClosedError):
            future.result(timeout=5)

    def test_submit_after_close_refused(self):
        svc = SolveService(ServiceConfig(**SLOW))
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.submit(paper_defaults())

    def test_close_is_idempotent(self):
        svc = SolveService(ServiceConfig(**SLOW))
        svc.close()
        svc.close()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServiceConfig(min_linger_s=0.5, max_linger_s=0.1)
        with pytest.raises(ValueError):
            ServiceConfig(max_queue=0)
        with pytest.raises(ValueError):
            ServiceConfig(memory_cache=-1)


class TestAsyncio:
    def test_asolve_gather_matches_scalar(self):
        points = unique_points(6)

        async def main():
            with SolveService(ServiceConfig(max_batch=16, **SLOW)) as svc:
                return await asyncio.gather(
                    *(svc.asolve(p) for p in points)
                )

        results = asyncio.run(main())
        for r, p in zip(results, points):
            assert r.perf.to_dict() == solve(p).to_dict()
        assert max(r.batch_width for r in results) >= 2

    def test_asolve_propagates_deadline_error(self):
        async def main():
            with SolveService(ServiceConfig(memory_cache=0, **SLOW)) as svc:
                await svc.asolve(paper_defaults(p_remote=0.5), deadline_s=0.0)

        with pytest.raises(DeadlineExceededError):
            asyncio.run(main())


class TestDegradation:
    def test_injected_batch_fault_degrades_to_scalar_and_matches(self):
        import repro

        points = unique_points(4, start=0.05, step=0.01)
        prev = repro.configure(
            fault_plan={"seed": 3, "sites": {"solve.raise": {"on_nth": [1]}}}
        )
        try:
            with SolveService(ServiceConfig(max_batch=8, **SLOW)) as svc:
                futures = [svc.submit(p) for p in points]
                results = [f.result(timeout=30) for f in futures]
        finally:
            repro.configure(**prev)
        assert any(r.source == "scalar" for r in results)
        for r, p in zip(results, points):
            assert r.perf.to_dict() == solve(p).to_dict()

    def test_concurrent_submitters_all_answered(self):
        points = unique_points(24)
        results = [None] * len(points)

        with SolveService(ServiceConfig(max_batch=16, **SLOW)) as svc:
            def client(i):
                results[i] = svc.solve(points[i], timeout=30)

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(len(points))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for r, p in zip(results, points):
            assert r.perf.to_dict() == solve(p).to_dict()
