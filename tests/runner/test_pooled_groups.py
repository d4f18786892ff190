"""Pooled batch groups: the process backend's batched path.

Large batchable groups are cut into one contiguous chunk per worker, and
each chunk's parameter payloads are solved in the pool by the scenario's
own ``solve_points``.  These tests pin the contract of that path: records
bitwise-equal to the in-process batch backend (symmetric and hotspot
``amva`` groups, any ``jobs``), chunk telemetry that tiles the group
(``handoff == "pool"``, with the ``solver.batch`` counters re-emitted in
the parent), clean degradation to the in-parent batch backend when the
pool dies mid-group, and the eligibility gates (custom worker, per-point
timeout, group size).  The threshold is lowered with ``monkeypatch`` so
the groups stay small.
"""

from __future__ import annotations

import os

import pytest

import repro
from repro import obs, resilience
from repro.params import paper_defaults
from repro.runner import JobSpec, SweepRunner, canonical_json
from repro.runner import executor
from repro.runner.executor import solve_job

pytestmark = pytest.mark.usefixtures("_no_leaked_plan")


def _specs(n_threads=(1, 2, 4, 8), p_remotes=(0.1, 0.2, 0.3), k=2, **kw):
    return [
        JobSpec(paper_defaults(k=k, num_threads=n, p_remote=p, **kw))
        for n in n_threads
        for p in p_remotes
    ]


def _records(report):
    assert report.ok, [r.error for r in report.results if not r.ok]
    return [canonical_json(r) for r in report.records()]


def _pool_batches(report):
    return [b for b in report.manifest.solver_batches if b.get("handoff") == "pool"]


@pytest.fixture
def small_groups(monkeypatch):
    """Pool every batchable group of four or more points."""
    monkeypatch.setattr(executor, "POOLED_GROUP_MIN_POINTS", 4)


@pytest.fixture
def _no_leaked_plan():
    yield
    assert resilience.get_injector() is None


@pytest.fixture
def fault_plan():
    installed = []

    def _install(plan):
        installed.append(repro.configure(fault_plan=plan))
        return resilience.get_injector()

    yield _install
    for prev in reversed(installed):
        repro.configure(**prev)


@pytest.mark.usefixtures("small_groups")
class TestPooledGroups:
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_mixed_k_records_bitwise_equal_batch_backend(self, jobs):
        specs = _specs(k=2) + _specs(k=3)
        batch = SweepRunner(backend="batch").run(specs)
        pooled = SweepRunner(backend="process", jobs=jobs).run(specs)
        assert _records(pooled) == _records(batch)
        assert pooled.manifest.mode == "parallel"
        assert pooled.manifest.degradations == []
        # each machine size is its own group, cut into one chunk per worker
        assert len(_pool_batches(pooled)) == 2 * jobs

    @pytest.mark.parametrize("jobs, sizes", [(2, [7, 6]), (3, [5, 4, 4])])
    def test_chunk_sizes_sum_to_the_group(self, jobs, sizes):
        specs = _specs(n_threads=range(1, 14), p_remotes=(0.2,))
        report = SweepRunner(backend="process", jobs=jobs).run(specs)
        batches = _pool_batches(report)
        assert [b["batch_size"] for b in batches] == sizes
        assert sum(b["batch_size"] for b in batches) == len(specs)
        assert all(b["method"] == "symmetric" for b in batches)

    def test_batch_counters_reemitted_in_parent(self):
        report = SweepRunner(backend="process", jobs=2).run(_specs())
        counters = report.manifest.metrics.get("counters", {})
        assert counters.get("solver.batch.calls", 0) == 2
        assert counters.get("solver.batch.points", 0) == 12
        assert report.manifest.point_latency["amortized"] == 12

    def test_batch_spans_emitted_once_in_parent(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        prev = repro.configure(trace=str(path))
        try:
            SweepRunner(backend="process", jobs=2).run(_specs())
            obs.get_tracer().close()
        finally:
            repro.configure(**prev)
        summary = obs.validate_trace(path)
        assert summary.roots == 1
        from repro.obs.report import load_trace

        spans = [s for s in load_trace(path) if s.get("name") == "solver.batch"]
        assert [s["attrs"]["batch_size"] for s in spans] == [6, 6]
        assert all(s["attrs"]["method"] == "symmetric" for s in spans)
        assert all(s["pid"] == os.getpid() for s in spans)

    def test_hotspot_amva_records_bitwise_equal_batch_backend(self):
        specs = _specs(k=2, pattern="hotspot", hot_fraction=0.5)
        assert {s.canonical_method() for s in specs} == {"amva"}
        batch = SweepRunner(backend="batch").run(specs)
        pooled = SweepRunner(backend="process", jobs=2).run(specs)
        assert _records(pooled) == _records(batch)
        batches = _pool_batches(pooled)
        assert batches and all(b["method"] == "amva" for b in batches)


class TestEligibilityGates:
    def test_small_groups_stay_per_point(self):
        report = SweepRunner(backend="process", jobs=2).run(_specs())
        assert report.manifest.mode == "parallel"
        assert not _pool_batches(report)

    @pytest.mark.usefixtures("small_groups")
    def test_timeout_disables_pooled_groups(self):
        report = SweepRunner(backend="process", jobs=2, timeout=60.0).run(_specs())
        assert report.ok
        assert not _pool_batches(report)

    @pytest.mark.usefixtures("small_groups")
    def test_custom_worker_disables_pooled_groups(self):
        report = SweepRunner(backend="process", jobs=2, worker=_echo_worker).run(
            _specs()
        )
        assert report.ok
        assert not _pool_batches(report)


def _echo_worker(payload):
    return solve_job(payload)


@pytest.mark.usefixtures("small_groups")
class TestPoolDegradation:
    def test_pool_death_degrades_group_to_batch(self, fault_plan):
        fault_plan({"seed": 7, "sites": {"worker.crash": {"on_nth": [1]}}})
        specs = _specs()
        report = SweepRunner(backend="process", jobs=2).run(specs)
        assert report.ok
        degradations = report.manifest.degradations
        assert degradations
        assert {(d["from_mode"], d["to_mode"]) for d in degradations} == {
            ("pool", "batch")
        }
        assert sum(d["points"] for d in degradations) == len(specs)
        # the degraded group still produced the canonical records
        baseline = SweepRunner(backend="batch").run(specs)
        assert _records(report) == _records(baseline)

    def test_non_finite_chunk_degrades_to_batch(self, fault_plan):
        fault_plan({"sites": {"solve.nan": {"on_nth": [1], "index": 2}}})
        specs = _specs()
        report = SweepRunner(backend="process", jobs=2).run(specs)
        assert report.ok
        pooled = [
            d
            for d in report.manifest.degradations
            if (d["from_mode"], d["to_mode"]) == ("pool", "batch")
        ]
        assert pooled
        assert all("non-finite measures" in d["reason"] for d in pooled)
        baseline = SweepRunner(backend="batch").run(specs)
        assert _records(report) == _records(baseline)
