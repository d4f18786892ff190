"""Cross-backend x cross-kernel conformance: one lattice, one answer.

The repo's numeric contract says the *execution plan* must never leak into
the *data*: any sweep backend (in-process batch, process pool, pooled
batch groups, per-point serial) combined with any solver kernel (the numpy
reference or the numba-compiled one) must produce bitwise-identical records
for the same points.  This suite pins that contract on the real Figure-4
lattice (the 11 x 16 = 176-point ``(n_t, p_remote)`` grid of the paper) and
on the Table 2-4 golden payloads, replacing the scattered per-backend
equivalence tests that each checked one pair in isolation.  Two smaller
lattices pin the multi-class ``amva`` kernel the same way: torus points
under the asymmetric hotspot pattern and ``hier`` mesh-of-clusters points,
where the serial cell solves each point alone and the batched cells stack
them.

Kernel cells that need numba skip (not fail) where it is not importable, so
the matrix degrades to the reference column on a bare environment; CI runs
the suite both with and without numba installed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis import experiments
from repro.params import paper_defaults
from repro.queueing.kernels import available_kernels
from repro.runner import JobSpec, SweepRunner, canonical_json, executor
from repro.scenarios.hier import HierParams

GOLDEN_DIR = Path(__file__).parent.parent / "goldens"

#: the Figure-4 lattice: every (n_t, p_remote) point of the paper's surface
THREADS = experiments.DEFAULT_THREADS
P_REMOTES = experiments.DEFAULT_P_REMOTE

#: backend name -> runner factory for one conformance cell
RUNNERS = {
    "auto": lambda kernel: SweepRunner(kernel=kernel),
    "batch": lambda kernel: SweepRunner(backend="batch", kernel=kernel),
    "serial": lambda kernel: SweepRunner(backend="serial", kernel=kernel),
    "process": lambda kernel: SweepRunner(
        backend="process", jobs=2, kernel=kernel
    ),
    # same pool, but the lattice rides to the workers as pooled batch
    # groups (see POOLED_CELLS)
    "process-pool": lambda kernel: SweepRunner(
        backend="process", jobs=2, kernel=kernel
    ),
}

#: cells run with the pooled-group threshold lowered to the lattice's size
POOLED_CELLS = {"process-pool"}


def _run_cell(backend: str, kernel: str, monkeypatch):
    if backend in POOLED_CELLS:
        monkeypatch.setattr(executor, "POOLED_GROUP_MIN_POINTS", 8)
    return RUNNERS[backend](kernel).run(_lattice_specs())


def _kernel_param(kernel: str):
    return pytest.param(
        kernel,
        marks=pytest.mark.skipif(
            kernel not in available_kernels(),
            reason=f"kernel {kernel!r} is not available in this environment",
        ),
    )


KERNEL_PARAMS = [_kernel_param("numpy"), _kernel_param("numba")]


def _lattice_specs() -> list[JobSpec]:
    return [
        JobSpec(paper_defaults(runlength=10.0, num_threads=n, p_remote=p))
        for n in THREADS
        for p in P_REMOTES
    ]


#: the multi-class lattices: 4 n_t x 4 p_remote each
AMVA_THREADS = (1, 2, 4, 8)
AMVA_P_REMOTES = (0.1, 0.2667, 0.4333, 0.6)

AMVA_LATTICES = {
    "hotspot": lambda: [
        JobSpec(paper_defaults(pattern="hotspot", num_threads=n, p_remote=p))
        for n in AMVA_THREADS
        for p in AMVA_P_REMOTES
    ],
    "hier": lambda: [
        JobSpec(HierParams(num_threads=n, p_remote=p))
        for n in AMVA_THREADS
        for p in AMVA_P_REMOTES
    ],
}


def _canonical_records(report) -> list[str]:
    assert report.ok, [r.error for r in report.results if not r.ok]
    return [canonical_json(r) for r in report.records()]


@pytest.fixture(scope="module")
def reference_records() -> list[str]:
    """The reference column: in-process batch backend, numpy kernel."""
    return _canonical_records(
        SweepRunner(backend="batch", kernel="numpy").run(_lattice_specs())
    )


class TestLatticeMatrix:
    @pytest.mark.parametrize("kernel", KERNEL_PARAMS)
    @pytest.mark.parametrize("backend", sorted(RUNNERS))
    def test_cell_bitwise_matches_reference(
        self, backend, kernel, reference_records, monkeypatch
    ):
        report = _run_cell(backend, kernel, monkeypatch)
        assert _canonical_records(report) == reference_records

    def test_pool_cell_actually_used_pooled_groups(self, monkeypatch):
        report = _run_cell("process-pool", "numpy", monkeypatch)
        assert report.manifest.mode == "parallel"
        assert report.manifest.degradations == []
        handoffs = [b.get("handoff") for b in report.manifest.solver_batches]
        assert "pool" in handoffs

    def test_batch_cell_actually_batched(self):
        report = RUNNERS["batch"]("numpy").run(_lattice_specs())
        assert report.manifest.mode == "batch"
        assert report.manifest.solver_batches


@pytest.fixture(scope="module")
def amva_reference_records() -> dict[str, list[str]]:
    """The reference column of each multi-class lattice (batch/numpy)."""
    return {
        name: _canonical_records(
            SweepRunner(backend="batch", kernel="numpy").run(specs())
        )
        for name, specs in AMVA_LATTICES.items()
    }


class TestAmvaLatticeMatrix:
    @pytest.mark.parametrize("kernel", KERNEL_PARAMS)
    @pytest.mark.parametrize("backend", sorted(RUNNERS))
    @pytest.mark.parametrize("lattice", sorted(AMVA_LATTICES))
    def test_cell_bitwise_matches_reference(
        self, lattice, backend, kernel, amva_reference_records, monkeypatch
    ):
        if backend in POOLED_CELLS:
            monkeypatch.setattr(executor, "POOLED_GROUP_MIN_POINTS", 8)
        report = RUNNERS[backend](kernel).run(AMVA_LATTICES[lattice]())
        assert _canonical_records(report) == amva_reference_records[lattice]

    def test_hier_batch_cell_stacks_one_amva_batch(self):
        report = RUNNERS["batch"]("numpy").run(AMVA_LATTICES["hier"]())
        assert report.manifest.mode == "batch"
        batches = report.manifest.solver_batches
        assert [(b["method"], b["batch_size"]) for b in batches] == [("amva", 16)]


def _jsonable(obj: object) -> object:
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


#: golden table name -> generator (the paper's Tables 2-4)
TABLES = {
    "table2": experiments.table2_network_tolerance,
    "table3": experiments.table3_partitioning_network,
    "table4": experiments.table4_partitioning_memory,
}


class TestTableGoldens:
    """Tables 2-4 must stay bitwise on the committed goldens per kernel.

    ``test_goldens.py`` pins the values at 1e-9 relative; here the bar is
    exact equality, because the kernels promise bitwise interchangeability
    -- a kernel that drifts within 1e-9 still breaks the cache contract.
    """

    @pytest.mark.parametrize("kernel", KERNEL_PARAMS)
    @pytest.mark.parametrize("table", sorted(TABLES))
    def test_table_bitwise_matches_golden(self, table, kernel):
        prev = repro.configure(kernel=kernel)
        try:
            data = _jsonable(TABLES[table]().data)
        finally:
            repro.configure(**prev)
        golden = json.loads((GOLDEN_DIR / f"{table}.json").read_text())
        assert data == golden
