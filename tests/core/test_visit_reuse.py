"""Visit ratios are built once per (machine, p_remote, pattern), not per solve.

``S``, ``L``, ``R`` and ``n_t`` never enter the visit ratios, so a
tolerance index's ideal system and the ``n_t`` axis of a lattice reuse the
build of the point they share it with.  The calls are counted at
``build_visit_ratios``, the one function that builds them.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.model import MMSModel, solve_points
from repro.params import paper_defaults
from repro.runner import canonical_json
from repro.workload import visit_ratios as vr_module


@pytest.fixture
def builds(monkeypatch):
    """The ``p_remote`` of every ``build_visit_ratios`` call, in order."""
    calls: list[float] = []
    real = vr_module.build_visit_ratios

    def counting(torus, p_remote, pattern):
        calls.append(p_remote)
        return real(torus, p_remote, pattern)

    monkeypatch.setattr(vr_module, "build_visit_ratios", counting)
    return calls


def test_zero_delay_tolerance_builds_once(builds):
    res = repro.tolerance_index(num_threads=8, p_remote=0.2)
    assert builds == [0.2]
    assert res.ideal.params.arch.switch_delay == 0.0


def test_memory_tolerance_builds_once(builds):
    repro.tolerance_index(subsystem="memory", num_threads=8, p_remote=0.2)
    assert builds == [0.2]


def test_local_only_builds_its_own_ideal(builds):
    repro.tolerance_index(num_threads=8, p_remote=0.2, ideal="local_only")
    assert sorted(builds) == [0.0, 0.2]


def test_zero_delay_ideal_matches_a_fresh_model():
    params = paper_defaults(k=6, num_threads=4, p_remote=0.35, pattern="uniform")
    res = repro.tolerance_index(params=params)
    fresh = MMSModel(params.with_(switch_delay=0.0)).solve()
    assert canonical_json(res.ideal.to_dict()) == canonical_json(fresh.to_dict())


def _lattice():
    return [
        paper_defaults(num_threads=n, p_remote=float(p))
        for n in (1, 2, 4, 8, 12, 16)
        for p in np.linspace(0.05, 0.8, 8)
    ]


def test_lattice_builds_once_per_p_remote(builds):
    points = _lattice()
    solve_points(points)
    assert len(builds) == 8
    assert sorted(builds) == sorted({pt.workload.p_remote for pt in points})


def test_lattice_records_equal_serial_solves():
    points = _lattice()
    batched, _ = solve_points(points)
    serial = [MMSModel(pt).solve() for pt in points]
    assert [canonical_json(p.to_dict()) for p in batched] == [
        canonical_json(p.to_dict()) for p in serial
    ]


def test_lattice_keeps_patterns_and_machines_apart(builds):
    points = [
        paper_defaults(k=k, num_threads=n, p_remote=0.3, pattern=pattern)
        for k in (4, 6)
        for pattern in ("geometric", "uniform")
        for n in (2, 8)
    ]
    by_k = [[pt for pt in points if pt.arch.k == k] for k in (4, 6)]
    perfs = [perf for group in by_k for perf in solve_points(group)[0]]
    assert len(builds) == 4
    serial = [MMSModel(pt).solve() for group in by_k for pt in group]
    assert [canonical_json(p.to_dict()) for p in perfs] == [
        canonical_json(p.to_dict()) for p in serial
    ]
