"""Span recording around the program's layer boundaries, and the tiling
check that the recorded layers account for the end-to-end time."""

import time

import layers
from catalog import TILING_BOUND
from common import Run, check_tiling


def test_spans_nest_and_self_times_tile():
    rec = layers.SpanRecorder()

    def leaf(x):
        return x + 1

    traced_leaf = rec.wrap("inner:leaf", leaf)

    def outer(x):
        return traced_leaf(x) + traced_leaf(x)

    traced_outer = rec.wrap("outer:outer", outer)
    assert traced_outer(1) == 4
    assert rec.spans == []  # inactive: calls pass straight through
    rec.active = True
    assert traced_outer(1) == 4
    assert [s[:2] for s in rec.spans] == [["outer:outer", -1], ["inner:leaf", 0], ["inner:leaf", 0]]
    totals = rec.totals()
    assert totals["inner:leaf"]["count"] == 2
    assert sum(row["self"] for row in totals.values()) == totals["outer:outer"]["total"]


def test_install_traces_a_solve_through_every_layer():
    import repro

    rec = layers.SpanRecorder()
    layers.install(rec)
    layers.install(rec)  # a second install must not wrap twice
    rec.active = True
    perf = repro.solve(num_threads=4, p_remote=0.3)
    tol = repro.tolerance_index(num_threads=4, p_remote=0.3)
    rec.active = False
    assert perf == repro.solve(num_threads=4, p_remote=0.3)
    assert 0 < tol.index <= 1
    totals = rec.totals()
    for span in (
        "api.facade:solve",
        "api.facade:tolerance_index",
        "core.tolerance:network_tolerance",
        "core.model.measures:solve",
        "core.model.station_arrays:station_arrays",
        "workload.visit_ratios:build_visit_ratios",
        "queueing.batch:solve_symmetric_batch",
        "queueing.kernels.pack:pack",
        "queueing.kernels.fixed_point:symmetric_fixed_point",
    ):
        assert span in totals, span
    # one facade root per query, so the self times tile the two roots
    roots = totals["api.facade:solve"]["total"] + totals["api.facade:tolerance_index"]["total"]
    assert sum(row["self"] for row in totals.values()) == roots
    assert totals["queueing.kernels.fixed_point:symmetric_fixed_point"]["count"] == 3
    assert rec.phase_counts()["queueing.kernels.iterations"] > 0


def _traced_call(wrap_middle: bool) -> tuple[Run, float]:
    """root -> middle (20 ms of its own) -> leaf (1 ms), the root being an
    operation-opening layer; returns the checked run and the share."""
    rec = layers.SpanRecorder()

    def leaf():
        time.sleep(0.001)

    leaf = rec.wrap("queueing.kernels.fixed_point:leaf", leaf)

    def middle():
        time.sleep(0.02)
        leaf()

    if wrap_middle:
        middle = rec.wrap("core.model.measures:middle", middle)
    root = rec.wrap("api.facade:solve", middle)
    rec.active = True
    t0 = time.perf_counter_ns()
    root()
    end_to_end = time.perf_counter_ns() - t0
    run = Run(attempted=1)
    share = check_tiling(run, end_to_end, rec.totals())
    return run, share


def test_tiling_holds_when_every_layer_is_wrapped():
    run, share = _traced_call(wrap_middle=True)
    assert run.failed == 0, run.problems
    assert 0 <= share < TILING_BOUND


def test_tiling_fails_when_a_middle_layer_is_unwrapped():
    # the middle layer's time lands in the root's self time, which does
    # not count as covered
    run, share = _traced_call(wrap_middle=False)
    assert run.failed == 1
    assert share > 0.9
    assert "uncovered" in run.problems[0]
