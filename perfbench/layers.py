"""Spans around the program's layer boundaries, recorded from outside.

:func:`install` replaces module-boundary functions of ``repro`` with timing
wrappers at run time: a module-level function is rebound in every
``repro`` module that imported it by name, a method or classmethod is
replaced on its class.  Nothing under ``src/`` changes.  Each span is
``[name, parent_index, duration_ns, phase]``; spans are kept in memory
and written out once, when the run ends.

Span names are ``<layer>:<function>``; the layer (the part before the
colon) is what the per-layer metrics aggregate over.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from pathlib import Path

from stats import layer_totals

#: (layer, module, qualified name) of every wrapped boundary.  Order matters
#: only for readability: parents and children are found at run time.
BOUNDARIES = (
    ("api.facade", "repro.api", "solve"),
    ("api.facade", "repro.api", "tolerance_index"),
    ("scenarios", "repro.scenarios.torus", "TorusScenario.solve"),
    ("scenarios", "repro.scenarios.torus", "TorusScenario.solve_points"),
    ("scenarios", "repro.scenarios.torus", "TorusScenario.tolerance"),
    ("scenarios", "repro.scenarios.hier", "HierScenario.solve"),
    ("scenarios", "repro.scenarios.hier", "HierScenario.tolerance"),
    ("scenarios.hier.build_network", "repro.scenarios.hier", "build_network"),
    ("core.tolerance", "repro.core.tolerance", "network_tolerance"),
    ("core.tolerance", "repro.core.tolerance", "memory_tolerance"),
    ("workload.visit_ratios", "repro.workload.visit_ratios", "visit_ratios_for"),
    ("workload.visit_ratios", "repro.workload.visit_ratios", "build_visit_ratios"),
    ("core.model.station_arrays", "repro.core.model", "MMSModel.station_arrays"),
    ("core.model.build_network", "repro.core.model", "MMSModel.build_network"),
    ("core.model.measures", "repro.core.model", "MMSModel.solve"),
    ("core.model.measures", "repro.core.model", "solve_points"),
    ("queueing.batch", "repro.queueing.mva_symmetric", "solve_symmetric"),
    ("queueing.batch", "repro.queueing.mva_batch", "solve_symmetric_batch"),
    ("queueing.batch", "repro.queueing.mva_batch", "solve_batch"),
    ("queueing.kernels.pack", "repro.queueing.kernels.soa", "SymmetricSoA.pack"),
    ("queueing.kernels.pack", "repro.queueing.kernels.soa", "MulticlassSoA.from_networks"),
    ("queueing.kernels.fixed_point", "repro.queueing.kernels.reference", "symmetric_fixed_point"),
    ("queueing.kernels.fixed_point", "repro.queueing.kernels.reference", "multiclass_fixed_point"),
    ("queueing.kernels.fixed_point", "repro.queueing.kernels.compiled", "symmetric_fixed_point"),
    ("queueing.kernels.fixed_point", "repro.queueing.kernels.compiled", "multiclass_fixed_point"),
    ("queueing.mva_approx.bard_schweitzer", "repro.queueing.mva_approx", "bard_schweitzer"),
    ("params.to_dict", "repro.params", "MMSParams.to_dict"),
    ("params.to_dict", "repro.scenarios.hier", "HierParams.to_dict"),
    ("params.from_dict", "repro.params", "MMSParams.from_dict"),
    ("params.from_dict", "repro.scenarios.hier", "HierParams.from_dict"),
    ("runner", "repro.runner.executor", "SweepRunner.run"),
    ("runner.spec.key", "repro.runner.spec", "JobSpec.key"),
    ("runner.store.get", "repro.runner.store", "ResultStore.get"),
    ("runner.store.put", "repro.runner.store", "ResultStore.put"),
    ("runner.store.put", "repro.runner.store", "ResultStore.flush"),
    ("scenarios", "repro.scenarios.hier", "HierScenario.solve_points"),
)

#: the HTTP server's boundaries, wrapped only inside the server process
SERVE_BOUNDARIES = (
    ("serve.http", "repro.serve.http", "SolveRequestHandler.do_POST"),
    ("serve.service", "repro.serve.service", "SolveService.solve"),
    ("serve.flush", "repro.serve.service", "SolveService._flush"),
)


class SpanRecorder:
    """In-memory span store with one call stack per thread.

    Wrappers do nothing but call through while :attr:`active` is false, so
    a process can install them once and trace only a chosen phase.
    """

    def __init__(self) -> None:
        self.active = False
        #: label stamped on every span opened from now on (serve phases)
        self.phase = "timed"
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def count(self, name: str, value: int) -> None:
        key = (self.phase, name)
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, after=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            stack = getattr(rec._local, "stack", None)
            if stack is None:
                stack = rec._local.stack = []
            span = [name, stack[-1][0] if stack else -1, 0, rec.phase]
            with rec._lock:
                index = len(rec.spans)
                rec.spans.append(span)
            stack.append((index, span))
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns() - t0
                stack.pop()
            if after is not None:
                after(rec, result)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def totals(self, phase: str = "timed") -> dict[str, dict[str, int]]:
        """Per span name of one phase: count, total ns and self ns."""
        return layer_totals(self.spans, phase)

    def phase_counts(self, phase: str = "timed") -> dict[str, int]:
        return {name: v for (p, name), v in self.counts.items() if p == phase}

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line ``[name, parent, ns, phase]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _count_trajectory(rec: SpanRecorder, result) -> None:
    """Kernel counters from a FixedPointResult: iterations of the batch
    (its longest trajectory) and point-iterations (sum of active sizes)."""
    rec.count("queueing.kernels.iterations", len(result.trajectory))
    rec.count("queueing.kernels.point_iterations", sum(result.trajectory))


def _count_hier_batch(rec: SpanRecorder, result) -> None:
    perfs, telemetry = result
    if telemetry is not None:
        rec.count("scenarios.hier.batched_points", len(perfs))


#: counters read off a boundary's return value, by (module, qualified name)
COUNTERS = {
    (f"repro.queueing.kernels.{kernel}", f"{kind}_fixed_point"): _count_trajectory
    for kernel in ("reference", "compiled")
    for kind in ("symmetric", "multiclass")
}
COUNTERS[("repro.scenarios.hier", "HierScenario.solve_points")] = _count_hier_batch


def _rebind(original, wrapped) -> None:
    """Point every ``repro`` module global that names ``original`` at
    ``wrapped`` (covers ``from x import f`` copies made at import time)."""
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "") or ""
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def _patch(rec: SpanRecorder, layer: str, module: str, qualname: str, after=None) -> None:
    mod = sys.modules.get(module)
    if mod is None:  # an optional kernel that cannot load here
        return
    *owners, attr = qualname.split(".")
    owner = mod
    for part in owners:
        owner = getattr(owner, part)
    name = f"{layer}:{attr}"
    if owner is mod:
        original = getattr(mod, attr)
        if not hasattr(original, "__perfbench_original__"):
            _rebind(original, rec.wrap(name, original, after))
        return
    raw = next(base.__dict__[attr] for base in owner.__mro__ if attr in base.__dict__)
    func = raw.__func__ if isinstance(raw, classmethod) else raw
    if not hasattr(func, "__perfbench_original__"):
        wrapped = rec.wrap(name, func, after)
        setattr(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)


def install(rec: SpanRecorder, serve: bool = False) -> None:
    """Wrap every boundary (and the server's, with ``serve``)."""
    rows = BOUNDARIES + (SERVE_BOUNDARIES if serve else ())
    # import them all before wrapping any, so that _rebind finds every copy
    # an import makes; modules imported later copy the wrapped functions
    for _layer, module, _qualname in rows:
        try:
            importlib.import_module(module)
        except ImportError:  # an optional kernel that cannot load here
            pass
    for layer, module, qualname in rows:
        _patch(rec, layer, module, qualname, COUNTERS.get((module, qualname)))
