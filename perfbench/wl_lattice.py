"""``lattice``: figure-style sweeps through ``repro.runner.SweepRunner``.

Each cycle sweeps the seeded torus lattice (``n_t x p_remote`` at k = 4, 6,
8, plus Figure 11's golden points) and the ``hier`` lattice (plus the
mesh-of-clusters golden lattice) with the default runner configuration
(backend ``auto``, one job: the torus resolves to ``batch``).  The cold
pass writes into an empty store directory; the warm pass re-runs the same
specs through a fresh runner on the filled store, so store writes are
timed cold and store reads warm.

A point's latency is its time to result: from the start of its pass (the
torus sweep, then the ``hier`` sweep, reference jobs left out) to the
runner's progress callback for it.  The batch backend answers a torus
sweep one machine size at a time, so times to result come in steps; the
medians fall inside a step, not on the edge between two.  Times and rates
are scaled to the reference machine speed measured around each sweep
(:mod:`speed`).
"""

from __future__ import annotations

import shutil
import time
from array import array

import speed
import stats
from catalog import STAGE_BOUND, STAGES
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
from streams import lattice

#: reference jobs run before, and again after, every timed sweep
REFERENCE_JOBS = 2


class LatticeWorkload:
    def __init__(self, root, seed: int, out):
        self.root = root
        self.seed = seed
        self.work = out / f"lattice-{seed}-{id(self):x}"
        self.cycles = 0
        self.reference: list | None = None
        self.manifest_mode = None

    def setup(self) -> None:
        import repro
        from repro.params import paper_defaults
        from repro.runner import JobSpec, effective_config
        from repro.scenarios.hier import HierParams

        self.repro = repro
        self.config = effective_config()
        grid = lattice(self.seed)
        gold = golden_points(self.root)
        torus = [paper_defaults(**p) for p in grid["torus"]]
        torus += [paper_defaults(**g["overrides"]) for g in gold["torus_solve"]]
        hier = [HierParams(**p) for p in grid["hier"]]
        hier += [HierParams(**g["overrides"]) for g in gold["hier_lattice"]]
        self.sweeps = [[JobSpec(p) for p in torus], [JobSpec(p) for p in hier]]
        #: (sweep index, position, expected measures) of every golden point
        self.goldens = [
            (0, len(grid["torus"]) + i, g["expect"]) for i, g in enumerate(gold["torus_solve"])
        ] + [
            (1, len(grid["hier"]) + i, g["expect"]) for i, g in enumerate(gold["hier_lattice"])
        ]
        self.points = sum(len(s) for s in self.sweeps)
        self.work.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        self._cycle(Run())  # warm-up: lazy imports, topology caches
        self.warmup_s = time.perf_counter() - t0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _runner(self, store_dir):
        from repro.runner import SweepRunner

        cfg = self.config
        return SweepRunner(
            jobs=cfg["jobs"],
            cache_dir=str(store_dir),
            timeout=cfg["timeout"],
            retries=cfg["retries"],
            backend=cfg["backend"],
            kernel=cfg["kernel"],
        )

    def _pass(self, run: Run, store_dir, recorder=None):
        """Every sweep once through a fresh runner on ``store_dir``; spans
        are recorded (with a ``recorder``) only inside ``runner.run``.

        Each sweep is bracketed by reference jobs (:mod:`speed`).  Returns
        (raw wall s, wall s and times to result s at the reference speed,
        manifests, records per sweep).
        """
        runner = self._runner(store_dir)
        raw, wall, ttr, manifests, records = 0.0, 0.0, [], [], []
        try:
            for specs in self.sweeps:
                run.attempted += len(specs)
                refs = [speed.reference_time() for _ in range(REFERENCE_JOBS)]
                sweep_ttr = []
                t0 = time.perf_counter()

                def progress(done, total, result, _t0=t0):
                    sweep_ttr.append(time.perf_counter() - _t0)

                if recorder is not None:
                    recorder.active = True
                report = runner.run(specs, progress=progress)
                elapsed = time.perf_counter() - t0
                if recorder is not None:
                    recorder.active = False
                refs += [speed.reference_time() for _ in range(REFERENCE_JOBS)]
                # the median drops a reference job that read far off
                f = speed.factor(stats.median(refs))
                raw += elapsed
                # a point's time to result counts from the start of the pass
                ttr += [wall + t * f for t in sweep_ttr]
                wall += elapsed * f
                manifests.append(report.manifest)
                failed = [r for r in report.results if not r.ok]
                for r in failed:
                    run.fail(f"lattice point {r.key[:12]}: {r.error}")
                records.append(
                    [r.record() if r.ok else None for r in report.results]
                )
        finally:
            runner.store.close()
        return raw, wall, ttr, manifests, records

    def _cycle(self, run: Run, recorder=None):
        """A cold and a warm pass on a new store; both must reproduce the
        first cycle's records exactly."""
        store_dir = self.work / f"store-{self.cycles}"
        self.cycles += 1
        try:
            cold = self._pass(run, store_dir, recorder)
            warm = self._pass(run, store_dir, recorder)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        for label, (_r, _w, _t, manifests, records) in (("cold", cold), ("warm", warm)):
            if self.reference is None:
                self.reference = records
                self.manifest_mode = manifests[0].mode
                continue
            for got, want in zip(records, self.reference):
                differ = sum(1 for a, b in zip(got, want) if a != b)
                if differ:
                    run.fail(f"{label} pass: {differ} records differ from the first", differ)
        return cold, warm

    def measure(self, run: Run, seconds: float) -> None:
        deadline = Deadline(seconds)
        cold_rates, warm_rates, raw_rates = [], [], []
        # 8 bytes a point: the worker's peak resident set stays the program's
        cold_ttr, warm_ttr = array("d"), array("d")
        while deadline:
            cold, warm = self._cycle(run)
            raw_rates.append(self.points / cold[0])
            cold_rates.append(self.points / cold[1])
            warm_rates.append(self.points / warm[1])
            cold_ttr.extend(cold[2])
            warm_ttr.extend(warm[2])
        self.rss_mb = peak_rss_mb()
        run.put("ops_per_s", stats.median(cold_rates))
        run.put("warm_ops_per_s", stats.median(warm_rates))
        put_latencies(run, cold_ttr, warm_ttr, cold_ttr)
        run.detail["cycles"] = len(cold_rates)
        run.detail["raw_ops_per_s"] = stats.median(raw_rates)

    def trace(self, run: Run, seconds: float, recorder) -> None:
        """Untraced cycles for half the time, then as many traced ones."""
        import layers

        deadline = Deadline(seconds / 2)
        untraced, n = 0.0, 0
        while deadline:
            cold, warm = self._cycle(run)
            untraced += cold[1] + warm[1]
            n += 1
        layers.install(recorder)
        traced_raw, traced, stages = 0.0, 0.0, {"cold": [], "warm": []}
        for _ in range(n):
            cold, warm = self._cycle(run, recorder)
            traced_raw += cold[0] + warm[0]
            traced += cold[1] + warm[1]
            stages["cold"] += cold[3]
            stages["warm"] += warm[3]
        totals = recorder.totals()
        values = layer_metrics(totals, recorder.phase_counts(), 2 * n * self.points)
        values["trace.unattributed_frac"] = check_tiling(run, traced_raw * 1e9, totals)
        values["trace.overhead_frac"] = traced / untraced - 1.0
        for label, manifests in stages.items():
            for stage in STAGES:
                per_pass = sum(m.stages.get(stage, 0.0) for m in manifests) / n
                values[f"runner.{label}.{stage}_s"] = per_pass
        manifests = stages["cold"] + stages["warm"]
        wall = sum(m.wall_clock_s for m in manifests)
        gap = abs(sum(sum(m.stages.values()) for m in manifests) - wall) / wall
        if gap > STAGE_BOUND:
            run.fail(f"runner stages sum to within {gap:.1%} of the manifest wall "
                     f"clock; the manifest contract allows {STAGE_BOUND:.0%}")
        values["runner.stage_gap_frac"] = gap
        put_layers(run, values)

    def verify(self, run: Run) -> None:
        """Goldens, then every record of the first cycle against an
        in-process ``repro.solve`` (which also supplies convergence)."""
        for sweep, pos, expect in self.goldens:
            rec = self.reference[sweep][pos]
            if rec is not None:
                run.check(compare(expect, rec["measures"], f"golden lattice point {pos}"))
        for specs, records in zip(self.sweeps, self.reference):
            for spec, rec in zip(specs, records):
                if rec is None:
                    continue
                what = f"lattice record {rec['key'][:12]}"
                perf = self.repro.solve(spec.params)
                run.check(
                    invariants(rec["measures"], perf.converged, what)
                    + compare(perf.summary(), rec["measures"], what)
                )
