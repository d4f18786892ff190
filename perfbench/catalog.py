"""Workloads and metrics, as ``BENCHMARK.json`` at the checkout root lists
them, plus what the benchmark needs beyond that list.

Each workload reports every end-to-end metric untraced and every per-layer
metric traced (0 for a layer the workload never reaches).  ``README.md``
says what each one measures on each workload.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
#: metric name -> unit, end-to-end (untraced) and per-layer (traced)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
UNITS = {**END_TO_END, **PER_LAYER}

#: runner manifest stages, in execution order (RunManifest.stages keys)
STAGES = ("spec_hash", "cache_lookup", "solve", "store_write", "assemble")

#: time layers whose self times tile an operation: metric name -> span
#: layer(s) summed into it
SELF_TIME_LAYERS = {
    "api.facade_us": "api.facade",
    "scenarios.self_us": "scenarios",
    "scenarios.hier.build_network_us": "scenarios.hier.build_network",
    "core.tolerance.self_us": "core.tolerance",
    "workload.visit_ratios_us": "workload.visit_ratios",
    "core.model.station_arrays_us": "core.model.station_arrays",
    "core.model.build_network_us": "core.model.build_network",
    "core.model.measures_us": "core.model.measures",
    "queueing.batch.self_us": "queueing.batch",
    "queueing.kernels.pack_us": "queueing.kernels.pack",
    "queueing.kernels.fixed_point_us": "queueing.kernels.fixed_point",
    "queueing.mva_approx.bard_schweitzer_us": "queueing.mva_approx.bard_schweitzer",
    "params.dict_us": ("params.to_dict", "params.from_dict"),
    "runner.self_us": "runner",
    "runner.spec.key_us": "runner.spec.key",
    "runner.store.get_us": "runner.store.get",
    "runner.store.put_us": "runner.store.put",
}

#: layers that open an operation (``repro.solve``/``tolerance_index`` on
#: ``point``, ``SweepRunner.run`` on ``lattice``).  A root's self time is
#: whatever its named children miss, so it does not count as covered time.
ROOT_LAYERS = ("api.facade", "runner")

#: the named layers below the roots must cover all but this share of the
#: end-to-end time
TILING_BOUND = 0.10
#: runner stages must sum to the manifest wall clock within this share
#: (the RunManifest.stages contract)
STAGE_BOUND = 0.05
