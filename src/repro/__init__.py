"""repro -- reproduction of Nemawarkar & Gao, "Latency Tolerance: A Metric for
Performance Analysis of Multithreaded Architectures" (IPPS 1997).

Quick start (the facade -- see ``docs/API.md``)::

    import repro

    perf = repro.solve(num_threads=8, p_remote=0.2)
    print(perf.processor_utilization, perf.s_obs)
    print(float(repro.tolerance_index(num_threads=8, p_remote=0.2)))

    repro.configure(cache_dir="~/.cache/mms", jobs=4)
    records = repro.sweep({"num_threads": [1, 2, 4, 8, 16]})

Packages
--------
``repro.topology``    2-D torus, routing, distance profiles
``repro.workload``    access patterns, visit ratios, thread partitioning
``repro.queueing``    closed queueing networks and MVA solvers
``repro.core``        the MMS model, tolerance index, bottleneck laws
``repro.simulation``  discrete-event simulator (validation substrate)
``repro.spn``         stochastic timed Petri nets (the paper's validation)
``repro.analysis``    experiment harness regenerating every figure/table
``repro.runner``      managed sweeps: parallel workers + content-addressed cache
``repro.serve``       coalescing solve service (``repro-mms serve``)
``repro.client``      retrying HTTP client for the solve service
"""

from .api import (
    ServiceConfig,
    SolveService,
    configure,
    scenarios,
    simulate,
    solve,
    solve_points,
    sweep,
    tolerance_index,
)
from .core import (
    MMSModel,
    MMSPerformance,
    ToleranceResult,
    ToleranceZone,
    analyze,
    classify,
    critical_p_remote,
    lambda_net_saturation,
    memory_tolerance,
    network_tolerance,
    threads_for_tolerance,
    tolerance_report,
    zone_boundary,
)
from .params import Architecture, MMSParams, Workload, paper_defaults

__version__ = "2.0.0"

__all__ = [
    "__version__",
    # parameters
    "Architecture",
    "Workload",
    "MMSParams",
    "paper_defaults",
    # the facade (docs/API.md)
    "solve",
    "solve_points",
    "sweep",
    "simulate",
    "tolerance_index",
    "configure",
    "scenarios",
    "SolveService",
    "ServiceConfig",
    # model + measures
    "MMSModel",
    "MMSPerformance",
    # tolerance metric
    "ToleranceResult",
    "ToleranceZone",
    "classify",
    "network_tolerance",
    "memory_tolerance",
    "tolerance_report",
    # bottleneck laws
    "analyze",
    "lambda_net_saturation",
    "critical_p_remote",
    "zone_boundary",
    "threads_for_tolerance",
]
