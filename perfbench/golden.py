"""Correctness gate: golden points, answer comparison and invariants.

Golden points are read (never written) from ``tests/goldens/*.json`` and
carry the measures the repository pins at a relative tolerance of 1e-9.
Each workload mixes some of them into its inputs; :func:`compare` and
:func:`invariants` return human-readable problems, empty when all is well.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping

#: the goldens' relative tolerance (absolute near zero), as tests/test_goldens.py
RTOL = 1e-9
ATOL = 1e-12

#: measures a torus golden row pins (MMSPerformance.summary keys)
_TORUS_KEYS = ("U_p", "lambda_net", "S_obs", "L_obs", "throughput", "access_rate")
#: measures a hier golden row pins
_HIER_KEYS = ("U_p", "lambda_net", "S_obs", "L_obs", "throughput")


def _load(root: Path, name: str) -> dict:
    return json.loads((root / "tests" / "goldens" / f"{name}.json").read_text())


def golden_points(root: Path) -> dict[str, list[dict]]:
    """Golden points by family, each ``{"op", "scenario", "overrides", "expect"}``.

    * ``torus_solve``: Figure 11's model side (``p_remote = 0.5``, two switch
      delays, six thread counts) -- all on the paper's 4x4 torus;
    * ``torus_tolerance``: Table 2's network tolerance indices;
    * ``hier_solve``: the mesh-of-clusters table (cluster shapes x gateway
      delays);
    * ``hier_lattice``: the mesh-of-clusters ``n_t x inter_delay`` lattice.
    """
    fig11 = [
        {
            "op": "solve",
            "scenario": "torus",
            "overrides": {
                "num_threads": row["num_threads"],
                "p_remote": 0.5,
                "switch_delay": row["switch_delay"],
            },
            "expect": {k: row[k] for k in _TORUS_KEYS},
        }
        for row in _load(root, "fig11_model")["rows"]
    ]
    table2 = [
        {
            "op": "tolerance",
            "scenario": "torus",
            "overrides": {
                "runlength": row["R"],
                "num_threads": row["n_t"],
                "p_remote": row["p_remote"],
            },
            "expect": {"tol": row["tol"]},
        }
        for row in _load(root, "table2")["rows"]
    ]
    hier_table = [
        {
            "op": "solve",
            "scenario": "hier",
            "overrides": {
                "clusters": row["clusters"],
                "cluster_size": row["cluster_size"],
                "num_threads": 4,
                "inter_delay": row["inter_delay"],
            },
            "expect": {k: row[k] for k in _HIER_KEYS},
        }
        for row in _load(root, "hier_table")["rows"]
    ]
    hier_lattice = [
        {
            "op": "solve",
            "scenario": "hier",
            "overrides": {
                "clusters": 2,
                "cluster_size": 2,
                "num_threads": rec["num_threads"],
                "inter_delay": rec["inter_delay"],
            },
            "expect": {"U_p": rec["U_p"]},
        }
        for rec in _load(root, "hier_lattice")["records"]
    ]
    return {
        "torus_solve": fig11,
        "torus_tolerance": table2,
        "hier_solve": hier_table,
        "hier_lattice": hier_lattice,
    }


def close(expected: float, actual: float) -> bool:
    return math.isclose(expected, actual, rel_tol=RTOL, abs_tol=ATOL)


def compare(expected: Mapping[str, float], actual: Mapping[str, float], what: str) -> list[str]:
    """Every pinned measure of ``expected`` must match ``actual``."""
    problems = []
    for key, want in expected.items():
        got = actual.get(key)
        if got is None or not close(float(want), float(got)):
            problems.append(f"{what}: {key} = {got!r}, expected {want!r}")
    return problems


def invariants(summary: Mapping[str, float], converged: bool, what: str,
               tol: float | None = None) -> list[str]:
    """Theory-level checks every answer must pass.

    ``0 < U_p <= 1`` (a processor is busy a fraction of the time), the
    fixed point converged, and a tolerance index lies in ``[0, 1]`` -- the
    zero-delay ideal never does worse than the real network for the
    parameter ranges the workloads draw from.
    """
    problems = []
    u_p = summary.get("U_p")
    if u_p is None or not 0.0 < u_p <= 1.0:
        problems.append(f"{what}: U_p = {u_p!r} outside (0, 1]")
    if not converged:
        problems.append(f"{what}: fixed point did not converge")
    if tol is not None and not 0.0 <= tol <= 1.0:
        problems.append(f"{what}: tolerance {tol!r} outside [0, 1]")
    return problems
