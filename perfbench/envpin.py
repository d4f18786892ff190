"""Environment pinning and the environment fingerprint.

A developer's shell must not change what is measured: every ``REPRO_*``
variable (cache dir, trace, jobs, backend, kernel, scenario, fault plan)
is dropped from the child environment and from ``os.environ``, and the
configuration is set explicitly through ``repro.configure``.
"""

from __future__ import annotations

import importlib.util
import os
import platform
from pathlib import Path

#: the configuration every benchmark process runs with: the defaults a
#: fresh user gets, spelled out
PINNED = {
    "jobs": 1,
    "cache_dir": None,
    "timeout": None,
    "retries": 1,
    "backend": "auto",
    "kernel": "auto",
    "scenario": None,
    "trace": False,
    "fault_plan": None,
}


def child_env(root: Path) -> dict[str, str]:
    """Environment for benchmark child processes: no ``REPRO_*``, the
    checkout's ``src`` first on the import path, fixed string hashing."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def clean_process_env() -> None:
    """Drop every ``REPRO_*`` variable from this process's environment."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def pin_in_process():
    """Clean the environment, import ``repro`` and configure it explicitly;
    returns the module."""
    clean_process_env()
    import repro

    repro.configure(**PINNED)
    return repro


def fingerprint(manifest_mode: str | None = None) -> dict[str, object]:
    """What the numbers were measured on."""
    import numpy
    import scipy

    from repro.queueing.kernels import resolve_kernel

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel": resolve_kernel(),
        "manifest_mode": manifest_mode,
        "machine": platform.machine(),
    }
