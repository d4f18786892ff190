"""How fast the shared machine runs right now, from a fixed reference job.

On a shared VM the same work can take twice as long from one moment to
the next (co-tenants on sibling hardware threads, caches, memory
bandwidth).  Run-to-run drift of that size swamps any regression a bound
could catch.  So CPU-bound timings are taken in pairs: each block of the
workload is followed by one run of :func:`reference_job`, a fixed job with
the same mix of work (small numpy arrays, Python dicts, canonical JSON,
hashing) that no change to the program can alter, and the block's time is
scaled to the machine speed at which the reference job takes
:data:`REFERENCE_S`::

    scaled = raw * REFERENCE_S / reference_time

A change that makes the program faster shortens the blocks and not the
reference job, so it shows in full; a slower machine lengthens both.  Raw
times and speed factors are kept in each run's detail.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time

import numpy as np

#: seconds the reference job takes at the reference machine speed
REFERENCE_S = 0.002
#: what :func:`startup_time` runs in a fresh interpreter, and the seconds
#: it takes at the reference machine speed
STARTUP_PROBE = "import numpy, json, hashlib"
STARTUP_S = 0.25


def reference_job() -> float:
    """A small Bard-Schweitzer-like fixed point on 64 stations, then the
    per-point bookkeeping of a sweep: records, canonical JSON, SHA-256."""
    v = np.linspace(0.05, 1.0, 64)
    s = np.full(64, 10.0)
    q = np.full(64, 8.0 / 64)
    x = delta = 0.0
    for _ in range(80):
        seen = q.sum() - q / 8.0
        w = np.where(s > 0, s * (1.0 + seen), s)
        x = 8.0 / float((v * w).sum())
        q_new = x * v * w
        delta = float(np.abs(q_new - q).max())
        q = q_new
    digest = hashlib.sha256()
    for i in range(120):
        rec = {"k": 4, "num_threads": i % 16 + 1, "p_remote": i / 128.0,
               "measures": {"U_p": float(q[i % 64]), "x": x}}
        digest.update(json.dumps(rec, sort_keys=True, separators=(",", ":")).encode())
    return delta


def reference_time() -> float:
    """Seconds one reference job takes right now."""
    t0 = time.perf_counter()
    reference_job()
    return time.perf_counter() - t0


def factor(reference_s: float) -> float:
    """Multiplier taking a time measured now to the reference speed."""
    return REFERENCE_S / reference_s


def startup_time(env: dict[str, str]) -> float:
    """Seconds a fresh interpreter takes to start and import numpy.

    Set-up starts with that kind of work (process start, unmarshalling
    modules, first allocations), which the machine's noise moves
    differently from the numpy-and-JSON loop of :func:`reference_job`
    (:func:`scale_setup`).  The probe imports nothing of the program, so a
    change to the program's set-up shows in full.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", STARTUP_PROBE], env=env, check=True)
    return time.perf_counter() - t0


def median_reference_time(jobs: int = 9) -> float:
    """Median seconds of ``jobs`` reference jobs in a row."""
    times = sorted(reference_time() for _ in range(jobs))
    return times[len(times) // 2]


def scale_setup(raw_s: float, warmup_s: float, startup_s: float, reference_s: float) -> float:
    """A set-up time at the reference speed.

    Set-up is process start and imports, then warm-up computation (the
    ``warmup_s`` of it), and the machine's noise moves the two differently:
    when the machine sped up 1.9 times for the reference job, a start-up
    probe sped up only 1.4 times.  So the start-up part is scaled by the
    probe (:func:`startup_time`, run right before set-up) and the warm-up by
    the reference job (run right after it).
    """
    return (raw_s - warmup_s) * STARTUP_S / startup_s + warmup_s * REFERENCE_S / reference_s
