"""The repository's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload point --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Workloads (see ``perfbench/README.md``):

* ``point``   -- single ``solve`` / ``tolerance_index`` queries in process;
* ``lattice`` -- figure-style sweeps through the runner, cold then warm store;
* ``serve``   -- ``POST /solve`` over two kept-alive HTTP connections.

The set-up (interpreter start, imports, input generation, server start,
warm-up) is timed in fresh worker processes: five times untraced, each
scaled to the reference machine speed (``speed.scale_setup``: the start-up
part by a probe run right before the worker starts, the warm-up by the
reference job the worker runs right after it), and the median is
``setup_s``.  The last worker then measures for ``--seconds``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the run detail (environment fingerprint, sample counts, problems), also
written to ``.perfbench-out/results/``.  The exit status is 0 only for a
run whose every answer checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed
from catalog import END_TO_END, WORKLOADS
from envpin import child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

#: set-up repetitions of an untraced run (their median is setup_s)
SETUP_REPS = 5
#: wall-clock budget of the whole run: workers still going then are stopped
BUDGET_S = 170.0


def _checkout_problem() -> str | None:
    """Why this directory cannot be benchmarked, or None."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return f"no program sources at {ROOT / 'src' / 'repro'}"
    if not (ROOT / "tests" / "goldens").is_dir():
        return f"no golden points at {ROOT / 'tests' / 'goldens'}"
    return None


class Worker:
    """One ``worker.py`` process in its own process group, so that a
    timeout stops it and every server it started."""

    def __init__(self, args: argparse.Namespace, setup_only: bool, timeout: float):
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if setup_only:
            cmd.append("--setup-only")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env(ROOT),
            start_new_session=True,
        )
        self.timed_out = False
        self._watchdog = threading.Timer(timeout, self._expire)
        self._watchdog.daemon = True
        self._watchdog.start()

    def _expire(self) -> None:
        self.timed_out = True
        try:
            os.killpg(self.proc.pid, signal.SIGTERM)
            time.sleep(5.0)
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def ready(self) -> tuple[float, float, float] | None:
        """Seconds from start to the worker's ``READY`` line, then the
        warm-up and reference-job seconds it reported next (None if it
        ended first)."""
        for line in self.proc.stdout:
            if line.strip() == "READY":
                elapsed = time.perf_counter() - self.t0
                word, *values = self.proc.stdout.readline().split()
                return (elapsed, *map(float, values)) if word == "SPEED" else None
        return None

    def finish(self) -> tuple[int, list[str]]:
        """Remaining output lines and the exit status, after it ended."""
        lines = self.proc.stdout.read().splitlines()
        code = self.proc.wait()
        self._watchdog.cancel()
        self.proc.stdout.close()
        if self.timed_out:
            print("perfbench: worker timed out", file=sys.stderr)
            code = code or 1
        return code, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = _checkout_problem()
    if problem is not None:
        print(f"perfbench: {problem}; run from the root of a repository checkout",
              file=sys.stderr)
        return 2

    start = time.perf_counter()
    setups: list[tuple[float, ...]] = []  # speed.scale_setup's arguments
    reps = 1 if args.trace else SETUP_REPS
    for rep in range(reps):
        last = rep == reps - 1
        probe = speed.startup_time(child_env(ROOT))
        budget = BUDGET_S - (time.perf_counter() - start)
        worker = Worker(args, setup_only=not last, timeout=max(1.0, budget))
        ready = worker.ready()
        if ready is not None:
            raw, warmup, reference = ready
            setups.append((raw, warmup, probe, reference))
        code, lines = worker.finish()
        if ready is None or (code != 0 and not last):
            print(f"perfbench: set-up failed (exit {code})", file=sys.stderr)
            return code or 1

    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"perfbench: worker gave no result (exit {code})", file=sys.stderr)
        return code or 1
    detail = result.pop("detail")
    for i, name in enumerate(("raw", "warmup", "startup_probe", "reference")):
        detail[f"setup_{name}_s"] = [s[i] for s in setups]
    if not args.trace:
        scaled = [speed.scale_setup(*s) for s in setups]
        result["metrics"] = {
            "setup_s": {"value": statistics.median(scaled), "unit": END_TO_END["setup_s"]},
            **result["metrics"],
        }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **result, "detail": detail}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
