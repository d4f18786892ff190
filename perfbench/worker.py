"""One run of one workload, in a fresh process.

``run.py`` starts this script once per set-up repetition.  It sets the
workload up, prints ``READY`` (the set-up clock stops there) and
``SPEED <warm-up seconds> <reference-job seconds>`` (:mod:`speed`), then,
unless ``--setup-only``, measures and prints the run's result as its last
line::

    python3 perfbench/worker.py --workload point --seed 1 --seconds 30 --trace 0

The result is ``{"correct", "attempted", "failed", "metrics", "detail"}``;
the exit status is 0 only when every answer checked out.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

import envpin
import speed
from catalog import WORKLOADS
from common import Run, put_common

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"


def _workload(name: str, seed: int):
    if name == "point":
        from wl_point import PointWorkload

        return PointWorkload(ROOT, seed)
    if name == "lattice":
        from wl_lattice import LatticeWorkload

        return LatticeWorkload(ROOT, seed, OUT)
    from wl_serve import ServeWorkload

    return ServeWorkload(ROOT, seed, OUT)


def _stop(signum, frame):
    # turn SIGTERM into SystemExit so `finally` blocks stop the server
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _stop)

    if args.workload == "serve":
        envpin.clean_process_env()  # the client imports repro only to check
    else:
        envpin.pin_in_process()
    workload = _workload(args.workload, args.seed)
    run = Run()
    try:
        workload.setup()
        print("READY", flush=True)
        # how long set-up computed, and the machine's speed right after
        print("SPEED", workload.warmup_s, speed.median_reference_time(), flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            import layers

            recorder = layers.SpanRecorder()
            workload.trace(run, args.seconds, recorder)
            recorder.dump(OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            workload.measure(run, args.seconds)
        workload.verify(run)
        if not args.trace:
            put_common(run, workload.rss_mb)
    finally:
        workload.close()
    run.detail["fingerprint"] = envpin.fingerprint(getattr(workload, "manifest_mode", None))
    result = run.result()
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
