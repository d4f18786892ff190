"""Start ``repro-mms serve`` for the benchmark, optionally traced.

    python3 perfbench/serve_boot.py --trace 1 --spans-out OUT.json -- serve --port 0

The environment is pinned first (no ``REPRO_*``, explicit
``repro.configure``).  With ``--trace 1`` the layer wrappers of
:mod:`layers` -- plus the server's own boundaries: ``do_POST``,
``SolveService.solve`` and ``SolveService._flush`` -- are installed before
the CLI starts.  Each request's ``X-Bench-Phase`` header names the phase
its spans are filed under, so warm-up and side phases stay apart from the
timed one.  When the server exits (SIGTERM drains it), the per-phase span
totals and counters go to ``--spans-out`` and every raw span to the same
path with ``.jsonl`` appended.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import envpin
import layers

#: request header naming the benchmark phase a request belongs to
PHASE_HEADER = "X-Bench-Phase"


def _phase_from_header(recorder: layers.SpanRecorder) -> None:
    from repro.serve.http import SolveRequestHandler

    traced = SolveRequestHandler.do_POST

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler name
        recorder.phase = self.headers.get(PHASE_HEADER) or "none"
        traced(self)

    SolveRequestHandler.do_POST = do_POST


def _write(recorder: layers.SpanRecorder, path: Path) -> None:
    phases = sorted({span[3] for span in recorder.spans} | {p for p, _ in recorder.counts})
    summary = {
        "totals": {phase: recorder.totals(phase) for phase in phases},
        "counts": {phase: recorder.phase_counts(phase) for phase in phases},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summary))
    recorder.dump(path.with_name(path.name + ".jsonl"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", type=Path)
    parser.add_argument("cli", nargs=argparse.REMAINDER, help="-- repro-mms arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    envpin.pin_in_process()
    recorder = None
    if args.trace:
        recorder = layers.SpanRecorder()
        layers.install(recorder, serve=True)
        _phase_from_header(recorder)
        recorder.active = True
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        if recorder is not None:
            recorder.active = False
            _write(recorder, args.spans_out)


if __name__ == "__main__":
    sys.exit(main())
