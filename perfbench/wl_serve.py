"""``serve``: two persistent HTTP/1.1 connections in a closed loop.

A ``repro-mms serve --port 0`` subprocess with the default ServiceConfig
(memory LRU on, no store) is started through ``serve_boot.py``.  Each of
:data:`CONNS` client threads holds one kept-alive connection and sends
its own seeded stream: one request in four repeats a point the connection
already had answered (memory-cache hits), the rest are fresh (solved).
Torus and ``hier`` requests are told apart by the ``scenario`` body key.

Traced, an untraced server answers half the run; a traced server then
answers exactly the same requests, the server-side spans split the time
of each request, and a short side phase opens a new connection per
request to show what the kept-alive transport costs.
"""

from __future__ import annotations

import http.client
import json
import signal
import subprocess
import sys
import threading
import time
from itertools import islice
from pathlib import Path

import stats
from common import Deadline, Run, layer_metrics, put_latencies, put_layers
from golden import compare, golden_points, invariants
from serve_boot import PHASE_HEADER
from streams import serve_stream

HERE = Path(__file__).resolve().parent

#: client connections (= threads) held open during the timed phase
CONNS = 2
#: warm-up requests per connection before timing
WARMUP_REQUESTS = 5
#: requests of the fresh-connection side phase (traced runs)
FRESH_CONN_REQUESTS = 40
#: seconds a server may take to print its address and answer /healthz
START_TIMEOUT_S = 60.0
#: seconds a draining server may take to exit after SIGTERM
STOP_TIMEOUT_S = 30.0
#: socket timeout of every client request
REQUEST_TIMEOUT_S = 60.0
#: reply sources of a request that was solved, not served from a cache
SOLVED_SOURCES = ("scalar", "batched")


class Server:
    """One ``repro-mms serve`` subprocess started through the bootstrap."""

    def __init__(self, trace: bool, spans_out: Path | None):
        cmd = [sys.executable, str(HERE / "serve_boot.py"), "--trace", str(int(trace))]
        if spans_out is not None:
            cmd += ["--spans-out", str(spans_out)]
        cmd += ["--", "serve", "--port", "0"]
        self.spans_out = spans_out
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(START_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
            if "listening on http://" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.strip().rsplit(":", 1)[1])
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        finally:
            watchdog.cancel()

    def _wait_healthy(self) -> None:
        end = time.perf_counter() + START_TIMEOUT_S
        while True:
            try:
                if self.get("/healthz").get("ok"):
                    return
            except OSError:
                pass
            if time.perf_counter() > end or self.proc.poll() is not None:
                raise RuntimeError("server never reported healthy")
            time.sleep(0.01)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)

    def get(self, path: str) -> dict:
        conn = self.connect()
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def service_stats(self) -> dict:
        return self.get("/metricsz")["service"]

    def peak_rss_mb(self) -> float:
        """The server process's peak resident set (VmHWM), MB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Drain the server with SIGTERM and wait for it (kill if stuck)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def spans(self) -> dict:
        return json.loads(self.spans_out.read_text())


def post(conn: http.client.HTTPConnection, body: dict, phase: str):
    """One ``POST /solve``; returns ``(status, reply bytes, seconds)``."""
    data = json.dumps(body).encode()
    headers = {"Content-Type": "application/json", PHASE_HEADER: phase}
    t0 = time.perf_counter()
    conn.request("POST", "/solve", data, headers)
    resp = conn.getresponse()
    raw = resp.read()
    return resp.status, raw, time.perf_counter() - t0


def _drive(server: Server, items, phase: str, stop, out: list) -> None:
    """Closed loop over ``items`` on one kept-alive connection until
    ``stop()``; appends ``(item, status, reply bytes or error, seconds)``."""
    conn = server.connect()
    try:
        for item in items:
            if stop():
                break
            try:
                status, raw, dt = post(conn, item["body"], phase)
            except (OSError, http.client.HTTPException) as exc:
                out.append((item, None, f"{type(exc).__name__}: {exc}", 0.0))
                conn.close()
                conn = server.connect()
                continue
            out.append((item, status, raw, dt))
    finally:
        conn.close()


def _never() -> bool:
    return False


def _closed_loop(server: Server, streams_, phase: str, stop=_never) -> tuple[list, float]:
    """One thread per connection, each until its stream ends or ``stop()``;
    returns per-connection records and the phase's wall time."""
    outs = [[] for _ in streams_]
    # daemon threads: a worker stopped by SIGTERM must not wait for them
    threads = [
        threading.Thread(target=_drive, args=(server, s, phase, stop, out), daemon=True)
        for s, out in zip(streams_, outs)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return outs, time.perf_counter() - t0


def _delta(before: dict, after: dict) -> dict:
    keys = ("requests", "memory_hits", "batches", "scalar_points", "batched_points",
            "rejected", "errors")
    d = {k: after[k] - before[k] for k in keys}
    d["width_sum"] = (after["batch_width"]["mean"] * after["batches"]
                      - before["batch_width"]["mean"] * before["batches"])
    return d


class ServeWorkload:
    #: set-up seconds spent computing in this process: none (the server
    #: starts in its own process and the warm-up requests wait on the
    #: transport), so all of the set-up is scaled by the start-up probe
    warmup_s = 0.0

    def __init__(self, root, seed: int, out: Path):
        self.root = root
        self.seed = seed
        self.out = out
        self.servers: list[Server] = []
        #: (records, /metricsz delta) of every timed phase, for verify()
        self.phases: list[tuple[list, dict]] = []

    def _streams(self):
        gold = golden_points(self.root)
        goldens = ([g["overrides"] for g in gold["torus_solve"]],
                   [g["overrides"] for g in gold["hier_solve"]])
        bodies = (tuple({"point": ov} for ov in goldens[0]),
                  tuple({"scenario": "hier", "point": ov} for ov in goldens[1]))
        return [serve_stream(self.seed, c, "timed", bodies[c % 2]) for c in range(CONNS)]

    def _start(self, trace: bool) -> Server:
        spans_out = None
        if trace:
            spans_out = self.out / "spans" / f"serve-seed{self.seed}-server.json"
        server = Server(trace, spans_out)
        self.servers.append(server)
        warm = [islice(serve_stream(self.seed, c, "warmup"), WARMUP_REQUESTS)
                for c in range(CONNS)]
        outs, _wall = _closed_loop(server, warm, "warmup")
        bad = [r for o in outs for r in o if r[1] != 200]
        if bad:
            raise RuntimeError(f"warm-up request failed: {bad[0][1]} {bad[0][2]!r}")
        return server

    def setup(self) -> None:
        self.server = self._start(trace=False)

    def close(self) -> None:
        for server in self.servers:
            server.stop()

    def _timed(self, server: Server, streams_, stop=_never) -> tuple[list, float, dict]:
        before = server.service_stats()
        outs, wall = _closed_loop(server, streams_, "timed", stop)
        delta = _delta(before, server.service_stats())
        self.phases.append((outs, delta))
        return outs, wall, delta

    def measure(self, run: Run, seconds: float) -> None:
        deadline = Deadline(seconds)
        outs, wall, _delta_ = self._timed(self.server, self._streams(), lambda: not deadline)
        ok = [r for o in outs for r in o if r[1] == 200]
        lat = [r[3] for r in ok]
        hits = [r[3] for r in ok if r[0]["repeat"]]
        misses = [r[3] for r in ok if not r[0]["repeat"]]
        run.put("ops_per_s", len(ok) / wall)
        run.put("warm_ops_per_s", CONNS * len(hits) / sum(hits))
        put_latencies(run, lat, hits, misses)
        self.rss_mb = self.server.peak_rss_mb()

    def trace(self, run: Run, seconds: float, recorder) -> None:
        """Half the run untraced, then the same requests on a traced server."""
        deadline = Deadline(seconds / 2)
        outs, untraced, _d = self._timed(self.server, self._streams(), lambda: not deadline)
        self.server.stop()
        traced_server = self._start(trace=True)
        same = [islice(s, len(o)) for s, o in zip(self._streams(), outs)]
        outs, traced, delta = self._timed(traced_server, same)
        fresh = self._fresh_connections(traced_server, outs)
        traced_server.stop()
        spans = traced_server.spans()
        totals = spans["totals"].get("timed", {})
        ok = [r for o in outs for r in o if r[1] == 200]
        values = layer_metrics(totals, spans["counts"].get("timed", {}), len(ok))
        values.update(self._split(run, ok, totals))
        values["serve.fresh_conn_p50_ms"] = stats.percentile(fresh, 50) * 1e3
        values["serve.batches"] = delta["batches"] / len(ok)
        values["serve.batch_width_mean"] = delta["width_sum"] / max(1, delta["batches"])
        values["serve.memory_hit_frac"] = delta["memory_hits"] / max(1, delta["requests"])
        values["serve.scalar_points"] = delta["scalar_points"] / len(ok)
        values["serve.batched_points"] = delta["batched_points"] / len(ok)
        values["serve.rejected"] = float(delta["rejected"])
        values["serve.errors"] = float(delta["errors"])
        values["trace.overhead_frac"] = traced / untraced - 1.0
        put_layers(run, values)

    def _split(self, run: Run, ok: list, totals: dict) -> dict:
        """Client latency = transport + HTTP handling + service time."""
        post_row = totals.get("serve.http:do_POST", {"count": 0, "total": 0})
        service_row = totals.get("serve.service:solve", {"count": 0, "total": 0})
        flush_row = totals.get("serve.flush:_flush", {"count": 0, "total": 0})
        if post_row["count"] != len(ok):
            run.fail(f"server saw {post_row['count']} timed requests, client {len(ok)}")
        client_ms = sum(r[3] for r in ok) / len(ok) * 1e3
        service_ms = sum(json.loads(r[2])["latency_s"] for r in ok) / len(ok) * 1e3
        post_ms = post_row["total"] / max(1, post_row["count"]) / 1e6
        span_service_ms = service_row["total"] / max(1, service_row["count"]) / 1e6
        split = {
            "serve.service_ms": service_ms,
            "serve.http_ms": post_ms - service_ms,
            "serve.transport_ms": client_ms - post_ms,
            "serve.solve_points_ms": flush_row["total"] / max(1, flush_row["count"]) / 1e6,
            # time inside SolveService.solve that the service's own latency
            # clock misses (request hashing, admission, waking the handler)
            "trace.unattributed_frac": (span_service_ms - service_ms) / client_ms,
        }
        # transport is the residual, so the split tiles the client latency
        # exactly; it is consistent only while no part is negative
        for name in ("serve.http_ms", "serve.transport_ms", "trace.unattributed_frac"):
            if split[name] < 0:
                run.fail(f"{name} is negative ({split[name]:.4f}): the split does not tile")
        return split

    def _fresh_connections(self, server: Server, outs: list) -> list[float]:
        """Latencies of cache hits, each on a new connection."""
        bodies = [r[0]["body"] for o in outs for r in o if r[0]["repeat"]]
        latencies = []
        for body in bodies[:FRESH_CONN_REQUESTS]:
            conn = server.connect()
            try:
                status, _raw, dt = post(conn, body, "fresh")
            finally:
                conn.close()
            if status == 200:
                latencies.append(dt)
        return latencies

    def verify(self, run: Run) -> None:
        """Every reply: status, source, invariants, goldens, determinism of
        repeats and a cross-check against an in-process ``repro.solve``."""
        import envpin

        repro = envpin.pin_in_process()
        from repro.scenarios import get_scenario

        gold = golden_points(self.root)
        expect = ([g["expect"] for g in gold["torus_solve"]],
                  [g["expect"] for g in gold["hier_solve"]])
        solved: dict[str, dict] = {}
        for outs, delta in self.phases:
            sent = sum(len(o) for o in outs)
            repeats = sum(1 for o in outs for r in o if r[0]["repeat"])
            run.attempted += sent
            if delta["requests"] != sent or delta["memory_hits"] != repeats:
                run.fail(f"server counted {delta['requests']} requests and "
                         f"{delta['memory_hits']} memory hits; sent {sent} with "
                         f"{repeats} repeats")
            first: dict[str, dict] = {}
            for conn, records in enumerate(outs):
                for item, status, raw, _dt in records:
                    what = f"serve {item['body']}"
                    if status != 200:
                        run.fail(f"{what}: status {status}: {raw!r}"[:300])
                        continue
                    reply = json.loads(raw)
                    key = json.dumps(item["body"], sort_keys=True)
                    scen = get_scenario(item["body"].get("scenario", "torus"))
                    summary = scen.perf_from_dict(reply["perf"]).summary()
                    problems = invariants(summary, reply["perf"].get("converged", False), what)
                    wanted = ("memory",) if item["repeat"] else SOLVED_SOURCES
                    if reply["source"] not in wanted:
                        problems.append(f"{what}: source {reply['source']!r}, expected {wanted}")
                    if key in first and first[key] != summary:
                        problems.append(f"{what}: a repeat answered differently")
                    first.setdefault(key, summary)
                    if item["golden"] is not None:
                        problems += compare(expect[conn % 2][item["golden"]], summary,
                                            f"golden {what}")
                    if key not in solved:
                        solved[key] = repro.solve(
                            scenario=scen.name, **item["body"]["point"]
                        ).summary()
                    problems += compare(solved[key], summary, f"cross-check {what}")
                    run.check(problems)
