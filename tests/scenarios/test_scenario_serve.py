"""Scenario routing through the coalescing solve service and its HTTP front.

Requests coalesce under the runner's batching rule (``Scenario.batch_key``:
torus ``symmetric``/``amva``, ``hier`` ``amva``); a scenario without a
batch path, such as ``worksteal``, resolves as a singleton through its
registered solver.  The HTTP body's ``scenario``
key selects the family per request, the server's configured default
applies when the body is silent, and the wire format for old torus
clients is unchanged (no ``scenario`` field in their replies).
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.model import solve as core_solve
from repro.params import ParamError, paper_defaults
from repro.scenarios import (
    ScenarioUnavailableError,
    WorkStealParams,
    get_scenario,
)
from repro.scenarios.hier import HierParams
from repro.serve import ServiceConfig, SolveService, build_server


@pytest.fixture()
def service():
    svc = SolveService(
        ServiceConfig(min_linger_s=0.01, max_linger_s=0.05, adaptive=False)
    )
    yield svc
    svc.close(drain=True)


@pytest.fixture()
def server(service):
    srv = build_server("127.0.0.1", 0, service)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    host, port = srv.server_address[:2]
    yield f"http://{host}:{port}"
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


def post(base, body):
    req = urllib.request.Request(
        base + "/solve",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestService:
    def test_worksteal_params_resolve_as_scalar(self, service):
        params = WorkStealParams(num_workers=4, latency=8.0)
        result = service.solve(params)
        expected = get_scenario("worksteal").solve(params)
        assert result.perf.to_dict() == expected.to_dict()
        assert result.batch_width == 1

    def test_scenario_cache_hit_round_trips_perf(self, service):
        params = HierParams(clusters=2, cluster_size=2, num_threads=2)
        cold = service.solve(params)
        warm = service.solve(params)
        assert warm.source in ("memory", "store")
        assert warm.perf.to_dict() == cold.perf.to_dict()

    def test_torus_requests_unchanged(self, service):
        params = paper_defaults(num_threads=4)
        result = service.solve(params, method="symmetric")
        assert result.perf.to_dict() == core_solve(params, "symmetric").to_dict()

    def test_params_scenario_mismatch_rejected(self, service):
        with pytest.raises(ParamError, match="do not belong"):
            service.solve(paper_defaults(), scenario="worksteal")

    def test_config_rejects_unknown_scenario(self):
        with pytest.raises(ScenarioUnavailableError, match="bogus"):
            ServiceConfig(scenario="bogus")

    def test_config_accepts_registered_scenario(self):
        assert ServiceConfig(scenario="worksteal").scenario == "worksteal"


class TestHTTP:
    def test_body_scenario_key_selects_family(self, server):
        status, body = post(
            server,
            {
                "scenario": "worksteal",
                "point": {"num_workers": 2, "latency": 0.0},
            },
        )
        assert status == 200 and body["ok"]
        assert body["scenario"] == "worksteal"
        expected = get_scenario("worksteal").solve(
            WorkStealParams(num_workers=2, latency=0.0)
        )
        assert body["perf"] == expected.to_dict()

    def test_nested_scenario_params_payload(self, server):
        params = HierParams(clusters=2, cluster_size=2, num_threads=2)
        status, body = post(
            server, {"scenario": "hier", "params": params.to_dict()}
        )
        assert status == 200
        assert body["scenario"] == "hier"
        assert body["perf"] == get_scenario("hier").solve(params).to_dict()

    def test_torus_reply_has_no_scenario_field(self, server):
        status, body = post(server, {"point": {"num_threads": 4}})
        assert status == 200
        assert "scenario" not in body

    def test_unknown_scenario_is_bad_request(self, server):
        status, body = post(server, {"scenario": "bogus", "point": {}})
        assert status == 400
        assert body["ok"] is False
        assert "unknown scenario 'bogus'" in body["detail"]

    def test_foreign_field_in_point_names_scenario(self, server):
        status, body = post(
            server, {"scenario": "worksteal", "point": {"num_threads": 4}}
        )
        assert status == 400
        assert "scenario 'worksteal'" in body["detail"]

    def test_server_default_scenario_applies_to_silent_bodies(self):
        svc = SolveService(
            ServiceConfig(
                min_linger_s=0.01,
                max_linger_s=0.05,
                adaptive=False,
                scenario="worksteal",
            )
        )
        srv = build_server("127.0.0.1", 0, svc)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        host, port = srv.server_address[:2]
        try:
            status, body = post(
                f"http://{host}:{port}", {"point": {"latency": 0.0}}
            )
            assert status == 200
            assert body["scenario"] == "worksteal"
            assert body["perf"]["measures"]["efficiency"] == 1.0
        finally:
            srv.shutdown()
            srv.server_close()
            svc.close(drain=True)
            thread.join(timeout=5)
