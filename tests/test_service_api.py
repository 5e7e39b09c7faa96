"""The HTTP API: submit/poll/fetch over a real socket, errors, streaming."""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.service.api import ControlPlaneService, ServiceConfig
from tests.goldens import TB_SMALL_SHA


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("service")
    svc = ControlPlaneService(ServiceConfig(
        db_path=str(tmp / "svc.db"),
        data_dir=str(tmp / "data"),
        port=0,  # bind an ephemeral port
        workers=2,
        checkpoint_every=4,
        poll_interval_s=0.02,
    ))
    svc.start()
    yield svc
    svc.shutdown()


def _call(service, method, path, body=None, timeout=30):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(service.url + path, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read() or b"null")


def _call_error(service, method, path, body=None):
    try:
        _call(service, method, path, body)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())
    raise AssertionError(f"{method} {path} unexpectedly succeeded")


def _await_run(service, run_id, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        _, doc = _call(service, "GET", f"/api/runs/{run_id}")
        if doc["status"] in ("done", "failed", "cancelled"):
            return doc
        time.sleep(0.05)
    raise AssertionError(f"run {run_id} still {doc['status']}")


class TestBasics:
    def test_health(self, service):
        status, doc = _call(service, "GET", "/api/health")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["workers"] == 2
        assert set(doc["runs"]) == {"queued", "running", "cancelling",
                                    "done", "failed", "cancelled"}

    def test_scenarios_listing_and_detail(self, service):
        _, listing = _call(service, "GET", "/api/scenarios")
        names = [s["name"] for s in listing]
        assert "testbed-small" in names
        _, spec = _call(service, "GET", "/api/scenarios/testbed-small")
        assert spec["harness"] == "testbed"
        code, err = _call_error(service, "GET", "/api/scenarios/nope")
        assert code == 404 and "unknown scenario" in err["error"]

    def test_unknown_route_is_404(self, service):
        code, _ = _call_error(service, "GET", "/api/bogus")
        assert code == 404


class TestSubmitToResult:
    def test_full_lifecycle_and_golden_hash(self, service):
        status, doc = _call(service, "POST", "/api/runs",
                            {"scenario": "testbed-small"})
        assert status == 201 and doc["cached"] is False
        run_id = doc["run"]["id"]

        final = _await_run(service, run_id)
        assert final["status"] == "done", final["error"]
        assert final["event_hash"] == TB_SMALL_SHA
        assert final["n_events"] == 25

        _, res = _call(service, "GET", f"/api/runs/{run_id}/result")
        assert res["event_hash"] == TB_SMALL_SHA
        assert res["result"]["harness"] == "testbed"

        _, audit = _call(service, "GET", f"/api/runs/{run_id}/audit")
        assert audit["run_id"] == run_id
        assert "slo" in audit["report"]

        _, cps = _call(service, "GET", f"/api/runs/{run_id}/checkpoints")
        assert [c["period"] for c in cps] == [4, 8]

        # identical resubmission is served from the store
        _, again = _call(service, "POST", "/api/runs",
                         {"scenario": "testbed-small"})
        assert again["cached"] is True and again["run"]["id"] == run_id

        # force bypasses the cache
        _, forced = _call(service, "POST", "/api/runs",
                          {"scenario": "testbed-small", "force": True})
        assert forced["cached"] is False
        assert forced["run"]["id"] != run_id
        assert _await_run(service, forced["run"]["id"])["event_hash"] \
            == TB_SMALL_SHA

    def test_submit_with_overrides_and_inline_spec(self, service):
        _, spec = _call(service, "GET", "/api/scenarios/testbed-small")
        _, a = _call(service, "POST", "/api/runs", {
            "scenario": "testbed-small", "overrides": {"params.seed": 123},
        })
        _, b = _call(service, "POST", "/api/runs", {"spec": spec})
        # distinct specs -> distinct runs; identical spec -> cached
        assert a["run"]["spec_hash"] != b["run"]["spec_hash"]
        assert b["cached"] is True or b["run"]["status"] in (
            "queued", "running", "done"
        )

    def test_events_endpoint_serves_the_log(self, service):
        _, doc = _call(service, "POST", "/api/runs",
                       {"scenario": "testbed-small"})
        run_id = doc["run"]["id"]
        _await_run(service, run_id)
        req = urllib.request.Request(
            f"{service.url}/api/runs/{run_id}/events"
        )
        with urllib.request.urlopen(req, timeout=30) as resp:
            assert resp.headers["Content-Type"].startswith(
                "application/x-ndjson"
            )
            lines = [ln for ln in resp.read().decode().splitlines() if ln]
        records = [json.loads(ln) for ln in lines]
        kinds = {r.get("kind") for r in records}
        assert "control_period" in kinds and "run_config" in kinds

    def test_events_follow_streams_to_completion(self, service):
        _, doc = _call(service, "POST", "/api/runs", {
            "scenario": "testbed-small", "force": True,
        })
        run_id = doc["run"]["id"]
        # wait for the log to exist, then stream the rest live
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            _, run = _call(service, "GET", f"/api/runs/{run_id}")
            if run["event_log"]:
                break
            time.sleep(0.05)
        req = urllib.request.Request(
            f"{service.url}/api/runs/{run_id}/events?follow=1&timeout=30"
        )
        with urllib.request.urlopen(req, timeout=60) as resp:
            lines = [ln for ln in resp.read().decode().splitlines() if ln]
        assert len(lines) > 0
        assert _await_run(service, run_id)["status"] == "done"


class TestErrors:
    def test_submit_unknown_scenario_404(self, service):
        code, err = _call_error(service, "POST", "/api/runs",
                                {"scenario": "nope"})
        assert code == 404 and "unknown scenario" in err["error"]

    def test_submit_bad_override_path_400(self, service):
        code, err = _call_error(service, "POST", "/api/runs", {
            "scenario": "testbed-small",
            "overrides": {"params.bogus.deep": 1},
        })
        assert code == 400 and "does not exist" in err["error"]

    def test_submit_invalid_spec_400(self, service):
        code, err = _call_error(service, "POST", "/api/runs", {
            "spec": {"name": "x", "harness": "hovercraft"},
        })
        assert code == 400

    def test_submit_no_scenario_or_spec_400(self, service):
        code, err = _call_error(service, "POST", "/api/runs", {})
        assert code == 400 and "scenario" in err["error"]

    def test_result_of_unfinished_run_409(self, service):
        _, doc = _call(service, "POST", "/api/runs", {
            "scenario": "testbed-small",
            "overrides": {"params.duration_s": 3600.0},
        })
        run_id = doc["run"]["id"]
        code, err = _call_error(service, "GET", f"/api/runs/{run_id}/result")
        assert code == 409 and "not done" in err["error"]
        _call(service, "POST", f"/api/runs/{run_id}/cancel")

    def test_unknown_run_404(self, service):
        code, _ = _call_error(service, "GET", "/api/runs/99999")
        assert code == 404

    def test_bad_json_body_400(self, service):
        req = urllib.request.Request(
            service.url + "/api/runs", data=b"{not json", method="POST"
        )
        req.add_header("Content-Length", "9")
        try:
            urllib.request.urlopen(req, timeout=10)
            raise AssertionError("unexpectedly succeeded")
        except urllib.error.HTTPError as exc:
            assert exc.code == 400


class TestSweepAndMetrics:
    def test_sweep_submit_and_progress(self, service):
        status, doc = _call(service, "POST", "/api/sweeps", {
            "scenario": "testbed-small",
            "name": "api-sweep",
            "grid": {"params.seed": [11, 12, 13],
                     "params.duration_s": [45.0]},
        })
        assert status == 201
        assert doc["sweep"]["n_jobs"] == 3
        assert len(doc["run_ids"]) == 3
        for run_id in doc["run_ids"]:
            assert _await_run(service, run_id)["status"] == "done"
        _, sweep = _call(service, "GET", f"/api/sweeps/{doc['sweep']['id']}")
        assert sweep["runs"]["done"] == 3
        assert sweep["grid"]["params.seed"] == [11, 12, 13]
        _, sweeps = _call(service, "GET", "/api/sweeps")
        assert any(s["name"] == "api-sweep" for s in sweeps)

    def test_sweep_too_big_400(self, service):
        code, err = _call_error(service, "POST", "/api/sweeps", {
            "scenario": "testbed-small",
            "grid": {"params.seed": list(range(5000))},
        })
        assert code == 400 and "limit" in err["error"]

    def test_metrics_exposition(self, service):
        with urllib.request.urlopen(service.url + "/metrics", timeout=10) as r:
            text = r.read().decode()
        assert 'repro_service_runs_total{status="done"}' in text
        assert "repro_service_workers 2" in text
        assert "repro_service_uptime_seconds" in text


class TestCancelRoute:
    def test_cancel_queued_run(self, service):
        _, doc = _call(service, "POST", "/api/runs", {
            "scenario": "testbed-small",
            "overrides": {"params.duration_s": 7200.0},
        })
        run_id = doc["run"]["id"]
        _, cancelled = _call(service, "POST", f"/api/runs/{run_id}/cancel")
        assert cancelled["run"]["status"] in ("cancelled", "cancelling")
        final = _await_run(service, run_id, timeout_s=60.0)
        assert final["status"] == "cancelled"
