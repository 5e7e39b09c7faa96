"""repro serve end-to-end: a real server process driven by the client actions."""

import json
import os
import signal
import subprocess
import sys

import pytest

_ENV = dict(os.environ, PYTHONPATH="src")
_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _serve_cmd(tmp_path):
    return [
        sys.executable, "-m", "repro.cli", "serve", "start",
        "--db", str(tmp_path / "svc.db"),
        "--data-dir", str(tmp_path / "data"),
        "--port", "0",
        "--workers", "1",
        "--checkpoint-every", "4",
    ]


def _client(url, *argv):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", *argv, "--url", url],
        env=_ENV, cwd=_REPO, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture
def server(tmp_path):
    proc = subprocess.Popen(
        _serve_cmd(tmp_path), env=_ENV, cwd=_REPO,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    banner = proc.stdout.readline()  # "repro serve: listening on http://..."
    assert "listening on http://" in banner, banner
    url = banner.split("listening on ")[1].split()[0]
    yield proc, url
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()


class TestServeCli:
    def test_submit_wait_status_results(self, server):
        proc, url = server
        run = _client(url, "submit", "testbed-small", "--wait")
        assert run.returncode == 0, run.stderr
        assert "done" in run.stdout

        status = _client(url, "status")
        assert status.returncode == 0, status.stderr
        assert "1 done" in status.stdout

        results = _client(url, "results", "1")
        assert results.returncode == 0, results.stderr
        doc = json.loads(results.stdout)
        assert doc["result"]["harness"] == "testbed"
        assert doc["event_hash"]

        audit = _client(url, "results", "1", "--audit")
        report = json.loads(audit.stdout)
        assert audit.returncode == (0 if report["passed"] else 1)

        # identical resubmission is answered from the store
        again = _client(url, "submit", "testbed-small")
        assert again.returncode == 0 and "(cached)" in again.stdout

    def test_sweep_wait(self, server):
        proc, url = server
        sweep = _client(
            url, "sweep", "testbed-small",
            "--set", "params.seed=21,22",
            "--set", "params.duration_s=45.0",
            "--wait",
        )
        assert sweep.returncode == 0, sweep.stderr
        assert "2 jobs queued" in sweep.stdout
        assert "2/2 done" in sweep.stdout

    def test_sigterm_shuts_down_cleanly(self, server):
        proc, url = server
        assert _client(url, "status", "--json").returncode == 0
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=30)
        stderr = proc.stderr.read()
        assert "shutting down" in stderr
        # SystemExit(143) from the SIGTERM handler, after the graceful
        # shutdown path ran (no traceback splatter).
        assert rc == 143
        assert "Traceback" not in stderr

    def test_client_without_server_fails_helpfully(self):
        res = _client("http://127.0.0.1:9", "status")
        assert res.returncode == 1
        assert res.stderr.startswith("repro serve: cannot reach")
        assert "Traceback" not in res.stderr
