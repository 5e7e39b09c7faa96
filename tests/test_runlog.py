"""The one run-log fold: datacenter series, sharded logs, option checks."""

import json

import numpy as np
import pytest

from repro.engine.kernel import run_session
from repro.engine.scenario import resolve_scenario
from repro.obs import (
    JsonlBackend,
    JsonlFollower,
    RunLog,
    Telemetry,
    audit_run,
    profile_run,
    read_jsonl_lenient,
    summarize_run,
    use_telemetry,
    watch,
    watch_view,
)

_SCENARIOS = [("largescale-small", {}), ("sharded-small", {"params.workers": 1})]


def _traced_run(tmp_path, name, overrides):
    """Run a builtin scenario with a JSONL log; ``(engine, result, path)``."""
    path = tmp_path / f"{name}.jsonl"
    engine, backend = resolve_scenario(name, overrides).build()
    with use_telemetry(Telemetry(JsonlBackend(path))):
        with run_session(engine, backend):
            engine.run()
            result = backend.result()
    return engine, result, path


class TestDatacenterSeries:
    @pytest.mark.parametrize("name,overrides", _SCENARIOS, ids=[n for n, _ in _SCENARIOS])
    def test_fold_reproduces_the_result_series(self, tmp_path, name, overrides):
        _, result, path = _traced_run(tmp_path, name, overrides)
        log = RunLog.read(path)
        power = np.array(list(log.power_w.values()))
        assert np.array_equal(power, result.power_series_w)  # bit for bit
        assert np.array_equal(
            np.array(list(log.active_servers.values())), result.active_series
        )
        assert audit_run(log)["power"]["samples"] == result.n_steps
        assert summarize_run(log)["power"]["mean_w"] == pytest.approx(
            result.power_series_w.mean(), rel=1e-12
        )
        prom = tmp_path / "watch.prom"
        tail = watch(path, once=True, prom_path=prom, out=lambda s: None)
        assert watch_view(tail)["power_w"][-1] == result.power_series_w[-1]
        assert f"repro_watch_power_watts {result.power_series_w[-1]:g}\n" in prom.read_text()
        assert (
            f"repro_watch_active_servers {float(result.active_series[-1]):g}\n"
            in prom.read_text()
        )

    def test_rows_at_one_time_are_summed_in_record_order(self):
        log = RunLog()
        for time_s, watts in ((0.0, 1.0), (60.0, 2.0), (0.0, 0.1), (60.0, 0.2)):
            log.feed({"kind": "largescale.step", "time_s": time_s,
                      "power_w": watts, "active_servers": 1})
        assert log.power_w == {0.0: 1.0 + 0.1, 60.0: 2.0 + 0.2}
        assert log.active_servers == {0.0: 2, 60.0: 2}

    def test_window_keeps_the_newest_whole_samples(self):
        # Two pods, each re-emitting four steps per barrier: with a window
        # of two times, the second pod's rows for evicted times are
        # dropped and the kept samples are whole sums.
        log = RunLog(window=2)
        for pod_watts in (100.0, 10.0):
            for step in range(4):
                log.feed({"kind": "largescale.step", "time_s": 60.0 * step,
                          "power_w": pod_watts + step})
        assert log.power_w == {120.0: 102.0 + 12.0, 180.0: 103.0 + 13.0}


class TestShardedProfile:
    def test_phase_rows_are_the_parent_periods(self, tmp_path):
        engine, _, path = _traced_run(tmp_path, "sharded-small", {"params.workers": 1})
        profile = profile_run(RunLog.read(path))
        assert set(profile["phases"]) == {"optimize", "arbitrate", "telemetry"}
        for phase, row in profile["phases"].items():
            assert row["count"] == engine.n_periods, phase
        assert set(profile["per_pod"]) == {0, 1}
        assert all(pod["spans"] > 0 for pod in profile["per_pod"].values())


class TestOneReader:
    def test_final_poll_takes_the_unterminated_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"kind": "a"}\n{"kind": "b"}')
        follower = JsonlFollower(path)
        assert [r["kind"] for r in follower.poll()] == ["a"]
        assert [r["kind"] for r in follower.poll(final=True)] == ["b"]
        assert read_jsonl_lenient(path) == ([{"kind": "a"}, {"kind": "b"}], 0)

    def test_missing_file_polls_empty_but_a_final_read_raises(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        assert JsonlFollower(path).poll() == []
        with pytest.raises(FileNotFoundError):
            RunLog.read(path)

    def test_invalid_utf8_is_one_malformed_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_bytes(b'{"kind": "a"}\n\xff\xfe\n{"kind": "b"}\n')
        assert read_jsonl_lenient(path) == ([{"kind": "a"}, {"kind": "b"}], 1)


_UNENDED = [
    {"kind": "run_config", "harness": "testbed", "control_period_s": 30.0},
    {"kind": "testbed.period", "time_s": 30.0, "power_w": 450.0, "active_servers": 2},
]


@pytest.mark.parametrize("argv", [
    ["audit", "--baseline-w", "nan"],
    ["audit", "--baseline-w", "inf"],
    ["audit", "--baseline-w", "-100"],
    ["audit", "--baseline-w", "0"],
    ["watch", "--interval", "-1"],
    ["watch", "--interval", "nan"],
    ["watch", "--max-updates", "0"],
], ids=lambda argv: " ".join(argv))
def test_out_of_range_obs_options_are_refused(tmp_path, capsys, argv):
    from repro.cli import main

    path = tmp_path / "run.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in _UNENDED))
    action, *options = argv
    assert main(["obs", action, str(path), *options]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("repro obs: ")
