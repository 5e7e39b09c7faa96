"""Scenario registry: JSON round-trip, validation, build, CLI."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine.scenario import (
    HARNESSES,
    ScenarioError,
    ScenarioRegistry,
    ScenarioSpec,
    builtin_registry,
    resolve_scenario,
)
from repro.obs import InMemoryBackend, Telemetry, use_telemetry
from repro.service.runner import eventlog_hash_records as _eventlog_hash
from tests.goldens import TB_SMALL_SHA


class TestRoundTrip:
    def test_every_builtin_roundtrips_through_json(self):
        for spec in builtin_registry():
            doc = json.loads(json.dumps(spec.to_dict()))
            again = ScenarioSpec.from_dict(doc)
            assert again.to_dict() == spec.to_dict()
            assert again.validate() == []

    def test_to_dict_is_json_safe_despite_tuples(self):
        spec = ScenarioSpec(
            name="x", description="", harness="testbed",
            params={"optimize_at_s": (60.0, 180.0)},
        )
        doc = spec.to_dict()
        assert doc["params"]["optimize_at_s"] == [60.0, 180.0]
        assert json.loads(json.dumps(doc)) == doc

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ScenarioError, match="unknown scenario fields"):
            ScenarioSpec.from_dict({"name": "x", "harness": "testbed", "extra": 1})

    def test_from_dict_requires_name_and_harness(self):
        with pytest.raises(ScenarioError, match="lacks"):
            ScenarioSpec.from_dict({"harness": "testbed"})
        with pytest.raises(ScenarioError, match="lacks"):
            ScenarioSpec.from_dict({"name": "x"})

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(ScenarioError, match="must be an object"):
            ScenarioSpec.from_dict([1, 2])


class TestValidate:
    def _spec(self, **kw):
        base = dict(name="t", description="", harness="testbed", params={})
        base.update(kw)
        return ScenarioSpec(**base)

    def test_builtins_are_valid(self):
        for spec in builtin_registry():
            assert spec.validate() == []

    def test_harness_checked(self):
        assert HARNESSES == ("testbed", "largescale", "sharded")
        problems = self._spec(harness="cloud").validate()
        assert any("harness" in p for p in problems)

    def test_empty_name_flagged(self):
        problems = self._spec(name=" ").validate()
        assert any("name" in p for p in problems)

    # The last two selected a deleted plant lane: old specs fail loudly.
    @pytest.mark.parametrize("key", ["bogus_knob", "plant_mode", "hybrid"])
    def test_unknown_config_param_flagged(self, key):
        problems = self._spec(params={key: 1}).validate()
        assert any(key in p for p in problems)

    def test_bad_config_value_flagged(self):
        problems = self._spec(params={"duration_s": -5.0}).validate()
        assert any("duration_s" in p for p in problems)

    def test_faults_in_params_rejected(self):
        problems = self._spec(params={"faults": {}}).validate()
        assert any("top-level" in p for p in problems)

    def test_fault_spec_problems_prefixed(self):
        problems = self._spec(
            faults={"seed": 0, "events": [{"kind": "nope", "time_s": 1.0}]}
        ).validate()
        assert problems and all(p.startswith("faults:") for p in problems)

    def test_model_only_for_testbed(self):
        problems = self._spec(
            harness="largescale",
            params={"n_vms": 5, "n_servers": 5},
            trace={"n_servers": 5, "n_days": 1, "seed": 0},
            model={"a": [0.4], "b": [[-1.0, -1.0]], "g": 1.0},
        ).validate()
        assert any(p.startswith("model:") for p in problems)

    def test_bad_model_shape_flagged(self):
        problems = self._spec(model={"a": [0.4], "b": "oops", "g": 1.0}).validate()
        assert any(p.startswith("model:") for p in problems)

    def test_workloads_only_for_testbed(self):
        problems = self._spec(
            harness="largescale",
            params={"n_vms": 5, "n_servers": 5},
            trace={"n_servers": 5, "n_days": 1, "seed": 0},
            workloads={"0": {"type": "constant", "level": 5}},
        ).validate()
        assert any(p.startswith("workloads:") for p in problems)

    @pytest.mark.parametrize(
        "workload",
        [
            {"type": "sawtooth"},
            {"type": "step", "base": 10},
            {"type": "step", "base": 10, "high": 20, "start_s": 9.0,
             "end_s": 18.0, "bogus": 1},
            "not-an-object",
        ],
    )
    def test_bad_workload_flagged(self, workload):
        problems = self._spec(workloads={"0": workload}).validate()
        assert any("workloads[" in p for p in problems)

    def test_workload_key_must_be_index(self):
        problems = self._spec(
            workloads={"app0": {"type": "constant", "level": 5}}
        ).validate()
        assert any("app index" in p for p in problems)

    def test_largescale_requires_trace(self):
        problems = self._spec(
            harness="largescale", params={"n_vms": 5, "n_servers": 5}
        ).validate()
        assert any(p.startswith("trace:") for p in problems)

    def test_trace_only_for_largescale(self):
        problems = self._spec(trace={"n_servers": 5}).validate()
        assert any(p.startswith("trace:") for p in problems)

    def test_trace_unknown_fields_flagged(self):
        problems = self._spec(
            harness="largescale",
            params={"n_vms": 5, "n_servers": 5},
            trace={"n_servers": 5, "interval": 60},
        ).validate()
        assert any("unknown fields" in p for p in problems)

    def test_build_refuses_invalid_spec(self):
        with pytest.raises(ScenarioError, match="invalid"):
            self._spec(params={"bogus_knob": 1}).build()


class TestRegistry:
    def test_builtin_names(self):
        names = builtin_registry().names()
        assert "testbed-small" in names and "largescale-small" in names
        assert names == sorted(names)

    def test_register_rejects_duplicates(self):
        reg = builtin_registry()
        spec = reg.get("testbed-small")
        with pytest.raises(ScenarioError, match="already registered"):
            reg.register(spec)
        assert reg.register(spec, replace=True) is spec

    def test_register_validates(self):
        reg = ScenarioRegistry()
        with pytest.raises(ScenarioError, match="invalid"):
            reg.register(ScenarioSpec(name="bad", description="", harness="x"))
        assert len(reg) == 0

    def test_get_unknown_names_known(self):
        reg = builtin_registry()
        with pytest.raises(KeyError, match="testbed-small"):
            reg.get("nope")

    def test_iteration_and_contains(self):
        reg = builtin_registry()
        assert "testbed-faulted" in reg and "nope" not in reg
        assert [s.name for s in reg] == reg.names()
        assert len(reg) == len(reg.names())


class TestBuildAndRun:
    def test_testbed_small_matches_harness_golden(self):
        backend = InMemoryBackend()
        engine, plant = builtin_registry().get("testbed-small").build()
        with use_telemetry(Telemetry(backend)):
            plant.start()
            engine.run()
            plant.result()
        digest, n = _eventlog_hash(backend.records)
        assert (digest, n) == (TB_SMALL_SHA, 25)

    def test_spec_file_runs_like_registry_entry(self, tmp_path):
        # A spec serialized to disk and reloaded builds the same run.
        spec = builtin_registry().get("testbed-small")
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        loaded = ScenarioSpec.from_dict(json.loads(path.read_text()))
        backend = InMemoryBackend()
        engine, plant = loaded.build()
        with use_telemetry(Telemetry(backend)):
            plant.start()
            engine.run()
        assert _eventlog_hash(backend.records) == (TB_SMALL_SHA, 25)


_ROOT = Path(__file__).resolve().parents[1]


class TestCli:
    def test_sim_refuses_an_infinite_warmup_without_running(self):
        # A run toward an infinite target never returned; a subprocess
        # with a timeout keeps that from hanging the suite.
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "sim", "--scenario",
             "testbed-small", "--set", "params.warmup_s=1e999"],
            env=dict(os.environ, PYTHONPATH=str(_ROOT / "src")), cwd=_ROOT,
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert "warmup_s must be finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_list(self, capsys):
        from repro.cli import main

        assert main(["sim", "--list"]) == 0
        out = capsys.readouterr().out
        for name in builtin_registry().names():
            assert name in out

    def test_show_round_trips_every_builtin(self, capsys):
        from repro.cli import main

        for spec in builtin_registry():
            assert main(["sim", "--scenario", spec.name, "--show"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc == spec.to_dict()
            assert ScenarioSpec.from_dict(doc).to_dict() == doc

    def test_validate_builtin(self, capsys):
        from repro.cli import main

        assert main(["sim", "--scenario", "testbed-faulted", "--show"]) == 0
        assert json.loads(capsys.readouterr().out)["name"] == "testbed-faulted"

    def test_show_prints_resolved_spec(self, capsys):
        from repro.cli import main

        assert main(["sim", "--scenario", "testbed-small", "--show"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == builtin_registry().get("testbed-small").to_dict()
        # --set and --faults apply before the spec is shown
        assert main(["sim", "--scenario", "testbed-small", "--show",
                     "--set", "params.duration_s=60"]) == 0
        assert json.loads(capsys.readouterr().out)["params"]["duration_s"] == 60

    def test_show_output_is_runnable_spec_file(self, tmp_path, capsys):
        # show -> save -> show -> run: the printed document is the
        # same spec-file format repro sim --scenario accepts.
        from repro.cli import main

        assert main(["sim", "--scenario", "testbed-small", "--show"]) == 0
        path = tmp_path / "spec.json"
        path.write_text(capsys.readouterr().out, encoding="utf-8")
        assert main(["sim", "--scenario", str(path), "--show"]) == 0
        assert main(["sim", "--scenario", str(path)]) == 0

    def test_validate_bad_spec_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({
                "name": "bad", "description": "", "harness": "testbed",
                "params": {"bogus_knob": 1}, "trace": {"n_servers": 3},
            }),
            encoding="utf-8",
        )
        assert main(["sim", "--scenario", str(path), "--show"]) == 1
        out, err = capsys.readouterr()
        # every problem, under one prefix
        assert out == "" and "bogus_knob" in err and "trace:" in err
        assert err.count("repro sim:") == 1

    def test_validate_unknown_name(self, capsys):
        from repro.cli import main

        assert main(["sim", "--scenario", "no-such-scenario", "--show"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro sim: unknown scenario") and "known:" in err

    @pytest.mark.parametrize(
        "scenario, k",
        [("testbed-faulted", "7"), ("largescale-faulted", "50"), ("sharded-small", "3")],
        ids=["testbed-faulted", "largescale-faulted", "sharded-small"],
    )
    def test_sim_checkpoint_then_resume_is_bit_identical(self, scenario, k, tmp_path,
                                                         capsys):
        # largescale-faulted checkpoints inside its crash, throttle and
        # migration-failure windows; sharded-small runs on a worker pool.
        from repro.cli import main

        ck = tmp_path / "ck.json"
        prefix, suffix, full = (
            tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "full.jsonl"
        )
        assert main([
            "sim", "--scenario", scenario,
            "--checkpoint", str(ck), "--checkpoint-at", k,
            "--trace-jsonl", str(prefix),
        ]) == 0
        assert main([
            "sim", "--scenario", scenario,
            "--resume", str(ck), "--trace-jsonl", str(suffix),
        ]) == 0
        assert main([
            "sim", "--scenario", scenario, "--trace-jsonl", str(full),
        ]) == 0
        capsys.readouterr()

        def events(path):
            with open(path, "r", encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh]
            return [r for r in records if r.get("kind") not in ("span", "metrics")]

        joined = events(prefix) + events(suffix)
        assert json.dumps(joined, sort_keys=True, default=str) == json.dumps(
            events(full), sort_keys=True, default=str
        )

    def test_sim_rejects_mismatched_resume(self, tmp_path, capsys):
        from repro.cli import main

        ck = tmp_path / "ck.json"
        assert main([
            "sim", "--scenario", "testbed-faulted",
            "--checkpoint", str(ck), "--checkpoint-at", "3",
        ]) == 0
        # Resuming a different scenario from this checkpoint must fail
        # (testbed-small lacks the fault schedule the checkpoint carries).
        assert main(["sim", "--scenario", "testbed-small", "--resume", str(ck)]) == 1
        assert "cannot resume" in capsys.readouterr().err
        # ... and so must a checkpoint file that is not there.
        missing = str(tmp_path / "missing.json")
        assert main(["sim", "--scenario", "testbed-small", "--resume", missing]) == 1
        assert "cannot resume" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "saved, resumed",
        [
            (["largescale-small"], ["largescale-small", "params.provisioning=ewma_peak"]),
            (["largescale-small", "params.provisioning=ewma_peak"], ["largescale-small"]),
            (["largescale-small", "params.provisioning=ewma_peak"],
             ["largescale-small", "params.provisioning=holt"]),
            (["largescale-faulted"], ["largescale-small"]),
            (["largescale-small"], ["largescale-faulted"]),
            (["sharded-small"], ["sharded-small", "params.provisioning=ewma_peak"]),
        ],
        ids=["forecaster-added", "forecaster-dropped", "forecaster-changed",
             "faults-dropped", "faults-added", "sharded-forecaster-added"],
    )
    def test_sim_refuses_resume_under_a_different_config(self, saved, resumed, tmp_path,
                                                         capsys):
        # A checkpoint section the resumed config has no place for would
        # be dropped silently; one the config needs cannot be restored.
        from repro.cli import main

        def args(scenario, *overrides):
            return ["--scenario", scenario] + [a for o in overrides for a in ("--set", o)]

        ck = tmp_path / "ck.json"
        assert main(["sim", *args(*saved), "--checkpoint", str(ck), "--checkpoint-at", "3"]) == 0
        capsys.readouterr()
        assert main(["sim", *args(*resumed), "--resume", str(ck)]) == 1
        out, err = capsys.readouterr()
        assert "cannot resume" in err and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize(
        "scenario, path",
        [
            ("largescale-small", ["plant", "peaks"]),
            ("sharded-small", ["plant", "power_series"]),
            ("sharded-small", ["plant", "pods", 1, "peaks"]),
        ],
        ids=["largescale-peaks", "sharded-power-series", "sharded-pod-peaks"],
    )
    def test_sim_refuses_resume_from_a_checkpoint_with_a_field_deleted(
        self, scenario, path, tmp_path, capsys
    ):
        # Each is a field of a replay-verification snapshot, one at each
        # level: the large-scale plant, the sharded parent, a pod.
        from repro.cli import main

        ck = tmp_path / "ck.json"
        assert main(["sim", "--scenario", scenario,
                         "--checkpoint", str(ck), "--checkpoint-at", "3"]) == 0
        capsys.readouterr()
        doc = json.loads(ck.read_text(encoding="utf-8"))
        parent = doc["components"]
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        ck.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["sim", "--scenario", scenario, "--resume", str(ck)]) == 1
        out, err = capsys.readouterr()
        assert "cannot resume" in err and path[-1] in err
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize(
        "path, value",
        [
            (["engine"], []),
            (["engine", "period"], "x"),
            (["components"], ["plant"]),
            (["components", "plant", "migrations"], None),
        ],
        ids=["engine-list", "period-string", "components-list", "snapshot-null"],
    )
    def test_sim_refuses_resume_from_a_checkpoint_with_a_malformed_value(
        self, path, value, tmp_path, capsys
    ):
        from repro.cli import main

        ck = tmp_path / "ck.json"
        assert main(["sim", "--scenario", "largescale-small",
                         "--checkpoint", str(ck), "--checkpoint-at", "3"]) == 0
        capsys.readouterr()
        doc = json.loads(ck.read_text(encoding="utf-8"))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        ck.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["sim", "--scenario", "largescale-small", "--resume", str(ck)]) == 1
        out, err = capsys.readouterr()
        assert "cannot resume" in err and "Traceback" not in err and out == ""

    @pytest.mark.parametrize("k", ["-3", "0", "12", "9999"])
    def test_sim_rejects_checkpoint_at_outside_the_run(self, k, tmp_path, capsys):
        # testbed-small runs 12 periods: only 1..11 are mid-run.
        from repro.cli import main

        ck = tmp_path / "ck.json"
        assert main([
            "sim", "--scenario", "testbed-small",
            "--checkpoint", str(ck), "--checkpoint-at", k,
        ]) == 1
        out, err = capsys.readouterr()
        assert out == "" and not ck.exists()
        assert err.startswith("repro sim: --checkpoint-at ")
        assert err.count("repro sim:") == 1 and "12 periods" in err

    @pytest.mark.parametrize("name", ["largescale-small", "sharded-small"])
    def test_sim_control_mode_is_testbed_only(self, name, capsys):
        # control_mode is a TestbedConfig field: on the other harnesses
        # the generic unknown-param validation rejects the override.
        from repro.cli import main

        assert main(
            ["sim", "--scenario", name, "--set", "params.control_mode=fleet"]
        ) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("repro sim: ") and err.count("repro sim:") == 1
        assert "control_mode" in err and "Traceback" not in err

    def test_sim_set_overrides_the_spec(self, capsys):
        from repro.cli import main

        assert main([
            "sim", "--scenario", "testbed-small",
            "--set", "params.control_mode=fleet",
            "--set", "params.duration_s=60",
        ]) == 0
        assert "over 4 periods" in capsys.readouterr().out

    @pytest.mark.parametrize("pair", ["params.bogus.deep=1", "no-equals-sign"])
    def test_sim_set_typo_exits_1_without_traceback(self, pair, capsys):
        from repro.cli import main

        assert main(["sim", "--scenario", "testbed-small", "--set", pair]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("repro sim: ") and "Traceback" not in err
        assert ("does not exist in the base spec" in err) or ("PATH=VALUE" in err)

    def test_sim_faults_file_equals_builtin_faulted_scenario(self, tmp_path):
        from repro.cli import main
        from repro.service.runner import eventlog_hash

        faults = tmp_path / "faults.json"
        faults.write_text(
            json.dumps(builtin_registry().get("testbed-faulted").to_dict()["faults"]),
            encoding="utf-8",
        )
        via_flag, builtin = tmp_path / "flag.jsonl", tmp_path / "builtin.jsonl"
        assert main([
            "sim", "--scenario", "testbed-small", "--faults", str(faults),
            "--trace-jsonl", str(via_flag), "--quiet",
        ]) == 0
        assert main([
            "sim", "--scenario", "testbed-faulted",
            "--trace-jsonl", str(builtin), "--quiet",
        ]) == 0
        assert eventlog_hash(via_flag) == eventlog_hash(builtin)

    def test_sim_bad_faults_file_exits_1(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"events": [{"kind": "meteor"}]}), encoding="utf-8")
        assert main(
            ["sim", "--scenario", "testbed-small", "--faults", str(bad)]
        ) == 1
        assert "faults:" in capsys.readouterr().err
        missing = str(tmp_path / "missing.json")
        assert main(["sim", "--scenario", "testbed-small", "--faults", missing]) == 1
        assert capsys.readouterr().err == (
            f"repro sim: cannot read {missing}: No such file or directory\n"
        )

    @pytest.mark.parametrize("args", [
        [], ["--checkpoint-at", "2"],
    ])
    def test_sim_pooled_sharded_leaves_no_workers(
        self, args, tmp_path, capsys, monkeypatch
    ):
        # Disarm the __del__ safety net: the session must close the pool.
        import multiprocessing

        from repro.cli import main
        from repro.engine.sharded_backend import ShardedBackend

        monkeypatch.setattr(ShardedBackend, "__del__", lambda self: None)
        if args:
            args = args + ["--checkpoint", str(tmp_path / "ck.json")]
        assert main(["sim", "--scenario", "sharded-small", *args]) == 0
        out = capsys.readouterr().out
        assert ("2 pods on 2 workers" in out) != bool(args)
        assert multiprocessing.active_children() == []

    def test_sim_pooled_sharded_closes_workers_when_the_run_raises(
        self, monkeypatch
    ):
        import multiprocessing

        from repro.cli import main
        from repro.engine.kernel import ControlPlane
        from repro.engine.sharded_backend import ShardedBackend

        monkeypatch.setattr(ShardedBackend, "__del__", lambda self: None)
        real_step = ControlPlane.step

        def failing_step(self):
            if self.k == 2:
                raise RuntimeError("boom")
            return real_step(self)

        monkeypatch.setattr(ControlPlane, "step", failing_step)
        with pytest.raises(RuntimeError, match="boom"):
            main(["sim", "--scenario", "sharded-small"])
        assert multiprocessing.active_children() == []


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    from repro.service.api import ControlPlaneService, ServiceConfig

    tmp = tmp_path_factory.mktemp("service")
    svc = ControlPlaneService(ServiceConfig(
        db_path=str(tmp / "svc.db"), data_dir=str(tmp / "data"), port=0,
    ))
    yield svc  # never started: resolve_spec needs only the registry
    svc.httpd.server_close()
    svc.store.close()


class TestMalformedInput:
    @pytest.mark.parametrize("value", [[1], "x"], ids=["list", "string"])
    @pytest.mark.parametrize("section", ["params", "model", "workloads", "trace", "faults"])
    def test_a_section_of_the_wrong_type_is_refused_everywhere(
        self, section, value, service, tmp_path, capsys
    ):
        from repro.cli import main
        from repro.service.api import ApiError

        doc = builtin_registry().get("testbed-small").to_dict()
        doc[section] = value
        with pytest.raises(ScenarioError, match=section):
            resolve_scenario(doc)
        with pytest.raises(ApiError, match=section) as refused:
            service.resolve_spec({"spec": doc})
        assert refused.value.status == 400
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["sim", "--scenario", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"repro sim: {section} must be an object")
        assert "Traceback" not in err

    def test_a_spec_file_that_is_not_an_object_is_refused(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "spec.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ScenarioError, match="must be an object"):
            resolve_scenario([1, 2])
        assert main(["sim", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err == (
            "repro sim: scenario document must be an object, got list\n"
        )

    @pytest.mark.parametrize("argv", [
        ["sim", "--scenario", "testbed-small", "--trace-jsonl", "{out}"],
        ["sim", "--scenario", "testbed-small", "--checkpoint", "{out}",
         "--checkpoint-at", "3"],
        ["trace", "{out}", "--servers", "3", "--days", "1"],
        ["faults", "generate", "{out}"],
        ["obs", "audit", "{run}", "--output", "{out}"],
    ], ids=["trace-jsonl", "checkpoint", "trace", "faults-generate", "obs-audit-output"])
    def test_an_unwritable_output_is_one_line_before_any_work(self, argv, tmp_path, capsys):
        from repro.cli import main

        run = tmp_path / "run.jsonl"
        run.write_text("{}\n", encoding="utf-8")
        out_path = str(tmp_path / "missing" / "out")
        argv = [a.format(out=out_path, run=run) for a in argv]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"repro {argv[0]}: cannot write {out_path}: No such file or directory\n"
        )

    def test_an_os_error_without_a_file_is_not_swallowed(self, monkeypatch):
        import repro.cli

        def broken():
            raise BrokenPipeError("stdout went away")

        monkeypatch.setattr(repro.cli, "_sim_list", broken)
        with pytest.raises(BrokenPipeError):
            repro.cli.main(["sim", "--list"])


@pytest.mark.parametrize("argv", [
    [], ["sim"], ["trace"], ["faults"], ["faults", "validate"], ["faults", "generate"],
    ["obs"], ["obs", "summarize"], ["obs", "profile"], ["obs", "audit"], ["obs", "watch"],
    ["serve"], ["serve", "start"], ["serve", "submit"], ["serve", "status"],
    ["serve", "results"], ["serve", "sweep"],
], ids=lambda argv: " ".join(["repro", *argv]))
def test_every_command_has_help(argv, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as done:
        main([*argv, "--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: {' '.join(['repro', *argv])}")


class TestPaperRigs:
    @pytest.mark.parametrize("name", ["testbed-paper", "largescale-paper"])
    def test_paper_rigs_validate_and_round_trip(self, name):
        # Registered, valid and JSON-stable; too big to *run* in tier-1.
        spec = builtin_registry().get(name)
        assert spec.validate() == []
        again = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == resolve_scenario(name)
        config = again._make_config()
        if name == "testbed-paper":
            assert (config.n_apps, config.n_servers, config.duration_s) == (8, 4, 600.0)
            assert again.model is None  # ARX model identified at build
        else:
            assert (config.n_vms, config.n_servers) == (5415, 3000)
            assert config.scheme == "ipac" and config.dvfs_enabled
            assert again.trace == {"n_servers": 5415, "n_days": 7, "seed": 7}


class TestResolve:
    def test_name_document_and_overrides_agree(self):
        by_name = resolve_scenario("testbed-small", {"params.seed": 5})
        by_doc = resolve_scenario(
            builtin_registry().get("testbed-small").to_dict(), {"params.seed": 5}
        )
        assert by_name == by_doc and by_name.params["seed"] == 5

    def test_failure_modes(self):
        with pytest.raises(KeyError, match="known:"):
            resolve_scenario("nope")
        with pytest.raises(ScenarioError, match="does not exist"):
            resolve_scenario("testbed-small", {"params.bogus.deep": 1})
        with pytest.raises(ScenarioError, match="bogus_knob"):
            resolve_scenario("testbed-small", {"params.bogus_knob": 1})

    @pytest.mark.parametrize(
        "name, path, value, field",
        [
            ("testbed-small", "min_alloc_ghz", 5, "min_alloc_ghz"),
            ("testbed-small", "max_alloc_ghz", 0, "max_alloc_ghz"),
            ("testbed-small", "initial_alloc_ghz", -1, "initial_alloc_ghz"),
            ("testbed-small", "warmup_s", -10, "warmup_s"),
            ("testbed-small", "setpoint_ms", -5, "setpoint_ms"),
            ("testbed-small", "setpoints_ms", {"0": -1}, r"setpoints_ms\[0\]"),
            ("testbed-small", "concurrency", -3, "concurrency"),
            ("testbed-small", "sysid_alloc_range", [0.9, 0.1], "sysid_alloc_range"),
            ("largescale-small", "vm_memory_choices_mb", [], "vm_memory_choices_mb"),
            ("largescale-small", "minslack_max_steps", 0, "minslack_max_steps"),
            ("largescale-small", "minslack_epsilon_ghz", -1, "minslack_epsilon_ghz"),
            ("largescale-small", "minslack_epsilon_ghz", math.nan, "minslack_epsilon_ghz"),
            ("largescale-small", "vm_memory_choices_mb", [-512], "vm_memory_choices_mb"),
            ("largescale-small", "vm_memory_choices_mb", [math.nan], "vm_memory_choices_mb"),
            ("sharded-small", "vm_memory_choices_mb", [-512], "vm_memory_choices_mb"),
            ("sharded-small", "vm_memory_choices_mb", [1024, math.nan], "vm_memory_choices_mb"),
            ("testbed-small", "duration_s", math.inf, "duration_s"),
            ("testbed-small", "control_period_s", math.inf, "control_period_s"),
            ("testbed-small", "warmup_s", math.inf, "warmup_s"),
            ("testbed-small", "setpoint_ms", math.inf, "setpoint_ms"),
            ("testbed-small", "setpoints_ms", {"3": math.inf}, r"setpoints_ms\[3\]"),
            ("largescale-small", "vm_peak_range_ghz", [0.5, math.inf], "vm_peak_range_ghz"),
            ("largescale-small", "type_weights", [math.inf, 1, 1], "type_weights"),
            ("largescale-small", "type_weights", [1, 1], "type_weights"),
            ("largescale-small", "type_weights", [-1, 1, 1], "type_weights"),
            ("largescale-small", "type_weights", [1e308, 1e308, 1], "type_weights"),
            ("largescale-small", "n_vms", 100, r"n_servers \(40\).*params\.n_vms \(100\)"),
            ("sharded-small", "n_vms", 100, r"n_servers \(40\).*params\.n_vms \(100\)"),
            ("largescale-small", "migration_overhead_w", math.inf, "migration_overhead_w"),
            ("largescale-small", "migration_bandwidth_mbps", math.inf, "migration_bandwidth_mbps"),
        ],
    )
    def test_values_the_build_would_reject_fail_validation(
        self, name, path, value, field
    ):
        """Each of these used to validate and then raise from inside
        ``spec.build()`` or ``start()`` (or, for the sysid range, run)."""
        with pytest.raises(ScenarioError, match=field):
            resolve_scenario(name, {f"params.{path}": value})
