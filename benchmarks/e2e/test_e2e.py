"""Self-test of the e2e benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (tier-1
collects only ``tests/``).  Drives the same runner functions as
``run.py`` on one tiny inline spec per harness, so it takes seconds.
"""

from __future__ import annotations

import json
import math
import re

import pytest

import compare
import ledger
import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

TINY = {
    "testbed": {
        "name": "tiny-testbed", "harness": "testbed",
        "params": {"n_servers": 2, "n_apps": 2, "duration_s": 120.0, "warmup_s": 20.0,
                   "concurrency": 10, "initial_alloc_ghz": 0.6, "seed": 0},
        "model": {"a": [0.4], "b": [[-800.0, -300.0], [-100.0, -50.0]], "g": 1800.0},
    },
    "largescale": {
        "name": "tiny-largescale", "harness": "largescale",
        "params": {"n_vms": 30, "n_servers": 50, "seed": 0},
        "trace": {"n_servers": 40, "n_days": 1, "seed": 0},
    },
    "sharded": {
        "name": "tiny-sharded", "harness": "sharded",
        "params": {"n_vms": 30, "n_servers": 50, "n_pods": 2, "workers": 1, "seed": 0},
        "trace": {"n_servers": 40, "n_days": 1, "seed": 0},
    },
}


@pytest.fixture(scope="module")
def decl():
    return run.declared()


def test_declaration_is_well_formed(decl):
    names = [m["name"] for m in decl["end_to_end"] + decl["per_layer"]]
    names += [w["name"] for w in decl["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in decl["end_to_end"])
    setup = next(m for m in decl["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in decl["end_to_end"])
    for name in run.workload_names():
        assert run.load_spec(name, 1).validate() == []


def test_seed_reaches_every_seed_field():
    spec = run.spec_from_doc(TINY["largescale"], 41)
    assert spec.params["seed"] == 41
    assert spec.trace["seed"] == 41 + run.TRACE_SEED_OFFSET
    assert TINY["largescale"]["params"]["seed"] == 0  # the document is not mutated
    other = run.spec_from_doc(TINY["largescale"], 42)
    assert run.run_once(spec).outcome.digest != run.run_once(other).outcome.digest


@pytest.mark.parametrize("harness", sorted(TINY))
def test_measure_reports_each_end_to_end_metric_once(harness, decl):
    spec = run.spec_from_doc(TINY[harness], 7)
    values, detail = run.measure(spec, seconds=0.0)
    metrics = run.with_units(values, decl["end_to_end"])
    assert list(metrics) == [m["name"] for m in decl["end_to_end"]]
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in metrics.values())
    assert detail["problems"] == []
    assert detail["failed"] == 0 < detail["attempted"]
    assert len(detail["setup_s_samples"]) >= run.SETUP_SAMPLES
    assert sum(detail["setup_s_samples"]) >= run.SETUP_MIN_S


@pytest.mark.parametrize("harness", sorted(TINY))
def test_traced_pass_fills_the_ledger_and_leaves_the_result_alone(harness, decl, tmp_path):
    spec = run.spec_from_doc(TINY[harness], 7)
    values, detail = ledger.trace_workload(spec, tmp_path)
    metrics = run.with_units(values, decl["per_layer"])
    assert list(metrics) == [m["name"] for m in decl["per_layer"]]
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    # traced == dark digest (and pooled == inline for the sharded spec)
    assert detail["problems"] == []
    assert list(tmp_path.iterdir()) == []  # the JSONL scratch is gone
    busy = sum(v for k, v in values.items() if k.startswith("engine.phase."))
    assert busy > 0
    if harness == "testbed":
        assert values["sim.des.events"] > 0
        assert values["apps.run_period_calls"] == 2 * 8
        assert values["control.mpc.solves"] == 2 * 8
    else:
        assert values["core.optimizer.invocations"] > 0
        assert values["packing.minslack.searches"] > 0
    if harness == "sharded":
        assert values["sharded.barriers"] == 6
        assert values["sharded.scaleout_x"] > 0 and values["sharded.pooled_run_s"] > 0


def test_wrappers_restore_the_engine():
    spec = run.spec_from_doc(TINY["testbed"], 7)
    engine, backend, _, _ = run.set_up(spec)
    phases = list(engine.phases)
    log = ledger.SpanLog()
    with ledger.instrumented(engine, backend, log):
        assert [p.name for p in engine.phases] == [p.name for p in phases]
        assert all(a is not b for a, b in zip(engine.phases, phases))
        engine.step()
    assert all(a is b for a, b in zip(engine.phases, phases))
    assert "run_period" not in vars(backend.plants[0])
    assert len(log.durations("apps.run_period")) == 2
    assert {parent for name, parent, _, _ in log.spans if name == "apps.run_period"} \
        == {"phase.sense"}


def test_a_failed_output_check_fails_every_unit():
    spec = run.spec_from_doc(TINY["largescale"], 7)
    engine, backend, _, _ = run.set_up(spec)
    engine.run(until_period=3)  # stop early: the period count is wrong
    outcome = run.evaluate(spec, engine, backend, backend.result())
    assert outcome.problems and outcome.failed == outcome.units


def _report(scale: float, decl) -> dict:
    base = {"run_s": 6.0, "setup_s": 1.0, "steps_per_s": 80.0, "peak_rss_mb": 120.0,
            "energy_wh_per_vm": 440.0, "slo_met_share": 0.97}
    jitter = [0.99, 1.0, 1.0, 1.01, 1.02]
    samples = {k: [v * j for j in jitter] for k, v in base.items()}
    samples["run_s"] = [v * scale for v in samples["run_s"]]
    samples["steps_per_s"] = [v / scale for v in samples["steps_per_s"]]
    assert set(samples) == {m["name"] for m in decl["end_to_end"]}
    return {"workloads": {"w": {"samples": samples, "digest": "d", "digest_stable": 1}}}


def test_compare_passes_an_identical_pair_and_flags_a_slowdown(decl, tmp_path, capsys):
    bound = next(m["bound"] for m in decl["end_to_end"] if m["name"] == "run_s")
    paths = {}
    for label, scale in (("a", 1.0), ("same", 1.0), ("slow", 1.0 + bound + 0.05)):
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps(_report(scale, decl)))
    assert compare.main([str(paths["a"]), str(paths["same"])]) == 0
    assert compare.main([str(paths["a"]), str(paths["slow"])]) == 1
    rows = compare.compare(_report(1.0, decl), _report(1.0 + bound + 0.05, decl),
                           decl["end_to_end"])
    worse = {r["metric"] for r in rows if r["verdict"] == "worse"}
    assert "run_s" in worse and worse <= {"run_s", "steps_per_s"}
    assert "ratios are B/A" in capsys.readouterr().out


def test_compare_calls_a_noisy_metric_unresolved():
    quiet, noisy = [1.0, 1.0, 1.01, 1.02], [0.7, 1.0, 1.4, 1.9]
    assert compare.verdict(quiet, noisy, "lower", 0.1)[0] == "unresolved"
    # ... unless every run of B beats every run of A
    assert compare.verdict([v + 2 for v in noisy], quiet, "lower", 0.1)[0] == "ok"
