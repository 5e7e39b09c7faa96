"""Request-path tracing and per-tier/per-VM energy attribution.

Pins the two guarantees the observability layer makes:

* **No perturbation** — enabling request tracing and power attribution
  must leave the simulated control loop bit-identical: the control
  events of a traced run match an untraced run exactly (same hash),
  because sampling is counter-based and attribution is read-only.
* **Reconciliation** — attributed energy plus the unattributed bucket
  recovers total datacenter energy within 1e-6 relative error, on both
  harnesses, and survives a checkpoint/resume round trip.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.control.arx import ARXModel
from repro.engine.kernel import CheckpointError
from repro.engine.largescale_backend import build_largescale_engine, run_largescale
from repro.engine.testbed_backend import run_testbed
from repro.obs import InMemoryBackend, Telemetry, use_telemetry
from repro.obs.attribution import EnergyAttributor
from repro.obs.reqtrace import RequestTracer
from repro.sim.largescale import LargeScaleConfig
from repro.sim.testbed import TestbedConfig
from repro.traces.generator import TraceConfig, generate_trace

_TB_MODEL = ARXModel(a=[0.4], b=[[-800.0, -300.0], [-100.0, -50.0]], g=1800.0)

#: Event kinds that are pure observability output: allowed to differ
#: between a traced and an untraced run.  Everything else must match.
_OBS_ONLY = {
    "span", "metrics", "request_trace", "power_attribution",
    "attribution_summary",
}


def _tb_config(**overrides):
    base = dict(
        n_servers=2, n_apps=2, duration_s=120.0, warmup_s=20.0,
        concurrency=10, initial_alloc_ghz=0.6, mpc_warm_start=False, seed=77,
    )
    base.update(overrides)
    return TestbedConfig(**base)


def _control_hash(records):
    """Hash of the control-relevant event stream (observability excluded)."""
    lines = [
        json.dumps(r, sort_keys=True)
        for r in records
        if r.get("kind") not in _OBS_ONLY
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), len(lines)


class TestRequestTracer:
    def test_sample_every_validated(self):
        with pytest.raises(ValueError, match="sample_every"):
            RequestTracer("app0", 0)

    def test_counter_based_sampling_is_every_nth(self):
        tracer = RequestTracer("app0", 3)
        sampled = [tracer.begin() for _ in range(9)]
        assert sampled == [0, -1, -1, 3, -1, -1, 6, -1, -1]
        assert tracer.n_started == 9
        assert tracer.n_sampled == 3

    def test_sample_every_one_traces_everything(self):
        tracer = RequestTracer("a", 1)
        assert [tracer.begin() for _ in range(4)] == [0, 1, 2, 3]
        assert tracer.n_sampled == 4

    def test_finish_builds_trace_and_drain_clears(self):
        tracer = RequestTracer("app1", 2)
        idx = tracer.begin()
        trace = tracer.finish(
            idx, 10.0, 10.5, [("web", 0.3, 0.25), ("db", 0.2, 0.1)]
        )
        assert trace.trace_id == "app1/0"
        assert trace.rt_s == pytest.approx(0.5)
        assert [v.tier for v in trace.tiers] == ["web", "db"]
        event = trace.to_event()
        assert event["rt_ms"] == pytest.approx(500.0)
        assert event["tiers"][0]["sojourn_ms"] == pytest.approx(300.0)
        assert tracer.drain() == [trace]
        assert tracer.drain() == []


class TestEnergyAttributor:
    def test_splits_by_usage_share(self):
        attr = EnergyAttributor()
        per_app = attr.attribute(
            3600.0,
            {"s0": 100.0},
            {"s0": [("a", "web", 3.0), ("b", "db", 1.0)]},
        )
        assert per_app == pytest.approx({"a": 75.0, "b": 25.0})
        assert attr.total_wh == pytest.approx(100.0)
        assert attr.reconciliation_error <= 1e-12

    def test_zero_usage_splits_equally(self):
        attr = EnergyAttributor()
        attr.attribute(
            3600.0, {"s0": 60.0}, {"s0": [("a", "web", 0.0), ("a", "db", 0.0)]}
        )
        assert attr.energy_wh["a"]["web"] == pytest.approx(30.0)
        assert attr.energy_wh["a"]["db"] == pytest.approx(30.0)

    def test_unhosted_server_lands_unattributed(self):
        attr = EnergyAttributor()
        attr.attribute(3600.0, {"s0": 50.0, "s1": 20.0},
                       {"s0": [("a", "web", 1.0)]})
        assert attr.unattributed_wh == pytest.approx(20.0)
        assert attr.attributed_wh == pytest.approx(50.0)
        assert attr.reconciliation_error <= 1e-12
        summary = attr.summary()
        assert summary["per_app_wh"] == pytest.approx({"a": 50.0})
        assert summary["n_periods"] == 1


class TestTracingDoesNotPerturb:
    """The acceptance gate: observability must not change the run."""

    def _run(self, **overrides):
        backend = InMemoryBackend()
        with use_telemetry(Telemetry(backend), close=False):
            result = run_testbed(_tb_config(**overrides), _TB_MODEL)
        return backend.records, result

    def test_traced_run_control_stream_is_bit_identical(self):
        plain_records, plain_res = self._run()
        traced_records, traced_res = self._run(
            trace_requests_every=3, attribute_power=True
        )
        assert _control_hash(traced_records) == _control_hash(plain_records)
        assert (
            traced_res.power_summary()["mean"]
            == plain_res.power_summary()["mean"]
        )
        np.testing.assert_array_equal(
            traced_res.recorder.values("rt/app0"),
            plain_res.recorder.values("rt/app0"),
        )
        # ... and the traced run actually produced observability output.
        kinds = {r["kind"] for r in traced_records}
        assert "request_trace" in kinds
        assert "power_attribution" in kinds

    def test_trace_events_carry_tier_spans(self):
        records, _ = self._run(trace_requests_every=5)
        traces = [r for r in records if r["kind"] == "request_trace"]
        assert traces
        for rec in traces:
            assert rec["trace_id"].startswith(rec["app"] + "/")
            tiers = rec["tiers"]
            assert len(tiers) >= 1
            # End-to-end RT can never be under the summed tier sojourns
            # (think time between tiers is zero in this plant).
            total_sojourn = sum(t["sojourn_ms"] for t in tiers)
            assert rec["rt_ms"] >= total_sojourn - 1e-9

    def test_config_rejects_negative_sampling(self):
        with pytest.raises(ValueError, match="trace_requests_every"):
            TestbedConfig(trace_requests_every=-1)


class TestTestbedAttribution:
    def test_reconciles_within_tolerance(self):
        backend = InMemoryBackend()
        with use_telemetry(Telemetry(backend), close=False):
            result = run_testbed(
                _tb_config(attribute_power=True), _TB_MODEL
            )
        attribution = result.attribution
        assert attribution is not None
        assert attribution["reconciliation_error"] <= 1e-6
        gap = (
            attribution["attributed_wh"] + attribution["unattributed_wh"]
            - attribution["total_wh"]
        )
        assert abs(gap) <= 1e-6 * attribution["total_wh"]
        # Every (app, tier) pair of the 2-app, 2-tier testbed is charged.
        pairs = {(e["app"], e["tier"]) for e in attribution["per_tier"]}
        assert pairs == {
            ("app0", "web"), ("app0", "db"), ("app1", "web"), ("app1", "db"),
        }
        summaries = [
            r for r in backend.records if r["kind"] == "attribution_summary"
        ]
        assert len(summaries) == 1
        assert summaries[0]["attribution"] == attribution

    def test_disabled_by_default(self):
        result = run_testbed(_tb_config(duration_s=60.0), _TB_MODEL)
        assert result.attribution is None


class TestLargeScaleAttribution:
    def _trace(self):
        return generate_trace(TraceConfig(n_servers=40, n_days=1), rng=13)

    def _config(self, **overrides):
        base = dict(n_vms=30, n_servers=50, seed=5)
        base.update(overrides)
        return LargeScaleConfig(**base)

    def test_reconciles_and_never_changes_totals(self):
        plain = run_largescale(self._trace(), self._config())
        attributed = run_largescale(
            self._trace(), self._config(attribute_power=True)
        )
        # Read-only guarantee: identical energy/placement either way.
        assert attributed.total_energy_wh == plain.total_energy_wh
        assert attributed.migrations == plain.migrations
        np.testing.assert_array_equal(
            attributed.power_series_w, plain.power_series_w
        )
        attribution = attributed.attribution
        assert plain.attribution is None
        assert attribution is not None
        assert attribution["reconciliation_error"] <= 1e-6
        # Migration energy is a separate ledger: attributed + migration
        # recovers the result's grand total.
        assert (
            attribution["attributed_wh"] + attribution["migration_energy_wh"]
            == pytest.approx(attributed.total_energy_wh, rel=1e-6)
        )
        assert len(attribution["per_vm_wh"]) == 30  # n_vms <= 64: full map
        assert sum(attribution["per_vm_wh"].values()) == pytest.approx(
            attribution["attributed_wh"]
        )

    def test_attribution_survives_checkpoint_resume(self):
        trace, cfg = self._trace(), self._config(attribute_power=True)
        engine, plant = build_largescale_engine(trace, cfg)
        plant.start()
        engine.run()
        full = plant.result()

        engine1, plant1 = build_largescale_engine(trace, cfg)
        plant1.start()
        engine1.run(until_period=40)
        doc = json.loads(json.dumps(engine1.checkpoint()))
        engine2, plant2 = build_largescale_engine(trace, cfg)
        engine2.restore(doc)
        engine2.run()
        resumed = plant2.result()

        assert resumed.attribution["attributed_wh"] == (
            full.attribution["attributed_wh"]
        )
        assert resumed.attribution["per_vm_wh"] == full.attribution["per_vm_wh"]

    def test_resume_refuses_checkpoint_without_attribution(self):
        trace = self._trace()
        engine, plant = build_largescale_engine(trace, self._config())
        plant.start()
        engine.run(until_period=10)
        doc = json.loads(json.dumps(engine.checkpoint()))
        engine2, _ = build_largescale_engine(
            trace, self._config(attribute_power=True)
        )
        with pytest.raises(CheckpointError, match="vm_energy_wh"):
            engine2.restore(doc)
