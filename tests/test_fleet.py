"""Fleet-batched control path: equivalence, edge paths, telemetry.

The fleet path (``control_mode="fleet"``, the default) runs every app's
MPC solve through the grouped batch kernel; the scalar path is the
bit-reproducible per-app loop (``control_mode="scalar"``).  Batched linear algebra
reorders floating-point sums (stacked multi-RHS LAPACK), so
the two paths are *allclose*, not bit-identical — these tests pin the
tolerance explicitly and assert exact parity for everything discrete
(counters, hold decisions, validation, checkpoint determinism).
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.cluster import Application, DataCenter, Server, VM
from repro.cluster.catalog import TESTBED_SERVER
from repro.control.arx import ARXModel
from repro.control.mpc_core import MPCController
from repro.core import (
    ControllerConfig,
    PowerManager,
    ResponseTimeController,
)
from repro.core.controller.response_time_controller import (
    _MAX_HOLD_PERIODS,
    _MEASUREMENT_LIMIT_MS,
)
from repro.core.fleet import FleetControlStep
from repro.engine.scenario import builtin_registry
from repro.obs import InMemoryBackend, Telemetry, use_telemetry
from repro.service.runner import eventlog_hash_records as _eventlog_hash

#: Pinned fleet-vs-scalar tolerance for demand/state trajectories.
#: Stacked multi-RHS solves differ from single-RHS at the ~1 ulp level
#: per solve; over tens of closed (arbitrated, anti-windup) periods the
#: drift stays far below this.  Anything above it is a real divergence.
RTOL = 1e-9
ATOL = 1e-9

_MODEL = ARXModel(a=[0.4], b=[[-800.0, -300.0], [-100.0, -50.0]], g=1800.0)
_MODEL_B = ARXModel(a=[0.35], b=[[-700.0, -250.0], [-120.0, -60.0]], g=1700.0)


def _fleet_dc(n_apps):
    """n_apps two-tier apps spread over a pair of big hosts."""
    dc = DataCenter()
    dc.add_server(Server("T0", TESTBED_SERVER))
    dc.add_server(Server("T1", TESTBED_SERVER))
    for i in range(n_apps):
        web, db = f"app{i}-web", f"app{i}-db"
        for j, vm_id in enumerate((web, db)):
            dc.add_vm(VM(vm_id, app_id=f"app{i}", tier_index=j,
                         memory_mb=512, demand_ghz=0.8))
            dc.place(vm_id, f"T{j}")
        dc.add_application(Application(f"app{i}", [web, db]))
    return dc


def _controller(model=_MODEL, **cfg_overrides):
    cfg = ControllerConfig(**cfg_overrides)
    return ResponseTimeController(
        model, cfg,
        c_min=[0.2, 0.2], c_max=[3.0, 3.0], initial_alloc_ghz=[0.8, 0.8],
    )


def _build_manager(n_apps, control_mode, heterogeneous=False, **cfg_overrides):
    dc = _fleet_dc(n_apps)
    mgr = PowerManager(dc, control_mode=control_mode)
    for i in range(n_apps):
        model = _MODEL_B if (heterogeneous and i % 2) else _MODEL
        mgr.register_controller(
            f"app{i}", _controller(model, **cfg_overrides)
        )
    return dc, mgr


def _drive(mgr, n_apps, n_periods, seed=3, nan_for=()):
    """Deterministic measurement/usage sequences -> granted series."""
    rng = np.random.default_rng(seed)
    series = []
    for k in range(n_periods):
        meas, used = {}, {}
        for i in range(n_apps):
            rt = 600.0 + 150.0 * np.sin(k / 4.0 + i) + rng.normal(0.0, 20.0)
            if (i, k) in nan_for:
                rt = float("nan")
            meas[f"app{i}"] = rt
            used[f"app{i}"] = np.abs(rng.normal(0.5, 0.1, size=2))
        result = mgr.control_step(meas, used_ghz=used)
        series.append(np.concatenate(
            [result.granted_ghz[f"app{i}"] for i in range(n_apps)]
        ))
    return np.asarray(series)


class TestFleetScalarEquivalence:
    """Same inputs, both modes: demands match at the pinned tolerance."""

    def test_homogeneous_fleet_matches_scalar(self):
        out = {}
        for mode in ("scalar", "fleet"):
            _, mgr = _build_manager(6, mode)
            out[mode] = _drive(mgr, 6, 25)
        np.testing.assert_allclose(
            out["fleet"], out["scalar"], rtol=RTOL, atol=ATOL
        )

    def test_heterogeneous_models_group_and_match(self):
        out, mgrs = {}, {}
        for mode in ("scalar", "fleet"):
            _, mgr = _build_manager(6, mode, heterogeneous=True)
            out[mode] = _drive(mgr, 6, 20)
            mgrs[mode] = mgr
        np.testing.assert_allclose(
            out["fleet"], out["scalar"], rtol=RTOL, atol=ATOL
        )
        # Two model populations -> two MPC groups of three.
        assert mgrs["fleet"].last_fleet_stats["mpc_groups"] == [3, 3]

    def test_controller_state_dicts_match_across_modes(self):
        states = {}
        for mode in ("scalar", "fleet"):
            _, mgr = _build_manager(4, mode)
            _drive(mgr, 4, 15)
            states[mode] = [
                mgr.controllers[f"app{i}"].state_dict() for i in range(4)
            ]
        for sf, ss in zip(states["fleet"], states["scalar"]):
            assert sf.keys() == ss.keys()
            np.testing.assert_allclose(
                sf["t_hist"], ss["t_hist"], rtol=RTOL, atol=ATOL
            )
            np.testing.assert_allclose(
                sf["c_hist"], ss["c_hist"], rtol=RTOL, atol=ATOL
            )
            np.testing.assert_allclose(
                sf["bias"], ss["bias"], rtol=RTOL, atol=ATOL
            )
            assert sf["consecutive_missing"] == ss["consecutive_missing"]
            assert sf["held_updates"] == ss["held_updates"]


class TestEdgePathsBothModes:
    """PowerManager.control_step edge paths under fleet and scalar."""

    @pytest.mark.parametrize("mode", ["fleet", "scalar"])
    def test_unregistered_app_all_or_nothing(self, mode):
        dc, mgr = _build_manager(2, mode)
        before = {vm_id: vm.demand_ghz for vm_id, vm in dc.vms.items()}
        with pytest.raises(KeyError, match="ghost"):
            mgr.control_step({"app0": 900.0, "ghost": 500.0})
        after = {vm_id: vm.demand_ghz for vm_id, vm in dc.vms.items()}
        assert after == before  # nothing written before the abort

    def test_nan_hold_counter_parity(self):
        """NaN measurements under missing_policy=hold: identical hold
        decisions, counters, and demands in both modes."""
        nan_at = {(0, 3), (0, 4), (1, 7)}
        out, mgrs = {}, {}
        for mode in ("scalar", "fleet"):
            _, mgr = _build_manager(3, mode, missing_policy="hold")
            out[mode] = _drive(mgr, 3, 12, nan_for=nan_at)
            mgrs[mode] = mgr
        np.testing.assert_allclose(
            out["fleet"], out["scalar"], rtol=RTOL, atol=ATOL
        )
        for i in range(3):
            a = mgrs["fleet"].controllers[f"app{i}"]
            b = mgrs["scalar"].controllers[f"app{i}"]
            assert a.held_updates == b.held_updates
            assert a._consecutive_missing == b._consecutive_missing
        assert mgrs["fleet"].controllers["app0"].held_updates == 2
        assert mgrs["fleet"].controllers["app1"].held_updates == 1

    def test_hold_escalates_pessimistically_in_both_modes(self):
        """Past _MAX_HOLD_PERIODS the fleet must also fall back to the
        clamp-limit substitution, not keep holding."""
        for mode in ("scalar", "fleet"):
            _, mgr = _build_manager(1, mode, missing_policy="hold")
            nan_at = {(0, k) for k in range(2, 8)}
            _drive(mgr, 1, 8, nan_for=nan_at)
            ctrl = mgr.controllers["app0"]
            assert ctrl.held_updates == _MAX_HOLD_PERIODS, mode
            # Escalated periods consumed the pessimistic substitution.
            assert ctrl._t_hist[0] == _MEASUREMENT_LIMIT_MS, mode

    def test_used_ghz_band_guard_equivalence(self):
        """The utilization-band bounds tighten identically in both
        modes (used_ghz flows through prepare() untouched)."""
        out = {}
        for mode in ("scalar", "fleet"):
            _, mgr = _build_manager(4, mode, util_band=(0.75, 0.985))
            out[mode] = _drive(mgr, 4, 15, seed=11)
        np.testing.assert_allclose(
            out["fleet"], out["scalar"], rtol=RTOL, atol=ATOL
        )

    def test_invalid_control_mode_rejected(self):
        dc = _fleet_dc(1)
        with pytest.raises(ValueError, match="control_mode"):
            PowerManager(dc, control_mode="batched")


class TestFleetStepUnit:
    def test_held_apps_skip_the_solve_batch(self):
        ctrls = {
            "a": _controller(missing_policy="hold"),
            "b": _controller(missing_policy="hold"),
        }
        step = FleetControlStep(ctrls)
        demands, stats = step.run({"a": float("nan"), "b": 700.0})
        assert stats["held"] == 1 and stats["solved"] == 1
        np.testing.assert_array_equal(demands["a"], [0.8, 0.8])
        assert ctrls["a"].held_updates == 1
        assert ctrls["b"].last_solution is not None

    def test_registration_after_construction_is_picked_up(self):
        dc, mgr = _build_manager(1, "fleet")
        web, db = "app9-web", "app9-db"
        for j, vm_id in enumerate((web, db)):
            dc.add_vm(VM(vm_id, app_id="app9", tier_index=j,
                         memory_mb=512, demand_ghz=0.8))
            dc.place(vm_id, f"T{j}")
        dc.add_application(Application("app9", [web, db]))
        mgr.register_controller("app9", _controller())
        result = mgr.control_step({"app0": 800.0, "app9": 900.0})
        assert set(result.granted_ghz) == {"app0", "app9"}
        assert mgr.last_fleet_stats["mpc_groups"] == [2]


class TestFleetTelemetry:
    def test_batch_metrics_and_span_fields(self):
        backend = InMemoryBackend()
        with use_telemetry(Telemetry(backend), close=False) as tel:
            _, mgr = _build_manager(6, "fleet", heterogeneous=True)
            _drive(mgr, 6, 3)
            snap = tel.registry.snapshot()
        # Two model groups per step, three steps.
        assert snap["counters"]["controller.batch_groups"] == 6
        spans = [r for r in backend.of_kind("span")
                 if r["name"] == "manager.fleet_control"]
        assert len(spans) == 3, "one manager.fleet_control span per step"
        sizes = [size for s in spans for size in s["batch_group_sizes"]]
        assert sizes == [3] * 6
        assert spans[0]["batch_groups"] == 2
        assert spans[0]["held"] == 0
        # How the solves ended: the spans add up to the counter behind
        # the ledger's softened share.
        assert all("scalar" not in s for s in spans)
        assert sum(s["softened"] for s in spans) == (
            snap["counters"]["mpc.terminal_softened"]
        )
        assert snap["counters"]["mpc.solves"] == 18
        assert all(0 < s["unreachable"] <= s["softened"] for s in spans)
        for key in ("softened", "unreachable"):
            assert mgr.last_fleet_stats[key] == spans[-1][key]

    def test_span_counts_softened_and_unreachable_solves(self):
        """A 100 ms set point is out of reach of every app; app0 groups
        alone (its own model) and takes the same group path as the
        pair, so the span and the counters see all three."""
        backend = InMemoryBackend()
        with use_telemetry(Telemetry(backend), close=False) as tel:
            dc = _fleet_dc(3)
            mgr = PowerManager(dc, control_mode="fleet")
            for i in range(3):
                mgr.register_controller(
                    f"app{i}",
                    _controller(_MODEL if i else _MODEL_B, setpoint_ms=100.0),
                )
            _drive(mgr, 3, 2)
            snap = tel.registry.snapshot()
        spans = [r for r in backend.of_kind("span")
                 if r["name"] == "manager.fleet_control"]
        for span in spans:
            assert span["batch_group_sizes"] == [2, 1]
            assert (span["softened"], span["unreachable"]) == (3, 3)
            assert "scalar" not in span
        assert mgr.last_fleet_stats["softened"] == 3
        assert mgr.last_fleet_stats["unreachable"] == 3
        assert snap["counters"]["mpc.terminal_softened"] == 6
        assert snap["counters"]["mpc.solves"] == 6
        # The lone app emits no per-app span: only the scalar lane does.
        names = {r["name"] for r in backend.of_kind("span")}
        assert "mpc.solve" not in names

    def test_scalar_mode_emits_no_fleet_span(self):
        backend = InMemoryBackend()
        with use_telemetry(Telemetry(backend), close=False):
            _, mgr = _build_manager(2, "scalar")
            _drive(mgr, 2, 2)
        names = {r["name"] for r in backend.of_kind("span")}
        assert "manager.fleet_control" not in names
        assert "mpc.solve" in names


class TestBuiltinScenariosFleet:
    """Fleet mode over the builtin scenarios: runs, faults, resume."""

    def _spec(self, name):
        spec = builtin_registry().get(name)
        return dataclasses.replace(
            spec, params={**spec.params, "control_mode": "fleet"}
        )

    def _run(self, spec):
        mem = InMemoryBackend()
        with use_telemetry(Telemetry(mem)):
            engine, backend = spec.build()
            backend.start()
            engine.run()
            result = backend.result()
        return result, _eventlog_hash(mem.records)

    @pytest.mark.parametrize("name", ["testbed-small", "testbed-faulted"])
    def test_fleet_run_is_deterministic(self, name):
        spec = self._spec(name)
        res_a, hash_a = self._run(spec)
        res_b, hash_b = self._run(spec)
        assert hash_a == hash_b
        assert res_a.power_summary() == res_b.power_summary()

    @pytest.mark.parametrize("mode", ["fleet", "scalar"])
    def test_event_log_is_the_same_without_the_certificate(self, mode, monkeypatch):
        """The reachability certificate only skips solves that would
        have failed: with it answering "reachable" for everything (the
        old chain) a whole run logs the same events, in either lane."""
        spec = self._spec("testbed-small")
        spec = dataclasses.replace(spec, params={**spec.params, "control_mode": mode})
        decided = []
        certificate = MPCController._terminal_unreachable

        def recording(ctrl, asm):
            decided.append(certificate(ctrl, asm))
            return decided[-1]

        monkeypatch.setattr(MPCController, "_terminal_unreachable", recording)
        _, with_certificate = self._run(spec)
        assert 0 < sum(decided) < len(decided)  # the run had both kinds
        monkeypatch.setattr(
            MPCController, "_terminal_unreachable", lambda ctrl, asm: False
        )
        _, without = self._run(spec)
        assert with_certificate == without

    @pytest.mark.parametrize("name", ["testbed-small", "testbed-faulted"])
    def test_fleet_checkpoint_resume_bit_identical(self, name):
        """Replay-resume reproduces the uninterrupted fleet run exactly
        (the fleet path is deterministic within a process)."""
        spec = self._spec(name)
        _, full_hash = self._run(spec)

        split = InMemoryBackend()
        engine1, plant1 = spec.build()
        with use_telemetry(Telemetry(split)):
            plant1.start()
            engine1.run(until_period=5)
            doc = json.loads(json.dumps(engine1.checkpoint()))
        engine2, plant2 = spec.build()
        with use_telemetry(Telemetry(split)):
            engine2.restore(doc)
            assert engine2.k == 5
            engine2.run()
            plant2.result()
        assert _eventlog_hash(split.records) == full_hash
