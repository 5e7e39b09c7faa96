"""Integrated power manager: control step plumbing and optimization."""

import numpy as np
import pytest

from repro.apps import AppSpec, MultiTierApp
from repro.cluster import Application, DataCenter, Server, VM
from repro.cluster.catalog import (
    SERVER_TYPE_A,
    SERVER_TYPE_B,
    SERVER_TYPE_C,
    TESTBED_SERVER,
)
from repro.control.arx import ARXModel
from repro.core import (
    ControllerConfig,
    PowerManager,
    ResponseTimeController,
)
from repro.core.optimizer import pmapper


def _dc_with_app(plant=None):
    dc = DataCenter()
    dc.add_server(Server("T0", TESTBED_SERVER))
    dc.add_server(Server("T1", TESTBED_SERVER))
    dc.add_vm(VM("a-web", app_id="a", tier_index=0, memory_mb=1024, demand_ghz=1.0))
    dc.add_vm(VM("a-db", app_id="a", tier_index=1, memory_mb=1024, demand_ghz=1.0))
    dc.place("a-web", "T0")
    dc.place("a-db", "T1")
    dc.add_application(Application("a", ["a-web", "a-db"], plant=plant))
    return dc


def _controller(model=None):
    model = model or ARXModel(a=[0.4], b=[[-800.0, -300.0], [-100.0, -50.0]], g=1800.0)
    return ResponseTimeController(
        model, ControllerConfig(util_band=None),
        c_min=[0.2, 0.2], c_max=[3.0, 3.0], initial_alloc_ghz=[1.0, 1.0],
    )


class TestControlStep:
    def test_updates_demands_and_allocations(self):
        dc = _dc_with_app()
        mgr = PowerManager(dc)
        mgr.register_controller("a", _controller())
        result = mgr.control_step({"a": 2000.0})
        # High RT -> more CPU demanded than the initial 1 GHz.
        assert dc.vms["a-web"].demand_ghz + dc.vms["a-db"].demand_ghz > 2.0
        assert "a" in result.granted_ghz
        # Granted equals demand (no contention on these big hosts).
        np.testing.assert_allclose(
            result.granted_ghz["a"],
            [dc.vms["a-web"].demand_ghz, dc.vms["a-db"].demand_ghz],
        )

    def test_dvfs_applied_to_servers(self):
        dc = _dc_with_app()
        mgr = PowerManager(dc)
        mgr.register_controller("a", _controller())
        mgr.control_step({"a": 1000.0})
        for server in dc.active_servers():
            assert server.freq_ghz in server.spec.cpu.freq_levels_ghz

    def test_empty_active_server_idles_at_min_frequency(self):
        dc = _dc_with_app()
        dc.add_server(Server("T2", TESTBED_SERVER))
        mgr = PowerManager(dc)
        mgr.register_controller("a", _controller())
        mgr.control_step({"a": 1000.0})
        assert dc.servers["T2"].freq_ghz == TESTBED_SERVER.cpu.min_freq_ghz

    def test_plant_receives_granted_allocations(self):
        plant = MultiTierApp(AppSpec.rubbos(), [1.0, 1.0], concurrency=10, rng=1)
        dc = _dc_with_app(plant=plant)
        mgr = PowerManager(dc)
        mgr.register_controller("a", _controller())
        result = mgr.control_step({"a": 1500.0})
        np.testing.assert_allclose(plant.allocations_ghz, result.granted_ghz["a"])

    def test_unregistered_app_rejected(self):
        dc = _dc_with_app()
        mgr = PowerManager(dc)
        with pytest.raises(KeyError):
            mgr.control_step({"a": 1000.0})

    def test_partial_measurements_leave_state_untouched(self):
        dc = _dc_with_app()
        mgr = PowerManager(dc)
        mgr.register_controller("a", _controller())
        with pytest.raises(KeyError):
            # "a" is registered but "ghost" is not: the step must refuse
            # up front rather than update "a" and then blow up.
            mgr.control_step({"a": 2000.0, "ghost": 500.0})
        assert dc.vms["a-web"].demand_ghz == 1.0
        assert dc.vms["a-db"].demand_ghz == 1.0

    def test_overloaded_server_rations_proportionally(self):
        # Both tiers of the app on one 4.8 GHz host, each demanding up
        # to 3 GHz: with a high response time the controller pushes the
        # total demand past capacity and the arbitrator must ration.
        dc = DataCenter()
        dc.add_server(Server("T0", TESTBED_SERVER))
        dc.add_vm(VM("a-web", app_id="a", tier_index=0, memory_mb=1024, demand_ghz=1.0))
        dc.add_vm(VM("a-db", app_id="a", tier_index=1, memory_mb=1024, demand_ghz=1.0))
        dc.place("a-web", "T0")
        dc.place("a-db", "T0")
        dc.add_application(Application("a", ["a-web", "a-db"]))
        mgr = PowerManager(dc)
        ctrl = ResponseTimeController(
            ARXModel(a=[0.4], b=[[-800.0, -300.0], [-100.0, -50.0]], g=1800.0),
            ControllerConfig(util_band=None),
            c_min=[3.0, 3.0], c_max=[3.0, 3.0], initial_alloc_ghz=[3.0, 3.0],
        )
        mgr.register_controller("a", ctrl)
        result = mgr.control_step({"a": 5000.0})
        assert "T0" in result.overloaded_servers
        granted = result.granted_ghz["a"]
        cap = dc.servers["T0"].max_capacity_ghz
        # Rationed grants fill the server exactly and stay below demand.
        assert np.sum(granted) == pytest.approx(cap)
        assert np.all(granted < 3.0)
        # Equal demands are scaled equally.
        assert granted[0] == pytest.approx(granted[1])
        # The host runs flat out while oversubscribed.
        assert dc.servers["T0"].freq_ghz == max(TESTBED_SERVER.cpu.freq_levels_ghz)

    def test_register_checks_tier_count(self):
        dc = _dc_with_app()
        mgr = PowerManager(dc)
        bad_model = ARXModel(a=[0.4], b=[[-800.0]], g=1800.0)  # one input
        bad = ResponseTimeController(
            bad_model, ControllerConfig(util_band=None),
            c_min=[0.2], c_max=[3.0], initial_alloc_ghz=[1.0],
        )
        with pytest.raises(ValueError):
            mgr.register_controller("a", bad)

    def test_register_unknown_app_rejected(self):
        dc = _dc_with_app()
        mgr = PowerManager(dc)
        with pytest.raises(KeyError):
            mgr.register_controller("ghost", _controller())


class TestOptimize:
    def test_default_ipac_consolidates(self):
        dc = DataCenter()
        dc.add_server(Server("big", SERVER_TYPE_A))
        dc.add_server(Server("small", SERVER_TYPE_B))
        dc.add_vm(VM("v1", memory_mb=512, demand_ghz=0.5))
        dc.add_vm(VM("v2", memory_mb=512, demand_ghz=0.5))
        dc.place("v1", "big")
        dc.place("v2", "small")
        mgr = PowerManager(dc)
        power_before = dc.total_power_w()
        plan = mgr.optimize()
        # Both VMs consolidate onto one host; the other sleeps.  (At this
        # low load IPAC's power-estimate acceptance picks the type-B host:
        # its 95 W idle beats type A's 180 W despite the lower full-load
        # efficiency.)
        host = dc.server_of("v1")
        assert dc.server_of("v2") == host
        other = "small" if host == "big" else "big"
        assert not dc.servers[other].active
        assert dc.total_power_w() < power_before
        assert plan.n_moves >= 1
        assert len(dc.migration_log) == plan.n_moves

    def test_custom_optimizer_pluggable(self):
        dc = DataCenter()
        dc.add_server(Server("big", SERVER_TYPE_A))
        dc.add_vm(VM("v1", memory_mb=512, demand_ghz=0.5))
        mgr = PowerManager(dc, optimizer=pmapper)
        plan = mgr.optimize()
        assert dc.server_of("v1") == "big"
        assert plan.unplaced == []

    def test_optimize_wakes_servers_when_needed(self):
        dc = DataCenter()
        dc.add_server(Server("asleep", SERVER_TYPE_A, active=False))
        dc.add_vm(VM("v1", memory_mb=512, demand_ghz=0.5))
        mgr = PowerManager(dc)
        mgr.optimize()
        assert dc.servers["asleep"].active
        assert dc.server_of("v1") == "asleep"


class TestEmergencyEvacuate:
    def _crashed_cluster(self):
        """T1 crashes; the only survivor and the only sleeper are both
        too small (CPU capacity) to absorb the 4 GHz evicted VMs."""
        dc = DataCenter()
        dc.add_server(Server("T0", TESTBED_SERVER))  # 4.8 GHz max
        dc.add_server(Server("T1", TESTBED_SERVER))
        dc.add_server(Server("T2", SERVER_TYPE_C, active=False))  # 3.0 GHz max
        dc.add_vm(VM("keep", memory_mb=1024, demand_ghz=4.0))
        dc.place("keep", "T0")
        for vm_id in ("v-a", "v-b"):
            dc.add_vm(VM(vm_id, memory_mb=1024, demand_ghz=4.0))
            dc.place(vm_id, "T1")
        return dc, PowerManager(dc)

    def test_unplaceable_vms_reported_not_dropped(self):
        from repro.obs import InMemoryBackend, Telemetry, use_telemetry

        dc, mgr = self._crashed_cluster()
        backend = InMemoryBackend()
        evicted = dc.fail_server("T1")
        assert sorted(evicted) == ["v-a", "v-b"]
        with use_telemetry(Telemetry(backend)):
            plan = mgr.emergency_evacuate("T1", evicted, time_s=42.0)
        # Nowhere to go: both VMs stay unplaced in the returned plan...
        assert sorted(plan.unplaced) == ["v-a", "v-b"]
        # ...but survive in the inventory (homeless, not deleted).
        for vm_id in ("v-a", "v-b"):
            assert vm_id in dc.vms
            assert dc.server_of(vm_id) is None
        # The untouched survivor keeps its placement; nothing was woken
        # (the sleeper cannot hold these VMs either).
        assert dc.server_of("keep") == "T0"
        assert not dc.servers["T2"].active
        # The telemetry event carries the unplaced list for operators.
        events = [r for r in backend.records if r.get("kind") == "evacuation"]
        assert len(events) == 1
        assert sorted(events[0]["unplaced"]) == ["v-a", "v-b"]
        assert events[0]["server"] == "T1"

    def test_partial_placement_places_what_fits(self):
        dc, mgr = self._crashed_cluster()
        # Shrink one VM so it fits the sleeping type-C host (3 GHz).
        dc.vms["v-b"].demand_ghz = 1.0
        evicted = dc.fail_server("T1")
        plan = mgr.emergency_evacuate("T1", evicted, time_s=42.0)
        assert plan.unplaced == ["v-a"]
        assert dc.server_of("v-b") is not None
        assert dc.server_of("v-a") is None
