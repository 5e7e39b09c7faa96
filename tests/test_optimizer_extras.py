"""Optimizer extras: the exhaustive oracle, on-demand relief, and
near-optimality evidence for the heuristics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizer import (
    OnDemandConfig,
    PlacementProblem,
    ipac,
    pac,
    relieve_overloads,
)

from tests.conftest import check_plan_feasible, make_server_info, make_vm_info
from tests.oracles.exhaustive import optimal_placement_power, placement_power_w


class TestOracle:
    def test_single_server_trivial(self):
        servers = (make_server_info("s", capacity=4.0),)
        vms = (make_vm_info("v", 1.0, 100),)
        power, mapping = optimal_placement_power(PlacementProblem(servers, vms, {}))
        assert mapping == {"v": "s"}
        assert power == pytest.approx(100.0 + 100.0 * (1.0 / 4.0))

    def test_prefers_consolidation(self):
        servers = (
            make_server_info("a", capacity=4.0),
            make_server_info("b", capacity=4.0),
        )
        vms = (make_vm_info("v1", 1.0, 100), make_vm_info("v2", 1.0, 100))
        power, mapping = optimal_placement_power(PlacementProblem(servers, vms, {}))
        assert len(set(mapping.values())) == 1  # one idle cost beats two

    def test_infeasible_returns_none(self):
        servers = (make_server_info("s", capacity=1.0),)
        vms = (make_vm_info("v", 5.0, 100),)
        power, mapping = optimal_placement_power(PlacementProblem(servers, vms, {}))
        assert mapping is None
        assert power == float("inf")

    def test_memory_respected(self):
        servers = (
            make_server_info("small", capacity=8.0, memory=1000.0),
            make_server_info("big", capacity=8.0, memory=8000.0, efficiency=0.02),
        )
        vms = (make_vm_info("v", 1.0, 2000.0),)
        _, mapping = optimal_placement_power(PlacementProblem(servers, vms, {}))
        assert mapping == {"v": "big"}

    def test_state_guard(self):
        servers = tuple(make_server_info(f"s{i}") for i in range(10))
        vms = tuple(make_vm_info(f"v{j}", 0.1, 10) for j in range(10))
        with pytest.raises(ValueError):
            optimal_placement_power(
                PlacementProblem(servers, vms, {}), max_states=100
            )

    def test_placement_power_sleepers_flag(self):
        servers = (
            make_server_info("a", capacity=4.0, sleep_w=8.0),
            make_server_info("b", capacity=4.0, sleep_w=8.0),
        )
        vms = (make_vm_info("v", 1.0, 100),)
        problem = PlacementProblem(servers, vms, {})
        mapping = {"v": "a"}
        without = placement_power_w(problem, mapping, include_sleepers=False)
        with_sleep = placement_power_w(problem, mapping, include_sleepers=True)
        assert with_sleep == pytest.approx(without + 8.0)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_heuristics_near_optimal_on_tiny_instances(self, data):
        """Never better than the oracle (oracle sanity), and IPAC — whose
        drain loop accepts moves by the true power estimate — lands within
        50% of the brute-force optimum.  PAC alone only guarantees
        feasibility: the paper's efficiency metric (max capacity / max
        power) is blind to idle power, so adversarial idle draws can make
        efficiency-first packing arbitrarily suboptimal — a documented
        property of the heuristic, not a bug.

        Servers here have a fixed idle fraction (idle = 0.6 busy) and
        efficiency consistent with their power fields, the regime the
        paper's metric is designed for."""
        n_srv = data.draw(st.integers(2, 3))
        n_vms = data.draw(st.integers(2, 5))
        cap_bands = [(8.0, 10.0), (4.0, 5.5), (2.5, 3.2)]
        servers = []
        for i in range(n_srv):
            capacity = data.draw(st.floats(*cap_bands[i]))
            busy_w = data.draw(st.floats(150.0, 250.0))
            servers.append(make_server_info(
                f"s{i}",
                capacity=capacity,
                efficiency=capacity / busy_w,
                idle_w=0.6 * busy_w,
                busy_w=busy_w,
            ))
        servers = tuple(servers)
        vms = tuple(
            make_vm_info(f"v{j}", demand=data.draw(st.floats(0.2, 1.2)), memory=256.0)
            for j in range(n_vms)
        )
        problem = PlacementProblem(servers, vms, {})
        best_power, best_mapping = optimal_placement_power(problem)
        if best_mapping is None:
            return
        for name, algo in (("pac", lambda p: pac(p)), ("ipac", lambda p: ipac(p))):
            plan = algo(problem)
            if plan.unplaced:
                continue
            power = placement_power_w(problem, plan.final_mapping)
            assert power >= best_power - 1e-9, f"{name} beat the oracle?!"
            if name == "ipac":
                assert power <= best_power * 1.5 + 1e-9


class TestOnDemandRelief:
    def _overloaded_problem(self):
        servers = (
            make_server_info("hot", capacity=4.0, efficiency=0.03),
            make_server_info("cool", capacity=8.0, efficiency=0.04),
            make_server_info("asleep", capacity=8.0, efficiency=0.05, active=False),
        )
        vms = (
            make_vm_info("v1", 2.0, 512),
            make_vm_info("v2", 1.5, 512),
            make_vm_info("v3", 1.2, 512),
            make_vm_info("v4", 0.5, 512),
        )
        mapping = {"v1": "hot", "v2": "hot", "v3": "hot", "v4": "cool"}
        return PlacementProblem(servers, vms, mapping)

    def test_relieves_overload(self):
        problem = self._overloaded_problem()  # hot carries 4.7 > 4.0
        plan = relieve_overloads(problem)
        loads = {}
        for vm_id, sid in plan.final_mapping.items():
            loads[sid] = loads.get(sid, 0.0) + problem.vm_by_id(vm_id).demand_ghz
        assert loads["hot"] <= 4.0 * 0.9 + 1e-9
        check_plan_feasible(problem, plan)

    def test_prefers_active_receiver(self):
        problem = self._overloaded_problem()
        plan = relieve_overloads(problem)
        # 'cool' has plenty of room; nothing should wake 'asleep'.
        assert plan.wake == []

    def test_wakes_only_when_necessary(self):
        servers = (
            make_server_info("hot", capacity=4.0),
            make_server_info("asleep", capacity=8.0, active=False),
        )
        vms = (make_vm_info("v1", 3.0, 512), make_vm_info("v2", 1.5, 512))
        problem = PlacementProblem(servers, vms, {"v1": "hot", "v2": "hot"})
        plan = relieve_overloads(problem)
        assert plan.wake == ["asleep"]
        check_plan_feasible(problem, plan)

    def test_wake_disabled_leaves_unplaced(self):
        servers = (
            make_server_info("hot", capacity=4.0),
            make_server_info("asleep", capacity=8.0, active=False),
        )
        vms = (make_vm_info("v1", 3.0, 512), make_vm_info("v2", 1.5, 512))
        problem = PlacementProblem(servers, vms, {"v1": "hot", "v2": "hot"})
        plan = relieve_overloads(problem, OnDemandConfig(allow_wake=False))
        assert plan.wake == []
        assert plan.unplaced  # nowhere to go

    def test_noop_when_no_overload(self):
        servers = (make_server_info("s", capacity=8.0),)
        vms = (make_vm_info("v", 1.0, 512),)
        problem = PlacementProblem(servers, vms, {"v": "s"})
        plan = relieve_overloads(problem)
        assert plan.migrations == []
        assert plan.final_mapping == {"v": "s"}

    def test_never_sleeps_servers(self):
        problem = self._overloaded_problem()
        plan = relieve_overloads(problem)
        assert plan.sleep == []

    def test_evicts_smallest_sufficient_set(self):
        problem = self._overloaded_problem()
        plan = relieve_overloads(problem)
        # v1 (largest) stays; smaller VMs moved first.
        assert plan.final_mapping["v1"] == "hot"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OnDemandConfig(target_utilization=0.95, overload_utilization=0.9)


class TestLargeScaleRelief:
    def test_relief_reduces_overload_steps(self):
        from repro.engine.largescale_backend import run_largescale
        from repro.sim.largescale import LargeScaleConfig
        from repro.traces import TraceConfig, generate_trace

        trace = generate_trace(
            TraceConfig(n_servers=80, n_days=1, spike_probability=0.01), rng=13
        )
        base = dict(n_vms=80, n_servers=120, scheme="ipac", seed=3,
                    optimize_every_steps=48)
        without = run_largescale(trace, LargeScaleConfig(**base))
        with_relief = run_largescale(
            trace, LargeScaleConfig(ondemand_relief=True, **base)
        )
        assert with_relief.overload_server_steps <= without.overload_server_steps
        if without.overload_server_steps:
            assert with_relief.info["relief_moves"] > 0
