"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

# The pinned event-log hashes and the fleet-vs-scalar tolerances hold for
# single-threaded BLAS only: a multi-threaded OpenBLAS splits reductions
# differently and moves the last bits.  Must run before numpy is imported.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest

from repro.control.arx import ARXModel
from repro.core.optimizer.types import PlacementProblem, ServerInfo, VMInfo


@pytest.fixture
def rng():
    """A deterministic generator; reseed per test for isolation."""
    return np.random.default_rng(12345)


@pytest.fixture
def simple_arx():
    """A stable two-input ARX model with negative gains (response-time-like)."""
    return ARXModel(a=[0.4], b=[[-800.0, -300.0], [-100.0, -50.0]], g=1800.0)


def make_server_info(
    server_id: str,
    capacity: float = 8.0,
    memory: float = 8192.0,
    efficiency: float = 0.04,
    active: bool = True,
    idle_w: float = 100.0,
    busy_w: float = 200.0,
    sleep_w: float = 8.0,
) -> ServerInfo:
    """Terse ServerInfo factory for optimizer tests."""
    return ServerInfo(
        server_id=server_id,
        max_capacity_ghz=capacity,
        memory_mb=memory,
        efficiency=efficiency,
        active=active,
        idle_w=idle_w,
        busy_w=busy_w,
        sleep_w=sleep_w,
    )


def make_vm_info(vm_id: str, demand: float = 1.0, memory: float = 1024.0) -> VMInfo:
    """Terse VMInfo factory for optimizer tests."""
    return VMInfo(vm_id=vm_id, demand_ghz=demand, memory_mb=memory)


@pytest.fixture
def heterogeneous_problem():
    """Three server classes with distinct efficiencies, six VMs, unplaced."""
    servers = (
        make_server_info("sA", capacity=12.0, memory=16384, efficiency=0.040),
        make_server_info("sB", capacity=4.0, memory=8192, efficiency=0.027, active=False),
        make_server_info("sC", capacity=3.0, memory=4096, efficiency=0.022, active=False),
    )
    vms = tuple(
        make_vm_info(f"vm{i}", demand=d, memory=m)
        for i, (d, m) in enumerate(
            [(1.5, 2048), (1.0, 1024), (0.8, 1024), (0.5, 512), (0.4, 512), (0.3, 512)]
        )
    )
    return PlacementProblem(servers=servers, vms=vms, mapping={})


def check_plan_feasible(problem: PlacementProblem, plan) -> None:
    """Assert a placement plan respects CPU and memory capacities."""
    for sid in set(plan.final_mapping.values()):
        server = problem.server_by_id(sid)
        vms = [v for v in problem.vms if plan.final_mapping.get(v.vm_id) == sid]
        load = sum(v.demand_ghz for v in vms)
        mem = sum(v.memory_mb for v in vms)
        assert load <= server.max_capacity_ghz + 1e-9, (
            f"{sid} CPU overcommitted: {load} > {server.max_capacity_ghz}"
        )
        assert mem <= server.memory_mb + 1e-9, (
            f"{sid} memory overcommitted: {mem} > {server.memory_mb}"
        )
