"""Microbenchmarks of the hot primitives.

Not figure reproductions: these time the inner loops everything else is
built on, so performance regressions show up directly in CI history.
(The guides' rule — measure before optimizing — needs a baseline.)
"""

import numpy as np
import pytest

from repro.apps import AppSpec, MultiTierApp
from repro.control.arx import ARXModel
from repro.control.mpc_core import MPCConfig, MPCController
from repro.control.qp import solve_qp
from repro.core.controller import ControllerConfig, ResponseTimeController
from repro.core.fleet import FleetControlStep
from repro.core.optimizer.ipac import ipac
from repro.core.optimizer.minslack import MinSlackConfig, PlacementList
from repro.core.optimizer.types import PlacementProblem, ServerInfo, VMInfo
from repro.engine.largescale_backend import LargeScaleBackend
from repro.packing.mbs import minimum_bin_slack
from repro.sim.largescale import LargeScaleConfig
from repro.sim.testbed import TestbedConfig
from repro.traces import TraceConfig, generate_trace
from tests.oracles.mbs_reference import MemoryConstraint
from tests.oracles.mbs_reference import minimum_bin_slack as stepwise_minimum_bin_slack


def test_perf_des_request_throughput(benchmark):
    """Simulated seconds of a loaded 2-tier app per wall-clock call."""
    app = MultiTierApp(AppSpec.rubbos(), [0.8, 0.8], concurrency=40, rng=1)
    app.warmup(30.0)

    def run():
        return app.run_period(30.0).completed

    completed = benchmark(run)
    assert completed > 0


@pytest.mark.parametrize("clients", [10, 40, 80, 320])
def test_perf_plant_churn(benchmark, clients):
    """Request churn through one two-tier plant: 40 simulated seconds
    from a cold start at ``clients`` closed-loop clients.

    10 to 80 clients span the rigs (Fig. 4 tops out at 80; no benchmark
    workload queues more than 55 requests at a tier).  320 saturates the
    web tier, so its queue holds far more than 64 requests: the price of
    keeping remaining work in a Python list at every queue length.
    """

    def run():
        app = MultiTierApp(AppSpec.rubbos(), [0.8, 0.8], concurrency=clients, rng=0)
        app.run_period(20.0)
        longest = max(app.queue_lengths())
        return app.run_period(20.0).completed, longest

    completed, longest = benchmark(run)
    assert completed > 0
    assert longest > 64 or clients < 320


def test_perf_minimum_bin_slack(benchmark):
    """Algorithm 1 on a 60-item list with a memory constraint."""
    rng = np.random.default_rng(3)
    sizes = rng.uniform(0.1, 1.5, size=60)
    mems = rng.choice([512.0, 1024.0, 2048.0], size=60)

    def run():
        return minimum_bin_slack(
            list(sizes), 11.4, memory_sizes=list(mems), memory_capacity=16384.0,
            epsilon=0.05, max_steps=5000,
        )

    result = benchmark(run)
    assert result.slack <= 11.4


def test_perf_minimum_bin_slack_memory_bound(benchmark):
    """Algorithm 1 on the search that dominates a large-scale run: 260
    small VMs, a server with 2.7 GHz and 4 GiB free.  Memory runs out
    after a handful of VMs while more than half the CPU is still free,
    so most takes are leaves and only epsilon escalation ends the search.
    """
    rng = np.random.default_rng(5)
    sizes = rng.uniform(0.02, 0.27, size=260).tolist()
    mems = rng.choice([512.0, 1024.0, 1536.0, 2048.0], size=260).tolist()

    def run():
        return minimum_bin_slack(
            sizes, 2.7, memory_sizes=mems, memory_capacity=4096.0,
            epsilon=0.1, max_steps=3000,
        )

    ref = stepwise_minimum_bin_slack(
        sizes, 2.7, constraint=MemoryConstraint(mems, 4096.0), epsilon=0.1, max_steps=3000
    )
    result = run()
    assert (result.selected, result.slack, result.steps, result.epsilon_used,
            result.early_exit) == (ref.selected, ref.slack, ref.steps, ref.epsilon_used,
                                   ref.early_exit)
    assert result.steps > 3000  # epsilon escalated
    benchmark(run)


def test_perf_placement_list(benchmark):
    """Minimum Slack the way PAC drives it: one 2,000-VM placement list
    packed server by server, then 400 five-VM drain lists, each offered
    to servers of growing free capacity until it is empty.

    Most searches in a whole run are on short lists like the drains, so
    this times what each search pays besides the search itself.
    """
    rng = np.random.default_rng(4)
    demands = rng.uniform(0.1, 1.5, size=2000).tolist()
    memories = rng.choice([512.0, 1024.0, 2048.0], size=2000).tolist()
    vms = [VMInfo(f"vm{i:04d}", d, m) for i, (d, m) in enumerate(zip(demands, memories))]
    config = MinSlackConfig()

    def run():
        remaining = PlacementList(vms)
        searches = 0
        while remaining:
            chosen, _ = remaining.take_for_server(11.4, 16384.0, config)
            searches += 1
            assert chosen
        for start in range(0, len(vms), 5):
            drain = PlacementList(vms[start:start + 5])
            for free_ghz in (0.8, 1.6, 3.2, 6.4):
                if not drain:
                    break
                drain.take_for_server(free_ghz, 4096.0, config)
                searches += 1
        return searches

    assert benchmark(run) > 400


def test_perf_placement_list_memory_bound(benchmark):
    """PAC's tail as a ``sharded-pods`` pod runs it: one placement list
    of 1,100 small VMs (512-2,048 MB) offered to servers with 2.7 GHz and
    4 GiB free until it is empty.  Memory runs out after 3-4 VMs with
    most of the CPU still free, so nearly every take is a leaf, memory
    rejections come in long runs and only epsilon escalation ends each
    search.  Every take is first checked against the stepwise oracle.
    """
    rng = np.random.default_rng(6)
    demands = rng.uniform(0.02, 0.27, size=1100).tolist()
    memories = rng.choice([512.0, 1024.0, 1536.0, 2048.0], size=1100).tolist()
    vms = [VMInfo(f"vm{i:04d}", d, m) for i, (d, m) in enumerate(zip(demands, memories))]
    config = MinSlackConfig(epsilon_ghz=0.1, max_steps=3000)

    def run(takes=None):
        remaining = PlacementList(vms)
        searches = 0
        while remaining:
            offered = list(remaining.vms) if takes is not None else None
            _, result = remaining.take_for_server(2.7, 4096.0, config)
            searches += 1
            if takes is not None:
                takes.append((offered, result))
        return searches

    takes = []
    run(takes)
    for offered, result in takes:
        mems = [vm.memory_mb for vm in offered]
        ref = stepwise_minimum_bin_slack(
            [vm.demand_ghz for vm in offered], 2.7, constraint=MemoryConstraint(mems, 4096.0),
            epsilon=config.epsilon_ghz, max_steps=config.max_steps,
        )
        assert (result.selected, result.slack, result.steps, result.epsilon_used,
                result.early_exit) == (ref.selected, ref.slack, ref.steps, ref.epsilon_used,
                                       ref.early_exit)
    assert benchmark(run) > 250


def test_perf_ipac_invocation(benchmark):
    """One IPAC call on a 600-server, 1,800-VM cluster: the VMs sit on
    the first 300 servers at random (dozens of them overloaded), about
    100 are not placed yet, and the drain loop accepts dozens of rounds.

    Besides the Minimum Slack searches this times the per-server
    bookkeeping around them — loads, power estimates and plan — that
    IPAC pays in every drain round.
    """
    rng = np.random.default_rng(5)
    classes = [  # capacity GHz, memory MB, idle W, busy W
        (12.0, 16384.0, 110.0, 270.0),
        (8.0, 8192.0, 90.0, 220.0),
        (4.0, 4096.0, 70.0, 160.0),
    ]
    servers = []
    for j in range(600):
        cap, mem, idle, busy = classes[j % 3]
        servers.append(ServerInfo(
            f"s{j:04d}", cap, mem, cap / busy, bool(rng.random() < 0.6), idle, busy, 8.0
        ))
    demands = rng.uniform(0.0, 0.8, size=1800).tolist()
    memories = rng.choice([512.0, 1024.0, 2048.0], size=1800).tolist()
    vms = tuple(VMInfo(f"v{i:05d}", d, m) for i, (d, m) in enumerate(zip(demands, memories)))
    hosts = rng.integers(0, 300, size=1800)
    mapping = {
        vms[i].vm_id: servers[hosts[i]].server_id
        for i in rng.permutation(1800).tolist()
        if rng.random() < 0.95
    }
    problem = PlacementProblem(tuple(servers), vms, mapping)

    plan = benchmark(ipac, problem)
    assert plan.unplaced == []
    assert plan.info["overload_evictions"] > 0
    assert plan.info["drain_rounds_accepted"] >= 10


def test_perf_largescale_build(benchmark):
    """One large-scale build at the ``largescale-ipac`` shape: a
    5,415-series one-day trace, a 3,000-server pool of the three
    standard types and the backend's static views over both."""
    config = LargeScaleConfig(n_vms=5415, n_servers=3000, scheme="ipac", seed=0)

    def build():
        trace = generate_trace(TraceConfig(n_servers=5415, n_days=1), rng=0)
        return LargeScaleBackend(trace, config)

    backend = benchmark(build)
    assert (backend.n_vms, backend.n_srv, backend.n_steps) == (5415, 3000, 96)
    assert len(backend.spec_groups) == 3


def test_perf_mpc_solve(benchmark):
    """One full constrained MPC solve (the per-period controller cost)."""
    model = ARXModel(a=[0.4], b=[[-800.0, -300.0], [-100.0, -50.0]], g=1800.0)
    ctrl = MPCController(model, MPCConfig(r_weight=1e5, delta_max=0.3))
    t_hist = [1600.0]
    c_hist = np.array([[0.7, 0.6], [0.7, 0.6]])
    ref = np.linspace(1500.0, 1000.0, 8)

    def run():
        return ctrl.solve(t_hist, c_hist, ref, 1000.0, [0.1, 0.1], [3.0, 3.0])

    sol = benchmark(run)
    assert sol.qp.ok


def test_perf_qp_degenerate(benchmark):
    """The degenerate softened QP of ``tests/test_qp.py::TestDegenerate``
    (captured from period 1 of ``testbed-fleet``, seed 2010): a bound and
    a rate limit active on the same variable make the working set
    singular, so the solve goes on in least squares until a working set
    repeats (round 7), jumps to round 200 with the iterate that round
    would have had, and hands over to SLSQP.  The 48 period-1 solves of
    that workload take this path, so a slower solo round or cycle check
    shows up here first.
    """
    H = np.array([
        [7.1806571790513813e08, 3.8220602664313716e08,
         7.1374317770709872e08, 3.8001110401419854e08],
        [3.8220602664313716e08, 2.0369411200276637e08,
         3.8001110401419854e08, 2.0232549141555703e08],
        [7.1374317770709872e08, 3.8001110401419854e08,
         7.0991444202685213e08, 3.7786612478154206e08],
        [3.8001110401419848e08, 2.0232549141555703e08,
         3.7786612478154206e08, 2.0138346168869105e08],
    ])
    g = np.array([1.319194542334485e09, 7.023656738062528e08,
                  1.311661765239606e09, 6.983549795174069e08])
    first = np.hstack([np.eye(2), np.zeros((2, 2))])
    both = np.hstack([np.eye(2), np.eye(2)])
    A_ub = np.vstack([first, -first, both, -both, np.eye(4), -np.eye(4)])
    upper = [-0.30000000000000004, -0.30000000000000004]
    lower = [0.7868089964998505, 0.8]
    b_ub = np.array(upper + lower + upper + lower + [0.3] * 8)

    result = benchmark(solve_qp, H, g, A_ub=A_ub, b_ub=b_ub)
    # The timed path; a degeneracy-safe working set would end it early.
    assert (result.status, result.iterations) == ("infeasible", 200)


def test_perf_fleet_control_step(benchmark):
    """One fleet control period over 48 two-tier apps sharing the
    ``testbed-fleet`` workload's ARX model: 48 ``prepare`` calls, one
    grouped MPC solve and 48 ``finish`` calls.

    Every round starts from the same state — controllers warmed for four
    periods of light load, so their matrices are cached and their warm
    sets seeded — and runs the same measurements.
    """
    model = ARXModel(a=[0.00568], b=[[-188.31, -100.26], [0.0, 0.0]], g=340.24)
    tb = TestbedConfig()
    config = ControllerConfig(setpoint_ms=400.0, period_s=tb.control_period_s)
    controllers = {
        f"app{i}": ResponseTimeController(
            model, config,
            c_min=[tb.min_alloc_ghz] * 2,
            c_max=[tb.max_alloc_ghz] * 2,
            initial_alloc_ghz=[tb.initial_alloc_ghz] * 2,
        )
        for i in range(48)
    }
    step = FleetControlStep(controllers)
    rng = np.random.default_rng(6)

    def light_load():
        measurements = {app: float(rng.uniform(150.0, 350.0)) for app in controllers}
        used = {app: rng.uniform(0.1, 0.4, size=2) for app in controllers}
        return measurements, used

    for _ in range(4):
        step.run(*light_load())
    warm = {app: ctrl.state_dict() for app, ctrl in controllers.items()}
    args = light_load()

    def restore():
        for app, ctrl in controllers.items():
            ctrl.load_state_dict(warm[app])
        return args, {}

    demands, stats = benchmark.pedantic(step.run, setup=restore, rounds=50)
    assert len(demands) == 48
    assert stats["solved"] == 48 and stats["mpc_groups"] == [48]

