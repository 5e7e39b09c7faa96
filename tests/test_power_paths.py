"""One power and DVFS model on every path.

The large-scale plant (and every sharded pod, which runs it) must charge
each hosting server exactly what that server's own model says at the
DVFS level the testbed arbitrator would choose: a measured power curve
is not linearized between its end points, and a throttled server picks
the same level on both paths.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import CPUSpec, MeasuredPowerCurve, Server, ServerPowerModel, ServerSpec
from repro.cluster.catalog import STANDARD_SERVER_TYPES, make_server_pool
from repro.core.arbitrator import CPUResourceArbitrator
from repro.engine import largescale_backend
from repro.engine.kernel import PeriodContext
from repro.engine.largescale_backend import LargeScaleBackend, run_largescale
from repro.engine.sharded_backend import ShardedConfig, run_sharded
from repro.faults import FaultEvent, FaultSchedule
from repro.sim.largescale import LargeScaleConfig
from repro.traces.generator import TraceConfig, generate_trace
from repro.traces.trace import UtilizationTrace

# The paper's three CPU types with concave SPECpower-style curves.
MEASURED_TYPES = tuple(
    replace(
        spec,
        name=f"m-{spec.name}",
        power=MeasuredPowerCurve.spec2008_like(
            spec.power.busy_w, sleep_w=spec.power.sleep_w
        ),
    )
    for spec in STANDARD_SERVER_TYPES
)

_SEED = 5
# The pool both runs draw (the sharded parent draws it from seed + 1).
_POOL = make_server_pool(
    40, MEASURED_TYPES, rng=np.random.default_rng(_SEED + 1),
    type_weights=LargeScaleConfig().type_weights,
)
# Throttle every server (the optimizer would route around a few).
_THROTTLE = FaultSchedule(
    events=tuple(
        FaultEvent(time_s=1800.0, kind="thermal_throttle", target=s.server_id,
                   duration_s=43200.0, fraction=(0.6, 0.8, 0.95)[i % 3])
        for i, s in enumerate(_POOL)
    ),
    seed=3,
)


def _record_actuate(monkeypatch):
    """Wrap ``LargeScaleBackend.actuate`` to keep each step's inputs."""
    steps = []
    actuate = LargeScaleBackend.actuate

    def recording(self, ctx):
        actuate(self, ctx)
        steps.append((
            self, ctx.k, self.assignment.copy(),
            np.array(ctx.data["demand_now"]), self.srv_frac.copy(),
        ))

    monkeypatch.setattr(LargeScaleBackend, "actuate", recording)
    return steps


def _testbed_power(backend, assignment, demand, frac):
    """Sum of ``Server.power_w`` over the hosting servers, each at the
    frequency the testbed's arbitrator picks for its load."""
    placed = assignment >= 0
    loads = np.bincount(
        assignment[placed], weights=demand[placed], minlength=backend.n_srv
    )
    arbitrator = CPUResourceArbitrator(backend.config.arbitrator_headroom)
    draws = []
    for i in np.unique(assignment[placed]):
        template = backend.server_list[i]
        server = Server(template.server_id, template.spec)
        if frac[i] < 1.0:
            server.throttle(frac[i])
        if backend.dvfs_on:
            arbitrator.arbitrate(server, {"load": loads[i]})
        draws.append(server.power_w(loads[i]))
    return math.fsum(draws)


def _check_steps(steps):
    """Every recorded step's reported power equals the testbed sum;
    returns the per-step expected datacenter power."""
    expected = {}
    for backend, k, assignment, demand, frac in steps:
        want = _testbed_power(backend, assignment, demand, frac)
        assert backend.power_series[k] == pytest.approx(want, rel=1e-12), k
        expected[k] = expected.get(k, 0.0) + want
    return expected


@pytest.fixture(scope="module")
def trace():
    return generate_trace(TraceConfig(n_servers=40, n_days=1), rng=13)


class TestMeasuredPoolReportsItsOwnPower:
    @pytest.mark.parametrize("scheme", ["ipac", "pmapper"])
    @pytest.mark.parametrize("faults", [None, _THROTTLE])
    def test_largescale(self, monkeypatch, trace, scheme, faults):
        config = LargeScaleConfig(
            n_vms=30, n_servers=40, seed=_SEED, scheme=scheme, faults=faults
        )
        steps = _record_actuate(monkeypatch)
        result = run_largescale(trace, config, servers=_POOL)
        assert len(steps) == result.n_steps
        _check_steps(steps)
        if faults is not None:
            # The throttle path was exercised: a throttled server hosted.
            assert any((frac[a[a >= 0]] < 1.0).any() for _, _, a, _, frac in steps)

    def test_sharded_pods(self, monkeypatch, trace):
        # Sharded runs draw their pool from the standard catalog in
        # draw_population; swap in the measured curves (same CPUs, same
        # memory) for this run.
        monkeypatch.setattr(largescale_backend, "STANDARD_SERVER_TYPES", MEASURED_TYPES)
        config = ShardedConfig(
            base=LargeScaleConfig(
                n_vms=30, n_servers=40, seed=_SEED, faults=_THROTTLE
            ),
            n_pods=2, workers=1, sync_every_steps=8,
        )
        steps = _record_actuate(monkeypatch)
        result = run_sharded(trace, config)
        assert len({id(backend) for backend, *_ in steps}) == 2
        expected = _check_steps(steps)
        assert sorted(expected) == list(range(result.n_steps))
        for k, want in expected.items():
            assert result.power_series_w[k] == pytest.approx(want, rel=1e-12)


@st.composite
def _cpus(draw):
    levels = draw(st.lists(
        st.floats(0.3, 4.0), min_size=1, max_size=6, unique=True,
    ).map(sorted).filter(
        lambda fs: all(b - a > 1e-6 for a, b in zip(fs, fs[1:]))
    ))
    return CPUSpec("drawn", draw(st.integers(1, 8)), tuple(levels))


class TestDVFSLevelAgrees:
    @settings(max_examples=150, deadline=None)
    @given(
        cpu=_cpus(),
        load_share=st.floats(0.0, 1.3),
        throttle=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
        headroom=st.floats(0.1, 1.0),
    )
    def test_arbitrator_and_actuate_pick_one_level(
        self, cpu, load_share, throttle, headroom
    ):
        spec = ServerSpec(
            "drawn", cpu, 8192, ServerPowerModel(5.0, 100.0, 200.0)
        )
        demand = load_share * cpu.max_capacity_ghz

        server = Server("S0", spec)
        server.throttle(throttle)
        CPUResourceArbitrator(headroom).arbitrate(server, {"v": demand})

        backend = LargeScaleBackend(
            UtilizationTrace(np.zeros((1, 1))),
            LargeScaleConfig(
                n_vms=1, n_servers=1, arbitrator_headroom=headroom,
                faults=FaultSchedule(),
            ),
            servers=[Server("S0", spec)],
        )
        backend.srv_frac[0] = throttle
        backend.assignment[0] = 0
        seen = []

        class Recording(ServerPowerModel):
            def power_w(self, freq_ratio, utilization):
                seen.append(freq_ratio)
                return super().power_w(freq_ratio, utilization)

        recording = Recording(5.0, 100.0, 200.0)
        backend.spec_groups = [(idx, replace(s, power=recording))
                               for idx, s in backend.spec_groups]
        backend.actuate(PeriodContext(
            k=0, time_s=0.0, period_s=900.0,
            data={"demand_now": np.array([demand])},
        ))
        (ratio,) = seen
        chosen = ratio[0] * cpu.max_freq_ghz
        levels = np.asarray(cpu.freq_levels_ghz)
        assert levels[np.argmin(np.abs(levels - chosen))] == server.freq_ghz
        assert chosen == pytest.approx(server.freq_ghz, rel=1e-12)
