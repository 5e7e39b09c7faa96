"""Cluster model: power, servers, VMs, migration, the data center."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    CPU_2GHZ_DUAL,
    CPU_3GHZ_QUAD,
    DataCenter,
    LiveMigrationModel,
    MeasuredPowerCurve,
    SERVER_TYPE_A,
    SERVER_TYPE_B,
    SERVER_TYPE_C,
    Server,
    ServerPowerModel,
    ServerSpec,
    VM,
    Application,
    CPUSpec,
    make_server_pool,
)
from tests.oracles.server_pool_reference import make_server_pool as reference_pool


class TestPowerModel:
    def test_endpoints(self):
        pm = ServerPowerModel(sleep_w=5.0, idle_w=100.0, busy_w=200.0)
        assert pm.active_power_w(1.0, 0.0) == pytest.approx(100.0)
        assert pm.active_power_w(1.0, 1.0) == pytest.approx(200.0)
        assert pm.sleep_power_w() == 5.0

    def test_lower_frequency_saves_power_at_equal_utilization(self):
        pm = ServerPowerModel(sleep_w=5.0, idle_w=100.0, busy_w=200.0)
        assert pm.active_power_w(0.5, 0.8) < pm.active_power_w(1.0, 0.8)

    def test_dvfs_cubic_scaling(self):
        pm = ServerPowerModel(sleep_w=0.0, idle_w=100.0, busy_w=200.0,
                              dvfs_exponent=3.0, idle_dvfs_fraction=0.0)
        # Dynamic part scales with ratio^3.
        dyn_full = pm.active_power_w(1.0, 1.0) - pm.active_power_w(1.0, 0.0)
        dyn_half = pm.active_power_w(0.5, 1.0) - pm.active_power_w(0.5, 0.0)
        assert dyn_half / dyn_full == pytest.approx(0.125)

    def test_monotone_in_utilization(self):
        pm = ServerPowerModel(sleep_w=5.0, idle_w=100.0, busy_w=200.0)
        powers = [pm.active_power_w(0.8, u) for u in np.linspace(0, 1, 11)]
        assert all(b >= a for a, b in zip(powers, powers[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            ServerPowerModel(sleep_w=5.0, idle_w=200.0, busy_w=100.0)
        with pytest.raises(ValueError):
            ServerPowerModel(sleep_w=500.0, idle_w=100.0, busy_w=200.0)
        pm = ServerPowerModel(sleep_w=5.0, idle_w=100.0, busy_w=200.0)
        with pytest.raises(ValueError):
            pm.active_power_w(1.5, 0.5)
        with pytest.raises(ValueError):
            pm.active_power_w(0.5, -0.1)

    @settings(max_examples=30, deadline=None)
    @given(ratio=st.floats(0.1, 1.0), util=st.floats(0.0, 1.0))
    def test_power_within_physical_envelope(self, ratio, util):
        pm = ServerPowerModel(sleep_w=5.0, idle_w=100.0, busy_w=220.0)
        p = pm.active_power_w(ratio, util)
        assert 0 < p <= 220.0 + 1e-9

    def test_measured_curve_checks_its_frequency_parameters(self):
        with pytest.raises(ValueError, match="dvfs_exponent"):
            MeasuredPowerCurve((0.0, 1.0), (100.0, 200.0), 5.0, dvfs_exponent=-2.0)
        with pytest.raises(ValueError, match="idle_dvfs_fraction"):
            MeasuredPowerCurve((0.0, 1.0), (100.0, 200.0), 5.0, idle_dvfs_fraction=1.7)


@st.composite
def _power_models(draw):
    exponent = draw(st.floats(0.5, 4.0))
    k_idle = draw(st.floats(0.0, 1.0))
    idle = draw(st.floats(20.0, 300.0))
    if draw(st.booleans()):
        busy = idle + draw(st.floats(0.0, 300.0))
        return ServerPowerModel(5.0, idle, busy, exponent, k_idle)
    steps = draw(st.lists(st.floats(0.0, 40.0), min_size=1, max_size=10))
    watts = tuple(idle + sum(steps[:i]) for i in range(len(steps) + 1))
    loads = tuple(i / len(steps) for i in range(len(steps) + 1))
    return MeasuredPowerCurve(loads, watts, 5.0, exponent, k_idle)


class TestArrayPowerForm:
    @settings(max_examples=100, deadline=None)
    @given(
        model=_power_models(),
        points=st.lists(
            st.tuples(st.floats(0.05, 1.0), st.floats(0.0, 1.0)),
            min_size=1, max_size=20,
        ),
    )
    def test_array_form_equals_scalar_form(self, model, points):
        ratios = np.array([r for r, _ in points])
        utils = np.array([u for _, u in points])
        scalar = [model.active_power_w(r, u) for r, u in points]
        # NumPy's vector ``**`` may round an ulp away from Python's.
        np.testing.assert_allclose(model.power_w(ratios, utils), scalar, rtol=1e-13)


class TestCPUSpec:
    def test_capacity(self):
        assert CPU_3GHZ_QUAD.max_capacity_ghz == pytest.approx(12.0)
        assert CPU_2GHZ_DUAL.capacity_at(1.0) == pytest.approx(2.0)

    def test_lowest_level_for(self):
        cpu = CPUSpec("x", 2, (1.0, 1.5, 2.0))
        assert cpu.lowest_level_for(1.9) == 1.0   # 2 cores x 1.0 = 2.0 >= 1.9
        assert cpu.lowest_level_for(2.5) == 1.5
        assert cpu.lowest_level_for(3.9) == 2.0
        assert cpu.lowest_level_for(99.0) == 2.0  # saturates at max
        demands = np.array([1.9, 2.5, 3.9, 99.0])
        assert cpu.lowest_level_for(demands).tolist() == [1.0, 1.5, 2.0, 2.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            CPUSpec("x", 0, (1.0,))
        with pytest.raises(ValueError):
            CPUSpec("x", 2, ())
        with pytest.raises(ValueError):
            CPUSpec("x", 2, (2.0, 1.0))


class TestServer:
    def test_initial_state(self):
        s = Server("s1", SERVER_TYPE_A)
        assert s.active
        assert s.freq_ghz == SERVER_TYPE_A.cpu.max_freq_ghz
        assert s.capacity_ghz == pytest.approx(12.0)

    def test_sleep_wake(self):
        s = Server("s1", SERVER_TYPE_A)
        s.sleep()
        assert not s.active
        assert s.capacity_ghz == 0.0
        s.wake()
        assert s.active
        assert s.freq_ghz == SERVER_TYPE_A.cpu.max_freq_ghz

    def test_set_frequency_only_discrete_levels(self):
        s = Server("s1", SERVER_TYPE_A)
        s.set_frequency(2.0)
        assert s.freq_ghz == 2.0
        with pytest.raises(ValueError):
            s.set_frequency(2.1)

    def test_power_sleeping(self):
        s = Server("s1", SERVER_TYPE_A)
        s.sleep()
        assert s.power_w(0.0) == SERVER_TYPE_A.power.sleep_w

    def test_power_active_uses_current_frequency(self):
        s = Server("s1", SERVER_TYPE_A)
        p_high = s.power_w(6.0)
        s.set_frequency(1.5)  # capacity 6 GHz, same absolute usage
        p_low = s.power_w(6.0)
        assert p_low < p_high

    def test_efficiency_ordering_of_catalog(self):
        effs = [SERVER_TYPE_A.power_efficiency, SERVER_TYPE_B.power_efficiency,
                SERVER_TYPE_C.power_efficiency]
        assert effs[0] > effs[1] > effs[2]

    def test_make_server_pool_types_and_ids(self):
        pool = make_server_pool(10, rng=1)
        assert len(pool) == 10
        assert len({s.server_id for s in pool}) == 10
        assert all(not s.active for s in pool)

    def test_make_server_pool_weights(self):
        pool = make_server_pool(
            600, rng=2, type_weights=(1.0, 0.0, 0.0)
        )
        assert all(s.spec.name == SERVER_TYPE_A.name for s in pool)

    def test_make_server_pool_bad_weights(self):
        with pytest.raises(ValueError):
            make_server_pool(5, type_weights=(1.0,))
        with pytest.raises(ValueError):
            make_server_pool(5, type_weights=(0.0, 0.0, 0.0))

    @pytest.mark.parametrize("weights", [
        (float("inf"), 1.0, 1.0),
        (float("nan"), 1.0, 1.0),
        (1e308, 1e308, 1.0),  # each finite, the sum is not
    ])
    def test_make_server_pool_refuses_non_finite_weights(self, weights):
        with pytest.raises(ValueError, match="type_weights must be finite"):
            make_server_pool(5, type_weights=weights)


class TestPoolDrawMatchesReference:
    """The one-call type draw against the per-server loop it replaced
    (``tests/oracles/server_pool_reference.py``)."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_servers=st.integers(0, 400),
        type_weights=st.sampled_from([
            None, (1.0, 1.0, 1.0), (1.0, 4.0, 20.0), (0.05, 0.15, 0.8),
            (1.0, 0.0, 0.0), (0.0, 3.0, 1.0), (0.0, 0.0, 2.5),
        ]),
        seed=st.integers(0, 2**32 - 1),
        id_prefix=st.sampled_from(["S", "pod3-", ""]),
        active=st.booleans(),
    )
    def test_same_pool_and_stream(self, n_servers, type_weights, seed, id_prefix, active):
        pools, after = [], []
        for draw in (make_server_pool, reference_pool):
            generator = np.random.default_rng(seed)
            pool = draw(n_servers, rng=generator, id_prefix=id_prefix,
                        active=active, type_weights=type_weights)
            pools.append([(s.server_id, id(s.spec), s.active) for s in pool])
            after.append(generator.random())
        assert pools[0] == pools[1]
        assert after[0] == after[1]


class TestVM:
    def test_defaults(self):
        vm = VM("v1", app_id="a1", tier_index=1, memory_mb=2048, demand_ghz=0.5)
        assert vm.allocation_ghz == 0.0
        assert vm.demand_ghz == 0.5

    def test_set_demand(self):
        vm = VM("v1")
        vm.set_demand(1.5)
        assert vm.demand_ghz == 1.5
        with pytest.raises(ValueError):
            vm.set_demand(-1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            VM("v1", memory_mb=0)
        with pytest.raises(ValueError):
            VM("v1", tier_index=-1)


class TestMigrationModel:
    def test_duration_scales_with_memory(self):
        m = LiveMigrationModel(bandwidth_mbps=1000.0, dirty_factor=1.0, downtime_s=0.0)
        # 1024 MB * 8 bits / 1000 Mbps = 8.192 s
        assert m.duration_s(1024) == pytest.approx(8.192)
        assert m.duration_s(2048) == pytest.approx(16.384)

    def test_dirty_factor_inflates_traffic(self):
        m = LiveMigrationModel(dirty_factor=1.5)
        assert m.bytes_moved_mb(1000) == pytest.approx(1500.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LiveMigrationModel(bandwidth_mbps=0.0)
        with pytest.raises(ValueError):
            LiveMigrationModel(dirty_factor=0.5)


class TestApplication:
    def test_needs_vms(self):
        with pytest.raises(ValueError):
            Application("a1", [])

    def test_setpoint_positive(self):
        with pytest.raises(ValueError):
            Application("a1", ["v1"], rt_setpoint_ms=0.0)


class TestDataCenter:
    def _dc(self):
        dc = DataCenter()
        dc.add_server(Server("s1", SERVER_TYPE_A))
        dc.add_server(Server("s2", SERVER_TYPE_B))
        dc.add_vm(VM("v1", memory_mb=1024, demand_ghz=1.0))
        dc.add_vm(VM("v2", memory_mb=2048, demand_ghz=0.5))
        return dc

    def test_duplicate_ids_rejected(self):
        dc = self._dc()
        with pytest.raises(ValueError):
            dc.add_server(Server("s1", SERVER_TYPE_A))
        with pytest.raises(ValueError):
            dc.add_vm(VM("v1"))

    def test_place_and_query(self):
        dc = self._dc()
        dc.place("v1", "s1")
        assert dc.server_of("v1") == "s1"
        assert [v.vm_id for v in dc.vms_on("s1")] == ["v1"]
        assert dc.total_demand_ghz("s1") == pytest.approx(1.0)
        assert dc.total_memory_mb("s1") == 1024

    def test_double_place_rejected(self):
        dc = self._dc()
        dc.place("v1", "s1")
        with pytest.raises(ValueError):
            dc.place("v1", "s2")

    def test_place_on_sleeping_server_rejected(self):
        dc = self._dc()
        dc.servers["s1"].sleep()
        with pytest.raises(ValueError):
            dc.place("v1", "s1")

    def test_memory_enforcement(self):
        dc = DataCenter()
        dc.add_server(Server("small", ServerSpec(
            "tiny", CPUSpec("c", 1, (1.0,)), memory_mb=1500,
            power=ServerPowerModel(1.0, 10.0, 20.0))))
        dc.add_vm(VM("v1", memory_mb=1024))
        dc.add_vm(VM("v2", memory_mb=1024))
        dc.place("v1", "small")
        with pytest.raises(ValueError):
            dc.place("v2", "small")
        assert dc.server_of("v2") is None
        assert dc.total_memory_mb("small") == 1024 <= 1500

    def test_migrate_records_log(self):
        dc = self._dc()
        dc.place("v1", "s1")
        record = dc.migrate("v1", "s2", time_s=100.0)
        assert dc.server_of("v1") == "s2"
        assert record.source_id == "s1"
        assert record.duration_s > 0
        assert dc.migration_log == [record]

    def test_migrate_to_same_server_rejected(self):
        dc = self._dc()
        dc.place("v1", "s1")
        with pytest.raises(ValueError):
            dc.migrate("v1", "s1")

    def test_migrate_unplaced_rejected(self):
        dc = self._dc()
        with pytest.raises(ValueError):
            dc.migrate("v1", "s2")

    def test_sleep_requires_empty(self):
        dc = self._dc()
        dc.place("v1", "s1")
        with pytest.raises(ValueError):
            dc.sleep_server("s1")
        dc.unplace("v1")
        dc.sleep_server("s1")
        assert not dc.servers["s1"].active
        assert dc.sleep_count == 1

    def test_wake(self):
        dc = self._dc()
        dc.sleep_server("s2")
        dc.wake_server("s2")
        assert dc.servers["s2"].active
        assert dc.wake_count == 1

    def test_overloaded_servers(self):
        dc = self._dc()
        dc.place("v1", "s2")  # type B: 4 GHz max
        dc.vms["v1"].set_demand(5.0)
        assert dc.overloaded_servers() == ["s2"]
        dc.vms["v1"].set_demand(3.0)
        assert dc.overloaded_servers() == []
        # With headroom 1.25, 3.0 > 4.0/1.25 = 3.2? no; 3.3 would be.
        dc.vms["v1"].set_demand(3.3)
        assert dc.overloaded_servers(headroom=1.25) == ["s2"]

    def test_total_power_counts_sleepers(self):
        dc = self._dc()
        dc.sleep_server("s1")
        p = dc.total_power_w()
        expected_sleep = SERVER_TYPE_A.power.sleep_w
        assert p >= expected_sleep

    def test_unknown_ids_raise_keyerror(self):
        dc = self._dc()
        with pytest.raises(KeyError):
            dc.place("nope", "s1")
        with pytest.raises(KeyError):
            dc.place("v1", "nope")
        with pytest.raises(KeyError):
            dc.vms_on("nope")
