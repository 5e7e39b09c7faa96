"""Optimizer: types, Minimum Slack wrapper, PAC, IPAC, pMapper, policies."""

import builtins
import math
import importlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.migration import LiveMigrationModel
from repro.core.optimizer import (
    AllowAllPolicy,
    BandwidthBudgetPolicy,
    BenefitThresholdPolicy,
    IPACConfig,
    Migration,
    MigrationContext,
    MigrationCostPolicy,
    MinSlackConfig,
    PACConfig,
    PlacementProblem,
    ipac,
    pac,
    pmapper,
    sort_servers_by_efficiency,
)
from repro.core.optimizer import minslack as minslack_module
from repro.core.optimizer.minslack import PlacementList
from repro.core.optimizer.pmapper import PMapperConfig
from repro.core.optimizer.types import ServerInfo, VMInfo
from repro.obs import InMemoryBackend, Telemetry, use_telemetry
from repro.packing.mbs import minimum_bin_slack

from tests.conftest import check_plan_feasible, make_server_info, make_vm_info
from tests.oracles import ipac_reference, pmapper_reference
from tests.oracles.compensated_sum import compensated_sum
from tests.oracles.mbs_reference import MemoryConstraint
from tests.oracles.mbs_reference import minimum_bin_slack as stepwise_minimum_bin_slack

# The package re-exports the function ``ipac`` under the submodule's name.
ipac_module = importlib.import_module("repro.core.optimizer.ipac")


class TestTypes:
    def test_duplicate_ids_rejected(self):
        s = make_server_info("s1")
        with pytest.raises(ValueError):
            PlacementProblem((s, s), (), {})
        v = make_vm_info("v1")
        with pytest.raises(ValueError):
            PlacementProblem((s,), (v, v), {})

    def test_mapping_reference_checked(self):
        s = make_server_info("s1")
        v = make_vm_info("v1")
        with pytest.raises(ValueError):
            PlacementProblem((s,), (v,), {"v1": "nope"})
        with pytest.raises(ValueError):
            PlacementProblem((s,), (v,), {"ghost": "s1"})

    def test_lookups(self):
        s = make_server_info("s1")
        v = make_vm_info("v1", demand=1.5)
        p = PlacementProblem((s,), (v,), {"v1": "s1"})
        assert p.server_by_id("s1") is s
        assert p.vm_by_id("v1") is v
        assert p.server_load_ghz("s1") == pytest.approx(1.5)
        with pytest.raises(KeyError):
            p.server_by_id("zzz")

    def test_vm_info_validation(self):
        with pytest.raises(ValueError):
            VMInfo("v", -1.0, 100)
        with pytest.raises(ValueError):
            ServerInfo("s", 0.0, 100, 0.1, True, 10, 20, 1)


class TestSortServers:
    def test_descending_by_efficiency(self):
        servers = [
            make_server_info("a", efficiency=0.02),
            make_server_info("b", efficiency=0.05),
            make_server_info("c", efficiency=0.03),
        ]
        out = sort_servers_by_efficiency(servers)
        assert [s.server_id for s in out] == ["b", "c", "a"]

    def test_tie_broken_by_id(self):
        servers = [
            make_server_info("z", efficiency=0.02),
            make_server_info("a", efficiency=0.02),
        ]
        out = sort_servers_by_efficiency(servers)
        assert [s.server_id for s in out] == ["a", "z"]


class TestSelectVMs:
    def test_fills_capacity(self):
        vms = [make_vm_info(f"v{i}", demand=d) for i, d in enumerate([3.0, 2.0, 1.0])]
        chosen, result = PlacementList(vms).take_for_server(4.0, 1e9, MinSlackConfig())
        assert sum(v.demand_ghz for v in chosen) == pytest.approx(4.0)
        assert result.slack == pytest.approx(0.0)

    def test_memory_respected(self):
        vms = [
            make_vm_info("big", demand=1.0, memory=4000),
            make_vm_info("small", demand=1.0, memory=500),
        ]
        chosen, _ = PlacementList(vms).take_for_server(4.0, 1000.0, MinSlackConfig())
        assert [v.vm_id for v in chosen] == ["small"]

    def test_zero_capacity(self):
        chosen, _ = PlacementList([make_vm_info("v", 1.0)]).take_for_server(
            0.0, 100.0, MinSlackConfig()
        )
        assert chosen == []

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            PlacementList([]).take_for_server(-1.0, 100.0, MinSlackConfig())
        with pytest.raises(ValueError):
            MinSlackConfig(epsilon_ghz=-1.0)
        for bad in (dict(epsilon_ghz=math.nan), dict(epsilon_ghz=math.inf)):
            with pytest.raises(ValueError, match="finite"):
                MinSlackConfig(**bad)

    def test_search_span_reports_accounted_and_executed_effort(self):
        # Memory admits one VM, so everything after the first take is a
        # jumped run: the span carries both the steps the stepwise
        # search counts (`nodes`) and the iterations executed.
        vms = [make_vm_info(f"v{i:03d}", demand=1.0, memory=1024) for i in range(100)]
        backend = InMemoryBackend()
        with use_telemetry(Telemetry(backend), close=False):
            _, result = PlacementList(vms).take_for_server(50.0, 1024.0, MinSlackConfig())
        (span,) = backend.of_kind("span")
        assert span["name"] == "minslack.search"
        assert (span["nodes"], span["evaluated"]) == (result.steps, result.evaluated)
        assert result.evaluated < result.steps
        assert [r["kind"] for r in backend.records] == ["span"]


class TestPAC:
    def test_places_all_when_capacity_suffices(self, heterogeneous_problem):
        plan = pac(heterogeneous_problem)
        assert plan.unplaced == []
        assert len(plan.final_mapping) == len(heterogeneous_problem.vms)
        check_plan_feasible(heterogeneous_problem, plan)

    def test_prefers_efficient_server(self, heterogeneous_problem):
        plan = pac(heterogeneous_problem)
        # Total demand 4.5 GHz fits entirely on sA (12 GHz, most efficient).
        assert set(plan.final_mapping.values()) == {"sA"}

    def test_wakes_inactive_servers_only_when_needed(self, heterogeneous_problem):
        plan = pac(heterogeneous_problem)
        assert plan.wake == []  # everything fit on the active sA

    def test_spills_to_next_server(self):
        servers = (
            make_server_info("good", capacity=2.0, efficiency=0.05),
            make_server_info("bad", capacity=2.0, efficiency=0.01, active=False),
        )
        vms = tuple(make_vm_info(f"v{i}", demand=1.0, memory=100) for i in range(3))
        plan = pac(PlacementProblem(servers, vms, {}), config=PACConfig(target_utilization=1.0))
        hosts = set(plan.final_mapping.values())
        assert hosts == {"good", "bad"}
        assert plan.wake == ["bad"]

    def test_target_utilization_caps_fill(self):
        servers = (make_server_info("s", capacity=10.0),)
        vms = tuple(make_vm_info(f"v{i}", demand=1.0, memory=10) for i in range(10))
        plan = pac(PlacementProblem(servers, vms, {}), config=PACConfig(target_utilization=0.5))
        placed = [v for v in plan.final_mapping.values()]
        assert len(placed) == 5
        assert len(plan.unplaced) == 5

    def test_partial_replace_keeps_others(self):
        servers = (
            make_server_info("s1", capacity=4.0),
            make_server_info("s2", capacity=4.0, efficiency=0.02),
        )
        vms = (make_vm_info("stay", 2.0, 100), make_vm_info("move", 1.0, 100))
        problem = PlacementProblem(servers, vms, {"stay": "s2", "move": "s2"})
        plan = pac(problem, vms_to_place=["move"])
        assert plan.final_mapping["stay"] == "s2"
        assert plan.final_mapping["move"] == "s1"  # most efficient has room

    def test_unplaceable_vm_stays_put(self):
        servers = (make_server_info("s1", capacity=1.0),)
        vms = (make_vm_info("huge", 5.0, 100),)
        problem = PlacementProblem(servers, vms, {"huge": "s1"})
        plan = pac(problem, vms_to_place=["huge"])
        assert plan.unplaced == ["huge"]
        assert plan.final_mapping["huge"] == "s1"

    def test_sleeps_emptied_servers(self):
        servers = (
            make_server_info("eff", capacity=8.0, efficiency=0.05),
            make_server_info("old", capacity=8.0, efficiency=0.01),
        )
        vms = (make_vm_info("v1", 1.0, 100),)
        problem = PlacementProblem(servers, vms, {"v1": "old"})
        plan = pac(problem)
        assert plan.final_mapping["v1"] == "eff"
        assert plan.sleep == ["old"]

    def test_non_finite_server_memory_rejected(self):
        # Refused where the server is built, so also when no search is
        # ever offered it: "w" overloads its 2 GHz host.
        vms = (make_vm_info("w", 3.0, 100), make_vm_info("v1", 1.0, 100))
        for memory in (math.nan, math.inf, -1.0):
            for offered in (True, False):
                with pytest.raises(ValueError, match="memory_mb"):
                    servers = (make_server_info("s1", capacity=8.0 if offered else 2.0,
                                                memory=memory),)
                    pac(PlacementProblem(servers, vms, {} if offered else {"w": "s1"}))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("kwarg, field", [("capacity", "max_capacity_ghz"),
                                              ("efficiency", "efficiency")])
    def test_non_finite_server_capacity_and_efficiency_rejected(self, kwarg, field, value):
        with pytest.raises(ValueError, match=field):
            make_server_info("s1", **{kwarg: value})

    @pytest.mark.parametrize("demand", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_vm_demand_rejected(self, demand):
        # The only server is already overloaded, so no search ever runs:
        # the placement list itself must refuse the VM.  (VMInfo rejects
        # only negative demands, so -inf is planted past it.)
        bad = object.__new__(VMInfo)
        for name, value in (("vm_id", "v"), ("demand_ghz", demand), ("memory_mb", 100.0)):
            object.__setattr__(bad, name, value)
        servers = (make_server_info("s1", capacity=2.0),)
        problem = PlacementProblem(servers, (make_vm_info("w", 3.0, 100), bad), {"w": "s1"})
        with pytest.raises(ValueError, match="VM 'v'"):
            pac(problem, vms_to_place=["v"])

    def test_duplicate_vms_to_place_rejected(self, heterogeneous_problem):
        with pytest.raises(ValueError):
            pac(heterogeneous_problem, vms_to_place=["vm0", "vm0"])

    def test_unknown_vm_rejected(self, heterogeneous_problem):
        with pytest.raises(KeyError):
            pac(heterogeneous_problem, vms_to_place=["nope"])


@st.composite
def _pac_cases(draw):
    """Small problems where memory saturates and step budgets bind."""
    n_vms = draw(st.integers(0, 24))
    if draw(st.booleans()):
        demand = st.sampled_from([0.0, 0.5, 1.0, 1.5])  # ties: order is by id
    else:
        demand = st.floats(0.0, 3.0)
    memory = st.sampled_from([256.0, 512.0, 1024.0, 2048.0])
    vms = tuple(
        make_vm_info(f"vm{i:02d}", draw(demand), draw(memory)) for i in range(n_vms)
    )
    servers = tuple(
        make_server_info(
            f"s{j}",
            capacity=draw(st.floats(1.0, 8.0)),
            memory=draw(st.sampled_from([1024.0, 2048.0, 4096.0, 16384.0])),
            efficiency=0.05 - 0.005 * j,
        )
        for j in range(draw(st.integers(1, 6)))
    )
    # Some VMs stay where they are (possibly overloading their host).
    mapping = {
        vm.vm_id: draw(st.sampled_from(servers)).server_id
        for vm in vms
        if draw(st.booleans())
    }
    to_place = [vm.vm_id for vm in vms if vm.vm_id not in mapping or draw(st.booleans())]
    config = PACConfig(
        minslack=MinSlackConfig(
            epsilon_ghz=draw(st.sampled_from([0.0, 0.05])),
            max_steps=draw(st.integers(1, 50)),
        ),
        target_utilization=draw(st.sampled_from([0.8, 1.0])),
    )
    return PlacementProblem(servers, vms, mapping), to_place, config


def _pac_searching_each_server_afresh(problem, to_place, config):
    """PAC as it ran before the sorted placement list: every server
    searches the id-ordered remainder in a placement list of its own."""
    moving = set(to_place)
    stay = {v: s for v, s in problem.mapping.items() if v not in moving}
    mapping = dict(stay)
    remaining = [problem.vm_by_id(v) for v in sorted(to_place)]
    for server in problem.servers_by_efficiency():
        held = [problem.vm_by_id(v) for v, s in stay.items() if s == server.server_id]
        free_cpu = server.max_capacity_ghz * config.target_utilization - sum(
            vm.demand_ghz for vm in held
        )
        free_mem = server.memory_mb - sum(vm.memory_mb for vm in held)
        if not remaining or free_cpu <= 0 or free_mem < 0:
            continue
        chosen, _ = PlacementList(remaining).take_for_server(
            free_cpu, free_mem, config.minslack
        )
        for vm in chosen:
            mapping[vm.vm_id] = server.server_id
        remaining = [vm for vm in remaining if vm not in chosen]
    return mapping, [vm.vm_id for vm in remaining]


def _stepwise_search_sorted(sizes, suffix, capacity, *, memory, min_memory, next_lower,
                            memory_capacity, **kwargs):
    """The stepwise oracle in place of the search a placement list runs:
    its stable re-sort of the already sorted demands is the identity, so
    ``selected`` are list positions, as the search returns them."""
    return stepwise_minimum_bin_slack(
        sizes, capacity, constraint=MemoryConstraint(memory, memory_capacity), **kwargs
    )


class TestPACPlacementsUnchangedByJumps:
    """The sorted placement list and the jumped search change no
    placement: not which VMs a server takes, not the order they are
    recorded in, not which are left over."""

    @settings(max_examples=150, deadline=None)
    @given(case=_pac_cases())
    def test_same_plan_with_the_stepwise_search(self, case):
        problem, to_place, config = case
        plan = pac(problem, vms_to_place=to_place, config=config)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(minslack_module, "search_sorted", _stepwise_search_sorted)
            ref = pac(problem, vms_to_place=to_place, config=config)
        assert list(plan.final_mapping.items()) == list(ref.final_mapping.items())
        assert plan.unplaced == ref.unplaced
        assert plan.migrations == ref.migrations

    @settings(max_examples=150, deadline=None)
    @given(case=_pac_cases())
    def test_same_plan_as_searching_each_server_afresh(self, case):
        problem, to_place, config = case
        plan = pac(problem, vms_to_place=to_place, config=config)
        mapping, unplaced = _pac_searching_each_server_afresh(problem, to_place, config)
        for vm_id in unplaced:  # an unplaceable VM keeps its old host
            if vm_id in problem.mapping:
                mapping[vm_id] = problem.mapping[vm_id]
        assert list(plan.final_mapping.items()) == list(mapping.items())
        assert plan.unplaced == unplaced


def _traced_walks(run, searching_every_server):
    """``run()`` under telemetry: its result, its span records without
    their durations, its counters and how many offers were answered
    without a search."""
    backend = InMemoryBackend()
    tel = Telemetry(backend)
    fits_nothing = PlacementList.fits_nothing
    skipped = []

    def counting_fits_nothing(self, free_cpu, free_mem):
        skip = not searching_every_server and fits_nothing(self, free_cpu, free_mem)
        skipped.append(skip)
        return skip

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PlacementList, "fits_nothing", counting_fits_nothing)
        with use_telemetry(tel, close=False):
            out = run()
    spans = [
        {k: v for k, v in r.items() if k != "duration_s"} for r in backend.of_kind("span")
    ]
    return out, spans, tel.registry.snapshot(), sum(skipped)


class TestSkippedOffersStillReport:
    """A server the walk answers without searching is traced as the
    empty search it replaces: the span records (``nodes``, ``evaluated``,
    slack, epsilon) and the ``minslack.*`` counters are those of a walk
    that searches every server."""

    @staticmethod
    def _assert_same_report(run):
        out, spans, counters, skipped = _traced_walks(run, False)
        ref, ref_spans, ref_counters, _ = _traced_walks(run, True)
        assert list(out.final_mapping.items()) == list(ref.final_mapping.items())
        assert spans == ref_spans
        assert counters == ref_counters
        return skipped

    @settings(max_examples=150, deadline=None)
    @given(case=_pac_cases())
    def test_pac(self, case):
        problem, to_place, config = case
        self._assert_same_report(lambda: pac(problem, vms_to_place=to_place, config=config))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ipac_on_a_mid_size_cluster(self, seed):
        problem = _mid_size_cluster(seed)
        skipped = self._assert_same_report(lambda: ipac(problem))
        assert skipped > 0  # the walk did answer offers without searching


@st.composite
def _placement_list_runs(draw):
    """A VM list plus a sequence of (free CPU, free memory) takes."""
    n_vms = draw(st.integers(0, 30))
    if draw(st.booleans()):
        demand = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5])  # ties and zeros
    else:
        demand = st.floats(0.0, 3.0)
    levels = draw(st.lists(st.sampled_from([256.0, 512.0, 1024.0, 2048.0]),
                           min_size=2, max_size=4, unique=True))
    vms = [
        make_vm_info(f"vm{i:02d}", draw(demand), draw(st.sampled_from(levels)))
        for i in range(n_vms)
    ]
    # 1e3 GHz with unbounded memory takes every VM with a non-zero demand.
    free_cpu = st.one_of(st.sampled_from([0.25, 1.0, 3.0, 1e3]), st.floats(0.0, 8.0))
    free_mem = st.sampled_from([0.0, 256.0, 1024.0, 4096.0, 1e9])
    takes = draw(st.lists(st.tuples(free_cpu, free_mem), min_size=1, max_size=8))
    config = MinSlackConfig(
        epsilon_ghz=draw(st.sampled_from([0.0, 0.05])),
        max_steps=draw(st.integers(1, 50)),
    )
    return vms, takes, config


def _list_state(placement_list):
    return (
        placement_list.vms,
        placement_list._demand,
        placement_list._suffix,
        placement_list._memory,
        placement_list._min_memory,
        placement_list._lower,
    )


class TestPlacementListUpkeep:
    """A placement list deletes taken VMs in place and refreshes only the
    bounds in front of the last deleted position; every search must see
    exactly what a list built afresh for the remaining VMs would hold."""

    @settings(max_examples=300, deadline=None)
    @given(run=_placement_list_runs())
    @example(run=(  # a take at the front, two at the back, then the last VM
        [make_vm_info("a", 3.0, 512.0), make_vm_info("b", 2.0, 512.0),
         make_vm_info("c", 1.0, 512.0), make_vm_info("d", 0.5, 512.0)],
        [(3.0, 512.0), (0.5, 512.0), (1.0, 512.0), (1e3, 1e9)],
        MinSlackConfig(epsilon_ghz=0.0),
    ))
    def test_maintained_lists_equal_fresh_ones(self, run):
        vms, takes, config = run
        kwargs = dict(
            epsilon=config.epsilon_ghz,
            max_steps=config.max_steps,
        )
        plist = PlacementList(vms)
        taken = set()
        for free_cpu, free_mem in takes:
            before = list(plist.vms)
            demands = [vm.demand_ghz for vm in before]
            mems = [vm.memory_mb for vm in before]
            fresh = minimum_bin_slack(
                demands, free_cpu, memory_sizes=mems, memory_capacity=free_mem, **kwargs
            )
            ref = stepwise_minimum_bin_slack(
                demands, free_cpu, constraint=MemoryConstraint(mems, free_mem), **kwargs
            )
            skip = plist.fits_nothing(free_cpu, free_mem)
            chosen, result = plist.take_for_server(free_cpu, free_mem, config)
            assert result == fresh
            assert not (skip and result.selected)
            assert replace(result, evaluated=0) == replace(ref, evaluated=0)
            assert chosen == [before[p] for p in result.selected]
            taken.update(vm.vm_id for vm in chosen)
            rebuilt = PlacementList([vm for vm in vms if vm.vm_id not in taken])
            assert _list_state(plist) == _list_state(rebuilt)


class TestIPAC:
    def test_initial_placement(self, heterogeneous_problem):
        plan = ipac(heterogeneous_problem)
        assert plan.unplaced == []
        check_plan_feasible(heterogeneous_problem, plan)
        assert plan.info["new_placements"] == len(heterogeneous_problem.vms)

    def test_overload_relief_mandatory(self):
        servers = (
            make_server_info("hot", capacity=4.0, efficiency=0.01),
            make_server_info("cold", capacity=8.0, efficiency=0.05, active=False),
        )
        vms = (
            make_vm_info("v1", 3.0, 100),
            make_vm_info("v2", 2.0, 100),
        )
        problem = PlacementProblem(servers, vms, {"v1": "hot", "v2": "hot"})
        plan = ipac(problem)
        check_plan_feasible(problem, plan)
        loads = {}
        for vm_id, sid in plan.final_mapping.items():
            loads[sid] = loads.get(sid, 0.0) + problem.vm_by_id(vm_id).demand_ghz
        assert all(l <= problem.server_by_id(s).max_capacity_ghz + 1e-9 for s, l in loads.items())
        assert plan.info["overload_evictions"] >= 1

    def test_drains_least_efficient_server(self):
        servers = (
            make_server_info("eff", capacity=12.0, efficiency=0.05),
            make_server_info("mid", capacity=4.0, efficiency=0.03),
            make_server_info("old", capacity=4.0, efficiency=0.01),
        )
        vms = (
            make_vm_info("a", 2.0, 100),
            make_vm_info("b", 1.5, 100),
            make_vm_info("c", 1.0, 100),
        )
        mapping = {"a": "eff", "b": "mid", "c": "old"}
        plan = ipac(PlacementProblem(servers, vms, mapping))
        # Everything fits on 'eff'; both inefficient hosts drain and sleep.
        assert set(plan.final_mapping.values()) == {"eff"}
        assert sorted(plan.sleep) == ["mid", "old"]
        assert plan.info["drain_rounds_accepted"] >= 2

    def test_stops_when_no_improvement(self):
        # Two servers, each full: draining cannot reduce the count.
        servers = (
            make_server_info("s1", capacity=2.0, efficiency=0.05),
            make_server_info("s2", capacity=2.0, efficiency=0.01),
        )
        vms = (make_vm_info("a", 1.9, 100), make_vm_info("b", 1.9, 100))
        mapping = {"a": "s1", "b": "s2"}
        plan = ipac(PlacementProblem(servers, vms, mapping),
                    IPACConfig(pac=PACConfig(target_utilization=1.0)))
        assert plan.final_mapping == mapping
        assert plan.migrations == []

    def test_no_churn_at_steady_state(self, heterogeneous_problem):
        first = ipac(heterogeneous_problem)
        problem2 = PlacementProblem(
            heterogeneous_problem.servers,
            heterogeneous_problem.vms,
            first.final_mapping,
        )
        second = ipac(problem2)
        assert second.migrations == []

    def test_cost_policy_rejects_non_mandatory(self):
        class RejectAll(AllowAllPolicy):
            def allow(self, context):
                return context.mandatory

        servers = (
            make_server_info("eff", capacity=12.0, efficiency=0.05),
            make_server_info("old", capacity=4.0, efficiency=0.01),
        )
        vms = (make_vm_info("a", 1.0, 100),)
        problem = PlacementProblem(servers, vms, {"a": "old"})
        plan = ipac(problem, IPACConfig(cost_policy=RejectAll()))
        assert plan.final_mapping["a"] == "old"  # rolled back
        assert plan.info["migrations_rejected"] == 1

    def test_max_drain_rounds_zero_keeps_placement(self):
        servers = (
            make_server_info("eff", capacity=12.0, efficiency=0.05),
            make_server_info("old", capacity=4.0, efficiency=0.01),
        )
        vms = (make_vm_info("a", 1.0, 100),)
        problem = PlacementProblem(servers, vms, {"a": "old"})
        plan = ipac(problem, IPACConfig(max_drain_rounds=0))
        assert plan.final_mapping["a"] == "old"

    def test_unplaced_vm_retried_after_drain_frees_capacity(self):
        # Phase A packs the efficient small server to its utilization
        # target and the big server runs out of memory, leaving one VM
        # homeless.  The drain loop then consolidates everything onto
        # the big server — emptying the small one, which can now host
        # the leftover VM.  IPAC must retry it (hypothesis-found case).
        servers = (
            make_server_info("s0", capacity=8.0, memory=4096.0,
                             efficiency=0.03125, active=False),
            make_server_info("s1", capacity=3.0, memory=16384.0,
                             efficiency=0.046875, active=False),
        )
        vms = (
            make_vm_info("v0", demand=1.0, memory=512.0),
            make_vm_info("v1", demand=1.0, memory=512.0),
            make_vm_info("v2", demand=1.0, memory=512.0),
            make_vm_info("v3", demand=0.25, memory=512.0),
            make_vm_info("v4", demand=1.0, memory=2048.0),
            make_vm_info("v5", demand=1.0, memory=2048.0),
        )
        problem = PlacementProblem(servers, vms, {})
        plan = ipac(problem)
        check_plan_feasible(problem, plan)
        assert plan.unplaced == []
        assert set(plan.final_mapping) == {v.vm_id for v in vms}

    def test_unplaced_vm_homed_by_single_relocation(self):
        # Neither server can take v6 directly: s0 is out of memory and
        # s1 out of CPU headroom.  Moving one 1-GHz / 512-MB VM from s1
        # to s0 opens the CPU room, so the repair pass must find the
        # (host, relocated VM, refuge) triple (hypothesis-found case).
        servers = (
            make_server_info("s0", capacity=9.0, memory=4096.0,
                             efficiency=0.03125, active=False),
            make_server_info("s1", capacity=3.0, memory=16384.0,
                             efficiency=0.046875, active=False),
        )
        vms = (
            make_vm_info("v0", demand=1.0, memory=512.0),
            make_vm_info("v1", demand=1.0, memory=512.0),
            make_vm_info("v2", demand=1.0, memory=512.0),
            make_vm_info("v3", demand=0.5, memory=512.0),
            make_vm_info("v4", demand=0.25, memory=512.0),
            make_vm_info("v5", demand=1.0, memory=2048.0),
            make_vm_info("v6", demand=1.0, memory=2048.0),
        )
        problem = PlacementProblem(servers, vms, {})
        plan = ipac(problem)
        check_plan_feasible(problem, plan)
        assert plan.unplaced == []
        assert set(plan.final_mapping) == {v.vm_id for v in vms}

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_problems_feasible_and_unplaced_sound(self, data):
        n_srv = data.draw(st.integers(2, 6))
        n_vms = data.draw(st.integers(1, 10))
        servers = tuple(
            make_server_info(
                f"s{i}",
                capacity=data.draw(st.floats(2.0, 12.0)),
                memory=data.draw(st.sampled_from([4096.0, 8192.0, 16384.0])),
                efficiency=data.draw(st.floats(0.01, 0.06)),
                active=data.draw(st.booleans()),
            )
            for i in range(n_srv)
        )
        vms = tuple(
            make_vm_info(
                f"v{j}",
                demand=data.draw(st.floats(0.1, 1.5)),
                memory=data.draw(st.sampled_from([512.0, 1024.0, 2048.0])),
            )
            for j in range(n_vms)
        )
        problem = PlacementProblem(servers, vms, {})
        plan = ipac(problem)
        check_plan_feasible(problem, plan)
        # Incompleteness must be *earned*: a VM is reported unplaced
        # only when, in the returned placement, no server has both the
        # CPU headroom (at the packing target) and the memory for it —
        # the ejection-chain repair has already tried harder than that.
        #
        # (A blanket "generous aggregate capacity implies complete"
        # claim is unsound: e.g. servers of 9 GHz / 4096 MB and
        # 2 GHz / 16384 MB with three 1 GHz / 2048 MB VMs and four
        # 0.25-0.5 GHz / 512 MB VMs satisfy 2x aggregate headroom in
        # both dimensions, yet every memory-feasible split needs more
        # than 0.95 * 2 GHz on the small server — no placement at the
        # utilization target exists at all.)
        target = PACConfig().target_utilization
        loads = {s.server_id: 0.0 for s in servers}
        mems = {s.server_id: 0.0 for s in servers}
        vm_by_id = {v.vm_id: v for v in vms}
        for vm_id, sid in plan.final_mapping.items():
            loads[sid] += vm_by_id[vm_id].demand_ghz
            mems[sid] += vm_by_id[vm_id].memory_mb
        for vm_id in plan.unplaced:
            vm = vm_by_id[vm_id]
            for s in servers:
                fits_cpu = (
                    loads[s.server_id] + vm.demand_ghz
                    <= s.max_capacity_ghz * target + 1e-9
                )
                fits_mem = mems[s.server_id] + vm.memory_mb <= s.memory_mb + 1e-9
                assert not (fits_cpu and fits_mem), (
                    f"{vm_id} reported unplaced but fits {s.server_id}"
                )


class _RecordingPolicy(MigrationCostPolicy):
    """Turns down the non-mandatory moves of the VMs in *reject* and
    records every move it is offered, with the estimated benefit."""

    def __init__(self, reject=()):
        self.reject = frozenset(reject)
        self.offered = []

    def allow(self, context):
        mig = context.migration
        self.offered.append((mig.vm_id, mig.source_id, mig.target_id,
                             context.estimated_benefit_w, context.mandatory))
        return context.mandatory or mig.vm_id not in self.reject


@st.composite
def _ipac_cases(draw):
    """Small clusters that reach every IPAC path: overloaded hosts,
    unmapped, zero-demand and homeless VMs, tied efficiencies, short
    drain budgets and a cost policy that turns some moves down."""
    if draw(st.booleans()):
        efficiency = st.sampled_from([0.02, 0.04])  # ties: order is by id
    else:
        efficiency = st.floats(0.01, 0.06)
    servers = tuple(
        make_server_info(
            f"s{j}",
            capacity=draw(st.floats(1.0, 10.0)),
            memory=draw(st.sampled_from([2048.0, 4096.0, 16384.0])),
            efficiency=draw(efficiency),
            active=draw(st.booleans()),
            idle_w=draw(st.sampled_from([60.0, 100.0, 150.0])),
            busy_w=draw(st.sampled_from([200.0, 250.0, 320.0])),
        )
        for j in range(draw(st.integers(1, 6)))
    )
    if draw(st.booleans()):
        demand = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.5])  # zeros and ties
    else:
        demand = st.one_of(st.just(0.0), st.floats(0.0, 3.0))
    # 12 GB fits only the largest servers: a source of homeless VMs.
    memory = st.sampled_from([256.0, 512.0, 1024.0, 2048.0, 12288.0])
    vms = [
        make_vm_info(f"v{i:02d}", draw(demand), draw(memory))
        for i in range(draw(st.integers(0, 16)))
    ]
    # Any subset of the VMs, inserted in any order, on any server: hosts
    # end up overloaded, and the mapping order is not the id order.
    mapping = {
        vm.vm_id: draw(st.sampled_from(servers)).server_id
        for vm in draw(st.permutations(vms))
        if draw(st.booleans())
    }
    reject = draw(st.sets(st.sampled_from([vm.vm_id for vm in vms]))) if vms else set()
    knobs = dict(
        pac=PACConfig(
            minslack=MinSlackConfig(
                epsilon_ghz=draw(st.sampled_from([0.0, 0.05])),
                max_steps=draw(st.integers(1, 50)),
            ),
            target_utilization=draw(st.sampled_from([0.8, 0.95, 1.0])),
        ),
        max_drain_rounds=draw(st.sampled_from([None, 0, 1, 2, 3])),
    )
    return PlacementProblem(servers, tuple(vms), mapping), reject, knobs


def _mid_size_cluster(seed, n_servers=120, n_vms=480):
    """Three server classes, most VMs already placed at random (many
    hosts overloaded), some not placed yet, in shuffled mapping order."""
    rng = np.random.default_rng(seed)
    classes = [  # capacity GHz, memory MB, idle W, busy W
        (12.0, 16384.0, 110.0, 270.0),
        (8.0, 8192.0, 90.0, 220.0),
        (4.0, 4096.0, 70.0, 160.0),
    ]
    servers = []
    for j in range(n_servers):
        cap, mem, idle, busy = classes[j % 3]
        servers.append(make_server_info(
            f"s{j:03d}", capacity=cap, memory=mem, efficiency=cap / busy,
            active=bool(rng.random() < 0.6), idle_w=idle, busy_w=busy,
        ))
    demands = rng.uniform(0.0, 0.8, size=n_vms).tolist()
    memories = rng.choice([512.0, 1024.0, 2048.0], size=n_vms).tolist()
    vms = tuple(make_vm_info(f"v{i:04d}", d, m) for i, (d, m) in enumerate(zip(demands, memories)))
    hosts = rng.integers(0, n_servers // 2, size=n_vms)
    mapping = {
        vms[i].vm_id: servers[hosts[i]].server_id
        for i in rng.permutation(n_vms).tolist()
        if rng.random() < 0.95
    }
    return PlacementProblem(tuple(servers), vms, mapping)


def _traced_ipac(run, problem, config, module, power_fn):
    """``run(problem, config)`` recording what every Minimum Slack search
    is offered and every cluster power estimate ``module.power_fn``
    returns, with CPython 3.12's compensated ``sum`` as the built-in.
    An offer the walk answers without searching (``fits_nothing``) is
    recorded in sequence as the search it replaces."""
    searches, powers = [], []
    take = PlacementList.take_for_server
    fits_nothing = PlacementList.fits_nothing
    estimate = getattr(module, power_fn)

    def recording_take(self, free_cpu, free_mem, cfg):
        searches.append((free_cpu, free_mem, [vm.vm_id for vm in self.vms]))
        return take(self, free_cpu, free_mem, cfg)

    def recording_fits_nothing(self, free_cpu, free_mem):
        skip = fits_nothing(self, free_cpu, free_mem)
        if skip:
            searches.append((free_cpu, free_mem, [vm.vm_id for vm in self.vms]))
        return skip

    def recording_estimate(*args):
        powers.append(estimate(*args))
        return powers[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(builtins, "sum", compensated_sum)
        mp.setattr(PlacementList, "take_for_server", recording_take)
        mp.setattr(PlacementList, "fits_nothing", recording_fits_nothing)
        mp.setattr(module, power_fn, recording_estimate)
        plan = run(problem, config)
    return plan, searches, powers


def _assert_same_invocation(problem, knobs, reject=()):
    new_policy, ref_policy = _RecordingPolicy(reject), _RecordingPolicy(reject)
    ledgers = []

    def kept_ledger(*args):
        ledgers.append(make_ledger(*args))
        return ledgers[-1]

    make_ledger = ipac_module._Ledger
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ipac_module, "_Ledger", kept_ledger)
        plan, searches, powers = _traced_ipac(
            ipac, problem, IPACConfig(cost_policy=new_policy, **knobs),
            ipac_module, "_fold_power",
        )
    ref, ref_searches, ref_powers = _traced_ipac(
        ipac_reference.ipac, problem, IPACConfig(cost_policy=ref_policy, **knobs),
        ipac_reference, "_estimate_power_w",
    )
    assert list(plan.final_mapping.items()) == list(ref.final_mapping.items())
    assert plan.migrations == ref.migrations
    assert plan.wake == ref.wake
    assert plan.sleep == ref.sleep
    assert plan.unplaced == ref.unplaced
    assert plan.info == ref.info
    # Bit for bit: the same base loads and candidates in every search,
    # the same power estimate in every round, the same offers.
    assert searches == ref_searches
    assert powers == ref_powers
    assert new_policy.offered == ref_policy.offered
    # Without rollbacks the final mapping is the one the ledger tracked
    # to the end: its lists and totals are those of a ledger built anew.
    if not plan.info["migrations_rejected"]:
        (ledger,) = ledgers
        fresh = make_ledger(problem, plan.final_mapping)
        assert (ledger.hosted, ledger.cpu, ledger.mem) == (fresh.hosted, fresh.cpu, fresh.mem)
    return plan


class TestIPACMatchesReference:
    """The ledger-driven invocation returns the plan of the one that
    re-derived loads, power and a plan from the mapping in every round
    (``tests/oracles/ipac_reference.py``) — mapping order included — and
    gets there through the same searches and power estimates."""

    @settings(max_examples=300, deadline=None)
    @given(case=_ipac_cases())
    def test_same_plan_on_random_instances(self, case):
        problem, reject, knobs = case
        _assert_same_invocation(problem, knobs, reject)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_plan_on_a_mid_size_cluster(self, seed):
        problem = _mid_size_cluster(seed)
        plan = _assert_same_invocation(problem, {})
        assert plan.info["overload_evictions"] > 0
        assert plan.info["drain_rounds_accepted"] >= 2


class _CountingDict(dict):
    """A mapping that counts whole-mapping scans."""

    scans = 0

    def _scan(self):
        type(self).scans += 1

    def items(self):
        self._scan()
        return super().items()

    def keys(self):
        self._scan()
        return super().keys()

    def values(self):
        self._scan()
        return super().values()

    def __iter__(self):
        self._scan()
        return super().__iter__()


class TestRepairReadsTheLedger:
    """The ejection-chain repair reads each server's VMs off the ledger:
    a search node costs the servers it visits, not a pass over the
    mapping per server."""

    def _stuck_cluster(self):
        # Every server is at its CPU target with room in memory; the
        # 12 GB VM fits only after one 0.9 GHz VM leaves, and every
        # displaced VM starts the same chain again until the depth or
        # node budget runs out.
        servers = tuple(
            make_server_info(f"s{j:02d}", capacity=4.0, memory=16384.0,
                             efficiency=0.02 + 0.001 * j)
            for j in range(12)
        )
        vms = [make_vm_info("big", 1.0, 12288.0)]
        mapping = {}
        for j, server in enumerate(servers):
            for k in range(4):
                vm = make_vm_info(f"v{j:02d}{k}", 0.9, 1024.0)
                vms.append(vm)
                mapping[vm.vm_id] = server.server_id
        return PlacementProblem(servers, tuple(vms), mapping)

    def test_no_mapping_scans_and_same_result_as_reference(self):
        problem = self._stuck_cluster()
        config = PACConfig()
        ref_mapping, ref_still, ref_moved = ipac_reference._repair_unplaced(
            problem, dict(problem.mapping), ["big"], config
        )
        ledger = ipac_module._Ledger(problem, problem.mapping)
        mapping = _CountingDict(problem.mapping)
        _CountingDict.scans = 0
        still, moved = ipac_module._repair_unplaced(
            problem, mapping, ledger, ["big"], config
        )
        assert _CountingDict.scans == 0
        assert (still, moved) == (ref_still, ref_moved)
        assert list(dict.items(mapping)) == list(ref_mapping.items())
        fresh = ipac_module._Ledger(problem, dict(mapping))
        assert (ledger.hosted, ledger.cpu, ledger.mem) == (fresh.hosted, fresh.cpu, fresh.mem)

    def test_ledger_follows_a_successful_chain(self):
        problem = self._stuck_cluster()
        # One server with CPU to spare takes the displaced VM.
        servers = problem.servers + (
            make_server_info("spare", capacity=2.0, memory=2048.0, efficiency=0.001),
        )
        problem = PlacementProblem(servers, problem.vms, problem.mapping)
        ref_mapping, ref_still, ref_moved = ipac_reference._repair_unplaced(
            problem, dict(problem.mapping), ["big"], PACConfig()
        )
        ledger = ipac_module._Ledger(problem, problem.mapping)
        mapping = dict(problem.mapping)
        still, moved = ipac_module._repair_unplaced(
            problem, mapping, ledger, ["big"], PACConfig()
        )
        assert still == ref_still == []
        assert moved == ref_moved and len(moved) == 1
        assert list(mapping.items()) == list(ref_mapping.items())
        fresh = ipac_module._Ledger(problem, mapping)
        assert (ledger.hosted, ledger.cpu, ledger.mem) == (fresh.hosted, fresh.cpu, fresh.mem)


class TestPMapper:
    def test_initial_placement(self, heterogeneous_problem):
        plan = pmapper(heterogeneous_problem)
        assert plan.unplaced == []
        check_plan_feasible(heterogeneous_problem, plan)

    def test_consolidates_to_efficient_servers(self):
        servers = (
            make_server_info("eff", capacity=12.0, efficiency=0.05),
            make_server_info("old", capacity=12.0, efficiency=0.01),
        )
        vms = (make_vm_info("a", 1.0, 100), make_vm_info("b", 1.0, 100))
        mapping = {"a": "old", "b": "old"}
        plan = pmapper(PlacementProblem(servers, vms, mapping))
        assert set(plan.final_mapping.values()) == {"eff"}
        assert plan.sleep == ["old"]

    def test_no_churn_at_steady_state(self):
        servers = (
            make_server_info("eff", capacity=12.0, efficiency=0.05),
            make_server_info("old", capacity=12.0, efficiency=0.01),
        )
        vms = (make_vm_info("a", 1.0, 100), make_vm_info("b", 1.0, 100))
        first = pmapper(PlacementProblem(servers, vms, {}))
        second = pmapper(PlacementProblem(servers, vms, first.final_mapping))
        assert second.migrations == []

    def test_donor_sheds_smallest_first(self):
        servers = (
            make_server_info("eff", capacity=3.0, efficiency=0.05),
            make_server_info("old", capacity=12.0, efficiency=0.01),
        )
        vms = (make_vm_info("big", 2.5, 100), make_vm_info("small", 0.5, 100))
        mapping = {"big": "old", "small": "old"}
        plan = pmapper(PlacementProblem(servers, vms, mapping),
                       PMapperConfig(target_utilization=1.0))
        # Target: both on eff is impossible (3.0 < 3.0 exact fit is allowed:
        # 2.5 + 0.5 = 3.0). FFD places big then small on eff.
        assert plan.final_mapping["big"] == "eff"
        assert plan.final_mapping["small"] == "eff"

    def test_respects_memory(self):
        servers = (
            make_server_info("eff", capacity=12.0, memory=1000.0, efficiency=0.05),
            make_server_info("old", capacity=12.0, memory=8192.0, efficiency=0.01),
        )
        vms = (make_vm_info("a", 1.0, 900.0), make_vm_info("b", 1.0, 900.0))
        plan = pmapper(PlacementProblem(servers, vms, {}))
        check_plan_feasible(PlacementProblem(servers, vms, {}), plan)
        assert len(plan.final_mapping) == 2

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_problems_feasible(self, data):
        n_srv = data.draw(st.integers(1, 5))
        n_vms = data.draw(st.integers(1, 10))
        servers = tuple(
            make_server_info(
                f"s{i}",
                capacity=data.draw(st.floats(2.0, 12.0)),
                efficiency=data.draw(st.floats(0.01, 0.06)),
                active=data.draw(st.booleans()),
            )
            for i in range(n_srv)
        )
        vms = tuple(
            make_vm_info(f"v{j}", demand=data.draw(st.floats(0.1, 1.5)))
            for j in range(n_vms)
        )
        problem = PlacementProblem(servers, vms, {})
        plan = pmapper(problem)
        check_plan_feasible(problem, plan)


def _assert_same_pmapper_plan(problem, config):
    plan = pmapper(problem, config)
    ref = pmapper_reference.pmapper(problem, config)
    assert list(plan.final_mapping.items()) == list(ref.final_mapping.items())
    assert plan.migrations == ref.migrations
    assert (plan.wake, plan.sleep, plan.unplaced, plan.info) == (
        ref.wake, ref.sleep, ref.unplaced, ref.info
    )
    return plan


class TestPMapperMatchesReference:
    """Grouping the hosted VMs by server once gives each donor the list
    that a scan of the whole mapping per donor built
    (``tests/oracles/pmapper_reference.py``), so the same plan."""

    @settings(max_examples=300, deadline=None)
    @given(case=_ipac_cases(), target=st.sampled_from([0.5, 0.8, 0.95, 1.0]))
    def test_same_plan_on_random_instances(self, case, target):
        # Overloaded hosts (donors), emptier efficient servers
        # (receivers), unmapped and homeless VMs, tied demands.
        problem, _reject, _knobs = case
        _assert_same_pmapper_plan(problem, PMapperConfig(target_utilization=target))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_plan_on_a_mid_size_cluster(self, seed):
        problem = _mid_size_cluster(seed)
        plan = _assert_same_pmapper_plan(problem, PMapperConfig())
        assert plan.n_moves > 0, "donors shed VMs onto receivers"
        assert any(m.source_id is None for m in plan.migrations), "unmapped VMs placed"


class TestMinSlackBeatsFFD:
    def test_packing_quality_on_adversarial_instance(self):
        """Minimum Slack fills a bin exactly where FFD leaves slack —
        the packing-quality edge the paper credits IPAC with."""
        servers = (make_server_info("s", capacity=6.0),)
        vms = (
            make_vm_info("a", 5.0, 10),
            make_vm_info("b", 4.0, 10),
            make_vm_info("c", 2.0, 10),
        )
        problem = PlacementProblem(servers, vms, {})
        pac_plan = pac(problem, config=PACConfig(target_utilization=1.0))
        pac_load = sum(
            v.demand_ghz for v in vms if pac_plan.final_mapping.get(v.vm_id) == "s"
        )
        pm_plan = pmapper(problem, PMapperConfig(target_utilization=1.0))
        pm_load = sum(
            v.demand_ghz for v in vms if pm_plan.final_mapping.get(v.vm_id) == "s"
        )
        assert pac_load == pytest.approx(6.0)  # picks 4 + 2
        assert pm_load == pytest.approx(5.0)   # FFD grabs 5 first


class TestMigrationPolicies:
    def _context(self, mandatory=False, benefit=50.0, memory=1024.0):
        vm = make_vm_info("v", 1.0, memory)
        src = make_server_info("src", efficiency=0.01)
        dst = make_server_info("dst", efficiency=0.05)
        return MigrationContext(
            migration=Migration("v", "src", "dst"),
            vm=vm,
            source=src,
            target=dst,
            estimated_benefit_w=benefit,
            migration_model=LiveMigrationModel(),
            mandatory=mandatory,
        )

    def test_allow_all(self):
        assert AllowAllPolicy().allow(self._context())

    def test_benefit_threshold_accepts_big_savings(self):
        policy = BenefitThresholdPolicy(amortization_horizon_s=3600.0)
        assert policy.allow(self._context(benefit=100.0))

    def test_benefit_threshold_rejects_tiny_savings(self):
        policy = BenefitThresholdPolicy(
            amortization_horizon_s=10.0, overhead_w=100.0, safety_factor=10.0
        )
        assert not policy.allow(self._context(benefit=0.01))

    def test_benefit_threshold_always_allows_mandatory(self):
        policy = BenefitThresholdPolicy(
            amortization_horizon_s=1.0, overhead_w=1e6, safety_factor=100.0
        )
        assert policy.allow(self._context(mandatory=True, benefit=0.0))

    def test_bandwidth_budget_exhausts(self):
        policy = BandwidthBudgetPolicy(budget_mb_per_invocation=2000.0)
        ctx = self._context(memory=1024.0)  # ~1331 MB with dirty factor 1.3
        assert policy.allow(ctx)
        assert not policy.allow(ctx)  # budget spent
        policy.reset()
        assert policy.allow(ctx)

    def test_bandwidth_budget_mandatory_bypasses(self):
        policy = BandwidthBudgetPolicy(budget_mb_per_invocation=1.0)
        assert policy.allow(self._context(mandatory=True))

    def test_context_cost_properties(self):
        ctx = self._context(memory=1000.0)
        assert ctx.cost_traffic_mb == pytest.approx(1300.0)
        assert ctx.cost_duration_s > 0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BenefitThresholdPolicy(amortization_horizon_s=0.0)
        with pytest.raises(ValueError):
            BandwidthBudgetPolicy(0.0)
