"""Stateful property testing of the DataCenter placement authority.

Hypothesis drives random interleavings of place / migrate / unplace /
sleep / wake / demand-change operations and checks the global invariants
after every step: mapping consistency, memory feasibility, no VM on a
sleeping server, and power accounting staying within physical bounds.
"""

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from repro.cluster import DataCenter, Server, VM
from repro.cluster.catalog import SERVER_TYPE_A, SERVER_TYPE_B, SERVER_TYPE_C

SERVER_IDS = ["sA", "sB", "sC"]
VM_IDS = [f"v{i}" for i in range(8)]


class DataCenterMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dc = DataCenter()
        for sid, spec in zip(SERVER_IDS, (SERVER_TYPE_A, SERVER_TYPE_B, SERVER_TYPE_C)):
            self.dc.add_server(Server(sid, spec))
        for vm_id in VM_IDS:
            self.dc.add_vm(VM(vm_id, memory_mb=1024, demand_ghz=0.5))

    # -- operations ---------------------------------------------------

    @rule(vm=st.sampled_from(VM_IDS), sid=st.sampled_from(SERVER_IDS))
    def place_or_migrate(self, vm, sid):
        server = self.dc.servers[sid]
        if not server.active:
            return
        current = self.dc.server_of(vm)
        fits = (
            self.dc.total_memory_mb(sid) + self.dc.vms[vm].memory_mb
            <= server.spec.memory_mb
        )
        if current is None:
            if fits:
                self.dc.place(vm, sid)
        elif current != sid:
            if fits:
                self.dc.migrate(vm, sid)

    @rule(vm=st.sampled_from(VM_IDS))
    def unplace(self, vm):
        self.dc.unplace(vm)

    @rule(sid=st.sampled_from(SERVER_IDS))
    def sleep_if_empty(self, sid):
        if not self.dc.vms_on(sid):
            self.dc.sleep_server(sid)

    @rule(sid=st.sampled_from(SERVER_IDS))
    def wake(self, sid):
        self.dc.wake_server(sid)

    @rule(vm=st.sampled_from(VM_IDS), demand=st.floats(0.0, 3.0))
    def set_demand(self, vm, demand):
        self.dc.vms[vm].set_demand(demand)

    @rule(sid=st.sampled_from(SERVER_IDS), level=st.integers(0, 3))
    def set_frequency(self, sid, level):
        server = self.dc.servers[sid]
        levels = server.spec.cpu.freq_levels_ghz
        server.set_frequency(levels[min(level, len(levels) - 1)])

    # -- invariants ------------------------------------------------------

    @invariant()
    def mapping_is_consistent(self):
        for vm_id, vm in self.dc.vms.items():
            sid = self.dc.server_of(vm_id)
            if sid is not None:
                assert vm_id in {v.vm_id for v in self.dc.vms_on(sid)}
        for sid in SERVER_IDS:
            for vm in self.dc.vms_on(sid):
                assert self.dc.server_of(vm.vm_id) == sid

    @invariant()
    def no_vm_on_sleeping_server(self):
        for sid, server in self.dc.servers.items():
            if not server.active:
                assert self.dc.vms_on(sid) == []

    @invariant()
    def memory_never_overcommitted(self):
        for sid, server in self.dc.servers.items():
            assert self.dc.total_memory_mb(sid) <= server.spec.memory_mb

    @invariant()
    def power_within_physical_bounds(self):
        total = self.dc.total_power_w()
        upper = sum(s.spec.power.busy_w for s in self.dc.servers.values())
        lower = sum(s.spec.power.sleep_w for s in self.dc.servers.values())
        assert lower - 1e-9 <= total <= upper + 1e-9

    @invariant()
    def migration_log_is_append_only_and_coherent(self):
        for record in self.dc.migration_log:
            assert record.source_id != record.target_id
            assert record.duration_s > 0


TestDataCenterStateful = DataCenterMachine.TestCase
TestDataCenterStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
