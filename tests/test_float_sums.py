"""Run-path float totals do not depend on the Python minor version.

CPython 3.12 made the built-in ``sum`` of floats compensated; the pinned
digests come from the plain left fold that earlier versions make.  The
run path therefore totals floats with :func:`repro.util.left_sum`, and
these tests run whole scenarios twice — with this interpreter's ``sum``
and with 3.12's (:mod:`tests.oracles.compensated_sum`) installed as the
built-in — and require results equal to the last bit.
"""

import builtins
import json

import pytest

from repro.cluster import Server
from repro.cluster.catalog import TESTBED_SERVER
from repro.cluster.migration import MigrationRecord
from repro.core.arbitrator import CPUResourceArbitrator
from repro.core.optimizer.types import ApplyReport
from repro.engine.kernel import run_session
from repro.engine.scenario import ScenarioSpec
from repro.service.runner import summarize_run_result
from repro.util import left_sum

from tests.oracles.compensated_sum import compensated_sum

#: The large-scale benchmark shape: 5,415 VMs (the paper's trace size)
#: on 3,000 servers over a one-day trace, IPAC every 16 steps.
LARGESCALE = {
    "name": "largescale-sum",
    "harness": "largescale",
    "params": {"n_vms": 5415, "n_servers": 3000, "scheme": "ipac", "seed": 2010},
    "trace": {"n_servers": 5415, "n_days": 1, "seed": 1002013},
}

#: 48 two-tier apps on 24 servers for 12 periods with a fixed ARX model.
TESTBED = {
    "name": "testbed-sum",
    "harness": "testbed",
    "params": {
        "n_servers": 24,
        "n_apps": 48,
        "concurrency": 10,
        "setpoint_ms": 400.0,
        "duration_s": 180.0,
        "control_mode": "fleet",
        "seed": 2010,
    },
    "model": {"a": [0.00568], "b": [[-188.31, -100.26], [0.0, 0.0]], "g": 340.24},
}


def _run(doc):
    """Summary JSON and the power series of one run of *doc*."""
    spec = ScenarioSpec.from_dict(doc)
    engine, backend = spec.build()
    with run_session(engine, backend):
        engine.run()
        result = backend.result()
    if spec.harness == "testbed":
        power = result.recorder.values("power/total").tolist()
    else:
        power = list(result.power_series_w)
    # JSON text compares NaN fields (an unidentified model's R^2) equal.
    return json.dumps(summarize_run_result(spec, result), sort_keys=True), power


def _run_both_ways(doc):
    native = _run(doc)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(builtins, "sum", compensated_sum)
        compensated = _run(doc)
    return native, compensated


class TestLeftSum:
    def test_is_the_uncompensated_left_fold(self):
        values = [0.1] * 10
        total = 0.0
        for v in values:
            total = total + v
        assert left_sum(values) == total == 0.9999999999999999
        assert compensated_sum(values) == 1.0

    def test_keeps_integer_totals_integer(self):
        assert left_sum([1, 2, 3]) == 6 and type(left_sum([1, 2, 3])) is int
        assert left_sum([]) == 0 and left_sum([], 0.0) == 0.0


class TestTotalsDoNotDependOnSum:
    """Single run-path totals whose last bit 3.12's ``sum`` would move."""

    def test_arbitrator_rations_with_the_left_fold(self, monkeypatch):
        # 5.121 GHz asked of a 4.8 GHz server: rationing scales every
        # demand by capacity / total, so the total's last bit shows.
        demands = {"v0": 1.987, "v1": 1.762, "v2": 0.506, "v3": 0.866}
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        result = CPUResourceArbitrator().arbitrate(
            Server("T0", TESTBED_SERVER), demands
        )
        assert result.overloaded
        assert result.total_demand_ghz == left_sum(demands.values())
        assert result.allocations_ghz["v0"] == 1.8624487404803751

    def test_apply_report_totals_with_the_left_fold(self, monkeypatch):
        records = [
            MigrationRecord(f"v{i}", "S0", "S1", 0.0, 0.1, 0.1) for i in range(10)
        ]
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        report = ApplyReport(records=records)
        assert report.total_duration_s == 0.9999999999999999
        assert report.total_bytes_moved_mb == 0.9999999999999999


class TestResultsDoNotDependOnSum:
    def test_largescale_ipac_run(self):
        (summary, power), (summary_312, power_312) = _run_both_ways(LARGESCALE)
        assert summary == summary_312
        assert power == power_312

    def test_testbed_run(self):
        (summary, power), (summary_312, power_312) = _run_both_ways(TESTBED)
        assert summary == summary_312
        assert power == power_312
