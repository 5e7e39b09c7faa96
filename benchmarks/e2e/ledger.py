"""The traced pass: one extra run per workload that fills the per-layer ledger.

Everything here measures from outside the program.  The benchmark's own
spans wrap the calls into each layer — every ``Phase`` of the public
``engine.phases`` list, each testbed plant's ``run_period``, the
large-scale backend's ``optimizer`` callable — and counts come from the
program's existing telemetry counters and span annotations, read after a
run under ``use_telemetry(Telemetry(InMemoryBackend()))``.  Spans stay in
memory (:class:`SpanLog`) and are folded into the ledger when the pass
ends.  The traced digest must equal the dark one: tracing observes, it
never steers.

Three side passes ride along, each a plain dark run of a variant spec:
the dark reference (``bench.trace_overhead_share``), the instrumented
run with the product JSONL backend (``obs.*``), and for a sharded spec
the same pods on a two-worker process pool (``sharded.*``).
"""

from __future__ import annotations

import json
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import run as runner

#: Width of the process pool the traced pass re-runs a sharded spec on
#: (the timed passes advance the pods inline; README.md says why).
POOL_WORKERS = 2


class SpanLog:
    """In-memory spans ``(name, parent, start, end)`` of wrapped calls."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, Optional[str], float, float]] = []
        self._open: List[str] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn*, recording one span named *name* per call."""
        def timed(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            self._open.append(name)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._open.pop()
                self.spans.append((name, parent, t0, t1))
        return timed

    def durations(self, name: str) -> List[float]:
        return [end - start for n, _, start, end in self.spans if n == name]

    def busy_s(self, name: str) -> float:
        return sum(self.durations(name))


@contextmanager
def instrumented(engine, backend, log: SpanLog) -> Iterator[None]:
    """Wrap the layer boundaries reachable from outside; undo on exit.

    * every ``Phase`` in ``engine.phases`` -> span ``phase.<name>``;
    * testbed plants' ``run_period`` -> span ``apps.run_period``;
    * the large-scale ``backend.optimizer`` callable (the scheme default
      ``spec.build()`` installed) -> span ``core.optimizer.call``.
    """
    from repro.engine.kernel import Phase

    phases = list(engine.phases)
    plants = list(getattr(backend, "plants", []))
    optimizer = getattr(backend, "optimizer", None)
    engine.phases[:] = [
        Phase(p.name, log.wrap(f"phase.{p.name}", p.run)) for p in phases
    ]
    for plant in plants:
        plant.run_period = log.wrap("apps.run_period", plant.run_period)
    if optimizer is not None:
        backend.optimizer = log.wrap("core.optimizer.call", optimizer)
    try:
        yield
    finally:
        engine.phases[:] = phases
        for plant in plants:
            del plant.run_period  # drop the instance shadow of the method
        if optimizer is not None:
            backend.optimizer = optimizer


def traced_pass(spec):
    """One run with wrappers on and program telemetry in memory.

    Returns ``(run_s, outcome, layer values)``.
    """
    from repro.obs import InMemoryBackend, Telemetry, use_telemetry

    log = SpanLog()
    tel = Telemetry(InMemoryBackend())
    with use_telemetry(tel, close=False):
        engine, backend, build_s, start_s = runner.set_up(spec)
        try:
            with instrumented(engine, backend, log):
                t0 = time.perf_counter()
                engine.run()
                result = backend.result()
                run_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            blob = json.dumps(engine.checkpoint())
            checkpoint_s = time.perf_counter() - t0
        finally:
            t0 = time.perf_counter()
            runner.close(backend)
            run_s += time.perf_counter() - t0  # dark passes time close() too
    outcome = runner.evaluate(spec, engine, backend, result)
    values = layer_metrics(spec, run_s, outcome.units, log, tel)
    values.update({
        "setup.build_s": build_s,
        "setup.start_s": start_s,
        "engine.checkpoint_ms": 1e3 * checkpoint_s,
        "engine.checkpoint_kb": len(blob) / 1024.0,
        "sharded.barriers": float(engine.n_periods if spec.harness == "sharded" else 0),
    })
    return run_s, outcome, values


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spec, run_s: float, units: int, log: SpanLog, tel) -> Dict[str, float]:
    """Fold spans, counters and span annotations into the ledger."""
    from repro.engine.kernel import PHASE_NAMES
    from repro.sim.largescale import LargeScaleConfig

    counters = tel.registry.snapshot()["counters"]

    def count(name: str) -> float:
        return float(counters.get(name, 0.0))

    out: Dict[str, float] = {}
    for phase in PHASE_NAMES:
        out[f"engine.phase.{phase}.busy_s"] = log.busy_s(f"phase.{phase}")
    out["engine.loop_other_s"] = max(run_s - sum(out.values()), 0.0)

    sense = out["engine.phase.sense.busy_s"]
    periods = log.durations("apps.run_period")
    out["sim.des.events"] = count("des.events")
    out["sim.des.events_per_s"] = ratio(count("des.events"), sense)
    out["apps.run_period_ms_p50"] = 1e3 * statistics.median(periods) if periods else 0.0
    out["apps.run_period_calls"] = float(len(periods))

    out["sysid.rls.updates"] = count("sysid.rls.updates")

    control = out["engine.phase.control.busy_s"]
    app_periods = units if spec.harness == "testbed" else 0
    solves = count("mpc.solves")
    out["control.ms_per_app_period"] = 1e3 * ratio(control, app_periods)
    out["control.mpc.solves"] = solves
    out["control.mpc.softened_share"] = ratio(count("mpc.terminal_softened"), solves)
    out["control.mpc.warm_hit_share"] = ratio(count("mpc.warm_hits"), solves)
    out["core.fleet.batch_groups"] = count("controller.batch_groups")
    out["core.arbitrator.passes"] = count("arbitrator.passes")

    # Optimizer and packing counts come from event/span *records*, not
    # the counter registry: sharded pods count in their own processes
    # and only their records are re-emitted to the parent.
    invocations = tel.backend.of_kind("optimizer_invocation")
    searches = [r for r in tel.backend.of_kind("span") if r["name"] == "minslack.search"]
    nodes = sum(int(r["nodes"]) for r in searches)
    attempted = sum(r["info"].get("drain_rounds_attempted", 0.0) for r in invocations)
    accepted = sum(r["info"].get("drain_rounds_accepted", 0.0) for r in invocations)
    budget = int(spec.params.get("minslack_max_steps", LargeScaleConfig.minslack_max_steps))
    call_s = log.busy_s("core.optimizer.call")
    optimize = out["engine.phase.optimize.busy_s"]
    out["core.optimizer.invocations"] = float(len(invocations))
    out["core.optimizer.call_s"] = call_s
    out["core.optimizer.call_share"] = ratio(call_s, optimize)
    out["core.optimizer.migrations"] = float(sum(r["moves"] for r in invocations))
    out["core.optimizer.drain_accept_share"] = ratio(accepted, attempted)
    out["packing.minslack.searches"] = float(len(searches))
    out["packing.minslack.nodes"] = float(nodes)
    out["packing.minslack.nodes_per_s"] = ratio(nodes, optimize)
    out["packing.minslack.eps_escalation_share"] = ratio(
        sum(int(r["nodes"]) // budget for r in searches), len(searches)
    )
    return out


def obs_pass(spec, scratch: Path) -> Tuple[float, int, float]:
    """The run as an operator would instrument it: product JSONL backend,
    power attribution, and (testbed) every 10th request traced.

    Returns ``(run_s, events written, log size in MiB)``.
    """
    from repro.obs import JsonlBackend, Telemetry, use_telemetry

    extra: Dict[str, Any] = {"attribute_power": True}
    if spec.harness == "testbed":
        extra["trace_requests_every"] = 10
    lit = replace(spec, params={**spec.params, **extra})
    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=scratch) as tmp:
        path = Path(tmp) / "run.jsonl"
        backend = JsonlBackend(path)
        with use_telemetry(Telemetry(backend)):
            sample = runner.run_once(lit)
        return sample.run_s, backend.n_written, path.stat().st_size / 2**20


def trace_workload(spec, scratch: Path) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The ``--trace 1`` measurement: per-layer values + a detail record."""
    dark = runner.run_once(spec)
    run_s, outcome, values = traced_pass(spec)
    problems = dark.outcome.problems + outcome.problems
    if outcome.digest != dark.outcome.digest:
        problems.append("traced digest differs from the dark run's")
    values["bench.trace_overhead_share"] = run_s / dark.run_s - 1.0

    lit_run_s, n_events, log_mb = obs_pass(spec, scratch)
    values["obs.overhead_share"] = lit_run_s / dark.run_s - 1.0
    values["obs.events"] = float(n_events)
    values["obs.jsonl_mb"] = log_mb

    if spec.harness == "sharded":
        pooled = runner.run_once(
            replace(spec, params={**spec.params, "workers": POOL_WORKERS})
        )
        # The digest covers result.info["workers"], so compare the simulated
        # statistics themselves: worker-count invariance makes them bit-equal.
        if (pooled.outcome.energy_wh_per_vm, pooled.outcome.slo_met_share) != (
            dark.outcome.energy_wh_per_vm, dark.outcome.slo_met_share
        ):
            problems.append("pooled result differs from the inline run's")
        values["sharded.pooled_run_s"] = pooled.run_s
        values["sharded.scaleout_x"] = dark.run_s / pooled.run_s
        values["sharded.parallel_efficiency"] = dark.run_s / pooled.run_s / POOL_WORKERS
    else:
        for name in ("pooled_run_s", "scaleout_x", "parallel_efficiency"):
            values[f"sharded.{name}"] = 0.0
    detail = {
        "digest": outcome.digest,
        "problems": problems,
        "attempted": dark.outcome.units + outcome.units,
        "failed": dark.outcome.failed + outcome.failed,
        "dark_run_s": dark.run_s,
        "traced_run_s": run_s,
    }
    return values, detail
