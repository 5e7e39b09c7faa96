"""Sharded large-scale backend: N pods behind one control plane.

The datacenter partitions into *pods* — contiguous slices of the global
VM population and server pool — and each pod is a complete
:class:`~repro.engine.largescale_backend.LargeScaleBackend` advancing
its own phase pipeline.  The parent :class:`ShardedBackend` composes the
pods behind the standard :class:`~repro.engine.kernel.ControlPlane`
phases:

``optimize``
    Fan every pod forward to the next sync barrier
    (``sync_every_steps`` trace steps).  With ``workers >= 2`` the pods
    advance concurrently in a process pool (stdlib multiprocessing; a
    pod's state never crosses the pipes); with ``workers == 1`` they
    advance inline — the single-process reference arm.
``arbitrate``
    Reconcile the global ledgers: per-step datacenter power and active
    server counts are the sums of the pod slices.
``telemetry``
    Re-emit the pods' buffered telemetry into the parent's backend, in
    pod order.  Event records are re-emitted verbatim (the golden
    event-log hash covers them); span records gain a ``pod`` field for
    per-shard phase profiling.

Determinism contract
--------------------
* ``n_pods=1`` is **bit-identical** to the plain single-process
  backend: the parent draws the global VM population and server pool
  with the plain backend's :func:`draw_population` and injects the
  (whole) slice, so the pod performs the same computation in the same
  order and emits the same event records.
* The worker pool is **worker-count invariant**: pods are deterministic
  and their telemetry is buffered per pod and re-emitted in pod order,
  so ``workers=1`` (inline) and ``workers=N`` (pooled) produce the same
  event stream and the same result — the pool only changes wall-clock.
* With ``n_pods >= 2`` the run is equivalent to running each pod's
  slice through a plain single-process backend (same seeds, same
  filtered fault schedule) and merging: identical event records per
  pod, identical ``vm_energy_wh`` ledgers, identical power series sums.
  It is *not* identical to a 1-pod run of the whole datacenter — the
  global optimizer may pack across pod boundaries; partitioning is a
  modelling choice, not an approximation.
* A resume is the kernel's one strategy, replay: the parent's engine
  re-runs the prefix (each pod replays inside its own worker) with
  telemetry muted, then :meth:`ShardedBackend.load_state_dict` verifies
  the parent's and every pod's snapshot against the checkpoint.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import traceback
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.server import Server
from repro.engine.checkpoint import array_sha256, verify_snapshot
from repro.engine.kernel import ControlPlane, PeriodContext, Phase, run_session
from repro.engine.largescale_backend import LargeScaleBackend, draw_population
from repro.faults import FaultSchedule
from repro.obs import InMemoryBackend, Telemetry, get_telemetry, use_telemetry
from repro.sim.largescale import LargeScaleConfig, LargeScaleResult
from repro.traces.trace import UtilizationTrace
from repro.util.fold import left_sum

__all__ = [
    "ShardedConfig",
    "PodSpec",
    "ShardedBackend",
    "build_sharded_engine",
    "partition_pods",
    "run_sharded",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ShardedConfig:
    """Parameters of one sharded run.

    ``base`` describes the *whole* datacenter (total VMs, total
    servers); pods receive contiguous slices of it.  ``n_pods`` is the
    partition arity, ``workers`` the process-pool width (``1`` =
    inline, no subprocesses; capped at ``n_pods``), and
    ``sync_every_steps`` how many trace steps each pod advances between
    parent sync barriers (the fan-out granularity — larger batches
    amortize IPC, smaller ones tighten the global ledgers' cadence).
    """

    base: LargeScaleConfig
    n_pods: int = 2
    workers: int = 1
    sync_every_steps: int = 16

    def __post_init__(self):
        if self.n_pods < 1:
            raise ValueError(f"n_pods must be >= 1, got {self.n_pods}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.sync_every_steps < 1:
            raise ValueError(
                f"sync_every_steps must be >= 1, got {self.sync_every_steps}"
            )
        if self.n_pods > self.base.n_vms:
            raise ValueError(
                f"n_pods={self.n_pods} exceeds n_vms={self.base.n_vms}"
            )
        if self.n_pods > self.base.n_servers:
            raise ValueError(
                f"n_pods={self.n_pods} exceeds n_servers={self.base.n_servers}"
            )


@dataclass
class PodSpec:
    """Everything needed to build one pod's backend, picklable.

    The parent draws the global VM population and server pool once —
    exactly as a single-process build would — and each spec carries the
    pod's contiguous slice plus its restriction of the fault schedule.
    """

    pod_id: int
    config: LargeScaleConfig  # the pod's slice: n_vms/n_servers resized
    trace: UtilizationTrace
    servers: List[Server]
    vm_peaks: np.ndarray
    vm_memories: np.ndarray
    vm_id_start: int


def _split_ranges(total: int, parts: int) -> List[Tuple[int, int]]:
    """Contiguous near-equal [lo, hi) ranges covering ``range(total)``."""
    q, r = divmod(total, parts)
    ranges = []
    lo = 0
    for p in range(parts):
        hi = lo + q + (1 if p < r else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def _filter_faults(
    schedule: Optional[FaultSchedule], server_ids: Sequence[str]
) -> Optional[FaultSchedule]:
    """Restrict a schedule to one pod's servers.

    Untargeted events (``target is None`` — e.g. global migration
    failures) apply in every pod; targeted events follow their server.
    ``None`` stays ``None`` so the pod keeps the fault-free fast lane.
    """
    if schedule is None:
        return None
    ids = set(server_ids)
    kept = tuple(
        ev for ev in schedule.events if ev.target is None or ev.target in ids
    )
    return FaultSchedule(events=kept, seed=schedule.seed)


def partition_pods(trace: UtilizationTrace, config: ShardedConfig) -> List[PodSpec]:
    """Draw the global population and slice it into pod specs.

    :func:`draw_population` on the *global* config is the draw a plain
    single-process build makes, so a 1-pod partition hands the pod
    byte-identical inputs.
    """
    base = config.base
    if base.n_vms > trace.n_series:
        raise ValueError(
            f"trace has {trace.n_series} series < n_vms={base.n_vms}"
        )
    peaks, memories, pool = draw_population(base)
    if base.faults:
        # Before the pods split the schedule: a target no pod has is an
        # error, not an event every pod drops.
        base.faults.check_server_targets({s.server_id for s in pool})
    vm_ranges = _split_ranges(base.n_vms, config.n_pods)
    srv_ranges = _split_ranges(base.n_servers, config.n_pods)
    specs: List[PodSpec] = []
    for p in range(config.n_pods):
        vlo, vhi = vm_ranges[p]
        slo, shi = srv_ranges[p]
        servers = pool[slo:shi]
        pod_config = replace(
            base,
            n_vms=vhi - vlo,
            n_servers=shi - slo,
            faults=_filter_faults(base.faults, [s.server_id for s in servers]),
        )
        specs.append(
            PodSpec(
                pod_id=p,
                config=pod_config,
                trace=UtilizationTrace(
                    trace.utilization[vlo:vhi].copy(), trace.interval_s
                ),
                servers=servers,
                vm_peaks=peaks[vlo:vhi].copy(),
                vm_memories=memories[vlo:vhi].copy(),
                vm_id_start=vlo,
            )
        )
    return specs


# ------------------------------------------------------------- pods --


class _Pod:
    """One pod: its engine, its shard of the plant, and a telemetry buffer."""

    def __init__(self, spec: PodSpec, tel_enabled: bool, span_sample_every: int):
        self.spec = spec
        self.shard = LargeScaleBackend(
            spec.trace,
            spec.config,
            servers=spec.servers,
            vm_peaks=spec.vm_peaks,
            vm_memories=spec.vm_memories,
            vm_id_start=spec.vm_id_start,
        )
        self.engine = ControlPlane.for_backend(self.shard, "largescale")
        # Pod telemetry is never closed: a close() would append a
        # metrics record that the plain single-process run does not
        # emit at this point in the stream.
        self.tel = (
            Telemetry(InMemoryBackend(), span_sample_every=span_sample_every)
            if tel_enabled
            else Telemetry()
        )

    def drain_records(self) -> List[Dict[str, Any]]:
        if not self.tel.enabled:
            return []
        backend = self.tel.backend
        records = list(backend.records)
        backend.clear()
        return records

    def start(self) -> List[Dict[str, Any]]:
        with use_telemetry(self.tel, close=False):
            self.shard.start()
        return self.drain_records()

    def advance(self, until_step: int) -> Tuple[List[Dict[str, Any]], np.ndarray, np.ndarray]:
        lo = self.engine.k
        with use_telemetry(self.tel, close=False):
            self.engine.run(until_period=until_step)
        hi = self.engine.k
        return (
            self.drain_records(),
            self.shard.power_series[lo:hi].copy(),
            self.shard.active_series[lo:hi].copy(),
        )

    def result(self) -> Tuple[LargeScaleResult, List[Dict[str, Any]]]:
        with use_telemetry(self.tel, close=False):
            res = self.shard.result()
        return res, self.drain_records()


def _serve(pods: List[_Pod], cmd: str, payload: Any = None) -> List[Any]:
    """Run one pod command over *pods*: the single command path.

    The parent calls this directly on its inline pods and every pool
    worker calls it on the pods it was assigned.  Replies are lists of
    ``(pod_id, ...)`` tuples so the parent can merge workers' replies
    and re-emit telemetry in global pod order.
    """
    if cmd == "start":
        return [(pod.spec.pod_id, pod.start()) for pod in pods]
    if cmd == "advance":
        return [(pod.spec.pod_id,) + pod.advance(int(payload)) for pod in pods]
    if cmd == "state":
        return [(pod.spec.pod_id, pod.shard.state_dict()) for pod in pods]
    if cmd == "ledger":
        return [(pod.spec.pod_id, pod.shard.vm_energy_wh) for pod in pods]
    if cmd == "result":
        return [(pod.spec.pod_id,) + pod.result() for pod in pods]
    raise ValueError(f"unknown pod command {cmd!r}")


def _pod_worker_main(
    conn: Any,
    specs: List[PodSpec],
    tel_enabled: bool,
    span_sample_every: int,
) -> None:
    """Worker process loop: build the assigned pods, serve commands.

    Protocol: ``(cmd, payload)`` in, ``("ok", _serve(...))`` or
    ``("error", traceback_str)`` out; ``stop`` ends the loop.
    """
    pods = [_Pod(spec, tel_enabled, span_sample_every) for spec in specs]
    try:
        while True:
            cmd, payload = conn.recv()
            if cmd == "stop":
                conn.send(("ok", None))
                break
            try:
                conn.send(("ok", _serve(pods, cmd, payload)))
            except Exception:
                conn.send(("error", traceback.format_exc()))
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


# ---------------------------------------------------------- backend --


class ShardedBackend:
    """N pod backends behind one arbitrate/optimize control plane."""

    def __init__(self, trace: UtilizationTrace, config: ShardedConfig):
        self.config = config
        self.specs = partition_pods(trace, config)
        self.n_vms = config.base.n_vms
        self.n_srv = config.base.n_servers
        self.workers = min(config.workers, config.n_pods)

        probe = self.specs[0]
        self.n_steps = probe.trace.n_samples
        self.dt_s = float(probe.trace.interval_s)
        self.sync = min(config.sync_every_steps, self.n_steps)

        self.steps_done = 0
        self.power_series = np.zeros(self.n_steps)
        self.active_series = np.zeros(self.n_steps, dtype=int)

        # Telemetry state is read lazily at first pod construction (or
        # taken from the caller by prepare_replay), not here: callers
        # (the repro sim CLI, the service runner) build the engine first
        # and enter their telemetry scope afterwards, and a snapshot
        # taken now would run every pod dark.
        self._tel_params: Optional[Tuple[bool, int]] = None
        self._pods: List[_Pod] = []
        self._procs: List[Any] = []
        self._conns: List[Any] = []
        self._closed = False

    # -- engine wiring -------------------------------------------------

    @property
    def n_periods(self) -> int:
        return -(-self.n_steps // self.sync)

    @property
    def period_s(self) -> float:
        return self.sync * self.dt_s

    def phases(self) -> List[Phase]:
        return [
            Phase("optimize", self.advance_pods),
            Phase("arbitrate", self.arbitrate),
            Phase("telemetry", self.flush_telemetry),
        ]

    # -- worker pool ---------------------------------------------------

    def _telemetry_params(self, tel: Optional[Telemetry] = None) -> Tuple[bool, int]:
        """Pod telemetry settings, captured once: from *tel*, else from the
        telemetry in scope at first pod build."""
        if self._tel_params is None:
            tel = get_telemetry() if tel is None else tel
            self._tel_params = (
                tel.enabled,
                tel.tracer.sample_every if tel.enabled else 1,
            )
        return self._tel_params

    def _ensure_pods(self) -> None:
        """First use: build the pods here, or in a worker pool.

        The one place that decides inline vs pooled; afterwards
        ``_broadcast`` serves whichever of ``_pods`` / ``_conns`` exists.
        """
        if self._pods or self._conns:
            return
        tel_enabled, sample_every = self._telemetry_params()
        if self.workers == 1:
            self._pods = [
                _Pod(spec, tel_enabled, sample_every) for spec in self.specs
            ]
            return
        if self._closed:
            raise RuntimeError(
                "sharded backend is closed; worker state is gone"
            )
        ctx = mp.get_context()
        assignments: List[List[PodSpec]] = [[] for _ in range(self.workers)]
        for spec in self.specs:
            assignments[spec.pod_id % self.workers].append(spec)
        for w in range(self.workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_pod_worker_main,
                args=(
                    child_conn,
                    assignments[w],
                    tel_enabled,
                    sample_every,
                ),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
        logger.info(
            "sharded pool up: %d pods on %d workers", len(self.specs), self.workers
        )

    def _broadcast(self, cmd: str, payload: Any = None) -> List[Any]:
        """Run *cmd* on every pod; replies come back ordered by pod id.

        Pooled: sends complete before any receive so the workers run
        concurrently, then the replies are flattened and sorted.
        """
        self._ensure_pods()
        if self._pods:
            return _serve(self._pods, cmd, payload)
        for conn in self._conns:
            conn.send((cmd, payload))
        merged: List[Any] = []
        for conn in self._conns:
            status, out = conn.recv()
            if status != "ok":
                self.close()
                raise RuntimeError(f"sharded pod worker failed:\n{out}")
            if out:
                merged.extend(out)
        merged.sort(key=lambda item: item[0])
        return merged

    def close(self) -> None:
        """Shut the worker pool down (idempotent; inline mode is a no-op)."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop", None))
            except (OSError, ValueError):
                pass
        for proc, conn in zip(self._procs, self._conns):
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
            try:
                conn.close()
            except OSError:
                pass
        self._procs = []
        self._conns = []

    def __del__(self):  # best-effort: never leak worker processes
        try:
            self.close()
        except Exception:
            pass

    # -- phase bodies --------------------------------------------------

    def prepare_replay(self, telemetry: Telemetry) -> None:
        """Replay-resume hook: the pods are first built during the muted
        replay, so they take their telemetry settings from the scope the
        resumed run emits into."""
        self._telemetry_params(telemetry)

    def start(self) -> None:
        """Begin-run hook: every pod's run header, re-emitted in order."""
        logger.info(
            "sharded run: %d VMs / %d servers in %d pods (%d workers), "
            "%d steps of %.0fs, sync every %d",
            self.n_vms, self.n_srv, self.config.n_pods, self.workers,
            self.n_steps, self.dt_s, self.sync,
        )
        self._reemit([records for _, records in self._broadcast("start")])

    def advance_pods(self, ctx: PeriodContext) -> None:
        """Fan every pod forward to this period's sync barrier."""
        until = min((ctx.k + 1) * self.sync, self.n_steps)
        out = self._broadcast("advance", until)
        ctx.data["pod_records"] = [records for _, records, _, _ in out]
        ctx.data["pod_power"] = [power for _, _, power, _ in out]
        ctx.data["pod_active"] = [active for _, _, _, active in out]
        ctx.data["until"] = until

    def arbitrate(self, ctx: PeriodContext) -> None:
        """Global ledgers: sum the pod slices into the parent series."""
        lo, hi = self.steps_done, ctx.data["until"]
        power = np.zeros(hi - lo)
        active = np.zeros(hi - lo, dtype=int)
        for pod_power, pod_active in zip(
            ctx.data["pod_power"], ctx.data["pod_active"]
        ):
            power += pod_power
            active += pod_active
        self.power_series[lo:hi] = power
        self.active_series[lo:hi] = active
        self.steps_done = hi

    def flush_telemetry(self, ctx: PeriodContext) -> None:
        """Re-emit the pods' buffered records into the parent backend."""
        self._reemit(ctx.data["pod_records"])

    def _reemit(self, per_pod_records: List[List[Dict[str, Any]]]) -> None:
        tel = get_telemetry()
        if not tel.enabled:
            return
        for pod_id, records in enumerate(per_pod_records):
            for record in records:
                if record.get("kind") == "span":
                    # Annotation only — spans are excluded from golden
                    # event-log hashes; event records go out verbatim.
                    record = dict(record, pod=pod_id)
                tel.backend.emit(record)

    # -- results -------------------------------------------------------

    def result(self) -> LargeScaleResult:
        """Merge the pod results into one datacenter-level result."""
        merged = self._broadcast("result")
        self._reemit([records for _, _, records in merged])
        results = [res for _, res, _ in merged]

        total_energy = left_sum(r.total_energy_wh for r in results)
        info: Dict[str, float] = {
            "n_pods": float(self.config.n_pods),
            "workers": float(self.workers),
            "sync_every_steps": float(self.sync),
            "dvfs": float(self.config.base.dvfs_enabled),
            "relief_moves": sum(r.info.get("relief_moves", 0.0) for r in results),
            "migration_energy_wh": left_sum(
                r.info.get("migration_energy_wh", 0.0) for r in results
            ),
        }
        attribution = None
        if all(r.attribution is not None for r in results):
            attribution = self._merge_attribution(results)
        return LargeScaleResult(
            scheme=self.config.base.scheme,
            n_vms=self.n_vms,
            n_steps=self.n_steps,
            step_s=self.dt_s,
            total_energy_wh=total_energy,
            energy_per_vm_wh=total_energy / self.n_vms,
            migrations=sum(r.migrations for r in results),
            mean_active_servers=float(self.active_series.mean()),
            max_active_servers=int(self.active_series.max()),
            overload_server_steps=sum(r.overload_server_steps for r in results),
            unplaced_vm_steps=sum(r.unplaced_vm_steps for r in results),
            power_series_w=self.power_series,
            active_series=self.active_series,
            info=info,
            attribution=attribution,
        )

    def _merge_attribution(self, results: List[LargeScaleResult]) -> Dict[str, Any]:
        """Datacenter-level attribution from the per-pod summaries.

        Each pod already reconciled its ledger against its own total;
        the merge re-derives the global reconciliation error and the
        global top consumers from the pod summaries (pods report their
        own top-10, which covers any global top-10 member).
        """
        total = left_sum(r.attribution["total_wh"] for r in results)
        attributed = left_sum(r.attribution["attributed_wh"] for r in results)
        error = abs(attributed - total) / abs(total) if total else 0.0
        top = sorted(
            (entry for r in results for entry in r.attribution["top_vms"]),
            key=lambda e: -e["energy_wh"],
        )[:10]
        return {
            "n_periods": self.n_steps,
            "total_wh": total,
            "attributed_wh": attributed,
            "unattributed_wh": 0.0,
            "reconciliation_error": error,
            "migration_energy_wh": left_sum(
                r.attribution["migration_energy_wh"] for r in results
            ),
            "vm_mean_wh": attributed / self.n_vms,
            "vm_max_wh": max(r.attribution["vm_max_wh"] for r in results),
            "top_vms": top,
            "per_pod": [
                {
                    "pod": p,
                    "total_wh": r.attribution["total_wh"],
                    "reconciliation_error": r.attribution["reconciliation_error"],
                }
                for p, r in enumerate(results)
            ],
        }

    def vm_energy_ledger(self) -> Optional[np.ndarray]:
        """Global per-VM energy (pod ledgers concatenated in pod order).

        ``None`` unless the base config set ``attribute_power``.
        """
        if not self.config.base.attribute_power:
            return None
        return np.concatenate(
            [ledger for _, ledger in self._broadcast("ledger")]
        )

    # -- checkpointing -------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot a resumed run's replay is verified against: the
        parent's counters and series prefix (sha256), then every pod's
        :meth:`LargeScaleBackend.state_dict`."""
        done = self.steps_done
        return {
            "n_pods": self.config.n_pods,
            "steps_done": done,
            "power_series": array_sha256(self.power_series[:done]),
            "active_series": array_sha256(self.active_series[:done]),
            "pods": [state for _, state in self._broadcast("state")],
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Verify the replayed parent and pods against the checkpoint."""
        verify_snapshot(self.state_dict(), state, "sharded")


def build_sharded_engine(
    trace: UtilizationTrace, config: ShardedConfig
) -> "tuple[ControlPlane, ShardedBackend]":
    """Build the kernel + sharded backend pair for one run."""
    backend = ShardedBackend(trace, config)
    return ControlPlane.for_backend(backend, "sharded-largescale"), backend


def run_sharded(trace: UtilizationTrace, config: ShardedConfig) -> LargeScaleResult:
    """Run one sharded configuration to completion; returns the merged
    result.  The worker pool (if any) is shut down before returning."""
    engine, backend = build_sharded_engine(trace, config)
    with run_session(engine, backend):
        engine.run()
        return backend.result()
