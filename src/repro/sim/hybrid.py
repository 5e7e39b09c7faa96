"""Fluid/MVA fast-forward hybrid plant.

The control loop (paper §V) only consumes *per-period* statistics —
mean / percentile response times, throughput, per-tier CPU usage — yet
the testbed plant simulates every individual request to produce them.
Fluid-limit analysis of processor-sharing queues (Cho & Ko, arXiv
1811.01611) shows that a PS queue under slowly time-varying load is
accurately tracked by its fluid/analytic limit; between control periods
the closed-loop workload is exactly that quasi-static regime.  The
closed multi-tier network of PS stations is product-form, so the exact
MVA recursion in :mod:`repro.apps.queueing` gives the *same mean*
response time and throughput the DES converges to — without simulating
any requests.

:class:`HybridPlant` wraps a :class:`repro.apps.rubbos.MultiTierApp`
and, period by period, decides between:

* **exact** — run the embedded DES for the period (bit-identical to a
  plain run, since the wrapper forwards without re-seeding anything);
* **mva** — leave the DES parked and synthesize the period's
  :class:`~repro.sim.metrics.PeriodStats` from the MVA fixed point at
  the *current* allocations and concurrency.

Switching policy
----------------
A period is simulated exactly when any of these hold:

* a transient was signalled since the last period: a concurrency step,
  an injected fault (tier degradation change), or a per-tier relative
  allocation change above ``alloc_tolerance``;
* any tier is currently degraded (faults are transients by definition);
* a tier has an admission cap (``max_concurrency``), which MVA does not
  model — such apps run exact permanently;
* fewer than ``settle_periods`` consecutive quasi-static exact periods
  have elapsed since the last transient (the DES must re-reach steady
  state before its analytic limit is trusted).

Everything else fast-forwards through MVA.  Allocation changes *below*
``alloc_tolerance`` do not trigger a fallback — the MVA point is
recomputed each period from the latest allocations, which is precisely
the quasi-static fluid approximation.

Reconciliation at switches
--------------------------
* **Latency moments** — MVA yields means only.  The p50/p90/max columns
  of a synthesized period are scaled from the mean using the moment
  ratios (p50/mean, p90/mean, max/mean) measured in the most recent
  exact period with at least ``min_reconcile_samples`` completions, so
  percentile-driven SLA metrics stay continuous across a switch.
* **Request counts** — the fractional part of ``throughput × duration``
  is carried between MVA periods, so long fast-forwarded stretches
  complete the same total request count the fluid limit predicts, with
  no systematic floor() drift.
* **DES state** — the DES is *parked*, not discarded: in-flight
  requests and think timers freeze, and the next exact period resumes
  from that state.  Under the quasi-static assumption the parked state
  is statistically exchangeable with the state at the end of the
  skipped stretch.  (Consequence: the embedded DES clock lags control
  time by the total fast-forwarded duration; request-trace timestamps
  are in DES time.)

Every switch emits a ``hybrid_switch`` telemetry event; per-mode period
counts are kept as telemetry counters and in :meth:`HybridPlant.summary`
(surfaced as ``TestbedResult.hybrid``).  Accuracy in pure-MVA segments
is pinned by ``tests/test_hybrid.py``: per-period mean response times
within the documented tolerance of an exact-DES run of the same
scenario (see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.apps.queueing import approx_mva_closed_network, mva_closed_network
from repro.apps.rubbos import MultiTierApp
from repro.obs import get_telemetry
from repro.sim.metrics import PeriodStats

__all__ = ["HybridConfig", "HybridPlant"]

logger = logging.getLogger(__name__)

#: Fallback moment ratios (p90/mean, p50/mean, max/mean) used only if a
#: synthesized period is requested before any exact period produced
#: enough samples — the exponential-sojourn values, ln10 / ln2, with an
#: arbitrary-but-finite tail for the max.
_DEFAULT_RATIOS = (math.log(10.0), math.log(2.0), 2.0 * math.log(10.0))


@dataclass(frozen=True)
class HybridConfig:
    """Switching-policy knobs for :class:`HybridPlant`.

    Attributes
    ----------
    alloc_tolerance:
        Maximum per-tier relative allocation change treated as
        quasi-static.  Larger changes are transients and force an exact
        period.
    settle_periods:
        Consecutive quasi-static exact periods required after a
        transient before MVA fast-forwarding engages.
    min_reconcile_samples:
        Minimum completions in an exact period for its latency moment
        ratios to be adopted for later synthesized periods.
    max_population_exact_mva:
        Use the exact O(N·M) MVA recursion up to this client count;
        beyond it, Schweitzer's O(M)-per-iteration approximation.
    """

    alloc_tolerance: float = 0.10
    settle_periods: int = 2
    min_reconcile_samples: int = 20
    max_population_exact_mva: int = 2048

    def __post_init__(self):
        if self.alloc_tolerance < 0:
            raise ValueError(
                f"alloc_tolerance must be >= 0, got {self.alloc_tolerance}"
            )
        if self.settle_periods < 1:
            raise ValueError(
                f"settle_periods must be >= 1, got {self.settle_periods}"
            )
        if self.min_reconcile_samples < 1:
            raise ValueError(
                f"min_reconcile_samples must be >= 1, got {self.min_reconcile_samples}"
            )
        if self.max_population_exact_mva < 0:
            raise ValueError(
                "max_population_exact_mva must be >= 0, "
                f"got {self.max_population_exact_mva}"
            )


class HybridPlant:
    """DES plant with analytic fast-forward through quasi-static periods.

    Drop-in replacement for :class:`~repro.apps.rubbos.MultiTierApp` on
    the control surface the testbed backend and
    :class:`~repro.core.manager.PowerManager` use (``set_allocations``,
    ``set_concurrency``, ``degrade_tier``, ``run_period``, ``used_ghz``,
    ``warmup``, …).  Attributes it does not intercept delegate to the
    wrapped app.
    """

    def __init__(self, app: MultiTierApp, config: Optional[HybridConfig] = None):
        self.app = app
        self.hybrid_config = config or HybridConfig()
        # MVA models unbounded PS stations; an admission cap changes the
        # stationary law, so capped apps never fast-forward.
        self._mva_capable = all(
            t.max_concurrency is None for t in app.spec.tiers
        )
        self._pending_transient: Optional[str] = "startup"
        self._quasi_static_streak = 0
        self._ratios: Optional[Tuple[float, float, float]] = None
        self._completed_carry = 0.0
        self._period_index = 0
        self._last_mode: Optional[str] = None
        self._mva_used: Optional[np.ndarray] = None
        #: ``(period_index, mode, reason)`` per period, for tests and
        #: post-run inspection.
        self.mode_log: List[Tuple[int, str, str]] = []
        self.mva_periods = 0
        self.exact_periods = 0
        self.switches = 0

    # -- control surface (intercepted) ---------------------------------

    def set_allocations(self, allocations_ghz) -> None:
        """Forward to the app; flag a transient on a large change.

        The comparison uses the *clipped* target (what the app will
        actually apply) so a grant outside the tier bounds is not
        mistaken for a step.
        """
        target = np.asarray(allocations_ghz, dtype=float)
        current = self.app.allocations_ghz
        if target.shape == current.shape:
            lo = np.asarray([t.min_alloc_ghz for t in self.app.spec.tiers])
            hi = np.asarray([t.max_alloc_ghz for t in self.app.spec.tiers])
            clipped = np.clip(target, lo, hi)
            rel = np.abs(clipped - current) / np.maximum(current, 1e-9)
            if float(rel.max()) > self.hybrid_config.alloc_tolerance:
                self._flag_transient("alloc_step")
        self.app.set_allocations(allocations_ghz)

    def set_concurrency(self, n: int) -> None:
        """Forward to the app; any level change is a transient."""
        if int(n) != self.app.concurrency:
            self._flag_transient("concurrency_step")
        self.app.set_concurrency(n)

    def degrade_tier(self, tier_index: int, fraction: float) -> None:
        """Forward to the app; any degradation change is a fault transient.

        Also reachable mid-period through the plant's own DES (scheduled
        fault recoveries), in which case the flag applies from the next
        period on — exactly when the statistics could diverge.
        """
        if self.app.tier_degrade_fraction(tier_index) != float(fraction):
            self._flag_transient("fault")
        self.app.degrade_tier(tier_index, fraction)

    def warmup(self, duration_s: float) -> None:
        """Warmup always runs the exact DES (it *is* the transient)."""
        self.app.warmup(duration_s)

    def close(self) -> None:
        """End the wrapped app's simulation (:meth:`MultiTierApp.close`)."""
        self.app.close()

    def run_period(self, duration_s: float) -> PeriodStats:
        """One control period: exact DES or MVA fast-forward."""
        if self.app.closed:
            # A fast-forwarded period never touches the DES, so the
            # app's own check would not be reached.
            raise RuntimeError("app is closed")
        reason = self._pending_transient
        self._pending_transient = None
        if not self._mva_capable:
            reason = reason or "admission_gate"
        elif reason is None and any(
            self.app.tier_degrade_fraction(j) != 1.0
            for j in range(self.app.spec.n_tiers)
        ):
            reason = "degraded"
        if reason is not None:
            self._quasi_static_streak = 0
            return self._run_exact(duration_s, reason)
        if self._quasi_static_streak < self.hybrid_config.settle_periods:
            return self._run_exact(duration_s, "settling")
        return self._run_mva(duration_s)

    def used_ghz(self, duration_s: float) -> np.ndarray:
        """Per-tier average GHz over the last period, either mode."""
        if self._last_mode == "mva" and self._mva_used is not None:
            return self._mva_used.copy()
        return self.app.used_ghz(duration_s)

    # -- results -------------------------------------------------------

    def summary(self) -> dict:
        """Per-run switching summary (``TestbedResult.hybrid``)."""
        return {
            "mva_periods": self.mva_periods,
            "exact_periods": self.exact_periods,
            "switches": self.switches,
            "final_mode": self._last_mode,
            "mode_log": [list(entry) for entry in self.mode_log],
        }

    # -- internals -----------------------------------------------------

    def _flag_transient(self, reason: str) -> None:
        if self._pending_transient is None:
            self._pending_transient = reason

    def _log_mode(self, mode: str, reason: str) -> None:
        self.mode_log.append((self._period_index, mode, reason))
        self._period_index += 1
        if mode != self._last_mode:
            if self._last_mode is not None:
                self.switches += 1
            tel = get_telemetry()
            if tel.enabled:
                tel.event(
                    "hybrid_switch",
                    app=self.app.spec.name,
                    period=self._period_index - 1,
                    mode=mode,
                    reason=reason,
                )
            self._last_mode = mode

    def _run_exact(self, duration_s: float, reason: str) -> PeriodStats:
        self._log_mode("exact", reason)
        stats = self.app.run_period(duration_s)
        self.exact_periods += 1
        get_telemetry().count("hybrid.exact_periods", 1)
        # A fault or workload step that fired *during* the period (via
        # the plant's own DES) re-flags; only genuinely quiet periods
        # extend the quasi-static streak.
        if self._pending_transient is None:
            self._quasi_static_streak += 1
        if (
            stats.completed >= self.hybrid_config.min_reconcile_samples
            and math.isfinite(stats.rt_mean_ms)
            and stats.rt_mean_ms > 0
        ):
            self._ratios = (
                stats.rt_p90_ms / stats.rt_mean_ms,
                stats.rt_p50_ms / stats.rt_mean_ms,
                stats.rt_max_ms / stats.rt_mean_ms,
            )
        return stats

    def _run_mva(self, duration_s: float) -> PeriodStats:
        self._log_mode("mva", "quasi_static")
        self.mva_periods += 1
        get_telemetry().count("hybrid.mva_periods", 1)
        get_telemetry().count("hybrid.fast_forward_s", duration_s)
        spec = self.app.spec
        alloc = self.app.allocations_ghz
        n_clients = self.app.concurrency
        n_tiers = spec.n_tiers
        if n_clients == 0 or np.any(alloc <= 0):
            # Empty population (or a stalled tier): same shape an exact
            # empty period produces — no samples, NaN latency columns.
            self._mva_used = np.zeros(n_tiers)
            nan = float("nan")
            return PeriodStats(
                rt_p90_ms=nan,
                rt_mean_ms=nan,
                completed=0,
                throughput_rps=0.0,
                utilizations=tuple(0.0 for _ in range(n_tiers)),
                rt_p50_ms=nan,
                rt_max_ms=nan,
            )
        service = np.asarray(
            [t.demand.mean for t in spec.tiers], dtype=float
        ) / alloc
        solver = (
            mva_closed_network
            if n_clients <= self.hybrid_config.max_population_exact_mva
            else approx_mva_closed_network
        )
        res = solver(service, n_clients, spec.think_time_s)
        mean_ms = res.response_time_s * 1000.0
        raw = res.throughput_rps * duration_s + self._completed_carry
        completed = int(math.floor(raw))
        self._completed_carry = raw - completed
        # used GHz per tier = throughput × mean demand = utilization × alloc.
        self._mva_used = res.throughput_rps * np.asarray(
            [t.demand.mean for t in spec.tiers], dtype=float
        )
        r90, r50, rmax = self._ratios or _DEFAULT_RATIOS
        return PeriodStats(
            rt_p90_ms=mean_ms * r90,
            rt_mean_ms=mean_ms,
            completed=completed,
            throughput_rps=res.throughput_rps,
            utilizations=tuple(
                float(u) for u in np.clip(res.station_utilization, 0.0, 1.0)
            ),
            rt_p50_ms=mean_ms * r50,
            rt_max_ms=mean_ms * rmax,
        )

    # -- delegation ----------------------------------------------------

    def __getattr__(self, name: str) -> Any:
        # Anything not intercepted (spec, sim, concurrency,
        # allocations_ghz, tier_degrade_fraction, drain_traces, ...)
        # behaves exactly as on the wrapped app.
        return getattr(self.app, name)
