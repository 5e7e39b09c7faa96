"""The paper's application-level response time controller (§IV).

One controller per multi-tier application.  Every control period it
receives the measured 90-percentile response time, solves the MPC
problem of Eq. 2-4 over the identified ARX model, and emits the CPU
*demands* (GHz per VM) that the server-level arbitrators then satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.control.arx import ARXModel
from repro.control.mpc_core import MPCConfig, MPCController, MPCSolution
from repro.core.controller.reference import exponential_reference
from repro.obs import get_telemetry
from repro.util.validation import check_positive

__all__ = ["ControllerConfig", "PendingUpdate", "ResponseTimeController"]

#: Measured response times are clamped to this (ms) before they reach
#: the (local, linear) model: an overloaded plant can return arbitrarily
#: large percentiles that would catapult the linear prediction far
#: outside its valid region.  It also bounds the output-bias estimate
#: and is the value a non-finite measurement is replaced by.
_MEASUREMENT_LIMIT_MS = 3000.0
#: Additive headroom (GHz) on the utilization band's upper cap.
_UTIL_BAND_HEADROOM_GHZ = 0.1
#: Consecutive lost samples held under ``missing_policy="hold"``
#: before escalating to the pessimistic substitution.
_MAX_HOLD_PERIODS = 3


@dataclass(frozen=True)
class ControllerConfig:
    """Tuning of one response-time controller.

    Attributes
    ----------
    setpoint_ms:
        Ts — the 90-percentile response-time SLA target.
    period_s:
        T — the control period (seconds; the paper uses "several
        seconds" to react to short-term workload variation).
    ref_time_constant_s:
        Tref of the exponential reference trajectory (Eq. 3).
    mpc:
        Horizons and weights of the underlying MPC (Eq. 2).
    bias_gain:
        Filter gain of the output-disturbance estimate (offset-free
        MPC).  Each period the estimate moves this fraction of the way
        toward the latest innovation ``t(k) - t̂(k|k-1)``; 0 disables
        the correction.  This keeps tracking offset-free when the plant
        drifts away from the identified model — the robustness the
        paper demonstrates in its Figs. 4-5.
    util_band:
        Optional per-tier utilization guard ``(lo, hi)``.  When the
        caller supplies measured per-tier CPU usage, each tier's
        allocation is dynamically bounded to keep its utilization inside
        the band: at least ``used/hi`` (no tier starves at 100%
        utilization) and at most ``used/lo`` plus
        ``_UTIL_BAND_HEADROOM_GHZ`` (no tier hoards idle cycles; the
        headroom lets a tier grow out of a near-idle state).  The
        identified model is a *local* linearization whose per-tier gains
        are badly wrong far from the operating point; the band keeps the
        MIMO optimizer inside the region where those gains are
        meaningful.  ``None`` disables.
    missing_policy:
        What a non-finite (NaN/inf) measurement means.
        ``"pessimistic"`` (default, the original behaviour): treat it
        as total starvation — substitute the clamp limit so allocation
        is pushed up.  ``"hold"``: treat it as a *lost sample* (sensor
        dropout, monitoring outage) — keep the last demands unchanged
        and skip the model update, for up to ``_MAX_HOLD_PERIODS``
        consecutive losses, after which the controller falls back to
        the pessimistic substitution (a long outage is
        indistinguishable from starvation).  Held periods increment the
        ``controller.held_updates`` telemetry counter; every non-finite
        sample increments ``controller.missing_measurements``.
    """

    setpoint_ms: float = 1000.0
    period_s: float = 15.0
    ref_time_constant_s: float = 15.0
    mpc: MPCConfig = field(default_factory=lambda: MPCConfig(
        prediction_horizon=8,
        control_horizon=2,
        q_weight=1.0,
        r_weight=1e5,
        delta_max=0.3,
        power_weight=200.0,
    ))
    bias_gain: float = 0.3
    util_band: Optional[tuple] = (0.75, 0.985)
    missing_policy: str = "pessimistic"

    def __post_init__(self):
        if self.missing_policy not in ("pessimistic", "hold"):
            raise ValueError(
                f"missing_policy must be 'pessimistic' or 'hold', "
                f"got {self.missing_policy!r}"
            )
        check_positive("setpoint_ms", self.setpoint_ms)
        check_positive("period_s", self.period_s)
        check_positive("ref_time_constant_s", self.ref_time_constant_s)
        if not 0.0 <= self.bias_gain <= 1.0:
            raise ValueError(f"bias_gain must be in [0, 1], got {self.bias_gain}")
        if self.util_band is not None:
            lo, hi = self.util_band
            if not 0.0 < lo < hi <= 1.0:
                raise ValueError(f"util_band must satisfy 0 < lo < hi <= 1, got {self.util_band}")


@dataclass
class PendingUpdate:
    """One controller's period, split at the MPC solve.

    Produced by :meth:`ResponseTimeController.prepare` and consumed by
    :meth:`ResponseTimeController.finish` — the seam the fleet control
    step (:class:`repro.core.fleet.FleetControlStep`) batches across:
    everything before the solve runs per controller, the solves
    themselves are grouped, and everything after fans back out.

    ``held`` short-circuits the period (missing-measurement hold):
    ``demands`` already carries the re-emitted allocations and there is
    nothing to solve.  Otherwise ``request`` holds the exact keyword
    arguments of :meth:`repro.control.mpc_core.MPCController.solve`, and
    ``lo``/``hi`` the effective bounds the finish step clips against.
    """

    held: bool
    demands: Optional[np.ndarray] = None
    request: Optional[dict] = None
    lo: Optional[np.ndarray] = None
    hi: Optional[np.ndarray] = None


class ResponseTimeController:
    """MIMO MPC response-time controller for one application.

    Parameters
    ----------
    model:
        Identified ARX response-time model (output ms, inputs GHz).
    config:
        Controller tuning.
    c_min, c_max:
        Per-VM allocation bounds (GHz) — actuator constraints.
    initial_alloc_ghz:
        Allocation assumed to be active when control starts.
    """

    def __init__(
        self,
        model: ARXModel,
        config: ControllerConfig,
        c_min: Sequence[float],
        c_max: Sequence[float],
        initial_alloc_ghz: Sequence[float],
    ):
        self.model = model
        self.config = config
        self.c_min = np.asarray(c_min, dtype=float)
        self.c_max = np.asarray(c_max, dtype=float)
        m = model.n_inputs
        if self.c_min.shape != (m,) or self.c_max.shape != (m,):
            raise ValueError(f"bounds must have length {m}")
        if np.any(self.c_min > self.c_max):
            raise ValueError("c_min must be <= c_max elementwise")
        init = np.clip(np.asarray(initial_alloc_ghz, dtype=float), self.c_min, self.c_max)
        if init.shape != (m,):
            raise ValueError(f"initial_alloc_ghz must have length {m}")
        self._mpc = MPCController(model, config.mpc)
        # Histories, most-recent-first, seeded at the assumed steady state.
        self._t_hist: List[float] = [config.setpoint_ms] * max(model.na, 1)
        self._c_hist: List[np.ndarray] = [init.copy() for _ in range(max(model.nb, 1))]
        self._last_valid_t = config.setpoint_ms
        self._bias = 0.0
        self._last_raw_prediction: Optional[float] = None
        self._consecutive_missing = 0
        self.held_updates = 0
        self.last_solution: Optional[MPCSolution] = None

    @property
    def output_bias_ms(self) -> float:
        """Current output-disturbance (plant-model mismatch) estimate."""
        return self._bias

    @property
    def current_demand_ghz(self) -> np.ndarray:
        """Most recently emitted per-VM CPU demand (GHz)."""
        return self._c_hist[0].copy()

    def update(
        self, measured_rt_ms: float, used_ghz: Optional[Sequence[float]] = None
    ) -> np.ndarray:
        """One control-period step: consume t(k), emit c(k+1).

        ``used_ghz`` is the measured per-tier CPU actually consumed last
        period; when provided (and ``util_band`` is configured) it drives
        the dynamic per-tier allocation bounds.

        A non-finite measurement is handled by ``config.missing_policy``:
        replaced by the clamp limit — the most pessimistic in-range
        value, so the controller pushes allocation up instead of
        stalling — or (``"hold"``) the last demands are re-emitted
        unchanged for up to ``_MAX_HOLD_PERIODS`` consecutive losses
        before escalating to the pessimistic substitution.

        The body is :meth:`prepare`, the MPC solve and :meth:`finish` —
        the same halves the fleet control step runs across many
        controllers, so the scalar and batched paths share every line of
        per-period state handling.
        """
        pending = self.prepare(measured_rt_ms, used_ghz=used_ghz)
        if pending.held:
            return pending.demands
        return self.finish(pending, self._mpc.solve(**pending.request))

    # -- the period split at the MPC solve -----------------------------

    def prepare(
        self, measured_rt_ms: float, used_ghz: Optional[Sequence[float]] = None
    ) -> PendingUpdate:
        """Everything before the MPC solve: measurement handling, bias
        innovation, history push, reference and effective bounds.

        Mutates the controller exactly as the historical inline
        :meth:`update` did up to the solve call, and returns either a
        held result or the solve request.
        """
        cfg = self.config
        if not np.isfinite(measured_rt_ms):
            self._consecutive_missing += 1
            get_telemetry().count("controller.missing_measurements")
            if (
                cfg.missing_policy == "hold"
                and self._consecutive_missing <= _MAX_HOLD_PERIODS
            ):
                # Lost sample: no new information, keep the last demands
                # and leave model histories / bias untouched.
                self.held_updates += 1
                get_telemetry().count("controller.held_updates")
                return PendingUpdate(held=True, demands=self._c_hist[0].copy())
            t_k = _MEASUREMENT_LIMIT_MS
        else:
            self._consecutive_missing = 0
            t_k = float(np.clip(measured_rt_ms, 0.0, _MEASUREMENT_LIMIT_MS))
            self._last_valid_t = t_k
        # Offset-free correction: filter the innovation between what the
        # raw model predicted for this period and what was measured.
        if self._last_raw_prediction is not None and cfg.bias_gain > 0.0:
            innovation = t_k - self._last_raw_prediction
            self._bias += cfg.bias_gain * (innovation - self._bias)
            # The disturbance estimate is a correction within the plant's
            # plausible output range; an unbounded estimate would mean the
            # model is broken, not that the disturbance is that large.
            self._bias = float(np.clip(
                self._bias, -_MEASUREMENT_LIMIT_MS, _MEASUREMENT_LIMIT_MS
            ))
        self._t_hist.insert(0, t_k)
        self._t_hist = self._t_hist[: max(self.model.na, 1)]

        ref = exponential_reference(
            t_k,
            cfg.setpoint_ms,
            cfg.mpc.prediction_horizon,
            cfg.period_s,
            cfg.ref_time_constant_s,
        )
        lo, hi = self._effective_bounds(used_ghz)
        request = dict(
            t_hist=self._t_hist,
            c_hist=np.asarray(self._c_hist),
            reference=ref,
            setpoint=cfg.setpoint_ms,
            c_min=lo,
            c_max=hi,
            output_bias=self._bias,
        )
        return PendingUpdate(held=False, request=request, lo=lo, hi=hi)

    def finish(self, pending: PendingUpdate, solution: MPCSolution) -> np.ndarray:
        """Everything after the MPC solve: record the solution, stage
        the next innovation, clip and push the new demands."""
        self.last_solution = solution
        # predicted_outputs[0] includes the bias; store the raw model
        # prediction of the next measurement for the next innovation.
        self._last_raw_prediction = float(solution.predicted_outputs[0]) - self._bias
        c_next = np.clip(self._c_hist[0] + solution.delta_c, pending.lo, pending.hi)
        self._c_hist.insert(0, c_next)
        self._c_hist = self._c_hist[: max(self.model.nb, 1)]
        return c_next.copy()

    def _effective_bounds(
        self, used_ghz: Optional[Sequence[float]]
    ) -> tuple:
        """Static actuator limits tightened by the utilization band."""
        cfg = self.config
        if used_ghz is None or cfg.util_band is None:
            return self.c_min, self.c_max
        used = np.asarray(used_ghz, dtype=float)
        if used.shape != self.c_min.shape:
            raise ValueError(
                f"used_ghz must have shape {self.c_min.shape}, got {used.shape}"
            )
        band_lo, band_hi = cfg.util_band
        lo = np.maximum(self.c_min, used / band_hi)
        hi = np.minimum(
            self.c_max, used / band_lo + _UTIL_BAND_HEADROOM_GHZ
        )
        # Keep the box non-empty and reachable from the current input
        # under the rate limit (otherwise the QP would be infeasible).
        c_now = self._c_hist[0]
        if cfg.mpc.delta_max is not None:
            lo = np.minimum(lo, c_now + cfg.mpc.delta_max)
            hi = np.maximum(hi, c_now - cfg.mpc.delta_max)
        lo = np.minimum(lo, self.c_max)
        hi = np.maximum(hi, lo)
        return lo, hi

    def state_dict(self) -> dict:
        """JSON-safe snapshot of the control state (engine checkpoints).

        Covers everything :meth:`update` reads or writes across periods:
        the output/input histories, the offset-free bias estimate, the
        missing-measurement bookkeeping, and the MPC warm state.  The
        model and config are construction-time inputs, not state.
        """
        return {
            "t_hist": [float(t) for t in self._t_hist],
            "c_hist": [[float(v) for v in c] for c in self._c_hist],
            "last_valid_t": float(self._last_valid_t),
            "bias": float(self._bias),
            "last_raw_prediction": (
                None if self._last_raw_prediction is None
                else float(self._last_raw_prediction)
            ),
            "consecutive_missing": self._consecutive_missing,
            "held_updates": self.held_updates,
            "mpc": self._mpc.state_dict(),
        }

    def load_state_dict(self, state) -> None:
        """Restore :meth:`state_dict` so control resumes bit-identically."""
        c_hist = [np.asarray(c, dtype=float) for c in state["c_hist"]]
        if any(c.shape != self.c_min.shape for c in c_hist):
            raise ValueError(
                f"checkpoint c_hist entries must have shape {self.c_min.shape}"
            )
        self._t_hist = [float(t) for t in state["t_hist"]]
        self._c_hist = c_hist
        self._last_valid_t = float(state["last_valid_t"])
        self._bias = float(state["bias"])
        raw = state["last_raw_prediction"]
        self._last_raw_prediction = None if raw is None else float(raw)
        self._consecutive_missing = int(state["consecutive_missing"])
        self.held_updates = int(state["held_updates"])
        self._mpc.load_state_dict(state["mpc"])

    def notify_allocation(self, actual_alloc_ghz: Sequence[float]) -> None:
        """Overwrite the newest input-history entry with what was *actually*
        granted (anti-windup: when the arbitrator rations an overloaded
        server, the controller must not believe its full demand applied)."""
        actual = np.asarray(actual_alloc_ghz, dtype=float)
        if actual.shape != self._c_hist[0].shape:
            raise ValueError(
                f"expected shape {self._c_hist[0].shape}, got {actual.shape}"
            )
        self._c_hist[0] = actual.copy()
