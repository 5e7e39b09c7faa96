"""Ablation — MPC tuning: reference time constant and control penalty.

Paper §IV-B: "A smaller Tref causes the system to converge faster to the
set point but may lead to a larger overshoot", and the control-penalty
weight R damps input activity.  This bench measures settling behavior of
the real closed loop (controller + request-level plant) across the two
knobs.
"""

import numpy as np

from repro.apps import AppSpec, MultiTierApp
from repro.control.mpc_core import MPCConfig
from repro.core.controller import ControllerConfig, ResponseTimeController
from repro.util.tables import format_table
from tests.oracles.tracking import tracking_metrics


def _closed_loop(model, tref_s, r_weight, periods=50, seed=404):
    plant = MultiTierApp(AppSpec.rubbos(), [2.0, 2.0], concurrency=40, rng=seed)
    plant.warmup(90)
    ctrl = ResponseTimeController(
        model,
        ControllerConfig(
            setpoint_ms=1000.0,
            period_s=15.0,
            ref_time_constant_s=tref_s,
            mpc=MPCConfig(
                prediction_horizon=8, control_horizon=2,
                q_weight=1.0, r_weight=r_weight,
                delta_max=0.3, power_weight=200.0,
            ),
        ),
        c_min=[0.2, 0.2], c_max=[3.0, 3.0], initial_alloc_ghz=[2.0, 2.0],
    )
    rts = []
    moves = []
    for _ in range(periods):
        stats = plant.run_period(15.0)
        prev = ctrl.current_demand_ghz
        c = ctrl.update(stats.rt_p90_ms, used_ghz=plant.used_ghz(15.0))
        moves.append(float(np.abs(c - prev).sum()))
        plant.set_allocations(c)
        rts.append(stats.rt_p90_ms)
    metrics = tracking_metrics(rts, 1000.0, period_s=15.0)
    settle = metrics.settling_s if np.isfinite(metrics.settling_s) else periods * 15.0
    return (
        settle,
        metrics.steady_state_mean,
        metrics.steady_state_std,
        float(np.mean(moves)),
    )


def test_ablation_mpc_tuning(benchmark, shared_model, report):
    grid = [
        (7.5, 1e5),
        (15.0, 1e5),
        (60.0, 1e5),
        (15.0, 1e4),
        (15.0, 1e6),
    ]

    def run():
        return [
            (tref, r, *_closed_loop(shared_model, tref, r)) for tref, r in grid
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        format_table(
            ["Tref (s)", "R weight", "settling (s)", "tail mean (ms)",
             "tail std (ms)", "mean |dc| per period"],
            rows,
            title="Ablation: MPC reference speed and control penalty "
            "(start from over-provisioned 2 GHz/tier)",
        )
    )
    by_key = {(tref, r): row for (tref, r), row in zip(grid, rows)}
    # All tunings must still track the set point in steady state.
    for (tref, r), row in by_key.items():
        assert abs(row[3] - 1000.0) / 1000.0 < 0.3, (tref, r, row[3])
    # Heavier control penalty means calmer inputs.
    assert by_key[(15.0, 1e6)][5] <= by_key[(15.0, 1e4)][5] + 1e-9
