"""System-identification workflow with validation diagnostics.

Shows the full modeling loop the paper's §IV-B summarizes in one
sentence: design the excitation, collect data from the (simulated)
application, fit candidate ARX structures, and validate them on held-out
data — one-step R^2, free-run RMSE, and residual whiteness.

Run:  python examples/sysid_workflow.py
"""

import numpy as np

from repro.apps import AppSpec, MultiTierApp
from repro.control.stability import arx_poles, is_stable_arx
from repro.sysid import fit_arx, run_identification_experiment
from repro.sysid.validate import one_step_r2, residual_autocorrelation, simulation_rmse
from repro.util.tables import format_table


def collect(seed_app: int, seed_input: int, n_periods: int = 200):
    app = MultiTierApp(AppSpec.rubbos(), [1.0, 1.0], concurrency=40, rng=seed_app)
    return run_identification_experiment(
        app, n_periods=n_periods, period_s=15.0,
        alloc_lower=[0.45, 0.45], alloc_upper=[0.9, 0.9], rng=seed_input,
    )


def main() -> None:
    print("collecting identification and validation datasets...")
    train = collect(seed_app=21, seed_input=22)
    valid = collect(seed_app=23, seed_input=24)

    rows = []
    fits = {}
    for na, nb in [(1, 1), (1, 2), (2, 2)]:
        fit = fit_arx(train.t, train.c, na=na, nb=nb)
        fits[(na, nb)] = fit
        rho = residual_autocorrelation(fit.model, valid.t, valid.c, max_lag=3)
        rows.append([
            f"na={na}, nb={nb}",
            fit.r_squared,
            one_step_r2(fit.model, valid.t, valid.c),
            simulation_rmse(fit.model, valid.t, valid.c),
            float(np.max(np.abs(rho))),
            "yes" if is_stable_arx(fit.model) else "NO",
        ])
    print(format_table(
        ["structure", "train R^2", "held-out R^2", "free-run RMSE (ms)",
         "max |resid. rho|", "stable"],
        rows,
        title="ARX structure comparison (paper uses na=1, nb=2)",
    ))

    model = fits[(1, 2)].model
    print(f"\nselected model (na=1, nb=2):")
    print(f"  t(k) = {model.a[0]:.3f} t(k-1) + {np.round(model.b[0], 1)}·c(k) "
          f"+ {np.round(model.b[1], 1)}·c(k-1) + {model.g:.0f}")
    print(f"  poles: {np.round(arx_poles(model), 3)}")
    print(f"  steady-state gain (ms per GHz): {np.round(model.dc_gain(), 0)}")
    print("  negative gains confirm: more CPU -> lower response time.")


if __name__ == "__main__":
    main()
