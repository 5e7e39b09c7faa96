"""System identification (paper §IV-B).

"Rather than building a physical equation between the manipulated
variables and the controlled variable, we infer their relationship by
collecting data in experiments and then establish a statistical model
based on the measured data."  This package provides the three pieces of
that workflow: excitation-signal design, least-squares ARX fitting, and
model validation.
"""

from repro.sysid.excitation import prbs, aprbs, excitation_trajectory
from repro.sysid.fit import FitResult, fit_arx
from repro.sysid.validate import one_step_r2, simulation_rmse, residual_autocorrelation
from repro.sysid.experiment import IdentificationData, run_identification_experiment, identify_app_model

__all__ = [
    "prbs",
    "aprbs",
    "excitation_trajectory",
    "FitResult",
    "fit_arx",
    "one_step_r2",
    "simulation_rmse",
    "residual_autocorrelation",
    "IdentificationData",
    "run_identification_experiment",
    "identify_app_model",
]
