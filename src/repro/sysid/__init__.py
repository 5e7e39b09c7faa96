"""System identification (paper §IV-B).

"Rather than building a physical equation between the manipulated
variables and the controlled variable, we infer their relationship by
collecting data in experiments and then establish a statistical model
based on the measured data."  This package provides that workflow:
excitation-signal design, least-squares ARX fitting, and the
identification experiment against a plant; :mod:`repro.sysid.validate`
holds the model-validation statistics.
"""

from repro.sysid.excitation import aprbs, excitation_trajectory
from repro.sysid.fit import FitResult, fit_arx
from repro.sysid.experiment import IdentificationData, run_identification_experiment, identify_app_model

__all__ = [
    "aprbs",
    "excitation_trajectory",
    "FitResult",
    "fit_arx",
    "IdentificationData",
    "run_identification_experiment",
    "identify_app_model",
]
