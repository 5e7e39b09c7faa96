"""Control-theory substrate: QP solver, ARX models, MPC machinery.

The paper's response-time controller is a constrained MIMO Model
Predictive Controller over an identified ARX model.  This package
provides the generic machinery; :mod:`repro.core.controller` assembles
it into the paper's specific controller (Eq. 2-4).
"""

from repro.control.qp import QPResult, solve_qp
from repro.control.arx import ARXModel
from repro.control.mpc_core import MPCConfig, MPCController, MPCSolution

__all__ = [
    "QPResult",
    "solve_qp",
    "ARXModel",
    "MPCConfig",
    "MPCController",
    "MPCSolution",
]
