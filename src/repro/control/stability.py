"""Open-loop stability of an identified model (paper §IV-B: "analyze the
control performance").

The poles of the identified ARX model are the roots of its
characteristic polynomial; the plant itself must be stable for the
identification-based design to be meaningful.
"""

from __future__ import annotations

import numpy as np

from repro.control.arx import ARXModel

__all__ = ["arx_poles", "is_stable_arx"]


def arx_poles(model: ARXModel) -> np.ndarray:
    """Poles of the ARX model: roots of ``z^na - a1 z^(na-1) - ... - a_na``."""
    coeffs = np.concatenate([[1.0], -model.a])
    return np.roots(coeffs)


def is_stable_arx(model: ARXModel, margin: float = 0.0) -> bool:
    """True when all poles lie strictly inside the unit circle.

    ``margin`` shrinks the allowed radius (e.g. 0.05 requires |z| < 0.95).
    """
    if not 0.0 <= margin < 1.0:
        raise ValueError(f"margin must be in [0, 1), got {margin}")
    poles = arx_poles(model)
    return bool(np.all(np.abs(poles) < 1.0 - margin))
