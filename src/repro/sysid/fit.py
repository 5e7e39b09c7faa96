"""Least-squares ARX fitting (the paper's "system identification")."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.control.arx import ARXModel

__all__ = ["FitResult", "fit_arx"]


@dataclass(frozen=True)
class FitResult:
    """An identified model plus regression diagnostics.

    Attributes
    ----------
    model:
        The fitted :class:`~repro.control.arx.ARXModel`.
    r_squared:
        One-step-ahead coefficient of determination on the fitting data.
    rmse:
        Root-mean-square one-step residual (same units as the output).
    n_samples:
        Number of regression rows used.
    condition_number:
        Condition number of the regressor matrix — large values warn
        that the excitation was not rich enough.
    """

    model: ARXModel
    r_squared: float
    rmse: float
    n_samples: int
    condition_number: float


def fit_arx(
    t_series: np.ndarray,
    c_series: np.ndarray,
    na: int = 1,
    nb: int = 2,
) -> FitResult:
    """Fit ``t(k) = sum_p a_p t(k-p) + sum_q b_q' c(k-q) + g`` by least squares.

    Parameters
    ----------
    t_series:
        Output measurements, shape ``(K,)`` — e.g. per-period
        90-percentile response times in ms.  Rows containing NaN outputs
        (periods where no request completed) are dropped.
    c_series:
        Inputs applied during each period, shape ``(K, m)`` — the
        per-tier CPU allocations.  ``c_series[k]`` is the input active
        while ``t_series[k]`` was measured; the regression uses
        ``c(k), c(k-1), ..., c(k-nb+1)`` (this library's period-indexed
        form of the paper's Eq. 1 — see :mod:`repro.control.arx`).
    na, nb:
        Model orders (paper uses na=1, nb=2).

    The affine term ``g`` is always estimated: response-time models are
    local linearizations around an operating point.  The coefficients
    are bounded by what a response-time-vs-capacity plant can physically
    do: every input gain non-positive (more CPU never increases response
    time) and the autoregressive terms in [0, 0.98] (stable,
    non-oscillatory).  Unconstrained noise routinely hands one lag a
    large positive artifact canceled by the next lag — fake dynamics an
    MPC will happily exploit.  The fit is bounded least squares by
    ``scipy.optimize.lsq_linear``; SciPy is imported inside this
    function, so importing this module (every harness does) loads none.
    """
    t = np.asarray(t_series, dtype=float).ravel()
    c = np.atleast_2d(np.asarray(c_series, dtype=float))
    if c.shape[0] != t.shape[0]:
        raise ValueError(
            f"t_series ({t.shape[0]}) and c_series ({c.shape[0]}) lengths differ"
        )
    if na < 1 or nb < 1:
        raise ValueError(f"na and nb must be >= 1, got na={na}, nb={nb}")
    m = c.shape[1]
    lag = max(na, nb - 1)
    K = t.shape[0]
    if K - lag < na + nb * m + 1:
        raise ValueError(
            f"not enough samples ({K}) for na={na}, nb={nb}, m={m}"
        )

    rows = []
    ys = []
    for k in range(lag, K):
        regress = [t[k - p] for p in range(1, na + 1)]
        for q in range(1, nb + 1):
            regress.extend(c[k - q + 1])
        regress.append(1.0)
        row = np.asarray(regress)
        y = t[k]
        if np.all(np.isfinite(row)) and np.isfinite(y):
            rows.append(row)
            ys.append(y)
    X = np.asarray(rows)
    y = np.asarray(ys)
    if X.shape[0] < X.shape[1]:
        raise ValueError(
            f"only {X.shape[0]} finite regression rows for {X.shape[1]} parameters"
        )

    from scipy import optimize

    n_params = X.shape[1]
    lower = np.full(n_params, -np.inf)
    upper = np.full(n_params, np.inf)
    lower[:na] = 0.0
    upper[:na] = 0.98
    upper[na : na + nb * m] = 0.0
    theta = optimize.lsq_linear(X, y, bounds=(lower, upper)).x
    resid = y - X @ theta
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    cond = float(np.linalg.cond(X))

    a = theta[:na]
    b = theta[na : na + nb * m].reshape(nb, m)
    g = float(theta[-1])
    model = ARXModel(a=a, b=b, g=g)
    return FitResult(
        model=model,
        r_squared=float(r2),
        rmse=float(np.sqrt(ss_res / max(len(y), 1))),
        n_samples=len(y),
        condition_number=cond,
    )
