"""Generic constrained MPC over an ARX model.

Implements the optimization the paper's controller solves each control
period (its Eq. 2 cost, Eq. 4 terminal constraint) for any ARX model:

``min_u  sum_{i=1..P} Q (t(k+i|k) - ref_i)^2  +  sum_{i=0..M-1} |dc_i|^2_R``

subject to actuator bounds on the resulting absolute inputs, an optional
aggregate-capacity cap, and the terminal equality ``t(k+M|k) = Ts``.
When the set point is not reachable within M steps under the bounds, the
terminal equality is softened into a large quadratic penalty — the
standard practical treatment — and the solution is flagged accordingly.
A controller riding its allocation bounds is in that state every period,
so it is decided without a solver wherever it can be:
:meth:`MPCController._terminal_unreachable` bounds the terminal output
over the actuator box in closed form, and a set point proved out of
range goes straight to the softened QP.  Only what the bound cannot
decide (the aggregate cap, a set point within tolerance of the range's
edge) is still found out by the hard QP failing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.control.arx import ARXModel
from repro.control.qp import QPResult, solve_qp, solve_qp_batch
from repro.obs import get_telemetry

__all__ = ["MPCConfig", "MPCSolution", "MPCController", "solve_mpc_batch"]

#: Slack the reachability certificate grants the hard-terminal QP before
#: calling it infeasible.  It must cover every tolerance under which
#: ``solve_qp`` / SLSQP would still return a solution: each inequality
#: row may be violated by ``solve_qp``'s ``tol`` (1e-8), and the
#: equality is accepted within 1e-6 absolute (SLSQP's ``acc`` is 1e-12).
_REACH_ROW_TOL = 1e-8
_REACH_EQ_MARGIN = 1e-5
#: Weight of the quadratic penalty the terminal equality is softened
#: into when it is infeasible under the actuator bounds.
_TERMINAL_SOFT_WEIGHT = 1e4


@dataclass(frozen=True)
class MPCConfig:
    """Tuning knobs of the MPC (paper §IV-B notation).

    Attributes
    ----------
    prediction_horizon:
        P — periods over which tracking error is penalized.
    control_horizon:
        M — periods with free input changes (P >= M >= 1).
    q_weight:
        Q — tracking-error weight.
    r_weight:
        R — control-penalty weight; scalar or per-input vector.  "can be
        tuned to represent a preference among the VMs" (paper).
    terminal_constraint:
        Enforce t(k+M|k) = Ts as a hard equality (paper Eq. 4).
    delta_max:
        Optional per-period rate limit on each input change,
        ``|dc_j| <= delta_max`` (GHz).  Damps limit cycles on plants
        whose gain steepens sharply near saturation.
    power_weight:
        Linear penalty on the summed future allocations (W-like units
        per GHz).  The paper's cost (Eq. 2) only penalizes *changes*, so
        allocation raised during a transient is never reclaimed; this
        term adds gentle downward pressure so excess CPU drains back out
        once tracking allows, feeding the DVFS savings.  The terminal
        constraint keeps the response time pinned at the set point while
        that happens.  0 reproduces the paper's cost exactly.
    warm_start:
        Seed each QP's initial working set from the previous period's
        optimal active set (receding-horizon warm start).  The optimum
        is unchanged — only the iteration count drops — but the solver
        may settle on a different (equivalent) working set in degenerate
        cases, so disable for bit-exact reproduction of cold solves.
    """

    prediction_horizon: int = 8
    control_horizon: int = 2
    q_weight: float = 1.0
    r_weight: float | Sequence[float] = 1.0
    terminal_constraint: bool = True
    delta_max: Optional[float] = None
    power_weight: float = 0.0
    warm_start: bool = True

    def __post_init__(self):
        if self.prediction_horizon < 1:
            raise ValueError(f"prediction_horizon must be >= 1, got {self.prediction_horizon}")
        if not 1 <= self.control_horizon <= self.prediction_horizon:
            raise ValueError(
                f"control_horizon must be in [1, {self.prediction_horizon}], "
                f"got {self.control_horizon}"
            )
        if self.q_weight <= 0:
            raise ValueError(f"q_weight must be positive, got {self.q_weight}")
        r = np.atleast_1d(np.asarray(self.r_weight, dtype=float))
        if np.any(r <= 0):
            raise ValueError(f"r_weight entries must be positive, got {self.r_weight}")
        if self.delta_max is not None and self.delta_max <= 0:
            raise ValueError(f"delta_max must be positive, got {self.delta_max}")
        if self.power_weight < 0:
            raise ValueError(f"power_weight must be >= 0, got {self.power_weight}")


@dataclass(frozen=True)
class MPCSolution:
    """Result of one MPC solve.

    ``delta_c`` is the first input change (applied to the system);
    ``input_trajectory`` has shape ``(M, m)``; ``predicted_outputs`` are
    t(k+1..k+P | k); ``terminal_softened`` reports whether the hard
    terminal equality had to be relaxed, ``terminal_unreachable``
    whether that was decided by the reachability certificate (no hard
    QP attempted) rather than by the hard QP failing.
    """

    delta_c: np.ndarray
    input_trajectory: np.ndarray
    predicted_outputs: np.ndarray
    qp: QPResult
    terminal_softened: bool
    terminal_unreachable: bool = False


class MPCController:
    """Reusable MPC solver bound to an ARX model and a config.

    Fast lane: the horizon-lifted prediction matrix ``psi``, the QP
    Hessian, and the (static) inequality-constraint matrix are built
    once per controller, on its first solve — the model is fixed for
    the controller's life — and each QP is warm-started from the
    previous period's optimal active set (``config.warm_start``).  The
    cached quantities are deterministic functions of the model
    parameters, computed with the same operations as the uncached
    reference (:meth:`ARXModel.predict_affine`), so caching alone is
    bit-identical; only warm-starting can perturb the solve path.
    """

    def __init__(self, model: ARXModel, config: MPCConfig | None = None):
        self.model = model
        self.config = config or MPCConfig()
        m = model.n_inputs
        r = np.atleast_1d(np.asarray(self.config.r_weight, dtype=float))
        if r.size == 1:
            r = np.full(m, float(r[0]))
        if r.shape != (m,):
            raise ValueError(
                f"r_weight must be scalar or length-{m}, got shape {r.shape}"
            )
        self._r_vec = r
        cfg = self.config
        M = cfg.control_horizon
        if cfg.power_weight > 0.0:
            # sum_{i=1..M} c(k+i) = const + sum_l (M - l) * dc_l, so the
            # linear coefficient on block l is power_weight * (M - l).
            block_coeff = cfg.power_weight * (M - np.arange(M, dtype=float))
            self._g_power: Optional[np.ndarray] = np.repeat(block_coeff, m)
        else:
            self._g_power = None
        # Lazily built matrix cache + per-QP-form warm-start working sets.
        self._cache: dict = {}
        self._warm_active: dict = {}
        self.solves = 0
        self.warm_hits = 0

    # -- cached matrices ------------------------------------------------

    def _model_cache(self):
        """Matrices fixed by the model and config, built on first use."""
        if self._cache:
            return self._cache
        cfg = self.config
        P, M, m = cfg.prediction_horizon, cfg.control_horizon, self.model.n_inputs
        nu = M * m
        psi = self.model.lifted_input_matrix(P, M)
        q = cfg.q_weight
        H = 2.0 * (q * psi.T @ psi)
        H[np.diag_indices(nu)] += 2.0 * np.tile(self._r_vec, M)
        # The terminal row on cumulative input changes s_i = sum_{l<=i}
        # dc_l:  terminal_row . u = sum_i (w_i - w_{i+1}) . s_i, w_M = 0.
        reach_coeff = psi[M - 1].reshape(M, m).copy()
        reach_coeff[:-1] -= reach_coeff[1:]
        self._cache = {
            "psi": psi,
            "H": H,
            "terminal_row": psi[M - 1 : M],
            "reach_coeff": reach_coeff,
        }
        return self._cache

    def _soft_hessian(self, cache: dict) -> np.ndarray:
        """Hessian with the softened terminal penalty folded in."""
        H_soft = cache.get("H_soft")
        if H_soft is None:
            w = _TERMINAL_SOFT_WEIGHT
            terminal_row = cache["terminal_row"]
            H_soft = cache["H"] + 2.0 * w * terminal_row.T @ terminal_row
            cache["H_soft"] = H_soft
        return H_soft

    def _constraints(self, cache: dict, has_cap: bool) -> tuple:
        """Static inequality matrix for this model/config/cap shape.

        Returns ``(A_ub, n_delta_rows)``; the right-hand side is filled
        per solve (it depends on the current input and bounds).
        """
        key = ("A_ub", has_cap)
        entry = cache.get(key)
        if entry is None:
            cfg = self.config
            M, m = cfg.control_horizon, self.model.n_inputs
            nu = M * m
            rows = []
            cumulative = np.zeros((m, nu))
            for i in range(M):
                cumulative[:, i * m : (i + 1) * m] = np.eye(m)
                sel = cumulative.copy()
                rows.append(sel)
                rows.append(-sel)
                if has_cap:
                    rows.append(np.sum(sel, axis=0, keepdims=True))
            n_delta = 0
            if cfg.delta_max is not None:
                eye = np.eye(nu)
                rows.append(eye)
                rows.append(-eye)
                n_delta = 2 * nu
            entry = (np.vstack(rows), n_delta)
            cache[key] = entry
        return entry

    def state_dict(self) -> dict:
        """Warm-start working sets + solve counters (engine checkpoints).

        The cached prediction/Hessian matrices are *not* serialized:
        they are deterministic functions of the model parameters and are
        rebuilt identically on first use after a restore.
        """
        return {
            "warm_active": [
                {
                    "mode": mode,
                    "has_cap": has_cap,
                    "active": [int(i) for i in active],
                }
                for (mode, has_cap), active in sorted(self._warm_active.items())
            ],
            "solves": self.solves,
            "warm_hits": self.warm_hits,
        }

    def load_state_dict(self, state) -> None:
        """Restore :meth:`state_dict` so the next solve is bit-identical."""
        self._warm_active = {
            (str(e["mode"]), bool(e["has_cap"])): tuple(int(i) for i in e["active"])
            for e in state["warm_active"]
        }
        self.solves = int(state["solves"])
        self.warm_hits = int(state["warm_hits"])

    def solve(
        self,
        t_hist: Sequence[float],
        c_hist: np.ndarray,
        reference: Sequence[float],
        setpoint: float,
        c_min: Sequence[float],
        c_max: Sequence[float],
        total_cap_ghz: Optional[float] = None,
        output_bias: float = 0.0,
    ) -> MPCSolution:
        """Compute the input-change trajectory for the current period
        (traced as the ``mpc.solve`` span when telemetry is enabled).

        See :meth:`_solve` for the parameters.
        """
        tel = get_telemetry()
        if not tel.enabled:
            return self._solve(
                t_hist, c_hist, reference, setpoint, c_min, c_max,
                total_cap_ghz, output_bias,
            )
        with tel.span("mpc.solve") as sp:
            solution = self._solve(
                t_hist, c_hist, reference, setpoint, c_min, c_max,
                total_cap_ghz, output_bias,
            )
            sp.annotate(
                softened=solution.terminal_softened,
                qp_status=solution.qp.status,
                warm=solution.qp.warm_started,
            )
        return solution

    def _assemble(
        self,
        t_hist: Sequence[float],
        c_hist: np.ndarray,
        reference: Sequence[float],
        setpoint: float,
        c_min: Sequence[float],
        c_max: Sequence[float],
        total_cap_ghz: Optional[float] = None,
        output_bias: float = 0.0,
    ) -> dict:
        """Validate inputs and assemble the QP data for one period.

        Returns the cached matrices plus the per-period vectors
        (``phi``, ``g``, ``b_ub``, ``terminal_rhs`` and the headroom
        ``upper`` / ``lower`` to the input bounds).  The
        operations match the pre-extraction inline code exactly, so a
        solve through this helper is bit-identical to the historical
        path; :func:`solve_mpc_batch` reuses it to stack many periods
        into one batched QP.
        """
        cfg = self.config
        model = self.model
        P, M, m = cfg.prediction_horizon, cfg.control_horizon, model.n_inputs
        nu = M * m
        ref = np.asarray(reference, dtype=float)
        if ref.shape != (P,):
            raise ValueError(f"reference must have length {P}, got {ref.shape}")
        c_min = np.asarray(c_min, dtype=float)
        c_max = np.asarray(c_max, dtype=float)
        if c_min.shape != (m,) or c_max.shape != (m,):
            raise ValueError(f"c_min/c_max must have length {m}")
        if np.any(c_min > c_max):
            raise ValueError(f"c_min must be <= c_max, got {c_min} > {c_max}")
        c_now = np.atleast_2d(np.asarray(c_hist, dtype=float))[0]

        cache = self._model_cache()
        psi = cache["psi"]
        phi = model.predict_const(t_hist, c_hist, P, M)
        phi = phi + float(output_bias)

        # Quadratic cost: tracking + control penalty (Hessian cached —
        # it depends only on the model and the weights).
        q = cfg.q_weight
        g = 2.0 * q * psi.T @ (phi - ref)
        if self._g_power is not None:
            g = g + self._g_power

        # Bounds on absolute inputs at k+1..k+M:
        #   c_min <= c_now + cumsum(dc) <= c_max.
        # The constraint matrix is static per model/cap-shape; only the
        # right-hand side changes each period.
        has_cap = total_cap_ghz is not None
        A_ub, _ = self._constraints(cache, has_cap)
        upper = c_max - c_now
        lower = c_now - c_min
        rhs = []
        for i in range(M):
            rhs.append(upper)
            rhs.append(lower)
            if has_cap:
                rhs.append(np.asarray([total_cap_ghz - float(c_now.sum())]))
        if cfg.delta_max is not None:
            rhs.append(np.full(nu, cfg.delta_max))
            rhs.append(np.full(nu, cfg.delta_max))
        b_ub = np.concatenate(rhs)

        # Terminal constraint (paper Eq. 4): t(k+M|k) = Ts.
        terminal_row = cache["terminal_row"]
        terminal_rhs = np.asarray([float(setpoint) - phi[M - 1]])

        return {
            "cache": cache,
            "phi": phi,
            "g": g,
            "has_cap": has_cap,
            "A_ub": A_ub,
            "b_ub": b_ub,
            "upper": upper,
            "lower": lower,
            "terminal_row": terminal_row,
            "terminal_rhs": terminal_rhs,
            "setpoint": float(setpoint),
        }

    def _solve(
        self,
        t_hist: Sequence[float],
        c_hist: np.ndarray,
        reference: Sequence[float],
        setpoint: float,
        c_min: Sequence[float],
        c_max: Sequence[float],
        total_cap_ghz: Optional[float] = None,
        output_bias: float = 0.0,
    ) -> MPCSolution:
        """Compute the input-change trajectory for the current period.

        Parameters
        ----------
        t_hist, c_hist:
            Histories ending at period k — ``t_hist = [t(k), ...]``,
            ``c_hist = [c(k), ...]`` (see
            :meth:`repro.control.arx.ARXModel.predict_affine`).
        reference:
            Reference trajectory ref(k+i|k) for i=1..P (length P).
        setpoint:
            Ts, used by the terminal constraint.
        c_min, c_max:
            Per-input bounds on the *absolute* future inputs (GHz).
        total_cap_ghz:
            Optional cap on the summed inputs (e.g. host capacity).
        output_bias:
            Constant output-disturbance estimate added to every
            predicted output (offset-free MPC): the caller's estimate of
            the plant-model mismatch, typically a filtered innovation.
        """
        asm = self._assemble(
            t_hist, c_hist, reference, setpoint, c_min, c_max,
            total_cap_ghz, output_bias,
        )
        return _solve_group([self], [asm])[0]

    def _terminal_unreachable(self, asm: dict) -> bool:
        """Sound certificate that the terminal equality cannot be met.

        In cumulative-change coordinates ``s_i = sum_{l<=i} dc_l`` the
        bound rows are a box, ``-lower <= s_i <= upper``, the rate limit
        relaxes to ``|s_i| <= (i+1) * delta_max``, and the terminal
        output is linear in ``s`` (``reach_coeff``), so interval
        arithmetic gives every value ``terminal_row . u`` can take.
        True only when ``terminal_rhs`` lies outside that range by more
        than the solver chain's own tolerances — then the hard QP would
        come back infeasible after stalling its active-set loop and
        SLSQP, and need not be tried.  False decides nothing: the box is
        empty, the set point is within the margin of the range's edge,
        or only the aggregate cap (ignored here, which widens the range)
        makes it unreachable; the hard QP is then solved as before.
        """
        coeff = asm["cache"]["reach_coeff"]
        hi = asm["upper"] + _REACH_ROW_TOL
        lo = -asm["lower"] - _REACH_ROW_TOL
        delta = self.config.delta_max
        if delta is not None:
            # Each rate-limit row has its own tolerance; they add up in s_i.
            reach = np.arange(1.0, coeff.shape[0] + 1.0)[:, None] * (
                delta + _REACH_ROW_TOL
            )
            hi = np.minimum(hi, reach)
            lo = np.maximum(lo, -reach)
            if np.any(lo > hi):
                return False
        ends = (coeff * lo, coeff * hi)
        rhs = asm["terminal_rhs"][0]
        margin = _REACH_EQ_MARGIN * (1.0 + abs(rhs))
        return bool(
            rhs < np.minimum(*ends).sum() - margin
            or rhs > np.maximum(*ends).sum() + margin
        )

    def _warm_seed(self, mode: str, has_cap: bool):
        """Last optimal working set for this QP form (None when cold)."""
        if not self.config.warm_start:
            return None
        return self._warm_active.get((mode, has_cap))

    def _conclude(
        self, asm: dict, hard: Optional[QPResult], unreachable: bool = False
    ) -> MPCSolution:
        """Turn the hard-terminal QP's outcome into this period's solution.

        ``hard`` is None when no terminal constraint is configured;
        ``unreachable`` says the certificate marked the hard QP
        known-infeasible.  A failed hard terminal is softened into
        ``W * (t(k+M|k) - Ts)^2``.
        """
        cfg = self.config
        has_cap = asm["has_cap"]
        warm_on = cfg.warm_start
        self.solves += 1
        if hard is not None:
            if hard.warm_started:
                self.warm_hits += 1
            if hard.ok:
                if warm_on and hard.status == "optimal":
                    self._warm_active[("hard", has_cap)] = hard.active_set
                return self._package(hard, asm, softened=False)
        softened = cfg.terminal_constraint
        if softened:
            M = cfg.control_horizon
            w = _TERMINAL_SOFT_WEIGHT
            H2 = self._soft_hessian(asm["cache"])
            g2 = asm["g"] + 2.0 * w * asm["terminal_row"][0] * (
                asm["phi"][M - 1] - asm["setpoint"]
            )
        else:
            H2, g2 = asm["cache"]["H"], asm["g"]
        result = solve_qp(
            H2, g2, A_ub=asm["A_ub"], b_ub=asm["b_ub"],
            warm_start=self._warm_seed("soft", has_cap),
        )
        if result.warm_started:
            self.warm_hits += 1
        if warm_on and result.status == "optimal":
            self._warm_active[("soft", has_cap)] = result.active_set
        if not result.ok:
            # Bounds themselves inconsistent (shouldn't happen: dc=0 is
            # feasible whenever c_now is within bounds). Hold the input.
            zero = np.zeros(asm["g"].shape[0])
            result = QPResult(zero, "infeasible-hold", 0, ())
        return self._package(result, asm, softened, unreachable)

    def _package(
        self,
        result: QPResult,
        asm: dict,
        softened: bool,
        unreachable: bool = False,
    ) -> MPCSolution:
        m = self.model.n_inputs
        M = self.config.control_horizon
        u = np.asarray(result.x, dtype=float)
        traj = u.reshape(M, m)
        predicted = asm["phi"] + asm["cache"]["psi"] @ u
        return MPCSolution(
            delta_c=traj[0].copy(),
            input_trajectory=traj,
            predicted_outputs=predicted,
            qp=result,
            terminal_softened=softened,
            terminal_unreachable=unreachable,
        )


def _solve_group(
    controllers: Sequence[MPCController], asms: Sequence[dict]
) -> list:
    """One period of a group of controllers that share model, horizons
    and constraint geometry, from their assembled QP data (``asms``).

    The hard-terminal QPs go to one :func:`solve_qp_batch` call, the
    members the reachability certificate
    (:meth:`MPCController._terminal_unreachable`) decides marked
    ``known_infeasible``; each member's outcome is then concluded
    (softened alone where the hard QP failed).  A group of one is
    :meth:`MPCController.solve`.  This is the one place the
    ``mpc.solves`` / ``mpc.warm_hits`` / ``mpc.terminal_softened``
    telemetry counters are counted; a warm hit is a solution whose QP
    was warm-started.
    """
    if controllers[0].config.terminal_constraint:
        first = asms[0]
        unreachable = [c._terminal_unreachable(a) for c, a in zip(controllers, asms)]
        hards: Sequence[Optional[QPResult]] = solve_qp_batch(
            first["cache"]["H"], np.array([a["g"] for a in asms]),
            A_eq=first["terminal_row"],
            b_eq_batch=np.array([a["terminal_rhs"] for a in asms]),
            A_ub=first["A_ub"], b_ub_batch=np.array([a["b_ub"] for a in asms]),
            warm_starts=[c._warm_seed("hard", first["has_cap"]) for c in controllers],
            known_infeasible=unreachable,
        )
    else:
        unreachable = [False] * len(asms)
        hards = [None] * len(asms)
    solutions = [
        c._conclude(a, hard, proved)
        for c, a, hard, proved in zip(controllers, asms, hards, unreachable)
    ]
    tel = get_telemetry()
    if tel.enabled:
        tel.count("mpc.solves", len(solutions))
        n_warm = sum(s.qp.warm_started for s in solutions)
        if n_warm:
            tel.count("mpc.warm_hits", n_warm)
        n_soft = sum(s.terminal_softened for s in solutions)
        if n_soft:
            tel.count("mpc.terminal_softened", n_soft)
    return solutions


def solve_mpc_batch(
    controllers: Sequence[MPCController],
    requests: Sequence[dict],
    stats: Optional[dict] = None,
) -> list:
    """Solve many controllers' periods at once, batching shared-model QPs.

    ``requests[i]`` is a dict of keyword arguments for
    :meth:`MPCController.solve` (``t_hist``, ``c_hist``, ``reference``,
    ``setpoint``, ``c_min``, ``c_max``, and optionally
    ``total_cap_ghz``/``output_bias``).  Controllers whose model
    parameters, horizons, and constraint geometry coincide are grouped
    and their hard-terminal QPs solved by one
    :func:`repro.control.qp.solve_qp_batch` call — a single stacked-RHS
    linear solve per active-set round instead of one KKT factorization
    per controller.  Every group takes the path
    :meth:`MPCController.solve` takes for one controller, so warm-start
    working sets and solve counters are read and written per controller
    the same way, and a group of one (or a member without a terminal
    constraint, whose QP is solved alone) returns bitwise what
    :meth:`MPCController.solve` returns.  Members of a larger group are
    *allclose* to, not bit-identical with, separate solves (multi-RHS
    LAPACK).

    A member whose hard terminal QP fails is softened alone (a warm
    softened solve takes ~0.1 ms; what used to cost was finding out
    that the hard QP is infeasible).  Members the reachability
    certificate decides are marked ``known_infeasible`` in the batched
    call and go straight to that softened solve.

    ``stats``, when given a dict, receives grouping telemetry:
    ``groups`` (member count per group, descending), and over all
    members ``softened`` (terminal equality relaxed) and
    ``unreachable`` (of those, decided by the certificate).

    Returns the list of :class:`MPCSolution` in request order.
    """
    if len(controllers) != len(requests):
        raise ValueError(
            f"controllers and requests must pair up, got "
            f"{len(controllers)} vs {len(requests)}"
        )
    results: list = [None] * len(controllers)
    groups: dict = {}
    for i, ctrl in enumerate(controllers):
        cfg = ctrl.config
        model = ctrl.model
        key = (
            model.a.shape, model.a.tobytes(),
            model.b.shape, model.b.tobytes(), model.g,
            cfg.prediction_horizon, cfg.control_horizon,
            cfg.q_weight, tuple(ctrl._r_vec), cfg.delta_max,
            cfg.terminal_constraint,
            requests[i].get("total_cap_ghz") is not None,
        )
        groups.setdefault(key, []).append(i)

    for members in groups.values():
        solutions = _solve_group(
            [controllers[i] for i in members],
            [controllers[i]._assemble(**requests[i]) for i in members],
        )
        for i, solution in zip(members, solutions):
            results[i] = solution
    if stats is not None:
        stats["groups"] = sorted(
            (len(m) for m in groups.values()), reverse=True
        )
        stats["softened"] = sum(r.terminal_softened for r in results)
        stats["unreachable"] = sum(r.terminal_unreachable for r in results)
    return results
