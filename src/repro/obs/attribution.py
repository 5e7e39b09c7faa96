"""PowerTracer-style per-tier / per-app energy attribution.

Joins the cluster power model's per-server power readings against the
per-tier CPU usage measured by the request-level plants: each server's
energy for a control period is split among the tiers it hosts in
proportion to the GHz they actually consumed.  A server that hosts
tiers but measured zero usage splits its (idle) energy equally among
them; a powered server hosting nothing lands in the ``unattributed``
bucket (idle/sleep burn that no application caused).

Reconciliation is exact by construction: per-server shares sum to the
server's energy, so summing the attributed tier energies plus the
unattributed bucket recovers total datacenter energy to float rounding
(well within the 1e-6 relative tolerance the golden-scenario tests
pin).  This is the repo's realization of PowerTracer's core claim — a
black-box power number becomes a per-application, per-tier signal.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.util.fold import left_sum

__all__ = ["EnergyAttributor"]


class EnergyAttributor:
    """Accumulates per-(app, tier) energy over a run.

    Call :meth:`attribute` once per control period with that period's
    per-server power and hosting map; read :meth:`summary` at the end.
    """

    def __init__(self) -> None:
        #: {app: {tier: energy_wh}} accumulated over all periods.
        self.energy_wh: Dict[str, Dict[str, float]] = {}
        self.unattributed_wh = 0.0
        self.total_wh = 0.0
        self.n_periods = 0

    def attribute(
        self,
        duration_s: float,
        server_power_w: Mapping[str, float],
        hosted: Mapping[str, Sequence[Tuple[str, str, float]]],
    ) -> Dict[str, float]:
        """Attribute one period; returns this period's per-app Wh.

        ``server_power_w`` maps server id -> average power (W) over the
        period; ``hosted`` maps server id -> ``(app, tier, used_ghz)``
        triples for every tier hosted on that server.
        """
        hours = float(duration_s) / 3600.0
        per_app: Dict[str, float] = {}
        for sid, power in server_power_w.items():
            energy = float(power) * hours
            self.total_wh += energy
            tiers = hosted.get(sid)
            if not tiers:
                self.unattributed_wh += energy
                continue
            used_total = 0.0
            for _app, _tier, used in tiers:
                used_total += used
            equal = 1.0 / len(tiers)
            for app, tier, used in tiers:
                share = used / used_total if used_total > 0.0 else equal
                amount = energy * share
                app_bucket = self.energy_wh.setdefault(app, {})
                app_bucket[tier] = app_bucket.get(tier, 0.0) + amount
                per_app[app] = per_app.get(app, 0.0) + amount
        self.n_periods += 1
        return per_app

    # -- accessors -----------------------------------------------------

    def app_totals(self) -> Dict[str, float]:
        """Cumulative Wh per application."""
        return {
            app: left_sum(tiers.values())
            for app, tiers in sorted(self.energy_wh.items())
        }

    @property
    def attributed_wh(self) -> float:
        """Cumulative Wh assigned to application tiers."""
        return left_sum(left_sum(tiers.values()) for tiers in self.energy_wh.values())

    @property
    def reconciliation_error(self) -> float:
        """Relative |attributed + unattributed - total| (0 when empty)."""
        if self.total_wh == 0.0:
            return 0.0
        gap = self.attributed_wh + self.unattributed_wh - self.total_wh
        return abs(gap) / abs(self.total_wh)

    def summary(self) -> Dict[str, object]:
        """JSON-safe cumulative attribution report."""
        per_tier: List[Dict[str, object]] = []
        for app, tiers in sorted(self.energy_wh.items()):
            for tier, wh in sorted(tiers.items()):
                per_tier.append({"app": app, "tier": tier, "energy_wh": wh})
        return {
            "n_periods": self.n_periods,
            "total_wh": self.total_wh,
            "attributed_wh": self.attributed_wh,
            "unattributed_wh": self.unattributed_wh,
            "reconciliation_error": self.reconciliation_error,
            "per_app_wh": self.app_totals(),
            "per_tier": per_tier,
        }
