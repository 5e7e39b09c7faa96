"""Server-level CPU resource arbitrator with DVFS (paper §III, §IV-B).

"A server-level CPU resource arbitrator then collects the CPU resource
demands of all VMs hosted on the server, allocates the CPU resource to
the VMs, and uses DVFS to save power, if the server has more CPU
resources than the VMs require."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.cluster.server import Server
from repro.obs import get_telemetry
from repro.util.fold import left_sum
from repro.util.validation import check_in_range

__all__ = ["ArbitrationResult", "CPUResourceArbitrator"]


@dataclass(frozen=True)
class ArbitrationResult:
    """Outcome of one arbitration round on one server.

    Attributes
    ----------
    freq_ghz:
        The DVFS frequency chosen (lowest level covering total demand).
    allocations_ghz:
        Granted GHz per VM.  Equal to demands when the server has room;
        proportionally rationed when the server is overloaded even at
        maximum frequency.
    overloaded:
        True when total demand exceeded the server's maximum capacity —
        the signal the data-center optimizer uses to build its migration
        list.
    total_demand_ghz:
        The aggregate demand the VMs requested.
    """

    freq_ghz: float
    allocations_ghz: Dict[str, float]
    overloaded: bool
    total_demand_ghz: float


class CPUResourceArbitrator:
    """Per-server demand aggregation, DVFS selection, share allocation.

    Parameters
    ----------
    headroom:
        Fraction of capacity kept free when choosing the frequency: the
        chosen level satisfies ``total_demand <= capacity * headroom``.
        1.0 packs exactly; 0.9 leaves 10% slack for demand jitter
        between control periods.
    """

    def __init__(self, headroom: float = 0.95):
        self.headroom = check_in_range("headroom", headroom, 0.1, 1.0)

    def arbitrate(self, server: Server, demands_ghz: Mapping[str, float]) -> ArbitrationResult:
        """Pick the server frequency and per-VM grants for one period.

        Side effects: sets ``server.freq_ghz`` via DVFS.  Returns the
        grants; the caller applies them to VMs / plants.
        """
        if not server.active:
            raise ValueError(f"cannot arbitrate sleeping server {server.server_id}")
        for vm_id, demand in demands_ghz.items():
            if demand < 0:
                raise ValueError(f"negative demand for {vm_id}: {demand}")
        tel = get_telemetry()
        if not tel.enabled:
            return self._arbitrate(server, demands_ghz)
        with tel.span("arbitrator.pass", server=server.server_id) as sp:
            result = self._arbitrate(server, demands_ghz)
            sp.annotate(
                freq_ghz=result.freq_ghz,
                total_demand_ghz=result.total_demand_ghz,
                overloaded=result.overloaded,
            )
        tel.count("arbitrator.passes")
        if result.overloaded:
            tel.count("arbitrator.overloads")
        return result

    def _arbitrate(self, server: Server, demands_ghz: Mapping[str, float]) -> ArbitrationResult:
        """The DVFS + share selection, factored out of the traced entry."""
        total = float(left_sum(demands_ghz.values()))
        cpu = server.spec.cpu
        # Lowest DVFS level whose *effective* capacity covers demand plus
        # headroom (a thermal throttle scales every level down, so the
        # nominal level that covers the demand is correspondingly higher).
        needed = total / self.headroom if total > 0 else 0.0
        freq = float(cpu.lowest_level_for(needed / server.capacity_fraction))
        server.set_frequency(freq)
        capacity = server.capacity_at(freq)
        overloaded = total > server.max_capacity_ghz * self.headroom + 1e-9
        if total <= capacity + 1e-12 or total == 0.0:
            allocations = {vm_id: float(d) for vm_id, d in demands_ghz.items()}
        else:
            # Overloaded even at the highest level: ration proportionally.
            scale = capacity / total
            allocations = {vm_id: float(d) * scale for vm_id, d in demands_ghz.items()}
        return ArbitrationResult(
            freq_ghz=freq,
            allocations_ghz=allocations,
            overloaded=overloaded,
            total_demand_ghz=total,
        )
