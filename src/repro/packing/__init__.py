"""Bin-packing substrate: Minimum Bin Slack and packing lower bounds.

The paper's optimizer is built on the Minimum-Bin-Slack heuristic of
Fleszar & Hindi (2002), extended with a per-step memory check and an
escalating allowed slack (its Algorithm 1).  It lives here with the
Martello & Toth lower bounds, domain-free, so both can be tested as
pure packing algorithms; :mod:`repro.core.optimizer` adds the server/VM
semantics (its pMapper baseline runs its own first-fit decreasing).
"""

from repro.packing.bounds import capacity_bound_servers, l1_bound, l2_bound
from repro.packing.mbs import MBSResult, minimum_bin_slack

__all__ = [
    "capacity_bound_servers",
    "l1_bound",
    "l2_bound",
    "MBSResult",
    "minimum_bin_slack",
]
