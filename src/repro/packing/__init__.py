"""Bin-packing substrate: Minimum Bin Slack.

The paper's optimizer is built on the Minimum-Bin-Slack heuristic of
Fleszar & Hindi (2002), extended with a per-step memory check and an
escalating allowed slack (its Algorithm 1).  It lives here, domain-free,
so it can be tested as a pure packing algorithm; :mod:`repro.core.optimizer`
adds the server/VM semantics (its pMapper baseline runs its own
first-fit decreasing).
"""

from repro.packing.mbs import MBSResult, minimum_bin_slack

__all__ = [
    "MBSResult",
    "minimum_bin_slack",
]
