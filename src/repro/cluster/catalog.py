"""Standard server catalog matching the paper's simulation setup.

The paper's large-scale simulator assigns each of 3000 servers "one of 3
types of CPUs: 3 GHz quad-core CPU, 2 GHz dual-core CPU and 1.5 GHz
dual-core CPU" (§VI-B).  Power constants are representative 2008-class
values chosen so the three types have clearly different power
efficiencies (GHz/W) — the heterogeneity both PAC and pMapper exploit.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cluster.power import ServerPowerModel
from repro.cluster.server import CPUSpec, Server, ServerSpec
from repro.util.rng import RngLike, ensure_rng

__all__ = [
    "CPU_3GHZ_QUAD",
    "CPU_2GHZ_DUAL",
    "CPU_1P5GHZ_DUAL",
    "SERVER_TYPE_A",
    "SERVER_TYPE_B",
    "SERVER_TYPE_C",
    "STANDARD_SERVER_TYPES",
    "TESTBED_SERVER",
    "make_server_pool",
]

CPU_3GHZ_QUAD = CPUSpec("xeon-3.0-quad", cores=4, freq_levels_ghz=(1.5, 2.0, 2.5, 3.0))
CPU_2GHZ_DUAL = CPUSpec("opteron-2.0-dual", cores=2, freq_levels_ghz=(1.0, 1.4, 1.7, 2.0))
CPU_1P5GHZ_DUAL = CPUSpec("xeon-1.5-dual", cores=2, freq_levels_ghz=(0.75, 1.0, 1.25, 1.5))

# Efficiency (max GHz / busy W): A = 12/300 = 0.040, B = 4/150 ~= 0.027,
# C = 3/135 ~= 0.022 — strictly decreasing, so "most efficient first" has
# a well-defined order.
SERVER_TYPE_A = ServerSpec(
    name="typeA-3.0x4",
    cpu=CPU_3GHZ_QUAD,
    memory_mb=16384,
    power=ServerPowerModel(sleep_w=10.0, idle_w=180.0, busy_w=300.0),
)
SERVER_TYPE_B = ServerSpec(
    name="typeB-2.0x2",
    cpu=CPU_2GHZ_DUAL,
    memory_mb=8192,
    power=ServerPowerModel(sleep_w=8.0, idle_w=95.0, busy_w=150.0),
)
SERVER_TYPE_C = ServerSpec(
    name="typeC-1.5x2",
    cpu=CPU_1P5GHZ_DUAL,
    memory_mb=4096,
    power=ServerPowerModel(sleep_w=7.0, idle_w=85.0, busy_w=135.0),
)

STANDARD_SERVER_TYPES: Sequence[ServerSpec] = (SERVER_TYPE_A, SERVER_TYPE_B, SERVER_TYPE_C)

# The 4-machine hardware testbed (§VI-A): identical mid-range servers.
# Dual-core, sized so the 4 hosted VMs (~0.5 GHz each at the 1000 ms set
# point) sit near a DVFS level boundary — workload surges then visibly
# raise the chosen frequency and the measured power, as in the paper's
# Fig. 3(b).
TESTBED_SERVER = ServerSpec(
    name="testbed-2.4x2",
    cpu=CPUSpec("xeon-2.4-dual", cores=2, freq_levels_ghz=(1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4)),
    memory_mb=8192,
    power=ServerPowerModel(sleep_w=9.0, idle_w=110.0, busy_w=180.0),
)


def make_server_pool(
    n_servers: int,
    types: Sequence[ServerSpec] = STANDARD_SERVER_TYPES,
    rng: RngLike = None,
    id_prefix: str = "S",
    active: bool = False,
    type_weights: Sequence[float] | None = None,
) -> List[Server]:
    """Create *n_servers* servers with randomly assigned types.

    Matches the paper: "Each server is randomly assigned one of 3 types
    of CPUs" (§VI-B).  ``type_weights`` skews the draw (e.g. few
    high-efficiency machines, many legacy ones — the scarcity that makes
    per-VM energy grow with data-center size in Fig. 6); ``None`` means
    uniform.  Servers start asleep by default (``active=False``) since
    the large-scale experiment wakes them on demand.
    """
    if n_servers < 0:
        raise ValueError(f"n_servers must be >= 0, got {n_servers}")
    if not types:
        raise ValueError("types must be non-empty")
    if type_weights is not None:
        weights = [float(w) for w in type_weights]
        if len(weights) != len(types):
            raise ValueError(
                f"{len(weights)} weights for {len(types)} types"
            )
        total = sum(weights)
        if total <= 0 or any(w < 0 for w in weights):
            raise ValueError(f"type_weights must be non-negative and sum > 0, got {type_weights}")
        probs = [w / total for w in weights]
    else:
        probs = None
    generator = ensure_rng(rng)
    width = max(4, len(str(max(n_servers - 1, 0))))
    pool = []
    for i in range(n_servers):
        idx = int(generator.choice(len(types), p=probs))
        pool.append(Server(f"{id_prefix}{i:0{width}d}", types[idx], active=active))
    return pool
