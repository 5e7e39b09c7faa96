"""Lower bounds on bin-packing solutions (Martello & Toth).

Heuristics like FFD and Minimum Slack give *feasible* packings; these
bounds certify how close they come to optimal without solving the
NP-hard problem.  The tests and the packing ablation
(``benchmarks/bench_ablation_packing.py``) use them to check PAC's
server counts are honest, not just legal.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["l1_bound", "l2_bound", "capacity_bound_servers"]


def l1_bound(item_sizes: Sequence[float], capacity: float) -> int:
    """The continuous bound: ``ceil(sum sizes / capacity)``."""
    sizes = np.asarray(item_sizes, dtype=float)
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    if np.any(sizes < 0):
        raise ValueError("sizes must be non-negative")
    if np.any(sizes > capacity + 1e-12):
        raise ValueError("an item exceeds the bin capacity; no packing exists")
    total = float(sizes.sum())
    return int(math.ceil(total / capacity - 1e-12)) if total > 0 else 0


def l2_bound(item_sizes: Sequence[float], capacity: float) -> int:
    """Martello & Toth's L2: L1 strengthened by big-item counting.

    For each threshold ``t`` in ``(0, capacity/2]``, items larger than
    ``capacity - t`` each need their own bin; items in
    ``(capacity/2, capacity - t]`` also cannot share with each other;
    the small remainder is volume-bounded.  L2 = max over thresholds.
    """
    sizes = np.sort(np.asarray(item_sizes, dtype=float))[::-1]
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    if sizes.size == 0:
        return 0
    if np.any(sizes < 0):
        raise ValueError("sizes must be non-negative")
    if sizes[0] > capacity + 1e-12:
        raise ValueError("an item exceeds the bin capacity; no packing exists")
    best = l1_bound(sizes, capacity)
    thresholds = np.unique(sizes[sizes <= capacity / 2.0])
    for t in np.concatenate([[0.0], thresholds]):
        huge = sizes > capacity - t          # need a dedicated bin each
        large = (sizes > capacity / 2.0) & ~huge   # pairwise incompatible
        small = sizes[(sizes >= t) & ~huge & ~large]
        n1 = int(huge.sum())
        n2 = int(large.sum())
        # Volume of small items that cannot fit into the large items' slack.
        slack_in_large = n2 * capacity - float(sizes[large].sum())
        overflow = max(float(small.sum()) - slack_in_large, 0.0)
        candidate = n1 + n2 + int(math.ceil(overflow / capacity - 1e-12))
        best = max(best, candidate)
    return best


def capacity_bound_servers(
    demands_ghz: Sequence[float],
    server_capacities_ghz: Sequence[float],
    target_utilization: float = 1.0,
) -> int:
    """Minimum number of servers by pure capacity, greedily largest-first.

    A lower bound for heterogeneous-server consolidation: no placement
    can use fewer servers than needed to cover total demand with the
    biggest machines first.
    """
    if not 0 < target_utilization <= 1.0:
        raise ValueError(f"target_utilization must be in (0,1], got {target_utilization}")
    demand = float(np.sum(np.asarray(demands_ghz, dtype=float)))
    caps = np.sort(np.asarray(server_capacities_ghz, dtype=float))[::-1]
    caps = caps * target_utilization
    if demand <= 0:
        return 0
    cum = np.cumsum(caps)
    idx = int(np.searchsorted(cum, demand - 1e-12))
    if idx >= caps.size:
        raise ValueError("total demand exceeds total capacity")
    return idx + 1
