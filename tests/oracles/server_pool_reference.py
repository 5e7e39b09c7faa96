"""Reference server-pool draw, preserved verbatim from before the one-call draw.

:func:`repro.cluster.catalog.make_server_pool` draws every server's
type with one ``choice(len(types), size=n_servers, p=...)`` call.  This
module keeps the body it replaced, which called ``choice`` once per
server.  ``tests/test_cluster.py`` asserts that both return the same
ids, specs and order and leave the generator in the same state.

Nothing here should be "improved" — it is the frozen baseline.  The
only departures from the source are this docstring and the imports.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cluster.catalog import STANDARD_SERVER_TYPES
from repro.cluster.server import Server, ServerSpec
from repro.util.rng import RngLike, ensure_rng


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
