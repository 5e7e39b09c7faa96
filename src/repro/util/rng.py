"""Seeded random-number-generator plumbing.

Every stochastic component in the library accepts either an integer seed,
a :class:`numpy.random.Generator`, or ``None`` (fresh entropy).  Routing
everything through :func:`ensure_rng` keeps experiments reproducible
bit-for-bit while letting quick interactive use stay terse.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Coerce *rng* into a :class:`numpy.random.Generator`.

    ``None`` draws fresh OS entropy; an ``int`` seeds a new PCG64
    generator; an existing generator is passed through unchanged.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"cannot build a Generator from {type(rng).__name__}")


def spawn_rngs(rng: RngLike, n: int) -> Sequence[np.random.Generator]:
    """Derive *n* statistically independent child generators.

    Children are independent of each other and of the parent's future
    output, so parallel components (e.g. one per application) do not
    share streams.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    parent = ensure_rng(rng)
    seeds = parent.bit_generator.seed_seq.spawn(n)  # type: ignore[union-attr]
    return [np.random.default_rng(s) for s in seeds]
