"""Grid-sweep expansion: parameter overrides over a base scenario.

A sweep is a base :class:`~repro.engine.scenario.ScenarioSpec` document
plus a **grid**: a mapping from dotted override paths to lists of
values, e.g.::

    {
        "params.seed": [1, 2, 3, 4, 5],
        "params.concurrency": [8, 12],
        "params.duration_s": [120.0],
    }

:func:`expand_grid` takes the cartesian product (here 5 x 2 x 1 = 10
configurations), applies each combination to a deep copy of the base
document, and validates every resulting spec — so a sweep either
expands completely or fails with the first invalid configuration named.
Grid keys are processed in sorted order and values in the order given,
so job numbering is deterministic.

Dotted paths are applied with
:func:`repro.engine.scenario.apply_overrides` — a typo'd path is an
error, not a silently ignored override.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.engine.scenario import ScenarioError, apply_overrides, resolve_scenario

__all__ = ["MAX_SWEEP_JOBS", "SweepError", "expand_grid"]

#: Refuse to expand a sweep bigger than this (a typo in a grid list is
#: much more likely than a genuine 10k-job submission).
MAX_SWEEP_JOBS = 4096


class SweepError(ScenarioError):
    """A sweep document cannot be expanded into valid scenario specs."""


def expand_grid(
    base_doc: Mapping[str, Any],
    grid: Mapping[str, Sequence[Any]],
) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
    """Expand *grid* over *base_doc* into ``(spec_doc, overrides)`` pairs.

    Returns one pair per configuration, in deterministic order (grid
    keys sorted, values in given order).  Every expanded document must
    resolve to a valid :class:`~repro.engine.scenario.ScenarioSpec`; the
    first problem aborts the whole expansion.
    """
    if not isinstance(grid, Mapping) or not grid:
        raise SweepError("grid must be a non-empty object of path -> values")
    keys = sorted(str(k) for k in grid)
    value_lists: List[List[Any]] = []
    n_jobs = 1
    for key in keys:
        values = grid[key]
        if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
            raise SweepError(f"grid[{key!r}] must be a list of values")
        if not values:
            raise SweepError(f"grid[{key!r}] is empty")
        value_lists.append(list(values))
        n_jobs *= len(values)
    if n_jobs > MAX_SWEEP_JOBS:
        raise SweepError(
            f"sweep expands to {n_jobs} jobs, more than the "
            f"{MAX_SWEEP_JOBS}-job limit"
        )
    jobs: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
    for combo in itertools.product(*value_lists):
        overrides = dict(zip(keys, combo))
        try:
            doc = apply_overrides(base_doc, overrides)
            resolve_scenario(doc)
        except ScenarioError as exc:
            raise SweepError(f"configuration {overrides}: {exc}") from None
        jobs.append((doc, overrides))
    return jobs
