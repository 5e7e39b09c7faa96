"""Reference (stepwise) Minimum Bin Slack search, preserved verbatim.

:func:`repro.packing.mbs.minimum_bin_slack` accounts for a run of
rejected candidates in one jump (binary search on the same floating-
point expressions) instead of walking it.  This module keeps the
original loop, which evaluates every candidate one Python iteration at
a time, as the differential oracle: ``tests/test_packing.py`` drives
random instances through both and asserts the whole result —
``selected``, ``slack``, ``steps``, ``epsilon_used``, ``early_exit`` —
is *equal*, and that :func:`repro.core.optimizer.pac.pac` places every
VM identically with this function patched in.

Nothing here should be "improved" — it is the frozen baseline.  The
only departure from the pre-jump source is ``evaluated=steps`` in the
returned :class:`~repro.packing.mbs.MBSResult` (the stepwise search
executes one iteration per counted step by definition).  The library
search takes memory as plain arrays; the constraint protocol this
search was written against (:class:`PackingConstraint`,
:class:`MemoryConstraint`) is kept here with it, unchanged.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.packing.mbs import _FIT_TOL, MBSResult

__all__ = ["PackingConstraint", "MemoryConstraint", "minimum_bin_slack"]


class PackingConstraint:
    """Incremental feasibility hook for the MBS search.

    Protocol
    --------
    The search drives a constraint through a strict call discipline:

    1. ``accepts(idx)`` is queried *before* item *idx* joins the current
       selection.  It must be a **pure query**: answer "would adding
       *idx* keep the constraint satisfied?" without mutating any state.
       In particular, ``accepts`` returning ``True`` does **not** mean
       the item was added — the search may still reject it (size check)
       or abandon the branch.
    2. ``push(idx)`` is called exactly once when item *idx* actually
       joins the selection.  Only here may running state change.
    3. ``pop(idx)`` is called exactly once when item *idx* leaves the
       selection (backtrack), in reverse push order.  ``pop`` must undo
       exactly what ``push`` did, so that any ``push``/``pop``-balanced
       call sequence leaves the constraint in its initial state.

    The search guarantees ``push``/``pop`` balance even on early exit,
    so a constraint object can be reused across searches.  The base
    class accepts everything.
    """

    def accepts(self, idx: int) -> bool:
        """Would adding item *idx* keep the constraint satisfied?

        Must not mutate state — see the class docstring's protocol.
        """
        return True

    def push(self, idx: int) -> None:
        """Item *idx* was added to the selection."""

    def pop(self, idx: int) -> None:
        """Item *idx* was removed from the selection (backtrack)."""


class MemoryConstraint(PackingConstraint):
    """Total selected memory must not exceed the bin's free memory.

    Sizes and capacity must be finite: a NaN size would otherwise poison
    every ``used + size <= capacity`` comparison into ``False`` and
    silently exclude the item from every selection.
    """

    def __init__(self, memory_sizes: Sequence[float], memory_capacity: float):
        self.sizes = np.asarray(memory_sizes, dtype=float)
        if not np.all(np.isfinite(self.sizes)):
            raise ValueError("memory sizes must be finite (got NaN/inf)")
        if np.any(self.sizes < 0):
            raise ValueError("memory sizes must be non-negative")
        if not math.isfinite(memory_capacity):
            raise ValueError(f"memory_capacity must be finite, got {memory_capacity}")
        if memory_capacity < 0:
            raise ValueError(f"memory_capacity must be >= 0, got {memory_capacity}")
        self.capacity = float(memory_capacity)
        self.used = 0.0

    def accepts(self, idx: int) -> bool:
        return self.used + self.sizes[idx] <= self.capacity + _FIT_TOL

    def push(self, idx: int) -> None:
        self.used += self.sizes[idx]

    def pop(self, idx: int) -> None:
        self.used -= self.sizes[idx]


def minimum_bin_slack(
    primary_sizes: Sequence[float],
    capacity: float,
    constraint: Optional[PackingConstraint] = None,
    epsilon: float = 0.0,
    max_steps: int = 20000,
    epsilon_step: Optional[float] = None,
    hard_step_cap: Optional[int] = None,
) -> MBSResult:
    """Select items minimizing one bin's unfilled primary capacity.

    Parameters
    ----------
    primary_sizes:
        Item sizes in the bin's primary dimension (CPU demand, GHz).
    capacity:
        The bin's free primary capacity.
    constraint:
        Optional additional feasibility (e.g. memory) — Algorithm 1's
        generalized per-step check.
    epsilon:
        Allowed slack: the search stops as soon as a selection leaves
        at most this much capacity unused (Algorithm 1 lines 4-5).
    max_steps:
        Steps between epsilon escalations (lines 15-17).  Each
        feasibility evaluation counts as one step.
    epsilon_step:
        Escalation increment; defaults to 5% of ``capacity``.
    hard_step_cap:
        Absolute step bound (defaults to ``50 * max_steps``); the search
        performs **at most exactly this many** feasibility evaluations.
    """
    sizes = np.asarray(primary_sizes, dtype=float)
    if sizes.ndim != 1:
        raise ValueError(f"primary_sizes must be 1-D, got shape {sizes.shape}")
    if np.any(sizes < 0):
        raise ValueError("primary sizes must be non-negative")
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    if epsilon_step is None:
        epsilon_step = 0.05 * capacity if capacity > 0 else 1.0
    if hard_step_cap is None:
        hard_step_cap = 50 * max_steps

    n = sizes.shape[0]
    if capacity <= epsilon + _FIT_TOL:
        # The empty selection already meets the allowed slack.
        return MBSResult((), float(capacity), 0, float(epsilon), True, evaluated=0)

    best_sel: Tuple[int, ...] = ()
    best_slack = float(capacity)

    # Sort once; the DFS walks positions in this order.  Python lists
    # beat NumPy scalar indexing inside the interpreter-bound loop, and
    # binding them (plus the sizes) to locals keeps the inner loop free
    # of attribute lookups and allocations.
    order = sorted(range(n), key=lambda i: -sizes[i])
    sizes_list = [float(s) for s in sizes]
    sorted_sizes = [sizes_list[i] for i in order]
    # suffix[pos] = total size of items at positions >= pos: the best
    # case any branch continuing from pos can still add to the bin.
    suffix = [0.0] * (n + 1)
    for pos in range(n - 1, -1, -1):
        suffix[pos] = suffix[pos + 1] + sorted_sizes[pos]

    steps = 0
    eps_current = float(epsilon)
    early = False
    cap = float(capacity)
    tol = _FIT_TOL
    # A plain MemoryConstraint (the overwhelmingly common case) is
    # inlined: its accept test and running total become local float
    # arithmetic instead of three bound-method calls per node.  Because
    # the search keeps push/pop balanced, never touching the object at
    # all is observationally identical.  Subclasses (overridden hooks)
    # and composites take the generic protocol path.
    mem_fast = type(constraint) is MemoryConstraint
    if mem_fast:
        mem_sizes = constraint.sizes.tolist()
        mem_cap = constraint.capacity
        mem_used = constraint.used
        accepts = push = pop = None
    else:
        accepts = constraint.accepts if constraint is not None else None
        push = constraint.push if constraint is not None else None
        pop = constraint.pop if constraint is not None else None

    path: List[int] = []
    used = 0.0
    # pos_stack[d] = next order-position to try at depth d.
    pos_stack: List[int] = [0]
    exhausted = False  # hard step cap reached

    while pos_stack:
        pos = pos_stack[-1]
        taken = -1
        while pos < n:
            if used + suffix[pos] <= cap - best_slack + tol:
                # Even taking every remaining item cannot strictly beat
                # the incumbent: dominated branch, cut it.
                pos = n
                break
            idx = order[pos]
            size = sorted_sizes[pos]
            pos += 1
            steps += 1
            if steps % max_steps == 0:
                eps_current += epsilon_step  # escalate (Algorithm 1 line 16)
            if used + size > cap + tol:
                if steps >= hard_step_cap:
                    exhausted = True
                    break
                continue
            if mem_fast:
                if mem_used + mem_sizes[idx] > mem_cap + tol:
                    if steps >= hard_step_cap:
                        exhausted = True
                        break
                    continue
            elif accepts is not None and not accepts(idx):
                if steps >= hard_step_cap:
                    exhausted = True
                    break
                continue
            taken = idx
            break
        pos_stack[-1] = pos
        if taken >= 0:
            path.append(taken)
            used += sizes_list[taken]
            if mem_fast:
                mem_used += mem_sizes[taken]
            elif push is not None:
                push(taken)
            slack = cap - used
            if slack < best_slack - tol:
                best_slack = slack
                best_sel = tuple(path)
            if best_slack <= eps_current + tol or steps >= hard_step_cap:
                early = best_slack <= eps_current + tol
                break
            pos_stack.append(pos)
        else:
            if exhausted:
                break
            pos_stack.pop()
            if path:
                last = path.pop()
                used -= sizes_list[last]
                if mem_fast:
                    mem_used -= mem_sizes[last]
                elif pop is not None:
                    pop(last)

    # Unwind constraint state so the object can be reused by the caller.
    if pop is not None:
        while path:
            pop(path.pop())

    return MBSResult(
        selected=best_sel,
        slack=float(best_slack),
        steps=steps,
        epsilon_used=eps_current,
        early_exit=early,
        evaluated=steps,
    )
