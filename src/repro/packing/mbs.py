"""Minimum Bin Slack with a pluggable constraint (paper Algorithm 1).

The classic Minimum-Bin-Slack heuristic (Fleszar & Hindi 2002) searches,
depth-first over items sorted by decreasing size, for the subset that
fills one bin as completely as possible.  The paper extends it two ways
(§V), both implemented here:

* "evaluating a more general constraint in each step, instead of
  checking if the total size of the items exceeds the size of the bin" —
  the :class:`PackingConstraint` hook (e.g. a server memory limit);
* an allowed-slack early exit ``epsilon`` plus a step budget that
  *escalates* ``epsilon`` when the search runs long (Algorithm 1 lines
  4-5 and 15-17), bounding worst-case running time.

The search is iterative (explicit stack), so item counts in the
thousands cannot hit the interpreter recursion limit.

Dominance bound
---------------
With items visited in decreasing-size order, the suffix sum of the
remaining sizes is an upper bound on how much more a branch can ever
add to the bin.  A branch whose best-case fill cannot *strictly* beat
the incumbent is cut.  Because the incumbent only ever updates on
strict improvements, the bound preserves the exact sequence of
incumbent updates of the exhaustive search — only the step count (and
therefore epsilon-escalation timing on searches that exceed
``max_steps``) differs.

Steps are accounted, not walked
-------------------------------
A *step* is one candidate the stepwise search evaluates: it is what
``max_steps`` escalation, ``hard_step_cap`` and :attr:`MBSResult.steps`
are defined on.  Most steps are rejections in long runs — once the
bin's memory is full, or the residual capacity is smaller than the next
few hundred items, every following candidate fails the same test until
the dominance bound or the end of the list.  Those runs are not walked.
The three tests involved are monotone along the sorted order (sizes
descend, suffix sums descend, and ``x + a <= x + b`` whenever
``a <= b`` in IEEE arithmetic), so the end of a run is found by
bisecting *the stepwise expression itself*; memory, which is not
sorted, uses the suffix minimum: when even the smallest remaining
memory does not fit, nothing left does (while something still fits, the
candidates up to it are tested in turn).  The run's length
is then added to ``steps`` in one go, with one epsilon escalation per
multiple of ``max_steps`` crossed (added one at a time, as the walk
would) and the hard cap landing exactly where the walk would stop.
Selections, slack, step counts and escalated epsilon are therefore
those of the stepwise search bit for bit —
``tests/oracles/mbs_reference.py`` keeps that search, and
``tests/test_packing.py`` compares the two on random instances.
:attr:`MBSResult.evaluated` reports the iterations actually executed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["PackingConstraint", "MemoryConstraint", "CompositeConstraint", "MBSResult", "minimum_bin_slack"]

_FIT_TOL = 1e-9


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


class CompositeConstraint(PackingConstraint):
    """Conjunction of several constraints.

    ``accepts`` short-circuits: once one member rejects, later members
    are **not** queried.  This is safe precisely because the protocol
    (see :class:`PackingConstraint`) requires ``accepts`` to be a pure
    query — a member that mutated state in ``accepts`` would desync from
    its peers whenever an earlier member rejected.  ``push``/``pop`` are
    always delivered to *every* member (push in order, pop in reverse),
    keeping all members' running state consistent.
    """

    def __init__(self, constraints: Sequence[PackingConstraint]):
        self.constraints = list(constraints)

    def accepts(self, idx: int) -> bool:
        return all(c.accepts(idx) for c in self.constraints)

    def push(self, idx: int) -> None:
        for c in self.constraints:
            c.push(idx)

    def pop(self, idx: int) -> None:
        for c in reversed(self.constraints):
            c.pop(idx)


@dataclass(frozen=True)
class MBSResult:
    """Outcome of a Minimum-Bin-Slack search.

    ``selected`` are indices into the caller's item list (best subset
    found); ``slack`` is the unfilled primary capacity it leaves;
    ``steps`` is the search effort as the stepwise search counts it (one
    per candidate evaluated, jumped or not — what escalation and the
    hard cap are defined on); ``epsilon_used`` is the allowed slack
    after any escalations; ``early_exit`` reports whether the epsilon
    threshold (rather than exhaustion of the search space or the hard
    step cap) ended the run; ``evaluated`` is the number of loop
    iterations actually executed to account for ``steps`` — equal to it
    when nothing is rejected, far below it when rejection runs are
    jumped.
    """

    selected: Tuple[int, ...]
    slack: float
    steps: int
    epsilon_used: float
    early_exit: bool
    evaluated: int


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
        Item sizes in the bin's primary dimension (CPU demand, GHz);
        finite and non-negative.
    capacity:
        The bin's free primary capacity; finite and non-negative.
    constraint:
        Optional additional feasibility (e.g. memory) — Algorithm 1's
        generalized per-step check.
    epsilon:
        Allowed slack: the search stops as soon as a selection leaves
        at most this much capacity unused (Algorithm 1 lines 4-5).
    max_steps:
        Steps between epsilon escalations (lines 15-17).  Steps are
        counted as the stepwise search counts them: one per candidate
        it would evaluate, whether this implementation evaluates the
        candidate or jumps over it inside a rejected run.
    epsilon_step:
        Escalation increment; defaults to 5% of ``capacity``.
    hard_step_cap:
        Absolute step bound (defaults to ``50 * max_steps``); the search
        accounts for **at most exactly this many** steps — a jump that
        would cross the cap stops on it.
    """
    sizes = np.asarray(primary_sizes, dtype=float)
    if sizes.ndim != 1:
        raise ValueError(f"primary_sizes must be 1-D, got shape {sizes.shape}")
    if not np.all(np.isfinite(sizes)):
        raise ValueError("primary sizes must be finite (got NaN/inf)")
    if np.any(sizes < 0):
        raise ValueError("primary sizes must be non-negative")
    if not math.isfinite(capacity):
        raise ValueError(f"capacity must be finite, got {capacity}")
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
        return MBSResult((), float(capacity), 0, float(epsilon), True, 0)

    # Sort once (stable: ties keep index order); the DFS works in sorted
    # positions throughout and maps back through ``order`` only at the
    # constraint hooks and in the result.  Set-up is NumPy, then one
    # ``tolist`` each: Python lists beat NumPy scalar indexing inside the
    # interpreter-bound loop.
    order_arr = np.argsort(-sizes, kind="stable")
    sorted_arr = sizes[order_arr]
    order = order_arr.tolist()
    sorted_sizes = sorted_arr.tolist()
    # suffix[pos] = total size of items at positions >= pos: the best
    # case any branch continuing from pos can still add to the bin
    # (accumulated sequentially, smallest first).
    suffix = np.add.accumulate(sorted_arr[::-1])[::-1].tolist()
    suffix.append(0.0)

    cap = float(capacity)
    tol = _FIT_TOL
    cap_tol = cap + tol
    # A plain MemoryConstraint (the overwhelmingly common case) is
    # inlined: its accept test and running total become local float
    # arithmetic, which is also what lets memory rejections be jumped.
    # Because the search keeps push/pop balanced, never touching the
    # object at all is observationally identical.  Subclasses
    # (overridden hooks) and composites take the generic protocol path.
    mem_fast = type(constraint) is MemoryConstraint
    accepts = push = pop = None
    if mem_fast:
        mem_arr = constraint.sizes[order_arr]
        sorted_mem = mem_arr.tolist()
        # min_mem[pos] = smallest memory at positions >= pos: once even
        # that does not fit, every remaining candidate is rejected.
        min_mem = np.minimum.accumulate(mem_arr[::-1])[::-1].tolist()
        mem_cap_tol = constraint.capacity + tol
        mem_used = constraint.used
    elif constraint is not None:
        accepts, push, pop = constraint.accepts, constraint.push, constraint.pop

    best_path: Tuple[int, ...] = ()
    best_slack = cap
    # A branch is dominated when used + suffix[pos] <= dominated_at.
    dominated_at = cap - best_slack + tol
    steps = 0
    evaluated = 0
    eps_current = float(epsilon)
    early = False
    path: List[int] = []  # sorted positions of the current selection
    used = 0.0
    # pos_stack[d] = next sorted position to try at depth d.
    pos_stack: List[int] = [0]
    exhausted = False  # hard step cap reached

    while pos_stack:
        pos = pos_stack[-1]
        taken = -1
        while pos < n:
            if used + suffix[pos] <= dominated_at:
                # Even taking every remaining item cannot strictly beat
                # the incumbent: dominated branch, cut it.
                pos = n
                break
            evaluated += 1
            oversize = used + sorted_sizes[pos] > cap_tol
            if oversize or (mem_fast and mem_used + sorted_mem[pos] > mem_cap_tol):
                # Positions [pos, q) are a run the stepwise search
                # rejects one step at a time; q is the first candidate
                # that fits.  Sizes are sorted and float addition is
                # monotone, so each bisect evaluates the stepwise test
                # itself and is exact.
                q = pos
                if oversize:
                    lo, hi = pos + 1, n
                    while lo < hi:
                        mid = (lo + hi) >> 1
                        if used + sorted_sizes[mid] > cap_tol:
                            lo = mid + 1
                        else:
                            hi = mid
                    q = lo
                if mem_fast and q < n and mem_used + sorted_mem[q] > mem_cap_tol:
                    if mem_used + min_mem[q] > mem_cap_tol:
                        q = n
                    else:
                        # Some later candidate fits: test them in turn.
                        rejected = q
                        q += 1
                        while mem_used + sorted_mem[q] > mem_cap_tol:
                            q += 1
                        evaluated += q - rejected
                run_end = q
                if used + suffix[q] <= dominated_at:
                    # The dominance cut fires inside the run.
                    lo, hi = pos + 1, q
                    while lo < hi:
                        mid = (lo + hi) >> 1
                        if used + suffix[mid] <= dominated_at:
                            hi = mid
                        else:
                            lo = mid + 1
                    run_end = lo
                    q = n
                k = run_end - pos
                if steps + k >= hard_step_cap:
                    k = max(hard_step_cap - steps, 1)
                    exhausted = True
                # One escalation per multiple of max_steps crossed, by
                # repeated addition like the stepwise search.
                for _ in range((steps + k) // max_steps - steps // max_steps):
                    eps_current += epsilon_step
                steps += k
                pos = q
                if exhausted or q == n:
                    break
            pos += 1
            steps += 1
            if steps % max_steps == 0:
                eps_current += epsilon_step  # escalate (Algorithm 1 line 16)
            if accepts is not None and not accepts(order[pos - 1]):
                if steps >= hard_step_cap:
                    exhausted = True
                    break
                continue
            taken = pos - 1
            break
        pos_stack[-1] = pos
        if taken >= 0:
            path.append(taken)
            used += sorted_sizes[taken]
            if mem_fast:
                mem_used += sorted_mem[taken]
            elif push is not None:
                push(order[taken])
            slack = cap - used
            if slack < best_slack - tol:
                best_slack = slack
                best_path = tuple(path)
                dominated_at = cap - best_slack + tol
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
                used -= sorted_sizes[last]
                if mem_fast:
                    mem_used -= sorted_mem[last]
                elif pop is not None:
                    pop(order[last])

    # Unwind constraint state so the object can be reused by the caller.
    if pop is not None:
        while path:
            pop(order[path.pop()])

    return MBSResult(
        selected=tuple(order[p] for p in best_path),
        slack=float(best_slack),
        steps=steps,
        epsilon_used=eps_current,
        early_exit=early,
        evaluated=evaluated,
    )

