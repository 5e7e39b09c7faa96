"""Minimum Bin Slack with a per-step memory check (paper Algorithm 1).

The classic Minimum-Bin-Slack heuristic (Fleszar & Hindi 2002) searches,
depth-first over items sorted by decreasing size, for the subset that
fills one bin as completely as possible.  The paper extends it two ways
(§V), both implemented here:

* "evaluating a more general constraint in each step, instead of
  checking if the total size of the items exceeds the size of the bin" —
  the constraint its evaluation uses is the server's memory, so every
  step here tests the item's size against the free CPU and its memory
  against the free memory;
* an allowed-slack early exit ``epsilon`` plus a step budget that
  *escalates* ``epsilon`` when the search runs long (Algorithm 1 lines
  4-5 and 15-17), bounding worst-case running time.

The search is iterative, so item counts in the thousands cannot hit the
interpreter recursion limit.  Its stack is the selection path itself:
each level of the depth-first search resumes one position after the
item it last took, so backtracking from the item at position ``p``
resumes its level at ``p + 1``.

Prepared once, searched many times
----------------------------------
:func:`minimum_bin_slack` is two parts.  :func:`sort_items` prepares
arbitrary input: the stable sort by decreasing size, the size suffix
sums and the memory suffix minima, as Python lists.  :func:`search_sorted`
is the one search loop; it runs over those lists and checks the scalar
arguments.  A caller that searches the same shrinking list for many
bins (``repro.core.optimizer.minslack.PlacementList``, one PAC call)
keeps the lists itself and calls :func:`search_sorted` directly instead
of re-sorting per bin.

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

Leaves are settled in place
---------------------------
Most takes are *leaves*: after item ``t`` joins, even the smallest
remaining memory (``min_memory[t + 1]``) or the smallest remaining size
(``sizes[n - 1]``) no longer fits, so the level below is one rejection
run from ``t + 1`` to its dominance cut or the end of the list.  The
search does not open that level.  After the improvement and early-exit
checks of the take it accounts for the run on the spot — the same
``steps``, escalations, hard-cap clamp and ``evaluated`` increment the
level would have produced — and backtracks at once: ``used`` becomes
``(used + s_t) - s_t`` exactly as a descend and a backtrack leave it.
The run's end is the first ``r`` with ``used + suffix[r] <=
dominated_at``; it moves little from one leaf to the next, so it is
galloped for from the last leaf's cut (probes 1, 2, 4, ... positions
away, then a bisect of the bracket).  Every probe evaluates the same
monotone expression as the walk, so the cut is exact whatever the
starting point.

Offers nothing fits
-------------------
When even the smallest size or the smallest memory does not fit the
bin, the search selects nothing, and what it reports follows from
*suffix* and the scalar arguments alone: :func:`search_fitting_nothing`
returns it without searching.  A caller that knows no item fits (PAC's
server walk, most of whose servers cannot take any remaining VM) skips
the search and still reports its exact effort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "MBSResult",
    "minimum_bin_slack",
    "sort_items",
    "search_sorted",
    "search_fitting_nothing",
]

_FIT_TOL = 1e-9


def _escalation_defaults(capacity: float, max_steps: int) -> Tuple[float, int]:
    """The search's default ``(epsilon_step, hard_step_cap)``: epsilon
    grows by 5 % of the capacity (1 for an empty bin) every *max_steps*
    steps, and the search stops at ``50 * max_steps`` steps."""
    return (0.05 * capacity if capacity > 0 else 1.0), 50 * max_steps


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
    memory_sizes: Optional[Sequence[float]] = None,
    memory_capacity: float = 0.0,
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
    memory_sizes:
        Optional per-item memory, one finite, non-negative entry per
        item: the selection's total must also fit *memory_capacity*
        (Algorithm 1's generalized per-step check).  None checks CPU
        only.
    memory_capacity:
        The bin's free memory; finite and non-negative.
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
    memory = None
    if memory_sizes is not None:
        # A NaN entry would turn every memory test on it False and
        # silently exclude the item from every selection.
        memory = np.asarray(memory_sizes, dtype=float)
        if memory.shape != sizes.shape:
            raise ValueError(
                f"memory_sizes has shape {memory.shape}, primary_sizes {sizes.shape}"
            )
        if not np.all(np.isfinite(memory)):
            raise ValueError("memory sizes must be finite (got NaN/inf)")
        if np.any(memory < 0):
            raise ValueError("memory sizes must be non-negative")
    order, sorted_sizes, suffix, sorted_memory, min_memory = sort_items(sizes, memory)
    result = search_sorted(
        sorted_sizes,
        suffix,
        capacity,
        memory=sorted_memory,
        min_memory=min_memory,
        memory_capacity=float(memory_capacity),
        epsilon=epsilon,
        max_steps=max_steps,
        epsilon_step=epsilon_step,
        hard_step_cap=hard_step_cap,
    )
    return replace(result, selected=tuple(order[p] for p in result.selected))


def sort_items(
    sizes: np.ndarray, memory: Optional[np.ndarray] = None
) -> Tuple[List[int], List[float], List[float], Optional[List[float]], Optional[List[float]]]:
    """Search order and dominance bounds of validated items.

    Returns ``(order, sizes, suffix, memory, min_memory)`` as Python
    lists (they beat NumPy scalar indexing inside the interpreter-bound
    search).  ``order`` sorts the items by decreasing size, ties in
    index order; ``sizes`` and ``memory`` are the items in that order.
    ``suffix[p]`` is the total size at positions ``>= p``, the best case
    any branch continuing from ``p`` can still add to the bin,
    accumulated sequentially from the smallest item up;
    ``min_memory[p]`` is the smallest memory at positions ``>= p``: once
    even that does not fit, every remaining candidate is rejected.  Both
    end with a sentinel (``0.0`` / ``inf``) at ``p == len(sizes)``.
    ``memory`` and ``min_memory`` are None when *memory* is.  Nothing is
    validated here.
    """
    order = np.argsort(-sizes, kind="stable")
    sorted_arr = sizes[order]
    suffix = np.add.accumulate(sorted_arr[::-1])[::-1].tolist()
    suffix.append(0.0)
    if memory is None:
        return order.tolist(), sorted_arr.tolist(), suffix, None, None
    mem_arr = memory[order]
    min_memory = np.minimum.accumulate(mem_arr[::-1])[::-1].tolist()
    min_memory.append(math.inf)
    return order.tolist(), sorted_arr.tolist(), suffix, mem_arr.tolist(), min_memory


def search_sorted(
    sizes: List[float],
    suffix: List[float],
    capacity: float,
    *,
    memory: Optional[List[float]] = None,
    min_memory: Optional[List[float]] = None,
    memory_capacity: float = 0.0,
    epsilon: float = 0.0,
    max_steps: int = 20000,
    epsilon_step: Optional[float] = None,
    hard_step_cap: Optional[int] = None,
) -> MBSResult:
    """The Minimum-Bin-Slack search over items already in search order.

    *sizes*, *suffix*, *memory* and *min_memory* are what
    :func:`sort_items` returns for finite, non-negative items; the
    caller vouches for them.  With *memory*, every candidate must also
    fit *memory_capacity*; without it, *memory_capacity* is unused.
    ``selected`` are positions in these lists.  The remaining arguments
    are those of :func:`minimum_bin_slack`, checked here.
    """
    if not math.isfinite(capacity):
        raise ValueError(f"capacity must be finite, got {capacity}")
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    # The range checks below are also false for NaN: a NaN epsilon would
    # switch the early exit off, a NaN memory bound every memory test.
    if not 0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    default_step, default_cap = _escalation_defaults(capacity, max_steps)
    if epsilon_step is None:
        epsilon_step = default_step
    elif not 0 <= epsilon_step < math.inf:
        raise ValueError(f"epsilon_step must be finite and >= 0, got {epsilon_step}")
    if not 0 <= memory_capacity < math.inf:
        raise ValueError(
            f"memory_capacity must be finite and >= 0, got {memory_capacity}"
        )
    if hard_step_cap is None:
        hard_step_cap = default_cap
    if capacity <= epsilon + _FIT_TOL:
        # The empty selection already meets the allowed slack.
        return MBSResult((), float(capacity), 0, float(epsilon), True, 0)

    n = len(sizes)
    cap = float(capacity)
    tol = _FIT_TOL
    cap_tol = cap + tol
    check_memory = memory is not None
    if check_memory:
        mem_cap_tol = memory_capacity + tol
        mem_used = 0.0

    smallest = sizes[-1] if n else 0.0
    best_path: Tuple[int, ...] = ()
    best_slack = cap
    # A branch is dominated when used + suffix[pos] <= dominated_at.
    dominated_at = cap - best_slack + tol
    cut = 0  # where the last settled leaf's run ended: the gallop's start
    steps = 0
    # Epsilon escalates each time steps reaches a multiple of max_steps.
    next_escalation = max_steps
    evaluated = 0
    eps_current = float(epsilon)
    early = False
    # Sorted positions of the current selection.  It is also the DFS
    # stack: a level resumes one position after the item it last took.
    path: List[int] = []
    used = 0.0
    pos = 0  # next sorted position to try at the current level
    exhausted = False  # hard step cap reached

    while True:
        taken = -1
        while pos < n:
            if used + suffix[pos] <= dominated_at:
                # Even taking every remaining item cannot strictly beat
                # the incumbent: dominated branch, cut it.
                pos = n
                break
            evaluated += 1
            oversize = used + sizes[pos] > cap_tol
            if oversize or (check_memory and mem_used + memory[pos] > mem_cap_tol):
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
                        if used + sizes[mid] > cap_tol:
                            lo = mid + 1
                        else:
                            hi = mid
                    q = lo
                if check_memory and q < n and mem_used + memory[q] > mem_cap_tol:
                    if mem_used + min_memory[q] > mem_cap_tol:
                        q = n
                    else:
                        # Some later candidate fits: test them in turn.
                        rejected = q
                        q += 1
                        while mem_used + memory[q] > mem_cap_tol:
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
                steps += k
                # One escalation per multiple of max_steps crossed, by
                # repeated addition like the stepwise search.
                while steps >= next_escalation:
                    eps_current += epsilon_step
                    next_escalation += max_steps
                pos = q
                if exhausted or q == n:
                    break
            taken = pos
            pos += 1
            steps += 1
            if steps == next_escalation:
                eps_current += epsilon_step  # escalate (Algorithm 1 line 16)
                next_escalation += max_steps
            break
        if taken >= 0:
            # Descend: the new level starts at pos == taken + 1.
            path.append(taken)
            used += sizes[taken]
            if check_memory:
                mem_used += memory[taken]
            slack = cap - used
            if slack < best_slack - tol:
                best_slack = slack
                best_path = tuple(path)
                dominated_at = cap - best_slack + tol
            if best_slack <= eps_current + tol or steps >= hard_step_cap:
                early = best_slack <= eps_current + tol
                break
            if pos < n:
                if not (
                    (check_memory and mem_used + min_memory[pos] > mem_cap_tol)
                    or used + smallest > cap_tol
                ):
                    continue  # something may still fit: search the new level
                # A leaf: the new level is one rejection run from pos to
                # its dominance cut (or n).  Settle it here, then
                # backtrack as the new level would.
                if used + suffix[pos] > dominated_at:
                    evaluated += 1
                    # Gallop from the last leaf's cut to the first r with
                    # used + suffix[r] <= dominated_at, n when there is
                    # none, then bisect the bracket.
                    lo, hi = pos + 1, n
                    r = cut if cut > lo else lo
                    d = 1
                    if r == n or used + suffix[r] <= dominated_at:
                        hi = r
                        while r - d >= lo:
                            if used + suffix[r - d] > dominated_at:
                                lo = r - d + 1
                                break
                            hi = r - d
                            d <<= 1
                    else:
                        lo = r + 1
                        while r + d < n:
                            if used + suffix[r + d] <= dominated_at:
                                hi = r + d
                                break
                            lo = r + d + 1
                            d <<= 1
                    while lo < hi:
                        mid = (lo + hi) >> 1
                        if used + suffix[mid] <= dominated_at:
                            hi = mid
                        else:
                            lo = mid + 1
                    cut = lo
                    k = lo - pos
                    if steps + k >= hard_step_cap:
                        k = max(hard_step_cap - steps, 1)
                        exhausted = True
                    steps += k
                    while steps >= next_escalation:
                        eps_current += epsilon_step
                        next_escalation += max_steps
                    if exhausted:
                        break
        elif exhausted or not path:
            break
        # Backtrack: the level above resumes after the item it took.
        last = path.pop()
        used -= sizes[last]
        if check_memory:
            mem_used -= memory[last]
        pos = last + 1

    return MBSResult(
        selected=best_path,
        slack=float(best_slack),
        steps=steps,
        epsilon_used=eps_current,
        early_exit=early,
        evaluated=evaluated,
    )


def search_fitting_nothing(
    suffix: List[float],
    capacity: float,
    *,
    epsilon: float = 0.0,
    max_steps: int = 20000,
) -> MBSResult:
    """What :func:`search_sorted` returns when no item fits the bin alone.

    The premise is the caller's: every size exceeds ``capacity +
    _FIT_TOL``, or every memory exceeds ``memory_capacity + _FIT_TOL``
    (the search's own fit tests).  The search then ends at once when the
    empty selection meets *epsilon*; otherwise its first candidate opens
    one rejection run, which ends at the dominance cut: the first
    position ``r >= 1`` with ``suffix[r] <= _FIT_TOL`` (trailing zero
    sizes bring it before ``n``).  The run's steps, their escalations
    and the hard cap are accounted as the search accounts them under its
    default policy, in one evaluated iteration.  *suffix* is what
    :func:`sort_items` returns; the arguments are those
    :func:`search_sorted` checks, not checked here.
    """
    eps = float(epsilon)
    if capacity <= epsilon + _FIT_TOL:
        return MBSResult((), float(capacity), 0, eps, True, 0)
    n = len(suffix) - 1
    if n == 0 or suffix[0] <= _FIT_TOL:
        # Nothing to try, or the first candidate is already dominated.
        return MBSResult((), float(capacity), 0, eps, False, 0)
    lo, hi = 1, n
    while lo < hi:
        mid = (lo + hi) >> 1
        if suffix[mid] <= _FIT_TOL:
            hi = mid
        else:
            lo = mid + 1
    epsilon_step, hard_step_cap = _escalation_defaults(capacity, max_steps)
    steps = min(lo, hard_step_cap)
    for _ in range(steps // max_steps):
        eps += epsilon_step
    return MBSResult((), float(capacity), steps, eps, False, 1)
